"""Complex polynomials in one and two variables, and finite Blaschke products.

Coefficient conventions:
  * ``Poly1.coeffs[k]`` multiplies ``z**k`` (ascending degree).
  * ``Poly2.coeffs[i, j]`` multiplies ``z**i * w**j`` (row = z-degree,
    column = w-degree).
"""

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import PoleHit

_TRIM_REL = 1e-14


def _trim1(c):
    c = np.atleast_1d(np.asarray(c, dtype=complex)).ravel()
    if c.size == 0:
        return np.zeros(1, dtype=complex)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    k = c.size - 1
    while k > 0 and abs(c[k]) <= _TRIM_REL * scale:
        k -= 1
    return c[: k + 1].copy()


class Poly1:
    """Univariate complex polynomial with ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = _trim1(coeffs)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("Poly1 is immutable")

    @property
    def degree(self):
        return self.coeffs.size - 1

    def __call__(self, z):
        return npoly.polyval(z, self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Poly1):
            return Poly1(npoly.polymul(self.coeffs, other.coeffs))
        return Poly1(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Poly1({list(self.coeffs)})"

    @staticmethod
    def identity():
        return Poly1([0.0, 1.0])


def _trim2(c):
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    mag = np.abs(c)
    scale = mag.max() if c.size else 0.0
    if scale == 0.0:
        return np.zeros((1, 1), dtype=complex)
    # the last row and column holding a coefficient above the cut
    rows, cols = np.nonzero(mag > _TRIM_REL * scale)
    return c[: rows.max() + 1, : cols.max() + 1].copy()


class Poly2:
    """Bivariate complex polynomial with coefficient matrix indexed (z-deg, w-deg)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = _trim2(coeffs)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    @property
    def bidegree(self):
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    @property
    def scale(self):
        return float(np.max(np.abs(self.coeffs)))

    def __call__(self, z, w):
        """Value at the points (z, w), the one-polynomial case of ``values_at``."""
        return values_at([self], z, w)[0]

    # a derivative that removes every coefficient trims to the zero polynomial
    def dz(self):
        c = self.coeffs
        return Poly2(c[1:, :] * np.arange(1, c.shape[0])[:, None])

    def dw(self):
        c = self.coeffs
        return Poly2(c[:, 1:] * np.arange(1, c.shape[1])[None, :])

    def __add__(self, other):
        return Poly2(coefficient_rows([self, other]).sum(axis=0))

    def __mul__(self, other):
        if isinstance(other, Poly2):
            a, b = self.coeffs, other.coeffs
            out = np.zeros(
                (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                dtype=complex,
            )
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    if a[i, j] != 0.0:
                        out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
            return Poly2(out)
        return Poly2(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Poly2(bidegree={self.bidegree})"

    @staticmethod
    def from_poly1_in_z(p):
        return Poly2(np.asarray(p.coeffs, dtype=complex).reshape(-1, 1))

    @staticmethod
    def from_poly1_in_w(p):
        return Poly2(np.asarray(p.coeffs, dtype=complex).reshape(1, -1))


def coefficient_rows(polys, box=None):
    """The coefficient arrays of a family zero-padded to one (a, b) box, by
    default the smallest that holds them all, as a (K, a, b) array."""
    cs = [p.coeffs for p in polys]
    box = box or (max(c.shape[0] for c in cs), max(c.shape[1] for c in cs))
    out = np.zeros((len(cs), *box), dtype=complex)
    for k, c in enumerate(cs):
        out[k, : c.shape[0], : c.shape[1]] = c
    return out


def _powers(x, k, one, mul):
    out = np.empty((k, *one.shape), dtype=complex)
    out[0] = one
    for i in range(1, k):
        out[i] = mul(out[i - 1], x)
    return out


def monomial_table(x, y, a, b, one, mul):
    """x^i y^j for i < a and j < b, as an (a, b, *one.shape) array: a + b
    running powers, then one stacked product.  Points take ``one`` = ones
    and ``mul`` = np.multiply, commuting matrices the identity and
    np.matmul."""
    return mul(_powers(x, a, one, mul)[:, None], _powers(y, b, one, mul)[None, :])


def family_values(rows, table):
    """Values of the family with (K, a, b) coefficient rows, from the (a, b, ...)
    monomial table of its evaluation target: one (K, ab) by (ab, m) product."""
    k, a, b = rows.shape
    return (rows.reshape(k, a * b) @ table.reshape(a * b, -1)).reshape(k, *table.shape[2:])


def values_at(polys, z, w):
    """Values of a family at the points (z, w), a (K, *points) array: its
    coefficient rows times the table of z^i w^j.  At points of the closed
    bidisc each table entry is a product of at most a + b factors of modulus
    at most 1, so a value is within 3 (a + b + ab) u sum|c_ij| of the exact
    one, u = 2^-53, to first order in u."""
    z, w = np.asarray(z), np.asarray(w)
    rows = coefficient_rows(polys)
    ones = np.ones(np.broadcast(z, w).shape)
    return family_values(rows, monomial_table(z, w, *rows.shape[1:], ones, np.multiply))


def normalize_unit(p):
    """Canonical representative of ``p`` modulo a nonzero scalar factor.

    Among the coefficients within 1e-8 relative of the maximal modulus, the
    first in lexicographic (z-deg, w-deg) order is rotated to the positive
    real axis and the whole polynomial is scaled so that its modulus becomes 1.
    """
    if isinstance(p, Poly1):
        q = normalize_unit(Poly2.from_poly1_in_z(p))
        return Poly1(q.coeffs[:, 0])
    c = p.coeffs
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return p
    anchors = np.argwhere(np.abs(c) >= (1.0 - 1e-8) * scale)
    i, j = min((int(a), int(b)) for a, b in anchors)
    return Poly2(c / c[i, j])


def unit_distance(p, q):
    """Coefficient distance between unit-normalized representatives."""
    pa, pb = coefficient_rows([normalize_unit(p), normalize_unit(q)])
    return float(np.max(np.abs(pa - pb)))


def interpolation_nodes(degz, degw):
    """Tensor nodes of the 2-D DFT of ``fit_tensor_nodes``: the (degz + 1)-th
    roots of unity in z and the (degw + 1)-th in w."""
    z = np.exp(2j * np.pi * np.arange(degz + 1) / (degz + 1))
    w = np.exp(2j * np.pi * np.arange(degw + 1) / (degw + 1))
    return z, w


def fit_tensor_nodes(values):
    """The Poly2 of bidegree at most (a - 1, b - 1) that takes ``values[i, j]``
    at the nodes ``interpolation_nodes(a - 1, b - 1)``, for an (a, b) grid.

    On roots of unity the interpolation is the 2-D DFT, c = fft2(values) / ab,
    and fft2 / sqrt(ab) is unitary, so the 2-norm of a coefficient error is
    that of the value error over sqrt(ab): if each value is within e of the
    exact polynomial's, each coefficient is within e of the exact one.  The
    transform adds its own rounding, of order log2(ab) u times the root mean
    square of the values, u = 2^-53 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, section 24.1).
    """
    values = np.asarray(values, dtype=complex)
    return Poly2(np.fft.fft2(values) / values.size)


class BlaschkeProduct:
    """Finite Blaschke product: unimodular constant times factors (a-z)/(1-conj(a)z)."""

    __slots__ = ("zeros", "constant")

    def __init__(self, zeros, constant=1.0):
        zs = []
        for a, m in zeros:
            a = complex(a)
            m = int(m)
            if m < 1:
                raise ValueError("multiplicity must be >= 1")
            # written so that a NaN zero fails the test too
            if not abs(a) < 1.0:
                raise ValueError(f"Blaschke zero {a} is not in the open disc")
            zs.append((a, m))
        c = complex(constant)
        if not abs(abs(c) - 1.0) <= 1e-12:
            raise ValueError(f"constant {c} must be unimodular")
        object.__setattr__(self, "zeros", tuple(zs))
        object.__setattr__(self, "constant", c)

    def __setattr__(self, name, value):
        raise AttributeError("BlaschkeProduct is immutable")

    @property
    def degree(self):
        return sum(m for _, m in self.zeros)

    def zero_list(self):
        """Zeros repeated according to multiplicity."""
        return [a for a, m in self.zeros for _ in range(m)]

    def __call__(self, z):
        return blaschke_eval(self, z)

    def numerator(self):
        """Polynomial with the same zeros and multiplicities, product of (a - z)."""
        c = np.array([self.constant])
        for a in self.zero_list():
            c = np.convolve(c, np.array([a, -1.0]))
        return Poly1(c)

    def __repr__(self):
        return f"BlaschkeProduct(zeros={list(self.zeros)}, constant={self.constant})"


def blaschke_eval(b, z):
    """Evaluate a Blaschke product at a point, or at each point of an array;
    raises PoleHit at 1/conj(a) collisions."""
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, b.constant)
    for a, m in b.zeros:
        den = 1.0 - np.conj(a) * z
        hit = np.abs(den) < 1e-12
        if hit.any():
            raise PoleHit(f"pole of factor with zero {a} at z = {z[hit][0]}")
        out = out * ((a - z) / den) ** m
    return out if out.ndim else complex(out)


def has_simple_roots(b, sep):
    """True iff all multiplicities are 1 and pairwise zero distances exceed sep."""
    if any(m != 1 for _, m in b.zeros):
        return False
    pts = [a for a, _ in b.zeros]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) <= sep:
                return False
    return True
