"""Complex polynomials in one and two variables, and finite Blaschke products.

Coefficient conventions:
  * ``Poly1.coeffs[k]`` multiplies ``z**k`` (ascending degree).
  * ``Poly2.coeffs[i, j]`` multiplies ``z**i * w**j`` (row = z-degree,
    column = w-degree).
"""

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import PoleHit, SingularInterpolation, ZeroPolynomial
from .tolerances import DEFAULT

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

    @property
    def scale(self):
        return float(np.max(np.abs(self.coeffs)))

    def is_zero(self):
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    def __call__(self, z):
        return npoly.polyval(z, self.coeffs)

    def deriv(self, order=1):
        return Poly1(npoly.polyder(self.coeffs, m=order))

    def __add__(self, other):
        other = other if isinstance(other, Poly1) else Poly1([other])
        return Poly1(npoly.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        other = other if isinstance(other, Poly1) else Poly1([other])
        return Poly1(npoly.polysub(self.coeffs, other.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly1):
            return Poly1(npoly.polymul(self.coeffs, other.coeffs))
        return Poly1(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Poly1({list(self.coeffs)})"

    @staticmethod
    def from_roots(rts, leading=1.0):
        c = npoly.polyfromroots(rts) if len(rts) else np.ones(1, dtype=complex)
        return Poly1(np.asarray(c, dtype=complex) * complex(leading))

    @staticmethod
    def identity():
        return Poly1([0.0, 1.0])


def roots(p, tol_root=None):
    """Roots of ``p`` via companion-matrix eigenvalues.

    The returned multiset has exactly ``p.degree`` elements and each root
    ``r`` satisfies ``|p(r)| <= tol_root * scale``.
    """
    tol_root = DEFAULT.tol_root if tol_root is None else tol_root
    if not isinstance(p, Poly1):
        p = Poly1(p)
    if p.is_zero():
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    if p.degree == 0:
        return []
    rts = npoly.polyroots(p.coeffs)
    scale = p.scale * max(1.0, float(np.max(np.abs(rts))) ** p.degree)
    bad = [r for r in rts if abs(p(r)) > tol_root * scale]
    if bad:
        raise ZeroPolynomial(
            f"root residual {max(abs(p(r)) for r in bad):.3e} exceeds "
            f"{tol_root:.1e} * {scale:.3e}"
        )
    return [complex(r) for r in rts]


def _trim2(c):
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return np.zeros((1, 1), dtype=complex)
    rows = np.max(np.abs(c), axis=1) > _TRIM_REL * scale
    cols = np.max(np.abs(c), axis=0) > _TRIM_REL * scale
    ilast = int(np.max(np.nonzero(rows)[0]))
    jlast = int(np.max(np.nonzero(cols)[0]))
    return c[: ilast + 1, : jlast + 1].copy()


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

    def is_zero(self):
        return self.coeffs.shape == (1, 1) and self.coeffs[0, 0] == 0.0

    def __call__(self, z, w):
        return npoly.polyval2d(z, w, self.coeffs)

    def dz(self):
        c = self.coeffs
        if c.shape[0] == 1:
            return Poly2([[0.0]])
        return Poly2(c[1:, :] * np.arange(1, c.shape[0])[:, None])

    def dw(self):
        c = self.coeffs
        if c.shape[1] == 1:
            return Poly2([[0.0]])
        return Poly2(c[:, 1:] * np.arange(1, c.shape[1])[None, :])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = (max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1]))
        out = np.zeros(n, dtype=complex)
        out[: a.shape[0], : a.shape[1]] += a
        out[: b.shape[0], : b.shape[1]] += b
        return Poly2(out)

    def __sub__(self, other):
        return self + Poly2(-other.coeffs)

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

    @staticmethod
    def monomial(i, j, c=1.0):
        out = np.zeros((i + 1, j + 1), dtype=complex)
        out[i, j] = c
        return Poly2(out)


def eval2(p, z, w):
    """Bivariate Horner evaluation of ``p`` at ``(z, w)``."""
    return complex(p(complex(z), complex(w)))


def normalize_unit(p, rel=1e-8):
    """Canonical representative of ``p`` modulo a nonzero scalar factor.

    Among the coefficients within ``rel`` of the maximal modulus, the first in
    lexicographic (z-deg, w-deg) order is rotated to the positive real axis
    and the whole polynomial is scaled so that its modulus becomes 1.
    """
    if isinstance(p, Poly1):
        q = normalize_unit(Poly2.from_poly1_in_z(p), rel)
        return Poly1(q.coeffs[:, 0])
    c = p.coeffs
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return p
    anchors = np.argwhere(np.abs(c) >= (1.0 - rel) * scale)
    i, j = min((int(a), int(b)) for a, b in anchors)
    return Poly2(c / c[i, j])


def unit_distance(p, q, rel=1e-8):
    """Coefficient distance between unit-normalized representatives."""
    a = normalize_unit(p, rel).coeffs
    b = normalize_unit(q, rel).coeffs
    n = (max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1]))
    pa = np.zeros(n, dtype=complex)
    pb = np.zeros(n, dtype=complex)
    pa[: a.shape[0], : a.shape[1]] = a
    pb[: b.shape[0], : b.shape[1]] = b
    return float(np.max(np.abs(pa - pb)))


def interpolation_nodes(degz, degw, rz=0.9, rw=1.1):
    """Tensor nodes for determinant interpolation: scaled roots of unity."""
    z = rz * np.exp(2j * np.pi * np.arange(degz + 1) / (degz + 1))
    w = rw * np.exp(2j * np.pi * np.arange(degw + 1) / (degw + 1))
    return z, w


def fit_tensor_nodes(z_nodes, w_nodes, values, tol_fit=None):
    """Fit a Poly2 to samples ``values[i, j]`` at ``(z_nodes[i], w_nodes[j])``.

    Both Vandermonde systems are solved by QR least squares.  Returns the
    polynomial together with the maximal relative residual on the grid.
    """
    tol_fit = DEFAULT.tol_fit if tol_fit is None else tol_fit
    z_nodes = np.asarray(z_nodes, dtype=complex).ravel()
    w_nodes = np.asarray(w_nodes, dtype=complex).ravel()
    values = np.asarray(values, dtype=complex)
    for nodes in (z_nodes, w_nodes):
        if nodes.size > 1:
            d = np.abs(nodes[:, None] - nodes[None, :])
            np.fill_diagonal(d, np.inf)
            if d.min() < 1e-12:
                raise SingularInterpolation("coincident interpolation nodes")
    if values.shape != (z_nodes.size, w_nodes.size):
        raise SingularInterpolation(
            f"value grid {values.shape} does not match node counts "
            f"({z_nodes.size}, {w_nodes.size})"
        )
    vz = np.vander(z_nodes, increasing=True)
    vw = np.vander(w_nodes, increasing=True)
    half = np.linalg.lstsq(vz, values, rcond=None)[0]
    coeffs = np.linalg.lstsq(vw, half.T, rcond=None)[0].T
    fitted = vz @ coeffs @ vw.T
    scale = max(np.max(np.abs(values)), 1e-300)
    residual = float(np.max(np.abs(fitted - values)) / scale)
    if residual > tol_fit:
        raise SingularInterpolation(
            f"interpolation residual {residual:.3e} exceeds {tol_fit:.1e}"
        )
    return Poly2(coeffs), residual


def fit_tensor_grid(samples, degz, degw, tol_fit=None):
    """Fit a Poly2 of bidegree (degz, degw) through a tensor grid of samples.

    ``samples`` maps (z, w) points to complex values; the keys must form a
    tensor product of ``degz + 1`` distinct z-nodes and ``degw + 1`` distinct
    w-nodes.
    """
    zs = sorted({z for z, _ in samples}, key=lambda t: (t.real, t.imag))
    ws = sorted({w for _, w in samples}, key=lambda t: (t.real, t.imag))
    if len(zs) != degz + 1 or len(ws) != degw + 1:
        raise SingularInterpolation(
            f"expected ({degz + 1} x {degw + 1}) tensor grid, "
            f"got {len(zs)} x {len(ws)} distinct nodes"
        )
    values = np.empty((len(zs), len(ws)), dtype=complex)
    for i, z in enumerate(zs):
        for j, w in enumerate(ws):
            if (z, w) not in samples:
                raise SingularInterpolation("sample grid is not a tensor product")
            values[i, j] = samples[(z, w)]
    p, _ = fit_tensor_nodes(zs, ws, values, tol_fit=tol_fit)
    return p


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
            if abs(a) >= 1.0:
                raise ValueError(f"Blaschke zero {a} is not in the open disc")
            zs.append((a, m))
        c = complex(constant)
        if abs(abs(c) - 1.0) > 1e-12:
            raise ValueError("constant must be unimodular")
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
        p = Poly1([self.constant])
        for a, m in self.zeros:
            for _ in range(m):
                p = p * Poly1([a, -1.0])
        return p

    def derivative_at(self, z, order):
        """Jet (value, f', f'', ...) of the product at an interior point."""
        return _jet_derivs(_blaschke_taylor_jet(self, complex(z), order + 1))

    def __repr__(self):
        return f"BlaschkeProduct(zeros={list(self.zeros)}, constant={self.constant})"


def blaschke_eval(b, z, tol=1e-12):
    """Evaluate a Blaschke product; raises PoleHit at 1/conj(a) collisions."""
    z = complex(z)
    out = b.constant
    for a, m in b.zeros:
        den = 1.0 - np.conj(a) * z
        if abs(den) < tol:
            raise PoleHit(f"pole of factor with zero {a} at z = {z}")
        out *= ((a - z) / den) ** m
    return complex(out)


def _factor_taylor(a, z0, n):
    """Taylor coefficients of (a-z)/(1-conj(a)z) around z0, length n."""
    den = 1.0 - np.conj(a) * z0
    if abs(den) < 1e-14:
        raise PoleHit(f"pole of factor with zero {a} at z = {z0}")
    out = np.zeros(n, dtype=complex)
    out[0] = (a - z0) / den
    # k-th derivative: (|a|^2 - 1) * k! * conj(a)^(k-1) / (1 - conj(a) z)^(k+1)
    for k in range(1, n):
        out[k] = (abs(a) ** 2 - 1.0) * np.conj(a) ** (k - 1) / den ** (k + 1)
    return out


def _blaschke_taylor_jet(b, z0, n):
    jet = np.zeros(n, dtype=complex)
    jet[0] = b.constant
    for a, m in b.zeros:
        f = _factor_taylor(a, z0, n)
        for _ in range(m):
            jet = np.convolve(jet, f)[:n]
    return jet


def _jet_derivs(taylor):
    fact = 1.0
    out = []
    for k, c in enumerate(taylor):
        if k > 0:
            fact *= k
        out.append(complex(c * fact))
    return out


def has_simple_roots(b, sep):
    """True iff all multiplicities are 1 and pairwise zero distances exceed sep."""
    if sep <= 0:
        raise ValueError("sep must be positive")
    if any(m != 1 for _, m in b.zeros):
        return False
    pts = [a for a, _ in b.zeros]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) <= sep:
                return False
    return True
