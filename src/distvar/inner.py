"""Rational matrix-valued inner functions on the disc and their varieties.

Three interchangeable representations are supported:

  * colligation:  Psi(z) = D + z C (I - zA)^{-1} B  with [[A,B],[C,D]] unitary,
  * bp_product:   ordered elementary factors U ((I-P) + b_a(z) P),
  * polynomial:   Psi(z) = sum_k coeffs[k] z^k with matrix coefficients.

Each representation has one evaluation path, ``eval_psi_grid``, which takes
a whole grid of points, and one matrix functional calculus, ``psi_of_matrix``,
which gives Psi(S) = sum_k kron(S^k, Psi_k) in closed form; the model
operators of the co-extension are built from it.  ``taylor_at`` returns
Taylor coefficients (never derivatives) around an interior point; no
certification step reads them.

The zero set {det(Psi(z) - wI) = 0} is produced as an honest bivariate
polynomial by sampling the determinant of the linear pencil
[[I - zA, zB], [-C, D - wI]] (or a denominator-cleared determinant) on a
tensor grid and interpolating.
"""

from math import comb

import numpy as np

from .errors import (
    NotPureRealization,
    NotUnitaryColligation,
    ResolventSingular,
    SpuriousFactorInDisc,
    TruncationNotConverged,
)
from .poly import (
    BlaschkeProduct,
    Poly2,
    _factor_taylor,
    fit_tensor_nodes,
    interpolation_nodes,
    normalize_unit,
)
from .report import FAIL, PASS, CertEntry
from .tolerances import DEFAULT

COLLIGATION = "colligation"
BP_PRODUCT = "bp_product"
POLYNOMIAL = "polynomial"

# grid points up to this far outside the closed disc still evaluate
DISC_SLACK = 1e-9


def _as_matrix(m, shape=None):
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1 and a.size == 0:
        a = a.reshape(0, 0)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    return a


def unitarity_defect(u):
    """||U* U - I||_2 of one matrix, or of each matrix of a stack."""
    gram = np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])
    return np.linalg.norm(gram, 2, axis=(-2, -1))


class BPFactor:
    """Elementary factor U ((I - P) + b_a(z) P) with b_a(z) = (a-z)/(1-conj(a)z)."""

    __slots__ = ("zero", "projection", "unitary")

    def __init__(self, zero, projection, unitary, tol=DEFAULT):
        zero = complex(zero)
        if abs(zero) >= 1.0:
            raise ValueError(f"factor zero {zero} is not in the open disc")
        p = _as_matrix(projection)
        u = _as_matrix(unitary, p.shape)
        if np.linalg.norm(p - p.conj().T, 2) > tol.tol_unitary:
            raise ValueError("projection is not Hermitian")
        if np.linalg.norm(p @ p - p, 2) > tol.tol_unitary:
            raise ValueError("projection is not idempotent")
        if unitarity_defect(u) > tol.tol_unitary:
            raise ValueError("factor unitary fails the unitarity test")
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "projection", p)
        object.__setattr__(self, "unitary", u)

    def __setattr__(self, name, value):
        raise AttributeError("BPFactor is immutable")

    @property
    def rank(self):
        return int(round(float(np.trace(self.projection).real)))

    def taylor(self, z0, n):
        """First n Taylor coefficient matrices around z0."""
        d = self.projection.shape[0]
        bj = _factor_taylor(self.zero, z0, n)
        out = np.zeros((n, d, d), dtype=complex)
        out[0] = self.unitary @ (np.eye(d) - self.projection + bj[0] * self.projection)
        for k in range(1, n):
            out[k] = bj[k] * (self.unitary @ self.projection)
        return out


class MatrixInnerFunction:
    """Rational d x d inner function with a constructively verified representation."""

    __slots__ = ("kind", "d", "data", "boundary_defect", "realization_radius")

    def __init__(self, kind, d, data, boundary_defect, realization_radius):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "boundary_defect", float(boundary_defect))
        object.__setattr__(self, "realization_radius", float(realization_radius))

    def __setattr__(self, name, value):
        raise AttributeError("MatrixInnerFunction is immutable")

    def __call__(self, z):
        return eval_psi(self, z)

    def __repr__(self):
        return f"MatrixInnerFunction(kind={self.kind!r}, d={self.d})"


def from_colligation(A, B, C, D, tol=DEFAULT, boundary_n=512):
    """Build the transfer function of a unitary colligation.

    Checks that [[A, B], [C, D]] is unitary within ``tol.tol_unitary``, that
    the state matrix has spectral radius strictly below 1, and records the
    boundary unitarity defect on a uniform grid of ``boundary_n`` circle points.
    """
    A = _as_matrix(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    B = _as_matrix(B) if n else np.zeros((0, _as_matrix(D).shape[0]), dtype=complex)
    C = _as_matrix(C) if n else np.zeros((_as_matrix(D).shape[0], 0), dtype=complex)
    D = _as_matrix(D)
    d = D.shape[0]
    if D.shape != (d, d) or B.shape != (n, d) or C.shape != (d, n):
        raise ValueError("inconsistent colligation block sizes")
    block = np.block([[A, B], [C, D]])
    defect = unitarity_defect(block)
    if defect > tol.tol_unitary:
        raise NotUnitaryColligation(
            f"colligation unitarity defect {defect:.3e} exceeds {tol.tol_unitary:.1e}"
        )
    radius = float(np.max(np.abs(np.linalg.eigvals(A)))) if n else 0.0
    if radius >= 1.0 - 1e-9:
        raise NotPureRealization(
            f"state spectral radius {radius:.12f} is not strictly inside the disc"
        )
    psi = MatrixInnerFunction(
        COLLIGATION, d, {"A": A, "B": B, "C": C, "D": D}, 0.0, radius
    )
    bdef = boundary_unitarity_defect(psi, boundary_n)
    return MatrixInnerFunction(COLLIGATION, d, psi.data, bdef, radius)


def from_bp_factors(factors, leading=None, tol=DEFAULT, boundary_n=512):
    """Build a Blaschke-Potapov product; ``leading`` is an optional constant unitary."""
    factors = list(factors)
    if not factors and leading is None:
        raise ValueError("empty product; pass a constant via from_colligation")
    d = factors[0].projection.shape[0] if factors else _as_matrix(leading).shape[0]
    if leading is None:
        leading = np.eye(d)
    leading = _as_matrix(leading, (d, d))
    if unitarity_defect(leading) > tol.tol_unitary:
        raise ValueError("leading matrix fails the unitarity test")
    for f in factors:
        if f.projection.shape[0] != d:
            raise ValueError("factor dimensions disagree")
    radius = max((abs(f.zero) for f in factors), default=0.0)
    psi = MatrixInnerFunction(
        BP_PRODUCT, d, {"factors": tuple(factors), "leading": leading}, 0.0, radius
    )
    bdef = boundary_unitarity_defect(psi, boundary_n)
    return MatrixInnerFunction(BP_PRODUCT, d, psi.data, bdef, radius)


def from_scalar_blaschke_identity(b, d, tol=DEFAULT, boundary_n=512):
    """Psi(z) = b(z) I_d for a scalar finite Blaschke product b."""
    eye = np.eye(d)
    factors = []
    for a, m in b.zeros:
        for _ in range(m):
            factors.append(BPFactor(a, eye, eye, tol=tol))
    return from_bp_factors(factors, leading=b.constant * eye, tol=tol,
                           boundary_n=boundary_n)


def from_polynomial(coeff_matrices, tol=DEFAULT, boundary_n=512):
    """Psi(z) = sum_k coeffs[k] z^k; inner-ness is certified on a boundary grid."""
    coeffs = np.asarray(coeff_matrices, dtype=complex)
    if coeffs.ndim == 2:
        coeffs = coeffs[None, :, :]
    if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
        raise ValueError("expected coefficient array of shape (deg+1, d, d)")
    # trim trailing zero coefficient matrices
    scale = np.max(np.abs(coeffs)) if coeffs.size else 0.0
    k = coeffs.shape[0] - 1
    while k > 0 and np.max(np.abs(coeffs[k])) <= 1e-14 * max(scale, 1e-300):
        k -= 1
    coeffs = coeffs[: k + 1]
    d = coeffs.shape[1]
    psi = MatrixInnerFunction(POLYNOMIAL, d, {"coeffs": coeffs}, 0.0, 0.0)
    bdef = boundary_unitarity_defect(psi, boundary_n)
    if bdef > tol.tol_unitary:
        raise NotUnitaryColligation(
            f"polynomial symbol boundary defect {bdef:.3e} exceeds {tol.tol_unitary:.1e}"
        )
    return MatrixInnerFunction(POLYNOMIAL, d, psi.data, bdef, 0.0)


def _bp_factor_grid(f, zs):
    """Values U ((I - P) + b_a(z) P) of one factor at each point of ``zs``."""
    a = f.zero
    # 1 - conj(a) z in real arithmetic, rounded as the scalar complex product
    # is; numpy's vectorized complex multiply rounds some points differently
    den = np.empty_like(zs)
    den.real = 1.0 - (a.real * zs.real + a.imag * zs.imag)
    den.imag = 0.0 - (a.real * zs.imag - a.imag * zs.real)
    b = (a - zs) / den
    d = f.projection.shape[0]
    return f.unitary @ (np.eye(d) - f.projection + b[:, None, None] * f.projection[None])


def _horner_grid(coeffs, zs):
    """sum_k coeffs[k] z^k at each point of the 1-d array ``zs``, (n, d, d)."""
    # complex products take operands of equal rank.  numpy runs a product
    # whose operands all broadcast from one element (a one-point grid times a
    # 1 x 1 block) in an unvectorized loop, which rounds differently from the
    # vectorized loop of larger grids; equal ranks keep one-point calls on the
    # vectorized loop, so every grid size gives the same values
    zc = zs[:, None, None]
    out = np.repeat(coeffs[-1][None], zs.size, axis=0)
    for k in range(coeffs.shape[0] - 2, -1, -1):
        out = zc * out + coeffs[k]
    return out


def eval_psi_grid(psi, zs):
    """Psi at every point of ``zs`` (closed disc, up to ``DISC_SLACK`` beyond).

    Returns an (n, d, d) array for the n points of ``zs``, flattened.  This is
    the one evaluation path of each representation: Horner on stacked arrays
    for polynomials, one batched solve for colligations, stacked factor
    products for Blaschke-Potapov products.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    outside = np.abs(zs) > 1.0 + DISC_SLACK
    if outside.any():
        lam = zs[np.argmax(outside)]
        raise ValueError(f"|lambda| = {abs(lam):.6f} is outside the closed disc")
    n = zs.size
    if psi.kind == COLLIGATION:
        A, B, C, D = (psi.data[k] for k in ("A", "B", "C", "D"))
        if A.shape[0] == 0:
            return np.repeat(D[None], n, axis=0)
        # equal ranks, as in _horner_grid; B[None] is a stack of one matrix
        # on every numpy version (numpy 1.x reads a 2-d B as a stack of vectors)
        zc = zs[:, None, None]
        try:
            X = np.linalg.solve(np.eye(A.shape[0]) - zc * A[None], B[None])
        except np.linalg.LinAlgError as exc:
            raise ResolventSingular("I - zA singular at a point of the grid") from exc
        return D + zc * (C @ X)
    if psi.kind == BP_PRODUCT:
        out = np.repeat(psi.data["leading"][None], n, axis=0)
        for f in psi.data["factors"]:
            out = out @ _bp_factor_grid(f, zs)
        return out
    return _horner_grid(psi.data["coeffs"], zs)


def eval_psi(psi, lam):
    """Psi at one point of the closed disc: the one-point case of ``eval_psi_grid``."""
    return eval_psi_grid(psi, [lam])[0]


def fibers_grid(psi, zs):
    """Fibers {w : det(Psi(z) - wI) = 0} over ``zs``, an (n, d) array.

    Row k holds the eigenvalues of Psi(zs[k]) with multiplicity, sorted by
    (real, imag).
    """
    vals = np.linalg.eigvals(eval_psi_grid(psi, zs))
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def series_mul(a, b):
    """Cauchy product of two (n, d, d) matrix power series, cut at n terms."""
    return np.array([(a[: k + 1] @ b[k::-1]).sum(axis=0) for k in range(a.shape[0])])


def taylor_at(psi, lam, n):
    """First n Taylor coefficient matrices of Psi around an interior point lam,
    an (n, d, d) array.  This is the one Taylor path of each representation.
    """
    lam = complex(lam)
    d = psi.d
    if psi.kind == COLLIGATION:
        A, B, C, D = (psi.data[k] for k in ("A", "B", "C", "D"))
        # T_0 = D + lam C R B and T_k = C R^(k+1) A^(k-1) B, R = (I - lam A)^(-1)
        M = np.eye(A.shape[0]) - lam * A
        try:
            X = np.linalg.solve(M, B)
        except np.linalg.LinAlgError as exc:
            raise ResolventSingular(f"I - zA singular at z = {lam}") from exc
        out = np.empty((n, d, d), dtype=complex)
        out[0] = D + lam * (C @ X)
        for k in range(1, n):
            X = np.linalg.solve(M, X if k == 1 else A @ X)
            out[k] = C @ X
        return out
    if psi.kind == BP_PRODUCT:
        out = np.zeros((n, d, d), dtype=complex)
        out[0] = psi.data["leading"]
        for f in psi.data["factors"]:
            out = series_mul(out, f.taylor(lam, n))
        return out
    # re-expand sum_k c_k z^k around lam: T_m = sum_k binom(k, m) lam^(k-m) c_k
    coeffs = psi.data["coeffs"]
    deg = coeffs.shape[0] - 1
    pows = lam ** np.arange(deg + 1)
    out = np.zeros((n, d, d), dtype=complex)
    for m in range(n):
        for k in range(m, deg + 1):
            out[m] += comb(k, m) * pows[k - m] * coeffs[k]
    return out


def taylor_until(psi, cut):
    """Taylor coefficients at 0 until three consecutive ones fall below cut,
    reading the series at lengths 8, 16, 32, ...  No certification step
    calls it; the benchmark's call tracer (perfbench/tracer.py) wraps it by
    name."""
    if psi.kind == POLYNOMIAL:
        return taylor_at(psi, 0.0, psi.data["coeffs"].shape[0])
    n = 8
    while n <= 4096:
        coeffs = taylor_at(psi, 0.0, n)
        small = np.linalg.norm(coeffs, 2, axis=(1, 2)) <= cut
        if small[-3:].all():
            last = int(np.max(np.nonzero(~small)[0])) if (~small).any() else 0
            return coeffs[: last + 1]
        n *= 2
    raise TruncationNotConverged(
        f"Taylor series of the symbol did not reach {cut:.1e} within 4096 terms"
    )


def psi_of_matrix(psi, s):
    """Psi(S) = sum_k kron(S^k, Psi_k) for a square S of spectral radius < 1.

    The map is multiplicative, so each representation has a closed form:
    I(x)D + (S(x)C)(I - S(x)A)^(-1)(I(x)B) for colligations, the product of
    (I(x)U)(I(x)(I - P) + b_a(S)(x)P) for Blaschke-Potapov products, and
    Horner in S(x)I for polynomials.
    """
    s = np.asarray(s, dtype=complex)
    eye = np.eye(s.shape[0])
    if psi.kind == COLLIGATION:
        A, B, C, D = (psi.data[k] for k in ("A", "B", "C", "D"))
        out = np.kron(eye, D)
        if A.shape[0]:
            x = np.linalg.solve(np.eye(s.shape[0] * A.shape[0]) - np.kron(s, A),
                                np.kron(eye, B))
            out = out + np.kron(s, C) @ x
        return out
    if psi.kind == BP_PRODUCT:
        out = np.kron(eye, psi.data["leading"])
        for f in psi.data["factors"]:
            b = np.linalg.solve(eye - np.conj(f.zero) * s, f.zero * eye - s)
            out = out @ np.kron(eye, f.unitary) @ (
                np.kron(eye, np.eye(psi.d) - f.projection) + np.kron(b, f.projection))
        return out
    coeffs = psi.data["coeffs"]
    shift = np.kron(s, np.eye(psi.d))
    out = np.kron(eye, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = shift @ out + np.kron(eye, c)
    return out


def boundary_unitarity_defect(psi, n=2048):
    """max_theta || Psi(e^{i theta})* Psi(e^{i theta}) - I || on a uniform grid."""
    u = eval_psi_grid(psi, circle_grid(n))
    return float(unitarity_defect(u).max(initial=0.0))


def circle_grid(n):
    """Uniform grid of n points on the unit circle, starting at 1."""
    if n < 1:
        raise ValueError(f"a circle grid needs at least one point, got {n}")
    return np.exp(1j * (np.arange(n) * (2.0 * np.pi / n)))


def interior_disc_grid(n):
    """Deterministic quasi-uniform points of the disc of radius 0.995
    (sunflower layout)."""
    k = np.arange(n)
    r = 0.995 * np.sqrt((k + 0.5) / n)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    return r * np.exp(1j * golden * k)


def interior_pureness(psi, n=512):
    """Largest spectral radius of Psi over a deterministic interior grid,
    with the first grid point that attains it."""
    grid = interior_disc_grid(n)
    rho = np.abs(fibers_grid(psi, grid)).max(axis=1)
    k = int(np.argmax(rho))
    return float(rho[k]), complex(grid[k])


def fiber(psi, z):
    """Eigenvalues of Psi(z) with multiplicity, sorted by (real, imag)."""
    return [complex(v) for v in fibers_grid(psi, [z])[0]]


class VarietyDescription:
    """Defining polynomial of {det(Psi(z) - wI) = 0} on the closed bidisc."""

    __slots__ = ("psi", "p", "degz", "degw", "fit_residual", "fiber_check")

    def __init__(self, psi, p, degz, degw, fit_residual, fiber_check):
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "degz", int(degz))
        object.__setattr__(self, "degw", int(degw))
        object.__setattr__(self, "fit_residual", float(fit_residual))
        object.__setattr__(self, "fiber_check", float(fiber_check))

    def __setattr__(self, name, value):
        raise AttributeError("VarietyDescription is immutable")

    def __repr__(self):
        return f"VarietyDescription(bidegree={self.p.bidegree})"


def _pencil_values(psi):
    """Samples of a polynomial with the same zeros as det(Psi(z) - wI) on the
    closed bidisc, on the tensor nodes of its degree bound.

    Returns (degz, z nodes, w nodes, values) with values[i, j] taken at
    (z_i, w_j); the whole node grid is evaluated at once.
    """
    d = psi.d
    eyed = np.eye(d)
    if psi.kind == COLLIGATION:
        A, B, C, D = (psi.data[k] for k in ("A", "B", "C", "D"))
        N = A.shape[0]
        if N and np.max(np.abs(np.linalg.eigvals(A))) >= 1.0 - 1e-12:
            raise SpuriousFactorInDisc("det(I - zA) vanishes on the closed disc")
        zn, wn = interpolation_nodes(N, d)
        zc = zn[:, None, None, None]
        # the pencil [[I - zA, zB], [-C, D - wI]] at every node pair
        pencil = np.empty((zn.size, wn.size, N + d, N + d), dtype=complex)
        pencil[..., :N, :N] = np.eye(N) - zc * A[None, None]
        pencil[..., :N, N:] = zc * B[None, None]
        pencil[..., N:, :N] = -C
        pencil[..., N:, N:] = D - wn[None, :, None, None] * eyed
        return N, zn, wn, np.linalg.det(pencil)
    if psi.kind == BP_PRODUCT:
        factors = psi.data["factors"]
        for f in factors:
            if abs(f.zero) >= 1.0 - 1e-12 and f.zero != 0:
                raise SpuriousFactorInDisc("cleared factor vanishes on the closed disc")
        degz = sum(f.rank for f in factors)
    else:
        degz = (psi.data["coeffs"].shape[0] - 1) * d
    zn, wn = interpolation_nodes(degz, d)
    values = np.linalg.det(eval_psi_grid(psi, zn)[:, None] - wn[:, None, None] * eyed)
    if psi.kind == BP_PRODUCT:
        # clear the denominators; scalar products, which numpy's vectorized
        # complex multiply would round differently
        for i, z in enumerate(zn):
            q = 1.0 + 0j
            for f in factors:
                q *= (1.0 - np.conj(f.zero) * z) ** f.rank
            values[i] = [q * v for v in values[i]]
    return degz, zn, wn, values


def variety_polynomial(psi, tol=DEFAULT, check_fibers=200):
    """Bivariate defining polynomial of the variety of Psi, unit-normalized.

    The polynomial is obtained by evaluation-interpolation of the cleared
    pencil determinant within ``tol.tol_fit``; the cleared factor has no zeros
    on the closed disc.  Agreement of the zero sets is asserted on sampled
    fibers.
    """
    degz, zn, wn, values = _pencil_values(psi)
    degw = psi.d
    p, residual = fit_tensor_nodes(zn, wn, values, tol=tol)
    p = normalize_unit(p)
    worst = 0.0
    if check_fibers:
        nz = max(4, check_fibers // 2)
        circle = circle_grid(nz)
        zs = np.concatenate([0.35 * circle, 0.85 * circle])
        worst = float(np.abs(p(np.repeat(zs, psi.d), fibers_grid(psi, zs).ravel())).max())
        if worst > 1e-8 * p.scale * 10:
            raise SpuriousFactorInDisc(
                f"fiber residual {worst:.3e} inconsistent with the fitted polynomial"
            )
    return VarietyDescription(psi, p, degz, degw, residual, worst)


def distinguished_certificate(psi, boundary_n=512, disc_n=512, tol=DEFAULT):
    """Certificate that the variety of Psi is distinguished.

    Conditions: (a) boundary fibers are unimodular, (b) interior fibers stay in
    the open disc, (c) the variety meets the open bidisc (witness recorded).
    """
    if boundary_n < 64 or disc_n < 64:
        raise ValueError("grid sizes must be at least 64")
    vals = fibers_grid(psi, circle_grid(boundary_n))
    # np.hypot rounds as abs() of a complex scalar does; np.abs may not
    worst_boundary = float(np.abs(np.hypot(vals.real, vals.imag) - 1.0).max())
    cond_a = worst_boundary <= tol.tol_unitary

    grid = interior_disc_grid(disc_n)
    vals = fibers_grid(psi, grid)
    moduli = np.hypot(vals.real, vals.imag).max(axis=1)
    worst_interior = float(moduli.max())
    inside = np.flatnonzero(moduli < 1.0 - 1e-9)
    witness = None
    if inside.size:
        k = inside[0]
        witness = (complex(grid[k]), complex(vals[k, np.argmax(np.abs(vals[k]))]))
    # no uniform interior gap exists, so only a pointwise margin is sensible
    cond_b = worst_interior <= 1.0 - tol.pure_margin
    cond_c = witness is not None

    status = PASS if (cond_a and cond_b and cond_c) else FAIL
    margin = min(tol.tol_unitary - worst_boundary, 1.0 - worst_interior)
    data = {
        "boundary_defect": worst_boundary,
        "interior_max_modulus": worst_interior,
        "conditions": {"boundary_unimodular": cond_a, "interior_strict": cond_b,
                       "meets_open_bidisc": cond_c},
    }
    if witness is not None:
        data["witness"] = [witness[0], witness[1]]
    return CertEntry(
        name="distinguished-variety",
        anchor="variety-exits-through-distinguished-boundary",
        status=status,
        margin=float(margin),
        data=data,
    )
