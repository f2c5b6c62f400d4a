"""Rational matrix-valued inner functions on the disc and their varieties.

Three interchangeable representations are supported:

  * colligation:  Psi(z) = D + z C (I - zA)^{-1} B  with [[A,B],[C,D]] unitary,
  * bp_product:   ordered elementary factors U ((I-P) + b_a(z) P),
  * polynomial:   Psi(z) = sum_k coeffs[k] z^k with matrix coefficients.

Each representation has one evaluation path, ``eval_psi_grid``, which takes
a whole grid of points and builds each entry of Psi as one array over it:
Horner, the cofactors of I - zA for a state of dimension at most 3 (a
batched solve above that) and products of factor entries, so no stacked
matrix product runs.  Each also has one matrix functional calculus,
``psi_of_matrix``, which gives Psi(S) = sum_k kron(S^k, Psi_k) in closed
form; the model operators of the co-extension are built from it.  Taylor
coefficients are its first block column at a Jordan block (``taylor_at``);
no certification step reads them.

The zero set {det(Psi(z) - wI) = 0} is produced as an honest bivariate
polynomial by sampling the determinant of the linear pencil
[[I - zA, zB], [-C, D - wI]] (or a denominator-cleared determinant) on the
unit torus and taking its exact 2-D DFT.  Whether it is distinguished is
decided in closed form from Psi(0) and the bound on the boundary unitarity
defect the symbol proves from its representation when it is built; no fiber
or circle point is sampled for it.
"""

import numpy as np

from .errors import (
    NotPureRealization,
    NotUnitaryColligation,
    ResolventSingular,
    SpuriousFactorInDisc,
    TruncationNotConverged,
)
from .opcore import stack_eigvals
from .poly import fit_tensor_nodes, interpolation_nodes, normalize_unit
from .report import FAIL, INCONCLUSIVE, PASS, CertEntry
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


def _norm2(m):
    """||m||_2 of one matrix; an all-zero m, the residual of an exact
    identity, takes no SVD."""
    return np.linalg.norm(m, 2) if m.any() else 0.0


def unitarity_defect(u):
    """||U* U - I||_2 of one matrix, or of each matrix of a stack.

    One matrix takes the largest singular value of G = U* U - I.  A stack
    takes the square root of the largest |eigenvalue| of G* G, from
    ``stack_eigvals``.  The computed G is Hermitian only up to a rounding
    error as large as G itself when U is unitary, so its own eigenvalues
    would miss ||G||_2 by as much; G* G is Hermitian up to rounding relative
    to its size, and its largest eigenvalue is ||G||_2^2.
    """
    gram = np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])
    if gram.ndim == 2:
        return _norm2(gram)
    square = np.swapaxes(gram.conj(), -1, -2) @ gram
    return np.sqrt(np.abs(stack_eigvals(square)).max(axis=-1))


class BPFactor:
    """Elementary factor U ((I - P) + b_a(z) P) with b_a(z) = (a-z)/(1-conj(a)z)."""

    __slots__ = ("zero", "projection", "unitary")

    def __init__(self, zero, projection, unitary, tol=DEFAULT):
        zero = complex(zero)
        # written so that a NaN zero fails the test too
        if not abs(zero) < 1.0:
            raise ValueError(f"factor zero {zero} is not in the open disc")
        p = _as_matrix(projection)
        u = _as_matrix(unitary, p.shape)
        if _norm2(p - p.conj().T) > tol.tol_unitary:
            raise ValueError("projection is not Hermitian")
        if _norm2(p @ p - p) > tol.tol_unitary:
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


class MatrixInnerFunction:
    """Rational d x d inner function with a constructively verified representation.

    ``boundary_defect`` bounds sup_{|z|=1} ||Psi(z)* Psi(z) - I||_2, proved
    from the representation by the builder that made the symbol.
    ``realization_radius`` bounds |a| for the poles 1 / conj(a) of Psi: rho(A)
    of a colligation, the largest factor zero of a product, 0 for a polynomial.
    """

    __slots__ = ("kind", "d", "data", "boundary_defect", "realization_radius")

    def __init__(self, kind, d, data, boundary_defect, realization_radius):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "boundary_defect", float(boundary_defect))
        object.__setattr__(self, "realization_radius", float(realization_radius))

    def __setattr__(self, name, value):
        raise AttributeError("MatrixInnerFunction is immutable")

    def __repr__(self):
        return f"MatrixInnerFunction(kind={self.kind!r}, d={self.d})"


def _rounding_allowance(size, d):
    """32 (size + d) eps: what rounding may add to a defect bound evaluated
    in floating point, or to a sampled ||Psi* Psi - I||, per unit of the
    quantities they form; ``size`` counts the representation's terms
    (coefficients, state dimension or factors).  It keeps every bound
    nonzero."""
    return 32.0 * (size + d) * np.finfo(float).eps


def _resolvent_bound(A, B):
    """K >= ||(I - zA)^{-1} B||_2 on the closed disc, from the Stein equation.

    P - A* P A = I is solved as one Kronecker system.  With residual R of
    the computed (symmetrized) P and r = ||R||_F, ||A x||_P^2 =
    ||x||_P^2 - x*(I + R)x <= (1 - t) ||x||_P^2 for t = (1 - r) / lambda_max(P),
    so ||zA||_P <= sqrt(1 - t) and ||(I - zA)^{-1}||_P <= 1 / (1 - sqrt(1 - t)).
    The P-norm is within sqrt(kappa(P)) of the 2-norm (Lancaster-Tismenetsky,
    The Theory of Matrices, 1985, ch. 13).  A P that is not positive
    definite, or a residual of 1 or more, proves nothing and raises
    NotPureRealization.
    """
    n = A.shape[0]
    if n == 0:
        return 0.0
    ah = A.conj().T
    # row-major vec(A* P A) = kron(A*, A^T) vec(P)
    p = np.linalg.solve(np.eye(n * n) - np.kron(ah, A.T), np.eye(n).ravel()).reshape(n, n)
    p = (p + p.conj().T) / 2
    resid = np.linalg.norm(p - ah @ p @ A - np.eye(n))
    lo, hi = np.linalg.eigvalsh(p)[[0, -1]]
    if not (lo > 0 and resid < 1.0):
        raise NotPureRealization(
            "the Stein equation P - A*PA = I gives no positive definite P: "
            "the state matrix is not proven stable"
        )
    t = min(1.0, (1.0 - resid) / hi)  # P >= (1 - r) I, so only rounding passes 1
    gap = t / (1.0 + np.sqrt(1.0 - t))  # 1 - sqrt(1 - t), without cancellation
    return float(np.sqrt(hi / lo) * np.linalg.norm(B) / gap)


def from_colligation(A, B, C, D, tol=DEFAULT):
    """Build the transfer function of a unitary colligation.

    Checks that [[A, B], [C, D]] is unitary within ``tol.tol_unitary`` and
    that the state matrix has spectral radius strictly below 1.  The
    recorded boundary defect is (delta + allowance)(1 + K^2), delta the
    colligation's unitarity defect ||U*U - I|| and K the Stein bound of
    ``_resolvent_bound``: with x = (I - zA)^{-1} B u, U [z x; u] = [x; Psi(z) u],
    so on the circle ||Psi(z) u||^2 - ||u||^2 = <(U*U - I) v, v> for
    v = [z x; u], of norm at most sqrt(1 + K^2) ||u|| (Agler-McCarthy,
    Distinguished varieties, Acta Math. 194, 2005).
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
    k = _resolvent_bound(A, B)
    bdef = (defect + _rounding_allowance(n, d)) * (1.0 + k * k)
    return MatrixInnerFunction(COLLIGATION, d, {"A": A, "B": B, "C": C, "D": D}, bdef, radius)


def from_bp_factors(factors, leading=None, tol=DEFAULT):
    """Build a Blaschke-Potapov product; ``leading`` is an optional constant unitary.

    The recorded boundary defect is prod (1 + eps_i) - 1 plus the rounding
    allowance: a product of factors with Gram defects ||F_i* F_i - I|| <= eps_i
    has Gram defect at most prod (1 + eps_i) - 1.  The leading matrix L has
    eps = ||L* L - I||.  A factor U W has 1 + eps = (1 + mu)(1 + 4 ||X||) with
    mu = ||U* U - I|| and X = P - P* P: on the circle c = b_a - 1 has
    c + conj(c) = -|c|^2, so W = I + cP has W* W - I = c X + conj(c) X*.
    """
    factors = list(factors)
    if not factors and leading is None:
        raise ValueError("empty product; pass a constant via from_colligation")
    d = factors[0].projection.shape[0] if factors else _as_matrix(leading).shape[0]
    if leading is None:
        leading = np.eye(d)
    leading = _as_matrix(leading, (d, d))
    lead_defect = unitarity_defect(leading)
    if lead_defect > tol.tol_unitary:
        raise ValueError("leading matrix fails the unitarity test")
    for f in factors:
        if f.projection.shape[0] != d:
            raise ValueError("factor dimensions disagree")
    growth = 1.0 + lead_defect
    if factors:
        p = np.array([f.projection for f in factors])
        u = np.array([f.unitary for f in factors])
        x = np.linalg.norm(p - np.swapaxes(p.conj(), 1, 2) @ p, axis=(1, 2))
        mu = np.linalg.norm(np.swapaxes(u.conj(), 1, 2) @ u - np.eye(d), axis=(1, 2))
        growth *= float(np.prod((1.0 + mu) * (1.0 + 4.0 * x)))
    bdef = growth * (1.0 + _rounding_allowance(len(factors), d)) - 1.0
    radius = max((abs(f.zero) for f in factors), default=0.0)
    return MatrixInnerFunction(
        BP_PRODUCT, d, {"factors": tuple(factors), "leading": leading}, bdef, radius
    )


def from_scalar_blaschke_identity(b, d, tol=DEFAULT):
    """Psi(z) = b(z) I_d for a scalar finite Blaschke product b."""
    eye = np.eye(d)
    factors = []
    for a, m in b.zeros:
        # one validated factor per distinct zero, repeated: a BPFactor is immutable
        factors += [BPFactor(a, eye, eye, tol=tol)] * m
    return from_bp_factors(factors, leading=b.constant * eye, tol=tol)


def from_polynomial(coeff_matrices, tol=DEFAULT):
    """Psi(z) = sum_k coeffs[k] z^k, proved inner from its coefficients.

    On the circle Psi* Psi - I = E_0 + sum_{j>=1} (z^j E_j + conj(z)^j E_j*)
    with E_j = sum_k C_k* C_{k+j} - delta_{j0} I, so the recorded boundary
    defect is ||E_0||_F + 2 sum_{j>=1} ||E_j||_F plus the rounding allowance
    times (sum_k ||C_k||_F)^2, which bounds ||Psi||^2 on the circle.  A
    defect above ``tol.tol_unitary`` raises NotUnitaryColligation.
    """
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
    terms, d = coeffs.shape[0], coeffs.shape[1]
    adj = np.swapaxes(coeffs.conj(), 1, 2)
    e = np.array([(adj[: terms - j] @ coeffs[j:]).sum(axis=0) for j in range(terms)])
    e[0] -= np.eye(d)
    norms = np.linalg.norm(e, axis=(1, 2))
    size = np.linalg.norm(coeffs, axis=(1, 2)).sum()
    bdef = norms[0] + 2.0 * norms[1:].sum() + _rounding_allowance(terms, d) * size ** 2
    if not bdef <= tol.tol_unitary:
        raise NotUnitaryColligation(
            f"polynomial symbol boundary defect {bdef:.3e} exceeds {tol.tol_unitary:.1e}"
        )
    return MatrixInnerFunction(POLYNOMIAL, d, {"coeffs": coeffs}, bdef, 0.0)


def _entry_product(x, y):
    """x @ y for matrices held as nested lists of entries, each an (n,) array
    or a scalar."""
    return [[sum((row[j] * y[j][k] for j in range(1, len(y))), row[0] * y[0][k])
             for k in range(len(y[0]))] for row in x]


def _adjugate_det(m):
    """Adjugate and determinant of an N x N matrix of entries, N <= 3, by
    cofactors."""
    size = len(m)
    if size == 1:
        return [[1.0]], m[0][0]
    if size == 2:
        adj = [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]
    else:
        def cofactor(i, j):
            # taken on the cyclic successors of i and j, it carries its sign
            i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
            return m[i1][j1] * m[i2][j2] - m[i1][j2] * m[i2][j1]

        adj = [[cofactor(j, i) for j in range(3)] for i in range(3)]
    return adj, sum((m[0][j] * adj[j][0] for j in range(1, size)), m[0][0] * adj[0][0])


def _bp_factor_grid(f, zs, left):
    """Entries of L U ((I - P) + b_a(z) P) = M0 + b_a(z) M1, with M0 = L U (I - P)
    and M1 = L U P for a constant L (``left``), over the points of ``zs``: a
    d x d nested list of (n,) arrays."""
    a = f.zero
    # 1 - conj(a) z in real arithmetic, rounded as the scalar complex product
    # is; numpy's vectorized complex multiply rounds some points differently
    den = np.empty_like(zs)
    den.real = 1.0 - (a.real * zs.real + a.imag * zs.imag)
    den.imag = 0.0 - (a.real * zs.imag - a.imag * zs.real)
    b = (a - zs) / den
    lu = left @ f.unitary
    d = len(lu)
    m0, m1 = lu @ (np.eye(d) - f.projection), lu @ f.projection
    return [[m0[j, k] + b * m1[j, k] for k in range(d)] for j in range(d)]


def eval_psi_grid(psi, zs):
    """Psi at every point of ``zs`` (closed disc, up to ``DISC_SLACK`` beyond).

    Returns an (n, d, d) array for the n points of ``zs``, flattened.  This is
    the one evaluation path of each representation.  Each entry of Psi is
    built as one (n,) array, and the result is an (n, d, d) view of the
    entry-major (d, d, n) storage, the layout ``stack_eigvals`` reads:
    Horner for polynomials; D + z C adj(I - zA) B / det(I - zA) by cofactors
    for a colligation of state dimension N <= 3, and one batched solve for
    larger N; the running product of the factors M0 + b_a(z) M1 for a
    Blaschke-Potapov product.  A one-point call gives the bits of that
    point's row of any larger grid.  A zero or non-finite det(I - zA), or a
    singular solve, raises ResolventSingular.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    outside = np.abs(zs) > 1.0 + DISC_SLACK
    if outside.any():
        lam = zs[np.argmax(outside)]
        raise ValueError(f"|lambda| = {abs(lam):.6f} is outside the closed disc")
    d, n = psi.d, zs.size
    if psi.kind == COLLIGATION:
        A, B, C, D = (psi.data[k] for k in ("A", "B", "C", "D"))
        size = A.shape[0]
        if size > 3:
            # equal ranks: numpy multiplies one-element operands of unequal
            # ranks in an unvectorized loop, which rounds differently; B[None]
            # is a stack of one matrix on every numpy version (numpy 1.x reads
            # a 2-d B as a stack of vectors)
            zc = zs[:, None, None]
            try:
                X = np.linalg.solve(np.eye(size) - zc * A[None], B[None])
            except np.linalg.LinAlgError as exc:
                raise ResolventSingular("I - zA singular at a point of the grid") from exc
            return D + zc * (C @ X)
        entries = D
        if size:
            adj, det = _adjugate_det([[float(i == j) - A[i, j] * zs for j in range(size)]
                                      for i in range(size)])
            if not (np.isfinite(det).all() and det.all()):
                raise ResolventSingular("I - zA singular at a point of the grid")
            ratio = zs / det
            g = _entry_product(C, _entry_product(adj, B))
            entries = [[D[i, k] + ratio * g[i][k] for k in range(d)] for i in range(d)]
    elif psi.kind == BP_PRODUCT:
        entries = psi.data["leading"]
        factors = psi.data["factors"]
        if factors:
            entries = _bp_factor_grid(factors[0], zs, entries)
            for f in factors[1:]:
                entries = _entry_product(entries, _bp_factor_grid(f, zs, np.eye(d)))
    else:
        coeffs = psi.data["coeffs"]
        entries = coeffs[-1]
        for c in coeffs[-2::-1]:
            entries = [[entries[i][k] * zs + c[i, k] for k in range(d)] for i in range(d)]
    out = np.empty((d, d, n), dtype=complex)
    for i in range(d):
        for k in range(d):
            out[i, k] = entries[i][k]
    return out.transpose(2, 0, 1)


def eval_psi(psi, lam):
    """Psi at one point of the closed disc: the one-point case of ``eval_psi_grid``."""
    return eval_psi_grid(psi, [lam])[0]


def fibers_grid(psi, zs):
    """Fibers {w : det(Psi(z) - wI) = 0} over ``zs``, an (n, d) array.

    Row k holds the eigenvalues of Psi(zs[k]) with multiplicity, sorted by
    (real, imag).
    """
    vals = stack_eigvals(eval_psi_grid(psi, zs))
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def taylor_at(psi, lam, n):
    """First n Taylor coefficients of Psi around an interior point lam, an
    (n, d, d) array: the first block column of Psi(lam I + N) for the n x n
    lower shift N, since f(lam I + N) = sum_m f^(m)(lam)/m! N^m (Higham,
    Functions of Matrices, 2008, sec. 1.2)."""
    jordan = complex(lam) * np.eye(n) + np.eye(n, k=-1)
    return psi_of_matrix(psi, jordan)[:, : psi.d].reshape(n, psi.d, psi.d)


def taylor_until(psi, cut):
    """Taylor coefficients at 0 until three consecutive ones fall below cut,
    reading the series at lengths 8, 16, 32, ...; a polynomial's series is
    exactly zero past its degree, so it stops there.  No certification step
    calls it; the benchmark's call tracer (perfbench/tracer.py) wraps it by
    name."""
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
    Horner in S(x)I for polynomials.  A singular colligation solve raises
    ResolventSingular, as in ``eval_psi_grid``.
    """
    s = np.asarray(s, dtype=complex)
    eye = np.eye(s.shape[0])
    if psi.kind == COLLIGATION:
        A, B, C, D = (psi.data[k] for k in ("A", "B", "C", "D"))
        out = np.kron(eye, D)
        if A.shape[0]:
            try:
                x = np.linalg.solve(np.eye(s.shape[0] * A.shape[0]) - np.kron(s, A),
                                    np.kron(eye, B))
            except np.linalg.LinAlgError as exc:
                raise ResolventSingular("I - S(x)A singular: S meets a pole of Psi") from exc
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
    """max_theta || Psi(e^{i theta})* Psi(e^{i theta}) - I || on a uniform
    grid: a sampled diagnostic, which ``psi.boundary_defect`` bounds."""
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


def interior_pureness(psi):
    """rho(Psi(0)), the spectral radius of Psi at the origin.

    By the maximum principle it bounds every interior fiber: if Psi(z0) has
    an eigenvalue w with |w| = 1 at an interior z0, with eigenvector v, then
    <Psi(z)v, v> is constant, so Psi(0)v = wv.  A value below 1 therefore
    proves that every interior fiber lies in the open disc.
    """
    return float(np.abs(np.linalg.eigvals(eval_psi(psi, 0.0))).max())


def fiber(psi, z):
    """Eigenvalues of Psi(z) with multiplicity, sorted by (real, imag)."""
    return [complex(v) for v in fibers_grid(psi, [z])[0]]


class VarietyDescription:
    """Defining polynomial of {det(Psi(z) - wI) = 0} on the closed bidisc, and
    the bidegree bound (degz, degw) it was interpolated at."""

    __slots__ = ("psi", "p", "degz", "degw")

    def __init__(self, psi, p, degz, degw):
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "degz", int(degz))
        object.__setattr__(self, "degw", int(degw))

    def __setattr__(self, name, value):
        raise AttributeError("VarietyDescription is immutable")

    def __repr__(self):
        return f"VarietyDescription(bidegree={self.p.bidegree})"


def _pencil_values(psi):
    """Values of a polynomial with the same zeros as det(Psi(z) - wI) on the
    closed bidisc at the nodes ``interpolation_nodes(degz, d)``, as a
    (degz + 1, d + 1) grid; the whole grid is evaluated at once.

    The polynomial and its bidegree bound come from the representation: the
    pencil det [[I - zA, zB], [-C, D - wI]] = det(I - zA) det(Psi(z) - wI) of
    a colligation (degz = N), det(Psi(z) - wI) times the cleared denominators
    prod (1 - conj(a) z)^rank of a product (degz = sum of ranks), and
    det(Psi(z) - wI) of a polynomial (degz = d times its degree).  The
    cleared factor has no zero on the closed disc when the realization radius
    is below 1, and SpuriousFactorInDisc is raised when it is not.
    """
    if psi.realization_radius >= 1.0 - 1e-12:
        raise SpuriousFactorInDisc("the cleared denominator vanishes on the closed disc")
    d = psi.d
    eyed = np.eye(d)
    if psi.kind == COLLIGATION:
        A, B, C, D = (psi.data[k] for k in ("A", "B", "C", "D"))
        N = A.shape[0]
        zn, wn = interpolation_nodes(N, d)
        zc = zn[:, None, None, None]
        # the pencil [[I - zA, zB], [-C, D - wI]] at every node pair
        pencil = np.empty((zn.size, wn.size, N + d, N + d), dtype=complex)
        pencil[..., :N, :N] = np.eye(N) - zc * A[None, None]
        pencil[..., :N, N:] = zc * B[None, None]
        pencil[..., N:, :N] = -C
        pencil[..., N:, N:] = D - wn[None, :, None, None] * eyed
        return np.linalg.det(pencil)
    if psi.kind == BP_PRODUCT:
        factors = psi.data["factors"]
        ranks = np.array([f.rank for f in factors], dtype=int)
        degz = int(ranks.sum())
    else:
        degz = (psi.data["coeffs"].shape[0] - 1) * d
    zn, wn = interpolation_nodes(degz, d)
    values = np.linalg.det(eval_psi_grid(psi, zn)[:, None] - wn[:, None, None] * eyed)
    if psi.kind == BP_PRODUCT:
        zeros = np.array([f.zero for f in factors], dtype=complex)
        values *= np.prod((1.0 - np.conj(zeros)[:, None] * zn) ** ranks[:, None],
                          axis=0)[:, None]
    return values


def variety_polynomial(psi):
    """Bivariate defining polynomial of the variety of Psi, unit-normalized.

    The cleared determinant of ``_pencil_values`` on the unit torus is
    interpolated by ``fit_tensor_nodes``, an exact 2-D DFT: each coefficient
    is within the largest error of a sampled determinant of the exact one,
    plus the transform's rounding, before the normalization divides by the
    largest coefficient.
    """
    values = _pencil_values(psi)
    p = normalize_unit(fit_tensor_nodes(values))
    return VarietyDescription(psi, p, values.shape[0] - 1, psi.d)


def distinguished_certificate(psi, tol=DEFAULT):
    """Certificate that the variety of Psi is distinguished, in closed form.

    Conditions: (a) boundary fibers are unimodular: on the circle
    |w|^2 - 1 = <(Psi*Psi - I)v, v> for a unit eigenvector v, so each
    boundary fiber lies within the symbol's proved bound on its boundary
    unitarity defect of the circle; (a) is that bound <= ``tol.tol_unitary``.
    (b) interior fibers stay in the open disc: rho(Psi(0)) bounds them
    (``interior_pureness``), and (b) is rho(Psi(0)) <= 1 - ``tol.pure_margin``.
    (c) the variety meets the open bidisc: when (b) holds, 0 with the
    largest-modulus eigenvalue of Psi(0) is a witness, so (c) equals (b).
    A bound above the tolerance proves no failure, so when only (a) misses
    the entry is inconclusive.  Psi is evaluated at the origin only; no
    fiber is sampled.
    """
    vals = np.linalg.eigvals(eval_psi(psi, 0.0))
    k = int(np.argmax(np.abs(vals)))
    rho = float(np.abs(vals[k]))
    cond_a = psi.boundary_defect <= tol.tol_unitary
    cond_b = rho <= 1.0 - tol.pure_margin
    status = FAIL if not cond_b else PASS if cond_a else INCONCLUSIVE
    margin = min(tol.tol_unitary - psi.boundary_defect, 1.0 - rho)
    data = {
        "boundary_defect": psi.boundary_defect,
        "interior_max_modulus": rho,
        "conditions": {"boundary_unimodular": cond_a, "interior_strict": cond_b,
                       "meets_open_bidisc": cond_b},
    }
    if cond_b:
        data["witness"] = [0j, complex(vals[k])]
    return CertEntry(
        name="distinguished-variety",
        anchor="variety-exits-through-distinguished-boundary",
        status=status,
        margin=float(margin),
        data=data,
    )
