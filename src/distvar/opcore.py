"""Commuting contractive matrix pairs: validation, polynomial and Blaschke
calculus, joint spectra.

Point-set semantics used throughout: the eigenvalues of one matrix are
merged agglomeratively within ``_EIG_MERGE``, and a cluster's mean is its
location (the mean of a split Jordan cluster is accurate to machine order).
Every computed point set is read off one traversal, ``_joint_spaces``, with
one point per joint generalized eigenspace: repeats of a point are
bit-equal copies, and distinct points lie in distinct clusters that the
kernels of their powers confirmed, or DegenerateCluster was raised.  So a
set's distinct points are its repeats collapsed exactly, with no second
clustering.  Set comparisons use optimal assignment with an explicit
distance cap.

Numerical kernels and ranks are decided in one place, ``kernel``: a singular
value counts as zero when it is at most the cut max(floor, rel * s_max), and
a guarded call raises DegenerateCluster on a singular value inside the band
(cut / rank_guard, cut * rank_guard) instead of deciding (Golub-Van Loan,
Matrix Computations, 5.4).  The rank of m is its column count less the
kernel's dimension.

A family of polynomials checked on one pair is evaluated as its coefficient
rows times the pair's monomial table T1^i T2^j, ``poly_stack``, and its
2-norms in one batched SVD call, ``opnorms``.

``stack_eigvals`` takes the eigenvalues of a stack of matrices of order at
most 3 in closed form, with a backward-error certificate per matrix, and
calls LAPACK only for the matrices the certificate rejects.

Jordan structure is read in one place, ``_jordan_clusters``: the kernels
of the powers (T - lambda)^k, taken by ``kernel`` under the guarded rank
rule, grow to the generalized eigenspace of each eigenvalue cluster or the
cluster is degenerate.  ``minimal_blaschke`` reads the multiplicities off
it, the synthesis fiber guard (``annvar``) the Jordan blocks of each symbol
fiber, and ``_joint_spaces`` compresses T2 to each generalized eigenspace
of T1, which T2 leaves invariant, for the joint generalized eigenspaces that
every joint spectrum reads: no Schur factorization and no random
combination.  Omega, the conjugated joint point spectrum of (S1*, S2*), is
read off the traversal of (S1, S2) (``annvar.omega_psi``).

``assignment_max`` settles most matchings by a row-minimum certificate;
``scipy.optimize``, whose import costs about 0.2 s, is loaded only when a
matching needs its assignment solver.  Nothing else here uses scipy.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateCluster, NonCommuting, NotContractive, NotPure
from .poly import BlaschkeProduct, coefficient_rows, family_values, monomial_table
from .tolerances import DEFAULT

_EIG_MERGE = 3e-3  # merge radius for eigenvalues of a single matrix


def opnorm(m):
    # the largest singular value, which is what norm(m, 2) returns
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def opnorms(stack):
    """2-norms of each matrix of a (k, n, n) stack, in one batched SVD call;
    each equals ``opnorm`` of its slice."""
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def spectral_radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(m)))) if m.size else 0.0


# stacks shorter than this go to LAPACK whole: below it one zgeev call per
# matrix is cheaper than the vectorized kernel's fixed cost (measured on
# order-3 stacks, 2 cores)
_STACK_EIG_MIN = 48
# an order-3 deflation is certified when the column it drops is at most this
# many eps * max |M_ij|, a norm within a factor 3 of ||M||_F that cannot
# overflow
_DEFLATE_CERT = 32


def _pair_eigvals(a, b, c, e):
    """Eigenvalues mean +- sqrt(h^2 + bc) of [[a, b], [c, e]], entrywise."""
    mean, h = (a + e) / 2, (a - e) / 2
    disc = np.sqrt(h * h + b * c)
    return mean + disc, mean - disc


def _abs2(x):
    return x.real * x.real + x.imag * x.imag


def _cross(x, y):
    """Bilinear cross product of two 3-vectors of (n,) arrays: it is
    annihilated by x and y under the bilinear dot product."""
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def _argmax3(sa, sb, sc):
    """Entrywise choice of the largest of three sizes, as a function of
    three candidates; ties go to the first."""
    pick_a, pick_b = (sa >= sb) & (sa >= sc), sb >= sc
    return lambda a, b, c: np.where(pick_a, a, np.where(pick_b, b, c))


def _deflated_eigvals(e):
    """Eigenvalues of a (3, 3, n) entry-major stack of traceless matrices E,
    as (3, n), and the norm of the column each deflation drops.

    The root r of the depressed characteristic cubic farthest from the other
    two (Cardano) is the best-separated eigenvalue.  The largest cross
    product of two rows of E - rI is its null vector v, and the Householder
    reflector H = I - beta w w*, w = v + phase(v0) e1, sends v to a multiple
    of e1.  So B = H E H has first column r e1 up to the dropped B[1:, 0],
    and its eigenvalues, B[0, 0] and those of the trailing 2 x 2 block, are
    exactly those of E less that column.  Entries are (n,) arrays throughout;
    no stacked matrix product runs.
    """
    ent = [[e[i, j] for j in range(3)] for i in range(3)]
    (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = ent
    p = e00 * e11 - e01 * e10 + e00 * e22 - e02 * e20 + e11 * e22 - e12 * e21
    q = -(e00 * (e11 * e22 - e12 * e21) - e01 * (e10 * e22 - e12 * e20)
          + e02 * (e10 * e21 - e11 * e20))
    # r^3 + p r + q = 0 has roots u w^k - p / (3 u w^k); u^3 is the larger of
    # -q/2 +- s, clear of cancellation, and is 0 only when p = q = 0
    p3 = p / 3
    s = np.sqrt(q * q / 4 + p3 * p3 * p3)
    big = -q / 2 + np.where(q.real * s.real + q.imag * s.imag > 0, -s, s)
    u = np.cbrt(np.abs(big)) * np.exp(1j * (np.angle(big) / 3))
    pu = p3 / np.where(u == 0, 1.0, u)
    omega = np.exp(2j * np.pi / 3)
    roots = (u - pu, u * omega - pu * omega.conjugate(), u * omega.conjugate() - pu * omega)
    g01, g02, g12 = (_abs2(roots[i] - roots[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
    r = _argmax3(np.minimum(g01, g02), np.minimum(g01, g12), np.minimum(g02, g12))(*roots)

    rows = [[x - r if i == j else x for j, x in enumerate(row)] for i, row in enumerate(ent)]
    crosses = (_cross(rows[0], rows[1]), _cross(rows[0], rows[2]), _cross(rows[1], rows[2]))
    sizes = [sum(_abs2(x) for x in c) for c in crosses]
    choose = _argmax3(*sizes)
    norm = np.sqrt(choose(*sizes))
    # a zero cross product leaves E - rI of rank <= 1: e1 serves, and the
    # certificate decides
    dead = norm == 0
    norm[dead] = 1.0
    v = [choose(*(c[k] for c in crosses)) / norm for k in range(3)]
    v[0][dead] = 1.0

    mod = np.abs(v[0])
    flat = mod == 0
    mod[flat] = 1.0
    phase = v[0] / mod
    phase[flat] = 1.0
    w = [v[0] + phase, v[1], v[2]]
    beta = 2.0 / sum(_abs2(x) for x in w)
    wc = [x.conj() for x in w]
    ew = [ent[i][0] * w[0] + ent[i][1] * w[1] + ent[i][2] * w[2] for i in range(3)]
    # column j of F = E H, and w* F
    fcol = [[ent[i][j] - beta * ew[i] * wc[j] for i in range(3)] for j in range(3)]
    wf = [wc[0] * f[0] + wc[1] * f[1] + wc[2] * f[2] for f in fcol]

    def b(i, j):
        return fcol[j][i] - beta * w[i] * wf[j]

    dropped = np.sqrt(_abs2(b(1, 0)) + _abs2(b(2, 0)))
    return np.stack([b(0, 0), *_pair_eigvals(b(1, 1), b(1, 2), b(2, 1), b(2, 2))]), dropped


def stack_eigvals(m):
    """Eigenvalues of each matrix of an (n, d, d) stack, as an (n, d) complex
    array in no particular order.

    Orders 1 to 3 make no per-matrix LAPACK call: d = 1 returns the entry,
    d = 2 the closed form mean +- sqrt(h^2 + bc), and d = 3 deflates the
    best-separated root of the characteristic cubic with one Householder
    reflector (``_deflated_eigvals``).  Each order-3 result is exact for a
    matrix within the deflation's dropped column of M; a matrix whose dropped
    column exceeds ``_DEFLATE_CERT`` * eps * max |M_ij| goes to
    ``np.linalg.eigvals``, in one call with the other uncertified matrices.
    Stacks of order 0 or above 3, or of fewer than ``_STACK_EIG_MIN`` matrices,
    go to ``np.linalg.eigvals`` whole.  Values agree with LAPACK's to
    rounding, not bit for bit.  A NaN or infinite entry raises LinAlgError,
    as LAPACK does.
    """
    m = np.asarray(m, dtype=complex)
    n, d = m.shape[0], m.shape[-1]
    if not 1 <= d <= 3 or n < _STACK_EIG_MIN:
        return np.linalg.eigvals(m)
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    if d == 1:
        return m[:, :, 0].copy()
    # entry-major: each entry of the stack is one contiguous (n,) array, with
    # no copy when m is a view of entry-major storage, as ``eval_psi_grid``
    # returns; it is read, never written
    e = np.ascontiguousarray(m.transpose(1, 2, 0))
    mag = np.abs(e)
    size = mag.max(axis=(0, 1))
    shift = sum(e[i, i] for i in range(d)) / d
    diag = [e[i, i] - shift for i in range(d)]
    for i in range(d):
        mag[i, i] = np.abs(diag[i])
    # a power of two keeps the scaling exact and the cubic clear of overflow
    scale = np.ldexp(1.0, np.frexp(mag.max(axis=(0, 1)))[1])
    e = e / scale
    for i in range(d):
        e[i, i] = diag[i] / scale
    if d == 2:
        return (shift + scale * np.stack(_pair_eigvals(e[0, 0], e[0, 1], e[1, 0], e[1, 1]))).T
    vals, dropped = _deflated_eigvals(e)
    out = (shift + scale * vals).T
    ok = (scale * dropped <= _DEFLATE_CERT * np.finfo(float).eps * size) & np.isfinite(out).all(axis=1)
    if not ok.all():
        out[~ok] = np.linalg.eigvals(m[~ok])
    return out


def kernel(m, rel, floor, guard=None, tol=DEFAULT):
    """Orthonormal basis, as columns, of the numerical kernel of ``m``.

    Singular values at most the cut max(floor, rel * s_max) count as zero.
    When ``guard`` names the matrix, a singular value inside
    (cut / tol.rank_guard, cut * tol.rank_guard) raises DegenerateCluster,
    whose reason starts with that name.  A tall matrix takes the thin SVD,
    whose vh is square and spans the whole kernel; only a wide one needs the
    full vh.
    """
    rows, cols = m.shape
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    cut = max(floor, rel * s[0]) if s.size else floor
    if guard and np.any((s > cut / tol.rank_guard) & (s < cut * tol.rank_guard)):
        raise DegenerateCluster(f"{guard} singular value inside the guard band")
    return vh[int(np.count_nonzero(s > cut)):].conj().T


# ---------------------------------------------------------------------------
# clustering and matching


def _as_points(points):
    """A nonempty list of complex scalars or tuples as a (k, dim) array."""
    return np.asarray(points, dtype=complex).reshape(len(points), -1)


def _distances(a, b):
    """Max-abs distances between the rows of two (k, dim) point arrays."""
    return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)


def cluster_points(points, radius):
    """Agglomerative (chain) clustering of complex scalars or tuples: the
    connected components of the graph joining points at most ``radius``
    apart, each a sorted index list, in the order of their first index."""
    if not len(points):
        return []
    pts = _as_points(points)
    reach = _distances(pts, pts) <= radius
    # each boolean squaring doubles the path length the matrix spans; at the
    # fixed point a row's first True is the least index of its component
    grown = reach @ reach
    while not np.array_equal(grown, reach):
        reach, grown = grown, grown @ grown
    first = reach.argmax(axis=1)
    return [np.flatnonzero(first == f).tolist() for f in np.unique(first)]


def _cluster_means(points, radius):
    """(mean, count) of each cluster of ``cluster_points``, sorted by mean;
    no points give no clusters."""
    if not len(points):
        return []
    pts = _as_points(points)
    out = [(pts[g].mean(axis=0), len(g)) for g in cluster_points(points, radius)]
    out.sort(key=lambda cm: tuple((v.real, v.imag) for v in cm[0]))
    return out


def _row_minima(ent):
    """Row minima and first row argmins of each matrix of an entry-major
    (m, m, k) stack, as two (m, k) arrays, in one entry-wise pass over the
    short axis.  A minimum is an exact selection, so the minima are those of
    ``min``; the strict comparison keeps the first of tied columns, as
    ``argmin`` does."""
    rowmin, first = ent[:, 0], np.zeros((ent.shape[0], ent.shape[2]), dtype=int)
    for j in range(1, ent.shape[1]):
        less = ent[:, j] < rowmin
        rowmin = np.where(less, ent[:, j], rowmin)
        first[less] = j
    return rowmin, first


def assignment_max(cost):
    """Largest cost in an optimal (min-sum) assignment, for each matrix of a
    (k, m, m) stack.

    Row-minimum certificate: the sum of the row minima bounds every
    assignment's sum from below.  When some permutation picks a minimum in
    every row, every optimal assignment picks only row minima, and its
    largest cost is the largest row minimum.  A matrix is certified when its
    first row argmins are distinct columns, or when its diagonal attains
    every row minimum (repeated points, whose rows are constant).  Only the
    other matrices, and those with a non-finite cost, go to
    ``linear_sum_assignment``, one call each; ``scipy.optimize`` is imported
    on the first such call.  For m <= 4 the minima, the argmins and both
    certificates are read entry-wise off (k,) arrays (``_row_minima``), with
    no reduction over a short axis.
    """
    cost = np.asarray(cost, dtype=float)
    k, m = cost.shape[0], cost.shape[-1]
    if 1 <= m <= 4:
        # entry-major: ent[i, j] is one contiguous (k,) array, with no copy
        # when cost is a view of entry-major storage
        ent = np.ascontiguousarray(cost.transpose(1, 2, 0))
        finite = np.isfinite(ent).all(axis=(0, 1))
        rowmin, first = _row_minima(ent)
        # m argmins in range(m) are distinct when they cover every column
        seen = np.zeros(k, dtype=int)
        diagonal = np.ones(k, dtype=bool)
        for i in range(m):
            seen |= 1 << first[i]
            diagonal &= ent[i, i] == rowmin[i]
        certified = (seen == (1 << m) - 1) | diagonal
        out = rowmin.max(axis=0)
    else:
        finite = np.isfinite(cost).all(axis=(1, 2))
        rowmin = cost.min(axis=2)
        cols = np.sort(cost.argmin(axis=2), axis=1)
        certified = np.all(cols[:, 1:] != cols[:, :-1], axis=1) | np.all(
            np.diagonal(cost, axis1=1, axis2=2) == rowmin, axis=1)
        out = rowmin.max(axis=1)
    fallback = np.flatnonzero(~(certified & finite))
    if fallback.size:
        from scipy.optimize import linear_sum_assignment

        for i in fallback:
            c = cost[i]
            out[i] = c[linear_sum_assignment(c)].max()
    return out


def matching_distance(a, b):
    """Optimal-assignment max distance between equal-size point lists;
    returns inf when the cardinalities differ."""
    if len(a) != len(b):
        return float("inf")
    if not a:
        return 0.0
    cost = _distances(_as_points(a), _as_points(b))
    return float(assignment_max(cost[None])[0])


# ---------------------------------------------------------------------------
# pairs


def _frozen(a):
    """A read-only C-ordered copy of an array."""
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CommutingPair:
    """A validated pair; equality and hash are by identity, since the
    fields are arrays."""

    t1: np.ndarray
    t2: np.ndarray
    commutator_norm: float
    norms: tuple
    radii: tuple           # spectral radii of T1 and T2
    tol: object = field(default=DEFAULT, repr=False)

    @property
    def n(self):
        return self.t1.shape[0]

    @property
    def purity_margins(self):
        return (1.0 - self.radii[0], 1.0 - self.radii[1])

    @property
    def pure(self):
        return max(self.radii) < 1.0

    @cached_property
    def defect_ranks(self):
        """Ranks of I - T1 T1* and I - T2 T2*, under the validation tolerances;
        computed on first read."""
        return (defect(self.t1, tol=self.tol)[1], defect(self.t2, tol=self.tol)[1])


def validate_pair(t1, t2, require_pure=False, tol=DEFAULT):
    """Validate a pair of commuting contractive matrices and attach metadata.

    The spec invariants raise: NonCommuting, NotContractive, and NotPure when
    ``require_pure`` is set.
    """
    t1 = np.asarray(t1, dtype=complex)
    t2 = np.asarray(t2, dtype=complex)
    if t1.ndim != 2 or t1.shape[0] != t1.shape[1] or t1.shape != t2.shape:
        raise ValueError("expected two square matrices of equal size")
    if t1.size == 0:
        raise ValueError("t1 and t2 are empty; a pair needs matrices of size at least 1")
    comm = opnorm(t1 @ t2 - t2 @ t1)
    norms = (opnorm(t1), opnorm(t2))
    if comm > tol.tol_commute * max(1.0, norms[0] * norms[1]):
        raise NonCommuting(f"commutator norm {comm:.3e}")
    for k, nm in enumerate(norms):
        if nm > 1.0 + tol.tol_norm:
            raise NotContractive(f"||T{k + 1}|| = {nm:.12f} exceeds 1")
    pair = CommutingPair(t1=_frozen(t1), t2=_frozen(t2), commutator_norm=comm, norms=norms,
                         radii=(spectral_radius(t1), spectral_radius(t2)), tol=tol)
    if require_pure and not pair.pure:
        raise NotPure(f"spectral radii {pair.radii[0]:.12f}, {pair.radii[1]:.12f}")
    return pair


def defect(t, tol=DEFAULT):
    """Defect data of a contraction: (I - TT*)^(1/2), its rank, a range basis."""
    t = np.asarray(t, dtype=complex)
    nm = opnorm(t)
    if nm > 1.0 + tol.tol_norm:
        raise NotContractive(f"||T|| = {nm:.12f} exceeds 1")
    g = np.eye(t.shape[0]) - t @ t.conj().T
    vals, vecs = np.linalg.eigh(g)
    vals = np.clip(vals.real, 0.0, None)
    droot = (vecs * np.sqrt(vals)) @ vecs.conj().T
    thresh = tol.tol_rank * max(1.0, float(vals.max()) if vals.size else 1.0)
    keep = vals > thresh
    rank = int(np.count_nonzero(keep))
    basis = vecs[:, keep]
    return droot, rank, basis


def pair_table(pair, a, b):
    """The monomial table T1^i T2^j (i < a, j < b) of the pair, (a, b, n, n)."""
    t1 = pair.t1 if isinstance(pair, CommutingPair) else np.asarray(pair[0])
    t2 = pair.t2 if isinstance(pair, CommutingPair) else np.asarray(pair[1])
    return monomial_table(t1, t2, a, b, np.eye(t1.shape[0], dtype=complex), np.matmul)


def poly_stack(polys, pair):
    """Values of a nonempty family of bivariate polynomials on the pair, as a
    (K, n, n) stack: the family's coefficient rows, zero-padded to the (a, b)
    box they share, times the pair's monomial table T1^i T2^j.

    For a contractive pair each table entry is a product of at most a + b
    factors of norm at most 1, so each slice is within
    3 (a + b + ab) n^2 u sum|c_ij| of its exact value in 2-norm, u = 2^-53,
    to first order in u; nested Horner obeys the same bound.
    """
    if not polys:
        raise ValueError("poly_stack needs at least one polynomial")
    rows = coefficient_rows(polys)
    return family_values(rows, pair_table(pair, *rows.shape[1:]))


def poly_apply(p, pair):
    """Value of a bivariate polynomial on the pair, the one-polynomial case
    of ``poly_stack``."""
    return poly_stack([p], pair)[0]


def blaschke_apply(b, t):
    """Evaluate a finite Blaschke product on a matrix via its rational form."""
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    out = b.constant * np.eye(n, dtype=complex)
    for a, m in b.zeros:
        num = a * np.eye(n) - t
        den = np.eye(n) - np.conj(a) * t
        fac = np.linalg.solve(den, num)
        for _ in range(m):
            out = out @ fac
    return out


# ---------------------------------------------------------------------------
# joint spectra


@dataclass(frozen=True)
class JointSpectrum:
    points: tuple          # ((lambda, mu), ...); the Taylor spectrum keeps multiplicity
    witnesses: tuple = ()  # common eigenvectors of the joint point spectrum


def _jordan_clusters(t, scale, tol):
    """Jordan data of each eigenvalue cluster of t: (lambda, index, Q),
    lambda the cluster mean, index the size of its largest Jordan block and
    Q an orthonormal basis of its generalized eigenspace
    ker (t - lambda)^index.

    Clusters merge the eigenvalues within ``_EIG_MERGE``, rejoining a Jordan
    block of size m that rounding split by about (eps ||t||)^(1/m); the
    kernels of the powers (t - lambda)^k decide whether that was right.
    Each comes from ``kernel``: a singular value is zero when it is at most
    max(1e-12 * scale * ||t - lambda||^(k-1), tol_rank * s_max), the floor
    being the roundoff of k products of the shift, and one inside the
    rank_guard band of that cut raises DegenerateCluster.  The powers rise
    until the kernel's dimension reaches the cluster's count, and the index
    is that power.  A kernel that does not grow before then, or one that
    passes the count, raises DegenerateCluster, so eigenvalues that are
    distinct to the rank rule are never merged.
    """
    n = t.shape[0]
    if n == 1:  # the whole space, with no decision to make
        return [(complex(t[0, 0]), 1, np.ones((1, 1), dtype=complex))]
    out = []
    for center, count in _cluster_means(np.linalg.eigvals(t), _EIG_MERGE):
        lam = complex(center[0])
        shifted = t - lam * np.eye(n)
        # the shift's norm enters the floor from the second power on
        shift_norm = max(opnorm(shifted), 1e-300) if count > 1 else 1.0
        power, dims = np.eye(n, dtype=complex), [0]
        while dims[-1] < count:
            power = power @ shifted
            floor = 1e-12 * scale * shift_norm ** (len(dims) - 1)
            q = kernel(power, tol.tol_rank, floor,
                       f"rank of (T - {lam:.6g})^{len(dims)}:", tol=tol)
            dims.append(q.shape[1])
            if dims[-1] <= dims[-2]:
                break
        if dims[-1] != count:
            raise DegenerateCluster(
                f"cluster of {count} eigenvalues at {lam:.6g}: the powers of "
                f"T - lambda have kernels of dimension {dims[1:]}"
            )
        out.append((lam, len(dims) - 1, q))
    return out


@lru_cache(maxsize=8)
def _jordan_of(data, n, scale, tol):
    """``_jordan_clusters`` of the n x n complex matrix whose bytes are
    ``data``, kept for the last few matrices: one certification asks for T1
    in ``minimal_blaschke`` and again in ``_joint_spaces``, and so for S1 of
    the constrained pair, and each is analysed once.  The bases are
    read-only."""
    t = np.frombuffer(data, dtype=complex).reshape(n, n)
    return tuple((lam, index, _frozen(q)) for lam, index, q in _jordan_clusters(t, scale, tol))


def _mean_eigenvalue(m, q):
    """trace(Q* m Q) / dim Q: the mean eigenvalue of m on an invariant
    subspace with orthonormal basis Q."""
    return complex(np.trace(q.conj().T @ m @ q)) / q.shape[1]


@lru_cache(maxsize=8)
def _joint_spaces(pair, tol):
    """The joint generalized eigenspaces of a commuting pair, as
    (lambda, mu, V): V a read-only orthonormal basis, lambda and mu the
    traces of T1 and T2 on it over its dimension.

    T2 leaves each generalized eigenspace Q of T1 invariant, since the pair
    commutes, and V = Q Qb for each generalized eigenspace Qb of the
    compression Q* T2 Q; both come from ``_jordan_clusters``, which raises
    DegenerateCluster where a rank decision is not clear.  No Schur
    factorization and no random combination is used.  Kept for the last few
    pairs, so that both joint spectra of a pair read one traversal.
    """
    t1, t2 = pair.t1, pair.t2
    scale = max(1.0, pair.norms[1])
    out = []
    for _, _, q in _jordan_of(t1.tobytes(), pair.n, max(1.0, pair.norms[0]), tol):
        lam = _mean_eigenvalue(t1, q)
        block = q.conj().T @ t2 @ q
        for _, _, qb in _jordan_clusters(block, scale, tol):
            out.append((lam, _mean_eigenvalue(block, qb), _frozen(q @ qb)))
    return tuple(out)


def joint_spectrum_taylor(pair, tol=DEFAULT):
    """Joint (Taylor) spectrum of a commuting pair, with multiplicity: each
    point (lambda, mu) of ``_joint_spaces`` as often as its space's
    dimension, since a basis that triangularizes T2 on the space
    triangularizes T1 too, whose only eigenvalue there is lambda.  The
    repeats of a point are bit-equal copies, and distinct points come from
    distinct spaces, so ``dict.fromkeys`` gives the distinct points in
    order."""
    points = []
    for lam, mu, v in _joint_spaces(pair, tol):
        points += [(lam, mu)] * v.shape[1]
    return JointSpectrum(points=tuple(points))


def joint_point_spectrum(pair, tol=DEFAULT):
    """Joint eigenvalues witnessed by common eigenvectors.

    Every common eigenvector lies in one joint generalized eigenspace V of
    ``_joint_spaces``, with eigenvalues its (lambda, mu).  The witnesses at
    that point are V times the kernel of [(T1 - lambda) V; (T2 - mu) V], cut
    at tol_eig * max(1, ||T1||, ||T2||) under the rank guard: an orthonormal
    basis of the joint eigenspace, each witness repeating its point.
    """
    cut = tol.tol_eig * max(1.0, *pair.norms)
    points, witnesses = [], []
    for lam, mu, v in _joint_spaces(pair, tol):
        residual = np.vstack([pair.t1 @ v - lam * v, pair.t2 @ v - mu * v])
        w = v @ kernel(residual, 0.0, cut, f"joint eigenspace at ({lam:.6g}, {mu:.6g}):", tol=tol)
        points += [(lam, mu)] * w.shape[1]
        witnesses += list(w.T)
    return JointSpectrum(points=tuple(points), witnesses=tuple(witnesses))


def minimal_blaschke(t, tol=DEFAULT):
    """Minimal Blaschke product annihilating a pure matrix.

    Zeros are the eigenvalue clusters of T; each multiplicity is the largest
    Jordan block size, read off the numerical rank sequence of (T - lambda)^k
    by ``_jordan_clusters``.  Inconsistent rank decisions raise
    DegenerateCluster.
    """
    t = np.asarray(t, dtype=complex)
    vals = np.linalg.eigvals(t)
    if vals.size and np.abs(vals).max() >= 1.0:
        raise NotPure("minimal Blaschke product requires spectral radius < 1")
    scale = max(1.0, opnorm(t))
    zeros = [(lam, index) for lam, index, _ in _jordan_of(t.tobytes(), t.shape[0], scale, tol)]
    b = BlaschkeProduct(zeros)
    res = opnorm(blaschke_apply(b, t))
    if res > tol.tol_ann * scale:
        raise DegenerateCluster(
            f"candidate minimal Blaschke product has ||b(T)|| = {res:.3e}"
        )
    return b
