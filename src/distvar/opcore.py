"""Commuting contractive matrix pairs: validation, polynomial and Blaschke
calculus, joint spectra.

Point-set semantics used throughout: eigenvalue clusters are merged
agglomeratively, cluster means are the reported locations (the mean of a
split Jordan cluster is accurate to machine order), and set comparisons use
optimal assignment with an explicit distance cap.  Distinct clusters closer
than the warning gap route the computation to DegenerateCluster rather than
silently deciding.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur
from scipy.optimize import linear_sum_assignment

from .errors import (
    DegenerateCluster,
    NonCommuting,
    NotContractive,
    NotPure,
    TriangularizationFailed,
)
from .poly import BlaschkeProduct, Poly2
from .tolerances import DEFAULT

_EIG_MERGE = 3e-3  # merge radius for eigenvalues of a single matrix


def opnorm(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def spectral_radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(m)))) if m.size else 0.0


# ---------------------------------------------------------------------------
# clustering and matching


def cluster_points(points, radius):
    """Agglomerative (chain) clustering of complex scalars or tuples."""
    pts = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in points]
    n = len(pts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.max(np.abs(pts[i] - pts[j])) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [sorted(g) for g in groups.values()]


def _cluster_means(points, radius):
    pts = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in points]
    out = []
    for g in cluster_points(points, radius):
        out.append((np.mean([pts[i] for i in g], axis=0), len(g)))
    out.sort(key=lambda cm: tuple((v.real, v.imag) for v in cm[0]))
    return out


def dedupe_points(points, tol=DEFAULT):
    """Cluster means of a point multiset, merged within ``tol.cluster_merge``;
    raises DegenerateCluster when two distinct clusters are closer than
    ``tol.cluster_warn``."""
    warn_gap = tol.cluster_warn
    means = _cluster_means(points, tol.cluster_merge)
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            gap = float(np.max(np.abs(means[i][0] - means[j][0])))
            if gap < warn_gap:
                raise DegenerateCluster(
                    f"distinct clusters at distance {gap:.3e} < {warn_gap:.1e}"
                )
    return [tuple(complex(v) for v in m) if m.size > 1 else complex(m[0])
            for m, _ in means]


def matching_distance(a, b):
    """Optimal-assignment max distance between equal-size point lists;
    returns inf when the cardinalities differ."""
    if len(a) != len(b):
        return float("inf")
    if not a:
        return 0.0
    av = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in a]
    bv = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in b]
    cost = np.array([[float(np.max(np.abs(x - y))) for y in bv] for x in av])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# pairs


@dataclass(frozen=True)
class CommutingPair:
    t1: np.ndarray
    t2: np.ndarray
    commutator_norm: float
    norms: tuple
    purity_margins: tuple
    defect_ranks: tuple
    pure: bool

    @property
    def n(self):
        return self.t1.shape[0]


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
    margins = (1.0 - spectral_radius(t1), 1.0 - spectral_radius(t2))
    if comm > tol.tol_commute * max(1.0, norms[0] * norms[1]):
        raise NonCommuting(f"commutator norm {comm:.3e}")
    for k, nm in enumerate(norms):
        if nm > 1.0 + tol.tol_norm:
            raise NotContractive(f"||T{k + 1}|| = {nm:.12f} exceeds 1")
    if require_pure and min(margins) <= 0.0:
        raise NotPure(
            f"spectral radii {1 - margins[0]:.12f}, {1 - margins[1]:.12f}"
        )
    ranks = (defect(t1, tol=tol)[1], defect(t2, tol=tol)[1])
    t1 = t1.copy()
    t2 = t2.copy()
    t1.setflags(write=False)
    t2.setflags(write=False)
    return CommutingPair(
        t1=t1,
        t2=t2,
        commutator_norm=comm,
        norms=norms,
        purity_margins=margins,
        defect_ranks=ranks,
        pure=bool(min(margins) > 0.0),
    )


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


def poly_apply(p, pair):
    """Evaluate a bivariate polynomial on the pair by nested Horner."""
    t1 = pair.t1 if isinstance(pair, CommutingPair) else np.asarray(pair[0])
    t2 = pair.t2 if isinstance(pair, CommutingPair) else np.asarray(pair[1])
    c = p.coeffs if isinstance(p, Poly2) else np.atleast_2d(np.asarray(p, dtype=complex))
    n = t1.shape[0]
    eye = np.eye(n, dtype=complex)

    def horner_w(row):
        out = row[-1] * eye
        for k in range(row.size - 2, -1, -1):
            out = t2 @ out + row[k] * eye
        return out

    out = horner_w(c[-1])
    for i in range(c.shape[0] - 2, -1, -1):
        out = t1 @ out + horner_w(c[i])
    return out


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


def joint_spectrum_taylor(pair):
    """Joint (Taylor-style) spectrum via simultaneous unitary triangularization.

    A seeded generic real combination a*T1 + b*T2 is Schur-triangularized and
    the same basis is verified to triangularize both matrices; the diagonal
    pairs are the joint spectrum.  Fresh combinations cross-check the
    eigenvalue sets.  Up to five combinations are tried.  The triangularity
    cut (1e-8 * scale) and the cross-check cap (1e-3) are fixed literals.
    """
    rng = np.random.default_rng(0)
    t1, t2 = pair.t1, pair.t2
    scale = max(1.0, pair.norms[0], pair.norms[1])
    last_defect = None
    for _ in range(5):
        a, b = rng.normal(size=2)
        _, q = schur(a * t1 + b * t2, output="complex")
        u1 = q.conj().T @ t1 @ q
        u2 = q.conj().T @ t2 @ q
        low = max(opnorm(np.tril(u1, -1)), opnorm(np.tril(u2, -1)))
        if low <= 1e-8 * scale:
            pts = tuple(
                (complex(u1[i, i]), complex(u2[i, i])) for i in range(t1.shape[0])
            )
            for _ in range(2):
                aa, bb = rng.normal(size=2)
                ref = np.linalg.eigvals(aa * t1 + bb * t2)
                combo = [aa * lam + bb * mu for lam, mu in pts]
                if matching_distance(list(ref), combo) > 1e-3 * max(
                    1.0, abs(aa) + abs(bb)
                ):
                    break
            else:
                return JointSpectrum(points=pts)
        last_defect = low
    raise TriangularizationFailed(
        f"no generic combination triangularized the pair (defect {last_defect})"
    )


def _eigen_clusters(t):
    return _cluster_means(np.linalg.eigvals(t), _EIG_MERGE)


def joint_point_spectrum(pair, tol=DEFAULT):
    """Joint eigenvalues witnessed by common eigenvectors.

    For each eigenvalue cluster of T1 the kernel of T1 - lambda I is computed
    and T2 is restricted to it; eigenpairs of the restriction whose witnesses
    satisfy both eigen-equations within ``tol_eig`` are returned.
    """
    t1, t2 = pair.t1, pair.t2
    n = t1.shape[0]
    scale = max(1.0, pair.norms[0], pair.norms[1])
    points = []
    witnesses = []
    for center, count in _eigen_clusters(t1):
        lam = complex(center[0])
        u, s, vh = np.linalg.svd(t1 - lam * np.eye(n))
        thresh = max(1e-7, 1e3 * np.finfo(float).eps * n) * scale
        kdim = int(np.count_nonzero(s <= thresh))
        if kdim == 0:
            continue
        kbasis = vh.conj().T[:, n - kdim:]
        m = kbasis.conj().T @ t2 @ kbasis
        evals, evecs = np.linalg.eig(m)
        for idx in range(kdim):
            w = kbasis @ evecs[:, idx]
            nrm = np.linalg.norm(w)
            if nrm < 1e-12:
                continue
            w = w / nrm
            lam_r = complex(w.conj() @ t1 @ w)
            mu_r = complex(w.conj() @ t2 @ w)
            r1 = float(np.linalg.norm(t1 @ w - lam_r * w))
            r2 = float(np.linalg.norm(t2 @ w - mu_r * w))
            if max(r1, r2) <= tol.tol_eig * scale:
                points.append((lam_r, mu_r))
                witnesses.append(w)
    order = sorted(
        range(len(points)),
        key=lambda i: (points[i][0].real, points[i][0].imag,
                       points[i][1].real, points[i][1].imag),
    )
    return JointSpectrum(
        points=tuple(points[i] for i in order),
        witnesses=tuple(witnesses[i] for i in order),
    )


def minimal_blaschke(t, tol=DEFAULT):
    """Minimal Blaschke product annihilating a pure matrix.

    Zeros are the eigenvalue clusters of T; each multiplicity is the largest
    Jordan block size, read off the numerical rank sequence of (T - lambda)^k.
    Inconsistent rank decisions raise DegenerateCluster.
    """
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    if spectral_radius(t) >= 1.0:
        raise NotPure("minimal Blaschke product requires spectral radius < 1")
    scale = max(1.0, opnorm(t))
    zeros = []
    total_alg = 0
    for center, count in _eigen_clusters(t):
        lam = complex(center[0])
        shifted = t - lam * np.eye(n)
        shift_norm = max(opnorm(shifted), 1e-300)
        ranks = [n]
        power = np.eye(n, dtype=complex)
        for k in range(1, n + 2):
            power = power @ shifted
            s = np.linalg.svd(power, compute_uv=False)
            # numerical rank relative to the power's own scale, with a floor
            # at the roundoff level of the shift propagated through k products
            floor = 1e-12 * scale * shift_norm ** (k - 1)
            smax = float(s.max()) if s.size else 0.0
            if smax <= floor:
                ranks.append(0)
            else:
                thresh = tol.tol_rank * smax
                live = s[s > floor]
                ambiguous = (live > thresh / tol.rank_guard) & (
                    live < thresh * tol.rank_guard
                )
                if np.any(ambiguous):
                    raise DegenerateCluster(
                        f"singular value within the guard band of the rank "
                        f"threshold at eigenvalue {lam}"
                    )
                ranks.append(int(np.count_nonzero(live > thresh)))
            if ranks[-1] == ranks[-2]:
                break
        mult = len(ranks) - 2
        alg = n - ranks[-1]
        if alg != count:
            raise DegenerateCluster(
                f"cluster count {count} disagrees with algebraic multiplicity "
                f"{alg} at eigenvalue {lam}"
            )
        total_alg += alg
        zeros.append((lam, mult))
    if total_alg != n:
        raise DegenerateCluster("eigenvalue clusters do not exhaust the spectrum")
    b = BlaschkeProduct(zeros)
    res = opnorm(blaschke_apply(b, t))
    if res > tol.tol_ann * scale:
        raise DegenerateCluster(
            f"candidate minimal Blaschke product has ||b(T)|| = {res:.3e}"
        )
    return b
