"""Isometric co-extensions, symbol construction, and the constrained model.

The embedding J maps H into a truncated coefficient model of H^2 tensor C^d:
row block m holds the defect-coordinate vector of D T1*^m, so that
J T1* = (shift*) J holds exactly block-wise and ||J*J - I|| equals
||T1^(N+1)||^2, which fixes the truncation degree.

Every model operator is built in closed form.  The compression of
(M_z tensor I, M_Psi) to a co-invariant model space K_b tensor C^d is
multiplicative (Sarason 1967), so it equals (S tensor I, Psi(S)) for the
compressed shift S of K_b (``model_shift``) and the functional calculus
``psi_of_matrix``.  The instance pairs live on K_theta, the constrained
pair on a subspace of K_(m1); no Taylor series is read.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AnnTrivial,
    DegenerateCluster,
    NoInnerSolution,
    NotPure,
    NotPureRealization,
    NotUnitaryColligation,
    TruncationNotConverged,
)
from .inner import from_colligation, interior_pureness, psi_of_matrix
from .opcore import (
    CommutingPair,
    defect,
    joint_point_spectrum,
    matching_distance,
    minimal_blaschke,
    opnorm,
    poly_apply,
    spectral_radius,
    validate_pair,
)
from .poly import BlaschkeProduct
from .report import FAIL, PASS, CertEntry, inconclusive
from .tolerances import DEFAULT

_EMBED_CAP = 5000  # powers of T1 normed before embed_J gives up

# ---------------------------------------------------------------------------
# minimal isometric co-extension


def embed_J(pair, tol=DEFAULT):
    """Truncated minimal isometric co-extension of T1.

    Returns ``(J, n_trunc, w)`` where J has row blocks  w* D T1*^m  for
    m = 0..n_trunc in the defect-range coordinates ``w`` (cut at
    ``tol.tol_rank``) and ||J*J - I|| = ||T1^(n_trunc+1)||^2 <= tol.tol_trunc.
    """
    if not pair.pure:
        raise NotPure("co-extension requires a pure pair")
    t1 = pair.t1
    droot, rank, w = defect(t1, tol=tol)
    n = t1.shape[0]
    wd = w.conj().T @ droot  # d x n
    # the powers T1^m are normed a chunk at a time, as one stacked 2-norm
    power = np.eye(n, dtype=complex)
    for start in range(1, _EMBED_CAP + 1, 16):
        chunk = []
        for _ in range(min(16, _EMBED_CAP + 1 - start)):
            power = power @ t1
            chunk.append(power)
        norms = np.linalg.norm(np.array(chunk), 2, axis=(1, 2)).tolist()
        hit = next((i for i, v in enumerate(norms) if v ** 2 <= tol.tol_trunc), None)
        if hit is not None:
            n_trunc = start + hit - 1
            break
    else:
        raise TruncationNotConverged(
            f"||T1^m||^2 did not reach {tol.tol_trunc:.1e} within {_EMBED_CAP} powers"
        )
    t1s = t1.conj().T
    blocks = [wd]
    for _ in range(n_trunc):
        blocks.append(blocks[-1] @ t1s)
    return np.vstack(blocks), n_trunc, w


def _unvec(x, d):
    return x.reshape(d, -1, order="F")


def _vec(m):
    return m.reshape(-1, order="F")


def _polar_unitary(m):
    """Unitary polar factor of a matrix."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _unitary_in_subspace(basis, rng):
    """Search a unitary matrix inside span(columns of basis).

    Alternating projection between the subspace and the unitary group gives a
    warm start; a Gauss-Newton iteration on the subspace coefficients then
    drives X*X - I to zero quadratically.
    """
    d = int(round(np.sqrt(basis.shape[0])))
    r = basis.shape[1]

    def as_matrix(c):
        return _unvec(basis @ c, d)

    def residual(c):
        x = as_matrix(c)
        return _vec(x.conj().T @ x - np.eye(d))

    def newton_polish(c):
        # damped Gauss-Newton; the unitary solution set is a manifold, so the
        # Jacobian is rank-deficient and the step needs a truncated lstsq
        u = np.concatenate([c.real, c.imag])

        def fval(uu):
            f = residual(uu[:r] + 1j * uu[r:])
            return np.concatenate([f.real, f.imag])

        for _ in range(60):
            fr = fval(u)
            nrm = np.linalg.norm(fr)
            if np.linalg.norm(fr, np.inf) <= 1e-13:
                break
            jac = np.empty((fr.size, 2 * r))
            h = 1e-7
            for t in range(2 * r):
                up = u.copy()
                up[t] += h
                jac[:, t] = (fval(up) - fr) / h
            step, *_ = np.linalg.lstsq(jac, -fr, rcond=1e-6)
            lam = 1.0
            for _ in range(25):
                if np.linalg.norm(fval(u + lam * step)) < nrm:
                    break
                lam *= 0.5
            else:
                break
            u = u + lam * step
        return u[:r] + 1j * u[r:]

    for _ in range(8):
        c = rng.normal(size=r) + 1j * rng.normal(size=r)
        x = basis @ c
        for _ in range(150):
            w = _polar_unitary(_unvec(x, d))
            x = basis @ (basis.conj().T @ _vec(w))
        c = basis.conj().T @ x
        c = newton_polish(c)
        w = as_matrix(c)
        if opnorm(w.conj().T @ w - np.eye(d)) <= 1e-10:
            return _polar_unitary(w)
    return None


def coextension_embedding(pair, psi, tol=DEFAULT, seed=0):
    """Embed the pair against a given symbol: returns (J, n_trunc, W, residuals).

    The defect coordinates of embed_J are only fixed up to a constant unitary,
    so the unitary W aligning J with the symbol is recovered from the linear
    intertwining identity   W R_0 T2* = Phi(W R_0),  Phi(X) = sum_k Psi_k* X T1*^k,
    and J is rotated accordingly before the residuals are measured.  As
    R_m = R_0 T1*^m and T1, T2 commute, the identity for every block R_m
    follows from this one.  vec Phi is Psi(T1^T)*, in closed form.  The blocks
    have as many rows as the defect rank of T1, so a pair whose defect rank is
    not the symbol's d raises NoInnerSolution.
    """
    j0, n_trunc, w = embed_J(pair, tol)
    d = psi.d
    if w.shape[1] != d:
        raise NoInnerSolution(
            f"the pair's defect rank {w.shape[1]} differs from the symbol's "
            f"dimension d = {d}"
        )
    n = pair.n
    blocks = j0.reshape(n_trunc + 1, d, n)
    t1s, t2s = pair.t1.conj().T, pair.t2.conj().T
    phi = psi_of_matrix(psi, pair.t1.T).conj().T
    # vec(W R) = kron(R^T, I) vec(W)
    eye = np.eye(d)
    system = np.kron((blocks[0] @ t2s).T, eye) - phi @ np.kron(blocks[0].T, eye)
    # n d rows and d^2 columns, and the defect rank d is at most n: the
    # system is never wide, so the thin vh spans the whole kernel
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    nullity = int(np.count_nonzero(svals <= max(1e-10, 1e-8 * svals[0])))
    if nullity == 0:
        raise NoInnerSolution(
            "the symbol does not intertwine any co-extension of the pair"
        )
    basis = vh.conj().T[:, vh.shape[0] - nullity :]
    if nullity == 1:
        w_align = _polar_unitary(_unvec(basis[:, 0], d))
    else:
        w_align = _unitary_in_subspace(basis, np.random.default_rng(seed))
        if w_align is None:
            raise NoInnerSolution("no unitary alignment found in the null space")
    aligned = w_align @ blocks
    j = aligned.reshape(-1, n)
    res_iso = opnorm(j.conj().T @ j - np.eye(n))
    shift_gaps = np.linalg.norm(aligned[:-1] @ t1s - aligned[1:], 2, axis=(1, 2))
    res_shift = shift_gaps.max(initial=0.0)  # J has a single block when T1 = 0
    x = aligned[0]
    res_symbol = opnorm(x @ t2s - _unvec(phi @ _vec(x), d))
    residuals = {
        "isometry": float(res_iso),
        "intertwine_shift": float(res_shift),
        "intertwine_symbol": float(res_symbol),
    }
    if res_symbol > tol.tol_intertwine:
        raise NoInnerSolution(
            f"intertwining residual {res_symbol:.3e} exceeds {tol.tol_intertwine:.1e}"
        )
    return j, n_trunc, w_align, residuals


# ---------------------------------------------------------------------------
# symbol construction


def construct_psi(pair, tol=DEFAULT, seed=0):
    """Inner symbol intertwining the pair, in closed form from Ando's identity.

    With defect coordinates e = w1* D_(T1*) and f = w2* D_(T2*) (those of
    embed_J), the commuting pair gives X*X = Y*Y for X = [e; f T1*] and
    Y = [e T2*; f].  The unitary U = [[A, B], [C, D]] with U X = Y is a
    lurking isometry, and its transfer function
    Psi(z) = A* + z C* (I - z D*)^(-1) B* intertwines the co-extension
    (Agler-McCarthy 2005, Das-Sarkar 2017).  The state dimension is
    rank D_(T2*).  ``seed`` is unused and kept for callers that pass it.
    """
    if not pair.pure:
        raise NotPure("symbol construction requires a pure pair")
    t1s, t2s = pair.t1.conj().T, pair.t2.conj().T
    droot1, d1, w1 = defect(pair.t1, tol=tol)
    droot2, _, w2 = defect(pair.t2, tol=tol)
    e = w1.conj().T @ droot1
    f = w2.conj().T @ droot2
    x = np.vstack([e, f @ t1s])
    y = np.vstack([e @ t2s, f])
    u = _polar_unitary(y @ x.conj().T)
    res = opnorm(u @ x - y)
    if res > tol.tol_intertwine * max(1.0, opnorm(x)):
        raise NoInnerSolution(f"lurking-isometry residual {res:.3e} is too large")
    a, b, c, d = u[:d1, :d1], u[:d1, d1:], u[d1:, :d1], u[d1:, d1:]
    try:
        psi = from_colligation(d.conj().T, b.conj().T, c.conj().T, a.conj().T, tol=tol)
    except (NotUnitaryColligation, NotPureRealization) as exc:
        raise NoInnerSolution(f"lurking isometry gives no pure symbol: {exc}") from exc
    rho, _ = interior_pureness(psi, n=128)
    if rho >= 1.0:
        raise NoInnerSolution(f"symbol is not pure: interior spectral radius {rho:.12f}")
    return psi


# ---------------------------------------------------------------------------
# model-space compression (instance generator)


def model_shift(b):
    """Compressed shift P M_z | K_b in the Malmquist-Takenaka basis of K_b.

    Basis function r (zeros a_1..a_D of b listed with multiplicity) is
    prod_{j<r} (z - a_j)/(1 - conj(a_j) z) * sqrt(1-|a_r|^2)/(1 - conj(a_r) z).
    The matrix is lower triangular with the zeros on its diagonal; entry
    (r, c), r > c, is sqrt(1-|a_r|^2) sqrt(1-|a_c|^2) prod_{c<k<r} (-conj a_k).
    """
    zs = np.array(b.zero_list(), dtype=complex)
    weights = np.sqrt(1.0 - np.abs(zs) ** 2)
    s = np.diag(zs)
    for c in range(zs.size):
        prod = 1.0
        for r in range(c + 1, zs.size):
            s[r, c] = weights[r] * weights[c] * prod
            prod *= -np.conj(zs[r])
    return s


def compress_pair(psi, theta, tol=DEFAULT):
    """Compress (M_z tensor I, M_Psi) to the model space K_theta tensor C^d.

    theta is a nonconstant scalar finite Blaschke product, so the space is
    jointly co-invariant and the compressed pair is the pure commuting pair
    (S tensor I, Psi(S)) of size deg(theta) * d, S = model_shift(theta).
    Basis order: function-major, then C^d coordinate.
    """
    if theta.degree == 0:
        raise ValueError("theta must be nonconstant")
    s = model_shift(theta)
    return validate_pair(np.kron(s, np.eye(psi.d)), psi_of_matrix(psi, s),
                         require_pure=True, tol=tol)


@dataclass(frozen=True)
class CoextensionBundle:
    pair: CommutingPair
    psi: object
    j: np.ndarray
    n_trunc: int
    align_unitary: np.ndarray
    m1: BlaschkeProduct
    kpsi_basis: np.ndarray   # ONB coordinates inside the model space of m1
    s1: np.ndarray
    s2: np.ndarray
    residuals: dict

    @property
    def kpsi_dim(self):
        return self.kpsi_basis.shape[1]


def constrained_coextension(pair, psi, basis, tol=DEFAULT, seed=0):
    """Constrained isometric co-extension of the pair for the given symbol.

    ``basis`` is the AnnihilatorBasis of the pair.  The intersection of the
    adjoint kernels of its generators is computed inside the model space
    K_(m1) tensor C^d (legitimate because m1 annihilates T1), where the
    model pair is compress_pair(psi, m1) and a generator f acts adjointly as
    f(model pair)*; the compressions of the model pair to that intersection
    form the constrained pair (S1, S2).
    """
    m1, ann_gens = basis.m1, basis.generators
    if m1.degree == 0:
        raise AnnTrivial("the univariate annihilator of T1 is trivial")
    model = compress_pair(psi, m1, tol=tol)
    stack = [poly_apply(f, model).conj().T for f in ann_gens]
    # the generators always include the minimal polynomials, so the stack is
    # never empty
    dim = model.n
    _, svals, vh = np.linalg.svd(np.vstack(stack))
    smax = svals[0] if svals.size else 0.0
    if smax <= 1e-12:
        q = np.eye(dim, dtype=complex)
    else:
        thresh = tol.kernel_rel * smax
        guard = (svals > thresh / tol.rank_guard) & (svals < thresh * tol.rank_guard)
        if np.any(guard):
            raise DegenerateCluster("kernel-cut singular value inside the guard band")
        nullity = dim - int(np.count_nonzero(svals > thresh))
        q = vh.conj().T[:, dim - nullity :] if nullity else np.zeros((dim, 0))
    s1 = q.conj().T @ model.t1 @ q
    s2 = q.conj().T @ model.t2 @ q
    residuals = {
        "s_commutator": opnorm(s1 @ s2 - s2 @ s1),
        "s1_radius": spectral_radius(s1),
        "s2_radius": spectral_radius(s2),
        "kpsi_dim": q.shape[1],
        "deg_m1": m1.degree,
    }
    j, n_trunc, w_align, emb_res = coextension_embedding(pair, psi, tol=tol, seed=seed)
    residuals.update(emb_res)
    return CoextensionBundle(
        pair=pair,
        psi=psi,
        j=j,
        n_trunc=n_trunc,
        align_unitary=w_align,
        m1=m1,
        kpsi_basis=q,
        s1=s1,
        s2=s2,
        residuals=residuals,
    )


def s_pair(bundle, tol=DEFAULT):
    """The constrained pair as a validated CommutingPair."""
    return validate_pair(bundle.s1, bundle.s2, require_pure=True, tol=tol)


def verify_coextension(bundle, variety, tol=DEFAULT):
    """Contract checks for a bundle against its variety polynomial.

    (a) the defining polynomial annihilates both the pair and the constrained
    pair, (b) joint point-spectrum points of the pair lie on the variety,
    (c) the minimal Blaschke product of S1 matches m1.
    """
    entries = []
    p = variety.p
    norm_pair = opnorm(poly_apply(p, bundle.pair))
    norm_s = opnorm(poly_apply(p, (bundle.s1, bundle.s2)))
    worst = max(norm_pair, norm_s)
    entries.append(CertEntry(
        name="variety-annihilates",
        anchor="defining-polynomial-annihilates-pair",
        status=PASS if worst <= tol.tol_ann else FAIL,
        margin=float(tol.tol_ann - worst),
        data={"pair_norm": norm_pair, "constrained_norm": norm_s},
    ))

    spec = joint_point_spectrum(bundle.pair, tol=tol)
    worst_p = 0.0
    for lam, mu in spec.points:
        worst_p = max(worst_p, abs(p(lam, mu)))
    entries.append(CertEntry(
        name="point-spectrum-on-variety",
        anchor="joint-eigenvalues-lie-on-variety",
        status=PASS if worst_p <= tol.tol_zset * max(1.0, p.scale) else FAIL,
        margin=float(tol.tol_zset * max(1.0, p.scale) - worst_p),
        data={"points": list(spec.points)},
    ))

    try:
        mb = minimal_blaschke(bundle.s1, tol=tol)
        dist = matching_distance(
            [(a, float(m)) for a, m in sorted(mb.zeros, key=lambda t: (t[0].real, t[0].imag))],
            [(a, float(m)) for a, m in sorted(bundle.m1.zeros, key=lambda t: (t[0].real, t[0].imag))],
        )
        ok = dist <= tol.match_cap
        entries.append(CertEntry(
            name="constrained-annihilator-generator",
            anchor="minimal-blaschke-of-s1-equals-m1",
            status=PASS if ok else FAIL,
            margin=float(tol.match_cap - dist),
            data={"zeros_s1": list(mb.zeros), "zeros_m1": list(bundle.m1.zeros)},
        ))
    except DegenerateCluster as exc:
        entries.append(inconclusive(
            "constrained-annihilator-generator", "minimal-blaschke-of-s1-equals-m1", exc
        ))
    return entries
