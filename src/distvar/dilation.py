"""Isometric co-extensions, symbol construction, and the constrained model.

The embedding J maps H into a truncated coefficient model of H^2 tensor C^d:
row block m holds the defect-coordinate vector of D T1*^m, so that
J T1* = (shift*) J holds exactly block-wise and ||J*J - I|| equals
||T1^(N+1)||^2, which fixes the truncation degree.

The constrained model space is computed inside the jet-kernel span of the
minimal Blaschke product of T1: derivative kernels are closed under adjoint
multipliers, so every operator acts exactly (Leibniz rule) and only the Gram
matrix carries analytic formulas.
"""

from dataclasses import dataclass
from math import comb, factorial, perm

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
from .inner import (
    from_colligation,
    interior_pureness,
    series_mul,
    taylor_at,
    taylor_until,
)
from .opcore import (
    CommutingPair,
    defect,
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

# ---------------------------------------------------------------------------
# minimal isometric co-extension


def embed_J(pair, tol_trunc=None, cap=5000):
    """Truncated minimal isometric co-extension of T1.

    Returns ``(J, n_trunc, w)`` where J has row blocks  w* D T1*^m  for
    m = 0..n_trunc in the defect-range coordinates ``w`` and
    ||J*J - I|| = ||T1^(n_trunc+1)||^2 <= tol_trunc.
    """
    tol_trunc = DEFAULT.tol_trunc if tol_trunc is None else tol_trunc
    if not pair.pure:
        raise NotPure("co-extension requires a pure pair")
    t1 = pair.t1
    droot, rank, w = defect(t1)
    n = t1.shape[0]
    wd = w.conj().T @ droot  # d x n
    t1s = t1.conj().T
    blocks = [wd]
    power = np.eye(n, dtype=complex)
    n_trunc = 0
    for m in range(1, cap + 1):
        power = power @ t1
        if opnorm(power) ** 2 <= tol_trunc:
            n_trunc = m - 1
            break
        blocks.append(blocks[-1] @ t1s)
    else:
        raise TruncationNotConverged(
            f"||T1^m||^2 did not reach {tol_trunc:.1e} within {cap} powers"
        )
    j = np.vstack(blocks)
    return j, n_trunc, w


def _unvec(x, d):
    return x.reshape(d, d, order="F")


def _vec(m):
    return m.reshape(-1, order="F")


def _polar_unitary(m):
    """Unitary polar factor of a matrix."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _unitary_in_subspace(basis, rng, iters=150, restarts=8, tol=1e-10):
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

    for _ in range(restarts):
        c = rng.normal(size=r) + 1j * rng.normal(size=r)
        x = basis @ c
        for _ in range(iters):
            w = _polar_unitary(_unvec(x, d))
            x = basis @ (basis.conj().T @ _vec(w))
        c = basis.conj().T @ x
        c = newton_polish(c)
        w = as_matrix(c)
        if opnorm(w.conj().T @ w - np.eye(d)) <= tol:
            return _polar_unitary(w)
    return None


def coextension_embedding(pair, psi, tol=DEFAULT, seed=0):
    """Embed the pair against a given symbol: returns (J, n_trunc, residuals).

    The defect coordinates of embed_J are only fixed up to a constant unitary,
    so the unitary aligning J with the symbol is recovered from the linear
    intertwining identity   W R_m T2* = sum_k Psi_k* W R_(m+k)   and J is
    rotated accordingly before the residuals are measured.
    """
    coeffs = taylor_until(psi, 1e-15)
    kk = coeffs.shape[0]
    j0, n_trunc, w = embed_J(pair, tol.tol_trunc)
    d = psi.d
    n = pair.n
    blocks = [j0[m * d : (m + 1) * d] for m in range(n_trunc + 1)]
    t1s = pair.t1.conj().T
    # extend exactly: R_(m+1) = R_m T1*, so alignment always has equations
    while len(blocks) < kk + 2:
        blocks.append(blocks[-1] @ t1s)
    m_eq = len(blocks) - kk + 1
    rows = []
    t2s = pair.t2.conj().T
    eyed = np.eye(d)
    for m in range(m_eq):
        op = np.kron((blocks[m] @ t2s).T, eyed)
        for k in range(kk):
            op = op - np.kron(blocks[m + k].T, coeffs[k].conj().T)
        rows.append(op)
    system = np.vstack(rows)
    # the left factor is unused, and forming it square costs O(rows^2); only a
    # wide system needs the full vh, whose extra rows span part of the kernel
    _, svals, vh = np.linalg.svd(system, full_matrices=system.shape[0] < system.shape[1])
    smax = svals[0] if svals.size else 0.0
    null_mask = svals <= max(1e-10, 1e-8 * smax)
    nullity = int(np.count_nonzero(null_mask)) + (vh.shape[0] - svals.size)
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
    aligned = [w_align @ b for b in blocks]
    n_trunc = len(blocks) - 1
    j = np.vstack(aligned)
    res_iso = opnorm(j.conj().T @ j - np.eye(n))
    res_shift = 0.0
    for m in range(n_trunc):
        res_shift = max(res_shift, opnorm(aligned[m] @ pair.t1.conj().T - aligned[m + 1]))
    res_symbol = 0.0
    for m in range(m_eq):
        lhs = aligned[m] @ t2s
        for k in range(kk):
            lhs = lhs - coeffs[k].conj().T @ aligned[m + k]
        res_symbol = max(res_symbol, opnorm(lhs))
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
    droot1, d1, w1 = defect(pair.t1)
    droot2, _, w2 = defect(pair.t2)
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
        psi = from_colligation(d.conj().T, b.conj().T, c.conj().T, a.conj().T,
                               tol_unitary=tol.tol_unitary)
    except (NotUnitaryColligation, NotPureRealization) as exc:
        raise NoInnerSolution(f"lurking isometry gives no pure symbol: {exc}") from exc
    rho, _ = interior_pureness(psi, n=128)
    if rho >= 1.0:
        raise NoInnerSolution(f"symbol is not pure: interior spectral radius {rho:.12f}")
    return psi


# ---------------------------------------------------------------------------
# model-space compression (instance generator)


def _hardy_coeff_length(max_mod, extra):
    if max_mod < 1e-12:
        return extra + 8
    return int(np.ceil(np.log(1e-18) / np.log(max_mod))) + extra + 8


def _model_basis_coeffs(theta, length):
    """Coefficient rows of the shifted-kernel orthonormal basis of K_theta.

    Basis function r (zeros a_1..a_D listed with multiplicity) is
    prod_{j<r} (z - a_j)/(1 - conj(a_j) z) * sqrt(1-|a_r|^2)/(1 - conj(a_r) z).
    """
    zs = theta.zero_list()
    dd = len(zs)
    rows = np.zeros((dd, length), dtype=complex)
    lead = np.zeros(length, dtype=complex)
    lead[0] = 1.0
    for r, a in enumerate(zs):
        kernel = np.sqrt(1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(length)
        rows[r] = np.convolve(lead, kernel)[:length]
        # multiply the running product by (z - a)/(1 - conj(a) z)
        factor = np.zeros(length, dtype=complex)
        factor[0] = -a
        factor[1:] = (1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(length - 1)
        lead = np.convolve(lead, factor)[:length]
    return rows


def compress_pair(psi, theta, tol=DEFAULT):
    """Compress (M_z tensor I, M_Psi) to the model space K_theta tensor C^d.

    theta is a nonconstant scalar finite Blaschke product, so the space is
    jointly co-invariant and the compressed pair is a pure commuting pair of
    size deg(theta) * d.  Basis order: function-major, then C^d coordinate.
    """
    if theta.degree == 0:
        raise ValueError("theta must be nonconstant")
    coeffs = taylor_until(psi, 1e-16)
    kk = coeffs.shape[0]
    zmax = max((abs(a) for a in theta.zero_list()), default=0.0)
    length = _hardy_coeff_length(zmax, theta.degree + kk)
    rows = _model_basis_coeffs(theta, length)
    gram = rows.conj() @ rows.T
    if opnorm(gram - np.eye(rows.shape[0])) > 1e-10:
        raise TruncationNotConverged("model basis lost orthonormality; raise length")

    def shift_corr(k):
        m = length - k
        return rows[:, k:].conj() @ rows[:, :m].T

    d = psi.d
    t1 = np.kron(shift_corr(1), np.eye(d))
    t2 = np.zeros((rows.shape[0] * d, rows.shape[0] * d), dtype=complex)
    for k in range(kk):
        t2 += np.kron(shift_corr(k), coeffs[k])
    return validate_pair(t1, t2, require_pure=True, strict=True, tol=tol)


# ---------------------------------------------------------------------------
# jet-kernel machinery


def _gram_entry(lam, j, mu, i):
    """Inner product < k_lam^(j), k_mu^(i) > of derivative kernels in H^2.

    k_lam^(j)(z) = j! z^j (1 - conj(lam) z)^(-(j+1)); the inner product is its
    i-th derivative at mu, expanded by the Leibniz rule.
    """
    c = np.conj(lam)
    den = 1.0 - c * mu
    total = 0.0 + 0.0j
    for l in range(min(i, j) + 1):
        falling = factorial(j) // factorial(j - l)
        rising = factorial(j + i - l) // factorial(j)
        total += (
            comb(i, l)
            * falling
            * rising
            * mu ** (j - l)
            * c ** (i - l)
            * den ** (-(j + 1 + i - l))
        )
    return factorial(j) * total


@dataclass(frozen=True)
class JetKernelBasis:
    """Derivative-kernel basis of K_(m1) tensor C^d at the zeros of m1."""

    points: tuple        # ((lambda, multiplicity), ...)
    jets: tuple          # ((lambda, order), ...) scalar jet index list
    d: int
    gram: np.ndarray     # scalar Gram, shape (S, S)
    chol: np.ndarray     # lower Cholesky factor of gram

    @property
    def scalar_dim(self):
        return len(self.jets)

    @property
    def dimension(self):
        return len(self.jets) * self.d


def jet_kernel_basis(m1, d):
    jets = []
    for lam, mult in m1.zeros:
        for j in range(mult):
            jets.append((lam, j))
    s = len(jets)
    gram = np.empty((s, s), dtype=complex)
    # gram[a, b] = < b_b, b_a >
    for a, (mu, i) in enumerate(jets):
        for b, (lam, j) in enumerate(jets):
            gram[a, b] = _gram_entry(lam, j, mu, i)
    gram = 0.5 * (gram + gram.conj().T)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCluster("jet-kernel Gram matrix is not positive definite") from exc
    return JetKernelBasis(points=tuple(m1.zeros), jets=tuple(jets), d=d,
                          gram=gram, chol=chol)


def _compose_taylor(f, lam, taylor):
    """Taylor coefficients at lam of z -> f(z, Psi(z)), as many as ``taylor``
    holds; ``taylor`` holds those of Psi at lam."""
    n, d, _ = taylor.shape
    c = f.coeffs
    pw = np.zeros((c.shape[1], n, d, d), dtype=complex)
    pw[0, 0] = np.eye(d)
    for j in range(1, c.shape[1]):
        pw[j] = series_mul(pw[j - 1], taylor)
    out = np.zeros((n, d, d), dtype=complex)
    # Horner in z; z is the series lam + t, so a step scales and shifts
    for row in np.tensordot(c, pw, axes=(1, 0))[::-1]:
        step = lam * out + row
        step[1:] += out[:-1]
        out = step
    return out


def _adjoint_action(basis, taylor):
    """Matrix of M_Phi* on the jet basis, from the Taylor coefficients
    ``taylor[lam]`` of the symbol Phi at each zero (Leibniz rule)."""
    d = basis.d
    s = basis.scalar_dim
    a = np.zeros((s * d, s * d), dtype=complex)
    base = 0
    for lam, mult in basis.points:
        for j in range(mult):
            for l in range(j + 1):
                row, col = base + j - l, base + j
                blk = perm(j, l) * taylor[lam][l].conj().T
                a[row * d : (row + 1) * d, col * d : (col + 1) * d] += blk
        base += mult
    return a


def _to_onb(basis, a):
    lfac = np.kron(basis.chol, np.eye(basis.d))
    linv = np.linalg.inv(lfac)
    return lfac.conj().T @ a @ linv.conj().T


@dataclass(frozen=True)
class CoextensionBundle:
    pair: CommutingPair
    psi: object
    j: np.ndarray
    n_trunc: int
    align_unitary: np.ndarray
    m1: BlaschkeProduct
    jet_basis: JetKernelBasis
    kpsi_basis: np.ndarray   # ONB coordinates inside the jet space
    s1: np.ndarray
    s2: np.ndarray
    residuals: dict

    @property
    def kpsi_dim(self):
        return self.kpsi_basis.shape[1]


def constrained_coextension(pair, psi, basis, tol=DEFAULT, seed=0):
    """Constrained isometric co-extension of the pair for the given symbol.

    ``basis`` is the AnnihilatorBasis of the pair.  The intersection of the
    adjoint kernels of its generators is computed inside the jet space
    K_(m1) tensor C^d (legitimate because m1 annihilates T1); the compressions
    of the shift and the symbol multiplier to that intersection form the
    constrained pair (S1, S2).
    """
    m1, ann_gens = basis.m1, basis.generators
    if m1.degree == 0:
        raise AnnTrivial("the univariate annihilator of T1 is trivial")
    d = psi.d
    jets = jet_kernel_basis(m1, d)
    psi_taylor = {lam: taylor_at(psi, lam, mult) for lam, mult in m1.zeros}

    # adjoint shift action: symbol z
    zvals = {}
    for lam, mult in m1.zeros:
        arr = np.zeros((mult, d, d), dtype=complex)
        arr[0] = lam * np.eye(d)
        if mult > 1:
            arr[1] = np.eye(d)
        zvals[lam] = arr
    a_z = _to_onb(jets, _adjoint_action(jets, zvals))
    a_psi = _to_onb(jets, _adjoint_action(jets, psi_taylor))

    stack = [
        _to_onb(jets, _adjoint_action(jets, {
            lam: _compose_taylor(f, lam, psi_taylor[lam]) for lam, _ in m1.zeros
        }))
        for f in ann_gens
    ]
    # the generators always include the minimal polynomials, so the stack is
    # never empty
    dim = jets.dimension
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
    s1_adj = q.conj().T @ a_z @ q
    s2_adj = q.conj().T @ a_psi @ q
    s1 = s1_adj.conj().T
    s2 = s2_adj.conj().T
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
        jet_basis=jets,
        kpsi_basis=q,
        s1=s1,
        s2=s2,
        residuals=residuals,
    )


def s_pair(bundle, tol=DEFAULT):
    """The constrained pair as a validated CommutingPair."""
    return validate_pair(bundle.s1, bundle.s2, require_pure=True, strict=True, tol=tol)


def verify_coextension(bundle, variety, tol=DEFAULT):
    """Contract checks for a bundle against its variety polynomial.

    (a) the defining polynomial annihilates both the pair and the constrained
    pair, (b) joint point-spectrum points of the pair lie on the variety,
    (c) the minimal Blaschke product of S1 matches m1.
    """
    from .opcore import joint_point_spectrum

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


# ---------------------------------------------------------------------------
# truncated model operators (for calculus consistency checks)


def truncated_model_operators(psi, n_trunc):
    """Shift and symbol multiplier on the truncated coefficient model."""
    coeffs = taylor_until(psi, 1e-15)
    d = psi.d
    nb = n_trunc + 1
    size = nb * d
    mz = np.zeros((size, size), dtype=complex)
    for m in range(n_trunc):
        mz[(m + 1) * d : (m + 2) * d, m * d : (m + 1) * d] = np.eye(d)
    mpsi = np.zeros((size, size), dtype=complex)
    for m in range(nb):
        for k in range(min(coeffs.shape[0], nb - m)):
            mpsi[(m + k) * d : (m + k + 1) * d, m * d : (m + 1) * d] = coeffs[k]
    return mz, mpsi


def calculus_residual(pair, psi, p, tol=DEFAULT, seed=0):
    """|| p(T1,T2) - J* p(shift, M_psi) J || on a padded truncation.

    The embedding is re-cut at a deeper tail tolerance so that truncation
    edge effects stay below the comparison level; the defect basis of embed_J
    is deterministic, so the alignment unitary carries over.
    """
    _, _, w_align, _ = coextension_embedding(pair, psi, tol=tol, seed=seed)
    j2, n2, _ = embed_J(pair, tol.tol_trunc * 1e-4, cap=20000)
    d = psi.d
    aligned = np.vstack([w_align @ j2[m * d : (m + 1) * d] for m in range(n2 + 1)])
    mz, mpsi = truncated_model_operators(psi, n2)
    model = poly_apply(p, (mz, mpsi))
    return float(opnorm(poly_apply(p, pair) - aligned.conj().T @ model @ aligned))
