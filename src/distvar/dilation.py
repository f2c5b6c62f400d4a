"""Isometric co-extensions, symbol construction, and the constrained model.

The embedding J maps H into the model space K_(m1) tensor C^d of the
minimal Blaschke product m1 of T1, in the Malmquist-Takenaka basis that
``model_shift(m1)`` and ``compress_pair(psi, m1)`` use: block r is the
defect coordinates of T1 times e_r(T1)*, for the basis function e_r.  So J,
the model pair and the constrained pair share one set of coordinates, no
series is cut, and ||J*J - I|| = ||m1(T1)||^2.

Every model operator is built in closed form.  The compression of
(M_z tensor I, M_Psi) to a co-invariant model space K_b tensor C^d is
multiplicative (Sarason 1967), so it equals (S tensor I, Psi(S)) for the
compressed shift S of K_b (``model_shift``) and the functional calculus
``psi_of_matrix``.  The instance pairs live on K_theta, the constrained
pair on a subspace of K_(m1); no Taylor series is read.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AnnTrivial,
    DegenerateCluster,
    NoInnerSolution,
    NotPure,
    NotPureRealization,
    NotUnitaryColligation,
)
from .inner import from_colligation, interior_pureness, psi_of_matrix
from .opcore import (
    CommutingPair,
    defect,
    joint_point_spectrum,
    kernel,
    matching_distance,
    minimal_blaschke,
    opnorm,
    poly_apply,
    poly_stack,
    validate_pair,
)
from .poly import BlaschkeProduct
from .report import FAIL, PASS, CertEntry, inconclusive
from .tolerances import DEFAULT

# ---------------------------------------------------------------------------
# minimal isometric co-extension


def embed_J(pair, m1, tol=DEFAULT):
    """Minimal isometric co-extension V of T1, in the model space of m1.

    V h = r0 (I - z T1*)^(-1) h for the defect coordinates r0 = w* D of T1,
    the defect range ``w`` cut at ``tol.tol_rank``.  V* M_(m1) = m1(T1) V* = 0,
    so V maps into K_(m1) tensor C^d, and J is V in the Malmquist-Takenaka
    basis of ``model_shift(m1)``: block r is r0 e_r(T1)*, with
    e_r(T1) = prod_(j<r) (T1 - a_j)(I - conj(a_j) T1)^(-1)
    sqrt(1 - |a_r|^2) (I - conj(a_r) T1)^(-1) over the zeros of
    ``m1.zero_list()``.  Then J*J = I - m1(T1) m1(T1)* and
    J T1* = (S tensor I)* J for S = model_shift(m1).  Returns ``(J, r0)``.
    """
    if not pair.pure:
        raise NotPure("co-extension requires a pure pair")
    droot, _, w = defect(pair.t1, tol=tol)
    r0 = w.conj().T @ droot  # d x n
    t1s = pair.t1.conj().T
    eye = np.eye(pair.n)
    blocks, x = [], r0
    for a in m1.zero_list():
        # y = x (I - a T1*)^(-1); the factors commute, so the next x is
        # y (T1* - conj(a))
        y = np.linalg.solve(eye - a * t1s.T, x.T).T
        blocks.append(np.sqrt(1.0 - abs(a) ** 2) * y)
        x = y @ t1s - np.conj(a) * y
    return np.vstack(blocks), r0


def _unvec(x, d):
    return x.reshape(d, -1, order="F")


def _vec(m):
    return m.reshape(-1, order="F")


def _polar_unitary(m):
    """Unitary polar factor of a matrix."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _unitary_in_subspace(basis, d):
    """Unitary d x d matrix inside span(columns of basis), deterministically.

    Gauss-Newton on X*X = I over the complex coefficients of X.  The first
    start is the projection of I onto the span, which does not depend on the
    basis; it is skipped when it has under 1e-3 of the Frobenius norm sqrt(d)
    of a unitary, as when the span is orthogonal to I (a signed permutation
    that commutes with T1 can make it so).  Then, in order, the projection of
    the polar factor of each basis matrix B_i, which never vanishes, since
    its inner product with B_i is the nuclear norm of B_i.  B_i gives the real Jacobian columns
    X*B_i + B_i*X and i(X*B_i - B_i*X).  The unitary solutions form a
    manifold, so the Jacobian is rank-deficient and each step is a truncated
    lstsq.  Each start gets at most 50 steps, stopping once
    ||X*X - I||_F <= 1e-13; the first X with ||X*X - I|| <= 1e-10 gives its
    polar factor, and if no start reaches one NoInnerSolution is raised.
    """
    r = basis.shape[1]
    mats = basis.T.reshape(r, d, d).transpose(0, 2, 1)  # B_i = _unvec(basis[:, i])
    eye = np.eye(d)
    for start in itertools.chain([eye], map(_polar_unitary, mats)):
        x = _unvec(basis @ (basis.conj().T @ _vec(start)), d)
        if np.linalg.norm(x) < 1e-3 * np.sqrt(d):
            continue
        for _ in range(50):
            f = x.conj().T @ x - eye
            if np.linalg.norm(f) <= 1e-13:
                break
            xb = x.conj().T @ mats
            bx = xb.conj().transpose(0, 2, 1)
            cols = np.concatenate([xb + bx, 1j * (xb - bx)]).reshape(2 * r, -1).T
            step, *_ = np.linalg.lstsq(np.vstack([cols.real, cols.imag]),
                                       -np.concatenate([f.real.ravel(), f.imag.ravel()]),
                                       rcond=1e-10)
            x = x + np.tensordot(step[:r] + 1j * step[r:], mats, 1)
        if opnorm(x.conj().T @ x - eye) <= 1e-10:
            return _polar_unitary(x)
    raise NoInnerSolution("no unitary alignment found in the null space")


def coextension_embedding(pair, psi, m1, tol=DEFAULT):
    """Embed the pair against a given symbol: returns (J, W, residuals).

    The defect coordinates r0 of embed_J are only fixed up to a constant
    unitary, so the unitary W aligning them with the symbol is recovered from
    the linear intertwining identity   W r0 T2* = Phi(W r0),
    Phi(X) = sum_k Psi_k* X T1*^k,  vec Phi = Psi(T1^T)*  in closed form, and
    J = (I tensor W) J0 for the J0 of embed_J.  As T1 and T2 commute, the
    identity at r0 gives it for all of V.  The blocks have as many rows as
    the defect rank of T1, so a pair whose defect rank is not the symbol's d
    raises NoInnerSolution.  W is the polar factor of the null vector when
    the null space is a line, and otherwise the unitary that
    _unitary_in_subspace reaches from its fixed starts; no draw is made, so
    W depends on the pair and the symbol only.  The residuals are
    ||J*J - I||, ||J T1* - (S tensor I)* J|| for S = model_shift(m1), and
    the symbol identity at W r0.
    """
    j0, r0 = embed_J(pair, m1, tol)
    d = psi.d
    if r0.shape[0] != d:
        raise NoInnerSolution(
            f"the pair's defect rank {r0.shape[0]} differs from the symbol's "
            f"dimension d = {d}"
        )
    n = pair.n
    t1s, t2s = pair.t1.conj().T, pair.t2.conj().T
    phi = psi_of_matrix(psi, pair.t1.T).conj().T
    # vec(W R) = kron(R^T, I) vec(W)
    eye = np.eye(d)
    system = np.kron((r0 @ t2s).T, eye) - phi @ np.kron(r0.T, eye)
    basis = kernel(system, 1e-8, 1e-10)
    if basis.shape[1] == 0:
        raise NoInnerSolution(
            "the symbol does not intertwine any co-extension of the pair"
        )
    if basis.shape[1] == 1:
        w_align = _polar_unitary(_unvec(basis[:, 0], d))
    else:
        w_align = _unitary_in_subspace(basis, d)
    j = (w_align @ j0.reshape(-1, d, n)).reshape(-1, n)
    shift = np.kron(model_shift(m1), eye)
    x = w_align @ r0
    res_symbol = opnorm(x @ t2s - _unvec(phi @ _vec(x), d))
    residuals = {
        "isometry": float(opnorm(j.conj().T @ j - np.eye(n))),
        "intertwine_shift": float(opnorm(j @ t1s - shift.conj().T @ j)),
        "intertwine_symbol": float(res_symbol),
    }
    if res_symbol > tol.tol_intertwine:
        raise NoInnerSolution(
            f"intertwining residual {res_symbol:.3e} exceeds {tol.tol_intertwine:.1e}"
        )
    return j, w_align, residuals


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
    rho = interior_pureness(psi)
    if rho >= 1.0:
        raise NoInnerSolution(f"symbol is not pure: spectral radius of Psi(0) {rho:.12f}")
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
    m1: BlaschkeProduct
    kpsi_basis: np.ndarray   # ONB coordinates inside the model space of m1
    constrained: CommutingPair   # (S1, S2), validated once
    residuals: dict

    @property
    def kpsi_dim(self):
        return self.kpsi_basis.shape[1]

    s1 = property(lambda self: self.constrained.t1)
    s2 = property(lambda self: self.constrained.t2)


def _norm_at_most(m, cap):
    """opnorm(m) <= cap.  ||m|| <= f <= sqrt(min(m.shape)) ||m|| for the
    Frobenius norm f, so the SVD runs only for an f inside that band, widened
    by 1e-6 relative, far above either norm's rounding."""
    f = np.linalg.norm(m)
    if cap * (1 - 1e-6) < f <= cap * np.sqrt(min(m.shape)) * (1 + 1e-6):
        return opnorm(m) <= cap
    return f <= cap


def constrained_coextension(pair, psi, basis, tol=DEFAULT):
    """Constrained isometric co-extension of the pair for the given symbol.

    ``basis`` is the AnnihilatorBasis of the pair.  The intersection of the
    adjoint kernels of its generators is computed inside the model space
    K_(m1) tensor C^d (legitimate because m1 annihilates T1), where the
    model pair is compress_pair(psi, m1) and a generator f acts adjointly as
    f(model pair)*; the compressions of the model pair to that intersection
    form the constrained pair (S1, S2).  J and its residuals come from
    coextension_embedding, which is deterministic.
    """
    m1, ann_gens = basis.m1, basis.generators
    if m1.degree == 0:
        raise AnnTrivial("the univariate annihilator of T1 is trivial")
    model = compress_pair(psi, m1, tol=tol)
    # the generators always include the minimal polynomials, so the stack is
    # never empty; when they all vanish on the model pair the kernel is the
    # whole space, kept in the model's own basis
    stack = poly_stack(ann_gens, model).conj().transpose(0, 2, 1).reshape(-1, model.n)
    if _norm_at_most(stack, 1e-12):
        q = np.eye(model.n, dtype=complex)
    else:
        q = kernel(stack, tol.kernel_rel, 0.0, "kernel-cut", tol=tol)
    j, _, emb_res = coextension_embedding(pair, psi, m1, tol=tol)
    # J embeds C^n into the intersection, so a smaller one is a numerical
    # failure of the cut
    if q.shape[1] < pair.n:
        raise DegenerateCluster(
            f"constrained model space of dimension {q.shape[1]} < n = {pair.n}")
    spair = validate_pair(q.conj().T @ model.t1 @ q, q.conj().T @ model.t2 @ q,
                          require_pure=True, tol=tol)
    residuals = {
        "s_commutator": spair.commutator_norm,
        "s1_radius": spair.radii[0],
        "s2_radius": spair.radii[1],
        "kpsi_dim": q.shape[1],
        "deg_m1": m1.degree,
        **emb_res,
    }
    return CoextensionBundle(
        pair=pair,
        psi=psi,
        j=j,
        m1=m1,
        kpsi_basis=q,
        constrained=spair,
        residuals=residuals,
    )


def verify_coextension(bundle, variety, tol=DEFAULT):
    """Contract checks for a bundle against its variety polynomial.

    (a) the defining polynomial annihilates both the pair and the constrained
    pair, (b) joint point-spectrum points of the pair lie on the variety,
    (c) the minimal Blaschke product of S1 matches m1.  (b) and (c) are
    inconclusive where their spectral analysis raises DegenerateCluster.
    """
    entries = []
    p = variety.p
    norm_pair = opnorm(poly_apply(p, bundle.pair))
    norm_s = opnorm(poly_apply(p, bundle.constrained))
    worst = max(norm_pair, norm_s)
    entries.append(CertEntry(
        name="variety-annihilates",
        anchor="defining-polynomial-annihilates-pair",
        status=PASS if worst <= tol.tol_ann else FAIL,
        margin=float(tol.tol_ann - worst),
        data={"pair_norm": norm_pair, "constrained_norm": norm_s},
    ))

    name, anchor = "point-spectrum-on-variety", "joint-eigenvalues-lie-on-variety"
    try:
        spec = joint_point_spectrum(bundle.pair, tol=tol)
    except DegenerateCluster as exc:
        entries.append(inconclusive(name, anchor, exc))
    else:
        lams, mus = np.array(spec.points, dtype=complex).reshape(-1, 2).T
        worst_p = float(np.abs(p(lams, mus)).max(initial=0.0))
        cap = tol.tol_zset * max(1.0, p.scale)
        entries.append(CertEntry(
            name=name, anchor=anchor, status=PASS if worst_p <= cap else FAIL,
            margin=float(cap - worst_p), data={"points": list(spec.points)},
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
