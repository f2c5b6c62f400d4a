import dataclasses
import numpy as np
import pytest
from scipy.stats import unitary_group

import distvar as dv
from distvar import dilation, inner
from distvar.errors import NoInnerSolution
from distvar.inner import circle_grid, eval_psi_grid
from distvar.instances import (
    InstanceSpec, build_theta, make_instance, random_recipe, run_certification,
)
from distvar.opcore import defect, opnorm
from conftest import J2, cauchy_coefficients, w2z_poly


# ---------------------------------------------------------------------------
# embedding


def _m1(pair):
    return dv.minimal_blaschke(pair.t1)


def test_embed_j2_is_exact_identity(j2_pair):
    # m1 = z^2: the model basis is 1, z, and J is the series [r0; r0 T1*]
    j, r0 = dv.embed_J(j2_pair, _m1(j2_pair))
    assert np.array_equal(j, _loop_embed_J(j2_pair)[0])
    assert np.allclose(np.abs(j), np.eye(2))
    assert np.linalg.norm(j.conj().T @ j - np.eye(2), 2) < 1e-15


def test_embed_zero_matrix():
    pair = dv.validate_pair(np.zeros((3, 3)), np.zeros((3, 3)), require_pure=True)
    j, r0 = dv.embed_J(pair, _m1(pair))
    assert np.array_equal(j, r0)
    assert np.allclose(np.abs(j), np.eye(3))


def test_embed_geometric_column():
    # m1 = b_(1/2), whose one basis function sqrt(3)/2 / (1 - z/2) has the
    # geometric Taylor column of the series embedding
    pair = dv.validate_pair([[0.5]], [[0.5]], require_pure=True)
    j, _ = dv.embed_J(pair, _m1(pair))
    assert j.shape == (1, 1) and abs(abs(j[0, 0]) - 1.0) < 1e-15
    series, n = _loop_embed_J(pair)
    expected = (np.sqrt(3) / 2) * 0.5 ** np.arange(n + 1)
    assert np.allclose(series[:, 0], j[0, 0] * expected, atol=1e-15)


def test_embed_defect_cut_follows_tol_rank():
    # I - T1 T1* has eigenvalues 1e-4 and 1, so tol_rank = 1e-3 keeps one
    t1 = np.array([[0.0, np.sqrt(1.0 - 1e-4)], [0.0, 0.0]])
    tol = dv.DEFAULT.override(tol_rank=1e-3)
    pair = dv.validate_pair(t1, np.zeros((2, 2)), require_pure=True, tol=tol)
    assert pair.defect_ranks[0] == 1
    j, r0 = dv.embed_J(pair, _m1(pair))
    assert r0.shape == (1, 2) and j.shape == (2, 2)
    # the cut is the pair's: validated under the default table, it keeps both
    strict = dv.validate_pair(t1, np.zeros((2, 2)), require_pure=True)
    assert dv.embed_J(strict, _m1(strict))[1].shape == (2, 2)


def test_a_certification_runs_under_its_pairs_table(companion_psi_2):
    # the spec states no override: the report's table is the one the pair was
    # validated with
    loose = dv.DEFAULT.override(tol_rank=1e-3)
    theta = dv.BlaschkeProduct([(0j, 2)])
    spec = InstanceSpec(theta_zeros=((0j, 2),), psi_spec={"kind": "companion", "d": 2},
                        boundary_n=64)
    pair = dv.compress_pair(companion_psi_2, theta, tol=loose)
    report = run_certification(dv.Instance(spec=spec, theta=theta, psi=companion_psi_2,
                                           pair=pair))
    assert report.tolerances == loose.as_dict() != dv.DEFAULT.as_dict()


def _basis_at_zero(m1):
    """e_r(0) = prod_(j<r) (-a_j) sqrt(1 - |a_r|^2) for the Malmquist-Takenaka
    basis functions e_r of K_(m1)."""
    zs = np.array(m1.zero_list(), dtype=complex)
    lead = np.concatenate([[1.0], np.cumprod(-zs[:-1])])
    return lead * np.sqrt(1.0 - np.abs(zs) ** 2)


def _model_identity_gaps(pair, m1, j, r0):
    """||J*J - I||, ||J T1* - (S tensor I)* J|| and the distance of
    sum_r e_r(0) J_r from r0: together they determine V h = r0 (I - z T1*)^(-1) h."""
    d, n = r0.shape
    shift = np.kron(dv.model_shift(m1), np.eye(d))
    at_zero = np.tensordot(_basis_at_zero(m1), j.reshape(-1, d, n), 1)
    return (opnorm(j.conj().T @ j - np.eye(n)),
            opnorm(j @ pair.t1.conj().T - shift.conj().T @ j),
            opnorm(at_zero - r0))


@pytest.mark.parametrize("repeated", [False, True])
def test_the_model_embedding_is_the_coextension(repeated):
    # embed_J, and the J that coextension_embedding aligns with the recipe's
    # symbol and with a constructed one (with W r0 in place of r0)
    for seed in range(20):
        inst = make_instance(random_recipe(seed, repeated=repeated))
        pair = inst.pair
        m1 = _m1(pair)
        j0, r0 = dv.embed_J(pair, m1)
        assert max(_model_identity_gaps(pair, m1, j0, r0)) <= 1e-13
        for psi in (inst.psi, dv.construct_psi(pair)):
            j, w, res = dv.coextension_embedding(pair, psi, m1)
            assert max(_model_identity_gaps(pair, m1, j, w @ r0)) <= 1e-13
            assert res["isometry"] <= 1e-13 and res["intertwine_shift"] <= 1e-13


@pytest.mark.parametrize("repeated", [False, True])
def test_the_constrained_pair_is_coextended_by_the_model_embedding(repeated):
    # V = q* J with q = kpsi_basis: V*V = I, V T1* = S1* V and V T2* = S2* V
    for seed in range(20):
        inst = make_instance(random_recipe(seed, repeated=repeated))
        pair = inst.pair
        bundle = dv.constrained_coextension(pair, inst.psi, dv.ann_generators(pair))
        v = bundle.kpsi_basis.conj().T @ bundle.j
        assert opnorm(v.conj().T @ v - np.eye(pair.n)) <= 1e-12
        for t, s in ((pair.t1, bundle.s1), (pair.t2, bundle.s2)):
            assert opnorm(v @ t.conj().T - s.conj().T @ v) <= 1e-12


# ---------------------------------------------------------------------------
# symbol construction


def test_construct_psi_shift_for_j2(j2_pair):
    psi = dv.construct_psi(j2_pair)
    zs = 0.7 * circle_grid(16)
    assert psi.d == 1
    assert np.max(np.abs(eval_psi_grid(psi, zs)[:, 0, 0] - zs)) < 1e-12


def test_construct_psi_square_for_j2_zero():
    pair = dv.validate_pair(J2, np.zeros((2, 2)), require_pure=True)
    psi = dv.construct_psi(pair)
    zs = 0.7 * circle_grid(16)
    assert psi.d == 1
    assert np.max(np.abs(eval_psi_grid(psi, zs)[:, 0, 0] - zs**2)) < 1e-12


def test_construct_psi_for_compressed_pair(companion_psi_2):
    pair = dv.compress_pair(companion_psi_2, dv.BlaschkeProduct([(0.0, 2)]))
    psi = dv.construct_psi(pair)
    v = dv.variety_polynomial(psi)
    assert np.linalg.norm(dv.poly_apply(v.p, pair), 2) < 1e-10


def test_construct_psi_blaschke_factor():
    # no inner polynomial has psi(1/2) = 3/10; a Blaschke factor does
    pair = dv.validate_pair(np.diag([0.5]), np.diag([0.3]), require_pure=True)
    psi = dv.construct_psi(pair)
    assert psi.boundary_defect <= dv.DEFAULT.tol_unitary
    assert dv.eval_psi(psi, 0.5)[0, 0] == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("repeated", [False, True])
def test_construct_psi_properties_on_random_pairs(repeated):
    # the constructed symbol is inner and pure, intertwines a co-extension of
    # the pair, and its variety polynomial annihilates the pair
    tol = dv.DEFAULT
    for seed in range(20):
        pair = make_instance(random_recipe(seed, repeated=repeated)).pair
        psi = dv.construct_psi(pair)
        assert psi.boundary_defect <= tol.tol_unitary
        assert dv.interior_pureness(psi) < 1.0
        _, _, res = dv.coextension_embedding(pair, psi, _m1(pair))
        assert res["intertwine_symbol"] <= tol.tol_intertwine
        p = dv.variety_polynomial(psi).p
        assert np.linalg.norm(dv.poly_apply(p, pair), 2) <= tol.tol_ann


def test_construct_psi_rejects_mismatched_symbol(j2_pair):
    # Psi = z^2 cannot intertwine T2 = J2 through any co-extension
    psi = dv.from_polynomial(np.array([[[0.0]], [[0.0]], [[1.0]]], dtype=complex))
    with pytest.raises(NoInnerSolution):
        dv.coextension_embedding(j2_pair, psi, _m1(j2_pair))


@pytest.mark.parametrize("t, symbol, rank, d", [
    (J2, "companion_psi_2", 1, 2),
    (np.zeros((3, 3)), "scalar_shift_psi", 3, 1),
], ids=["jordan-rank1-d2", "zero-rank3-d1"])
def test_coextension_rejects_defect_rank_other_than_d(request, t, symbol, rank, d):
    # J has one block per zero of m1, of as many rows as the defect rank
    # of T1; the symbol's Taylor coefficients are d x d
    pair = dv.validate_pair(t, t, require_pure=True)
    assert pair.defect_ranks[0] == rank
    with pytest.raises(NoInnerSolution, match=f"defect rank {rank} .* d = {d}"):
        dv.coextension_embedding(pair, request.getfixturevalue(symbol), _m1(pair))


# ---------------------------------------------------------------------------
# closed-form model operators against series references


KINDS = ["companion", "colligation", "scalar_blaschke_times_identity"]


def _hardy_model(theta, coeffs):
    """(T1, T2) of theta from the truncated Hardy coefficients of the
    Malmquist-Takenaka basis of K_theta: T2 = sum_k kron(<z^k e_c, e_r>, Psi_k)."""
    zs = theta.zero_list()
    decay = np.log(max(0.1, *np.abs(zs)))
    length = int(np.ceil(np.log(1e-18) / decay)) + len(zs) + len(coeffs) + 8
    rows = np.zeros((len(zs), length), dtype=complex)
    lead = np.zeros(length, dtype=complex)
    lead[0] = 1.0
    for r, a in enumerate(zs):
        kernel = np.sqrt(1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(length)
        rows[r] = np.convolve(lead, kernel)[:length]
        factor = np.zeros(length, dtype=complex)
        factor[0] = -a
        factor[1:] = (1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(length - 1)
        lead = np.convolve(lead, factor)[:length]
    assert np.linalg.norm(rows.conj() @ rows.T - np.eye(len(zs)), 2) < 1e-14

    def shift_corr(k):
        return rows[:, k:].conj() @ rows[:, : length - k].T

    d = coeffs.shape[1]
    t2 = sum(np.kron(shift_corr(k), c) for k, c in enumerate(coeffs))
    return np.kron(shift_corr(1), np.eye(d)), t2


@pytest.mark.parametrize("repeated", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_model_pair_matches_hardy_coefficient_model(kind, repeated):
    # model_shift and psi_of_matrix against the truncated coefficient model,
    # and psi_of_matrix of a general matrix against sum_k kron(S^k, Psi_k)
    rng = np.random.default_rng(5)
    for seed in range(4):
        spec = random_recipe(seed, repeated=repeated, kinds=(kind,))
        theta, psi = build_theta(spec), make_instance(spec).psi
        coeffs = cauchy_coefficients(psi)
        t1, t2 = _hardy_model(theta, coeffs)
        s = dv.model_shift(theta)
        assert np.abs(np.kron(s, np.eye(psi.d)) - t1).max() < 1e-14
        assert np.abs(dv.psi_of_matrix(psi, s) - t2).max() < 1e-14

        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m *= 0.5 / np.max(np.abs(np.linalg.eigvals(m)))
        series = sum(np.kron(np.linalg.matrix_power(m, k), c) for k, c in enumerate(coeffs))
        scale = max(1.0, np.abs(series).max())
        assert np.abs(dv.psi_of_matrix(psi, m) - series).max() < 1e-12 * scale


def test_model_shift_is_triangular_with_theta_zeros():
    # the diagonal holds the zeros exactly, so the eigenvalues of T1 are exact
    for seed in range(10):
        inst = make_instance(random_recipe(seed, repeated=True))
        d, t1 = inst.psi.d, inst.pair.t1
        assert np.array_equal(np.diag(t1), np.repeat(inst.theta.zero_list(), d))
        assert np.array_equal(np.triu(t1, 1), np.zeros_like(t1))


@pytest.mark.parametrize("kind", KINDS + ["constructed"])
def test_certification_reads_no_taylor_series(monkeypatch, kind):
    def no_series(*args, **kwargs):
        raise AssertionError("a Taylor series was read")

    monkeypatch.setattr(inner, "taylor_at", no_series)
    monkeypatch.setattr(dv, "taylor_at", no_series)
    if kind == "constructed":
        inst = make_instance(random_recipe(3, repeated=True))
        inst = dataclasses.replace(inst, psi=dv.construct_psi(inst.pair))
    else:
        inst = make_instance(random_recipe(1, repeated=True, kinds=(kind,)))
    report = run_certification(inst)
    assert any(e.name == "coextension-intertwining" for e in report.entries)


def _loop_embed_J(pair, tol=dv.DEFAULT):
    """The truncated H^2 series embedding: row blocks r0 T1*^m up to the first
    m with ||T1^(m+1)||^2 <= tol_trunc, and that m."""
    droot, _, w = defect(pair.t1, tol=tol)
    blocks, power = [w.conj().T @ droot], np.eye(pair.n, dtype=complex)
    for m in range(1, 5001):
        power = power @ pair.t1
        if opnorm(power) ** 2 <= tol.tol_trunc:
            return np.vstack(blocks), m - 1
        blocks.append(blocks[-1] @ pair.t1.conj().T)


def _null_projector(system):
    _, svals, vh = np.linalg.svd(system)
    keep = np.count_nonzero(svals > max(1e-10, 1e-8 * svals[0]))
    basis = vh[keep:].conj().T
    return basis @ basis.conj().T


@pytest.mark.parametrize("seed", [0, 1, 2, 4, 7, 12])
def test_alignment_equation_matches_block_system(seed):
    # repeated theta zeros: companion (0, 4), colligation (1, 2, 7) and
    # scalar Blaschke (12) symbols with d = 1 to 3; at seed 12 the alignment
    # null space has dimension > 1
    inst = make_instance(random_recipe(seed, repeated=True))
    pair, psi, d, n = inst.pair, inst.psi, inst.psi.d, inst.pair.n
    j0, n_trunc = _loop_embed_J(pair)

    # the block system  W R_m T2* = sum_k Psi_k* W R_(m+k)  for every m, from
    # a long series and blocks extended past it
    coeffs = cauchy_coefficients(psi)
    kk = len(coeffs)
    t1s, t2s = pair.t1.conj().T, pair.t2.conj().T
    blocks = [j0[:d]]
    while len(blocks) < kk + n_trunc + 1:
        blocks.append(blocks[-1] @ t1s)
    eye = np.eye(d)
    rows = []
    for m in range(n_trunc + 1):
        op = np.kron((blocks[m] @ t2s).T, eye)
        for k in range(kk):
            op = op - np.kron(blocks[m + k].T, coeffs[k].conj().T)
        rows.append(op)
    block_system = np.vstack(rows)

    # the single equation  W R_0 T2* = Phi(W R_0),  vec Phi = Psi(T1^T)*
    phi = dv.psi_of_matrix(psi, pair.t1.T).conj().T
    system = np.kron((blocks[0] @ t2s).T, eye) - phi @ np.kron(blocks[0].T, eye)
    p_phi, p_block = _null_projector(system), _null_projector(block_system)
    assert round(np.trace(p_phi).real) == round(np.trace(p_block).real) >= 1
    assert np.linalg.norm(p_phi - p_block, 2) < 1e-6

    m1 = _m1(pair)
    j, w, res = dv.coextension_embedding(pair, psi, m1)
    aligned = [w @ b for b in blocks]
    j_model = dv.embed_J(pair, m1)[0]
    assert np.array_equal(j, (w @ j_model.reshape(-1, d, n)).reshape(-1, n))
    assert res["isometry"] == opnorm(j.conj().T @ j - np.eye(n))
    x = aligned[0]
    assert res["intertwine_symbol"] == opnorm(
        x @ t2s - (phi @ x.reshape(-1, order="F")).reshape(d, n, order="F"))
    block_res = max(
        opnorm(aligned[m] @ t2s - sum(c.conj().T @ aligned[m + k] for k, c in enumerate(coeffs)))
        for m in range(n_trunc + 1))
    assert abs(res["intertwine_symbol"] - block_res) < 1e-13


def _companion(d, zero):
    return make_instance(InstanceSpec(theta_zeros=(zero,), psi_spec={"kind": "companion", "d": d}))


def _diag_z_minus_z(*zeros):
    # Psi(z) = diag(z, -z): its alignment null space is orthogonal to I
    psi = dv.from_polynomial(np.array([np.zeros((2, 2)), np.diag([1.0, -1.0])], dtype=complex))
    return dv.compress_pair(psi, dv.BlaschkeProduct(list(zeros))), psi


FLIP = np.diag([1.0, -1.0])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

# (pair and symbol, conjugating unitary); "haar" draws
# unitary_group.rvs(n, random_state=k), None leaves the pair as it is.
# Recipes 14, 37, 38, 3 have null spaces of dimension > 1: colligation d = 2
# and 3, companion d = 2 and scalar Blaschke d = 3.  A signed permutation
# that commutes with T1 can leave a null space orthogonal to I (FLIP on the
# companion pair, and the diag(z, -z) pair as it is), or one whose projected
# identity does not lead to a unitary (SWAP on the companion pair).
CONJUGATED = {
    "companion2-0.3": (lambda: _companion(2, (0.3, 1)), "haar"),
    "companion2-0.5+0.2j": (lambda: _companion(2, (0.5 + 0.2j, 1)), "haar"),
    "companion3-0.3": (lambda: _companion(3, (0.3, 1)), "haar"),
    "companion3-0.5+0.2j": (lambda: _companion(3, (0.5 + 0.2j, 1)), "haar"),
    "recipe14": (lambda: make_instance(random_recipe(14)), "haar"),
    "recipe37": (lambda: make_instance(random_recipe(37)), "haar"),
    "recipe38": (lambda: make_instance(random_recipe(38)), "haar"),
    "recipe3": (lambda: make_instance(random_recipe(3)), "haar"),
    "companion2-0.3-flip": (lambda: _companion(2, (0.3, 1)), FLIP),
    "companion2-0.3-swap": (lambda: _companion(2, (0.3, 1)), SWAP),
    "diag-0.3-swap": (lambda: _diag_z_minus_z((0.3, 1)), SWAP),
    "diag-0.3,-0.2+0.4j": (lambda: _diag_z_minus_z((0.3, 1), (-0.2 + 0.4j, 1)), None),
}


@pytest.mark.parametrize("k, case", enumerate(CONJUGATED), ids=list(CONJUGATED))
def test_alignment_on_unitarily_conjugated_pairs(monkeypatch, k, case):
    # conjugating the pair by a unitary moves the defect coordinates, so the
    # projection of I onto an alignment null space of dimension > 1 is no
    # longer unitary, or even zero, and the Gauss-Newton iteration has to
    # reach a unitary from it or from a later start
    build, u = CONJUGATED[case]
    made = build()
    pair, psi = made if isinstance(made, tuple) else (made.pair, made.psi)
    if u is None:
        u = np.eye(pair.n)
    elif isinstance(u, str):
        u = unitary_group.rvs(pair.n, random_state=k)
    pair = dv.validate_pair(u.conj().T @ pair.t1 @ u, u.conj().T @ pair.t2 @ u,
                            require_pure=True)
    dims = []
    search = dilation._unitary_in_subspace

    def recording(basis, d):
        dims.append(basis.shape[1])
        return search(basis, d)

    monkeypatch.setattr(dilation, "_unitary_in_subspace", recording)
    _, w, res = dv.coextension_embedding(pair, psi, _m1(pair))
    assert len(dims) == 1 and dims[0] > 1
    assert opnorm(w.conj().T @ w - np.eye(psi.d)) <= 1e-10
    assert res["intertwine_symbol"] <= dv.DEFAULT.tol_intertwine
    assert res["isometry"] <= dv.DEFAULT.tol_trunc


def test_alignment_skips_a_projected_identity_that_vanishes(monkeypatch):
    # span{diag(1, -1), [[0, 1], [1, 0]]} is orthogonal to I, so the projected
    # identity carries rounding noise at most; iterating from it would spend
    # all 50 steps before the basis starts are tried
    basis = np.column_stack([FLIP.ravel(order="F"), SWAP.ravel(order="F")]) / np.sqrt(2)
    steps = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        steps.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    w = dilation._unitary_in_subspace(basis, 2)
    assert len(steps) < 50
    assert opnorm(w.conj().T @ w - np.eye(2)) <= 1e-10
    coeffs = basis.conj().T @ w.ravel(order="F")
    assert np.linalg.norm(basis @ coeffs - w.ravel(order="F")) <= 1e-10


# ---------------------------------------------------------------------------
# model compression


def test_compress_scalar_shift_square(scalar_shift_psi):
    pair = dv.compress_pair(scalar_shift_psi, dv.BlaschkeProduct([(0.0, 2)]))
    assert np.allclose(pair.t1, J2, atol=1e-12)
    assert np.allclose(pair.t2, J2, atol=1e-12)


def test_compress_scalar_shift_degree_one(scalar_shift_psi):
    pair = dv.compress_pair(scalar_shift_psi, dv.BlaschkeProduct([(0.0, 1)]))
    assert pair.n == 1
    assert abs(pair.t1[0, 0]) < 1e-14


def test_compress_companion_satisfies_curve(companion_psi_2):
    pair = dv.compress_pair(companion_psi_2, dv.BlaschkeProduct([(0.0, 2)]))
    assert pair.n == 4
    assert np.linalg.norm(dv.poly_apply(w2z_poly(), pair), 2) < 1e-12
    # T2^2 = T1 exactly on this instance
    assert np.linalg.norm(pair.t2 @ pair.t2 - pair.t1, 2) < 1e-12


# ---------------------------------------------------------------------------
# constrained co-extension


def test_constrained_j2_instance(scalar_shift_psi):
    pair = dv.compress_pair(scalar_shift_psi, dv.BlaschkeProduct([(0.0, 2)]))
    basis = dv.ann_generators(pair)
    bundle = dv.constrained_coextension(pair, scalar_shift_psi, basis)
    assert bundle.kpsi_dim == 2
    assert np.allclose(bundle.s1, J2, atol=1e-10)
    assert np.allclose(bundle.s2, J2, atol=1e-10)


def test_constrained_diagonal_instance(scalar_shift_psi):
    theta = dv.BlaschkeProduct([(0.0, 1), (0.5, 1)])
    pair = dv.compress_pair(scalar_shift_psi, theta)
    basis = dv.ann_generators(pair)
    bundle = dv.constrained_coextension(pair, scalar_shift_psi, basis)
    assert bundle.kpsi_dim == 2


@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15, 16])
def test_kpsi_dimension_law(seed):
    # d = 1: dim K = deg m1; model compressions with d >= 2: dim = d * deg m1
    spec = random_recipe(seed)
    inst = make_instance(spec)
    basis = dv.ann_generators(inst.pair)
    bundle = dv.constrained_coextension(inst.pair, inst.psi, basis)
    d = inst.psi.d
    assert bundle.kpsi_dim == d * bundle.m1.degree
    if d == 1:
        assert bundle.kpsi_dim == bundle.m1.degree


def test_bundle_contracts_on_random_instances():
    for seed in (0, 1, 2, 3, 4):
        inst = make_instance(random_recipe(seed))
        basis = dv.ann_generators(inst.pair)
        bundle = dv.constrained_coextension(inst.pair, inst.psi, basis)
        r = bundle.residuals
        assert r["isometry"] <= 1e-10
        assert r["intertwine_shift"] <= 1e-9
        assert r["intertwine_symbol"] <= 1e-9
        assert r["s_commutator"] <= 1e-9
        assert r["s1_radius"] < 1.0 and r["s2_radius"] < 1.0


def test_verify_coextension_positive(companion_psi_2):
    pair = dv.compress_pair(companion_psi_2, dv.BlaschkeProduct([(0.0, 2)]))
    basis = dv.ann_generators(pair)
    bundle = dv.constrained_coextension(pair, companion_psi_2, basis)
    variety = dv.variety_polynomial(companion_psi_2)
    entries = dv.verify_coextension(bundle, variety)
    assert all(e.status == "pass" for e in entries)


def test_verify_coextension_detects_corruption(companion_psi_2):
    pair = dv.compress_pair(companion_psi_2, dv.BlaschkeProduct([(0.0, 2)]))
    basis = dv.ann_generators(pair)
    bundle = dv.constrained_coextension(pair, companion_psi_2, basis)
    variety = dv.variety_polynomial(companion_psi_2)
    bad_t2 = np.asarray(pair.t2).copy()
    bad_t2[0, 1] += 1e-3
    # the corrupted pair no longer commutes, so validate_pair would reject it
    bad_pair = dataclasses.replace(pair, t2=bad_t2)
    corrupted = dataclasses.replace(bundle, pair=bad_pair)
    entries = dv.verify_coextension(corrupted, variety)
    annih = [e for e in entries if e.name == "variety-annihilates"][0]
    assert annih.status == "fail"
    assert 1e-4 < annih.data["pair_norm"] < 1e-2


def _dilation_residual(pair, psi, p):
    """|| p(T1, T2) - J* p(M_z, M_Psi) J || on the truncated coefficient model.

    J is the series embedding cut at tol_trunc = 1e-14, so that truncation
    edge effects stay below the comparison level, rotated by the alignment
    unitary of coextension_embedding (the defect basis of both is that of
    ``defect``, which is deterministic).  M_Psi is built from the Cauchy
    integral coefficients of ``cauchy_coefficients``, cut to the model's n + 1
    terms (a series shorter than that is zero past its end), so the reference
    shares no symbol calculus with ``compress_pair``.
    """
    _, w_align, _ = dv.coextension_embedding(pair, psi, _m1(pair))
    j, n = _loop_embed_J(pair, dv.DEFAULT.override(tol_trunc=1e-14))
    d = psi.d
    aligned = (w_align @ j.reshape(n + 1, d, -1)).reshape(j.shape)
    mz = np.kron(np.eye(n + 1, k=-1), np.eye(d))
    mpsi = sum(np.kron(np.eye(n + 1, k=-k), c)
               for k, c in enumerate(cauchy_coefficients(psi)[: n + 1]))
    model = dv.poly_apply(p, (mz, mpsi))
    return opnorm(dv.poly_apply(p, pair) - aligned.conj().T @ model @ aligned)


def test_calculus_consistency():
    # the dilation identity p(T) = J* p(M_z, M_Psi) J
    rng = np.random.default_rng(21)
    for seed in (0, 2, 4):
        inst = make_instance(random_recipe(seed))
        p = dv.Poly2(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        res = _dilation_residual(inst.pair, inst.psi, p)
        assert res <= 1e-7 * p.scale


def test_ann_invariance_between_pair_and_constrained():
    for seed in (0, 1, 3):
        inst = make_instance(random_recipe(seed))
        basis = dv.ann_generators(inst.pair)
        bundle = dv.constrained_coextension(inst.pair, inst.psi, basis)
        sbasis = dv.ann_generators(bundle.constrained)
        assert sbasis.box == basis.box
        assert len(sbasis.box_generators) == len(basis.box_generators)
        # mutual span containment of the box kernels
        from distvar.annvar import _span_matrix, _spans_equal

        d1, d2 = basis.box
        qa = _span_matrix(basis.box_generators, d1, d2)
        qb = _span_matrix(sbasis.box_generators, d1, d2)
        assert _spans_equal(qa, qb)
        # every generator of the pair annihilates the constrained pair
        for g in basis.generators:
            res = np.linalg.norm(dv.poly_apply(g, (bundle.s1, bundle.s2)), 2)
            assert res < 1e-7 * max(1.0, g.scale)


@pytest.mark.parametrize("shape", [(456, 12), (3, 3), (1, 5)])
def test_the_whole_space_test_agrees_with_the_2_norm(shape):
    # the Frobenius norm decides outside the band [cap, sqrt(min(shape)) cap];
    # inside it, and at its edges, the decision is the 2-norm's
    rng = np.random.default_rng(0)
    for rank in (1, min(shape)):
        m = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
        for target in (0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0, 2 * np.sqrt(min(shape))):
            scaled = m * (target * 1e-12 / opnorm(m))
            assert dilation._norm_at_most(scaled, 1e-12) == (opnorm(scaled) <= 1e-12)


def test_the_generator_stack_takes_at_most_its_kernel_svd(svd_calls):
    # on a recipe's pair every generator vanishes on the model pair, which the
    # Frobenius norm settles; on this diagonal pair the model space has
    # dimension 4 and the constrained space 2, which the kernel's SVD settles
    diagonal = dv.validate_pair(np.diag([0.1, 0.5]), np.diag([0.3, -0.4]), require_pure=True)
    inst = make_instance(random_recipe(3))
    for pair, psi, calls in ((inst.pair, inst.psi, 0), (diagonal, dv.construct_psi(diagonal), 1)):
        basis = dv.ann_generators(pair)
        svd_calls.clear()
        bundle = dv.constrained_coextension(pair, psi, basis)
        n_model = basis.m1.degree * psi.d
        stack = (len(basis.generators) * n_model, n_model)
        assert [c for c in svd_calls if c[0] == stack] == [(stack, False, True)] * calls
        assert bundle.kpsi_dim == pair.n


def test_a_certification_validates_the_constrained_pair_once(monkeypatch):
    # validate_pair takes the two spectral radii of a pair.  Past the input
    # pair, a certification validates the model pair of m1 and (S1, S2); the
    # support check and Omega reuse the validation of (S1, S2)
    inst = make_instance(random_recipe(1))
    shapes = []
    radius = dv.opcore.spectral_radius
    monkeypatch.setattr(dv.opcore, "spectral_radius",
                        lambda m: shapes.append(m.shape) or radius(m))
    artifacts = {}
    run_certification(inst, artifacts=artifacts)
    bundle = artifacts["bundle"]
    n_model = artifacts["basis"].m1.degree * inst.psi.d
    assert shapes == [(n_model, n_model)] * 2 + [bundle.s1.shape] * 2
    assert [bundle.residuals[k] for k in ("s1_radius", "s2_radius")] == [
        radius(bundle.s1), radius(bundle.s2)]


def test_a_degenerate_point_spectrum_is_inconclusive(monkeypatch, companion_psi_2):
    pair = dv.compress_pair(companion_psi_2, dv.BlaschkeProduct([(0.0, 2)]))
    bundle = dv.constrained_coextension(pair, companion_psi_2, dv.ann_generators(pair))

    def degenerate(*args, **kwargs):
        raise dv.errors.DegenerateCluster("joint eigenspace singular value inside the guard band")

    monkeypatch.setattr(dilation, "joint_point_spectrum", degenerate)
    entries = dv.verify_coextension(bundle, dv.variety_polynomial(companion_psi_2))
    entry = next(e for e in entries if e.name == "point-spectrum-on-variety")
    assert entry.status == "inconclusive"
    assert "guard band" in entry.data["reason"]
