import dataclasses
import numpy as np
import pytest

import distvar as dv
from distvar import inner
from distvar.errors import NoInnerSolution
from distvar.inner import circle_grid, eval_psi_grid
from distvar.instances import build_theta, make_instance, random_recipe, run_certification
from distvar.opcore import defect, opnorm
from conftest import J2, w2z_poly


# ---------------------------------------------------------------------------
# embedding


def test_embed_j2_is_exact_identity(j2_pair):
    j, n_trunc, _ = dv.embed_J(j2_pair, dv.DEFAULT.override(tol_trunc=1e-10))
    assert n_trunc == 1
    assert np.allclose(np.abs(j), np.eye(2))
    assert np.linalg.norm(j.conj().T @ j - np.eye(2), 2) < 1e-15


def test_embed_zero_matrix():
    pair = dv.validate_pair(np.zeros((3, 3)), np.zeros((3, 3)), require_pure=True)
    j, n_trunc, _ = dv.embed_J(pair, dv.DEFAULT.override(tol_trunc=1e-10))
    assert n_trunc == 0
    assert np.allclose(np.abs(j), np.eye(3))


def test_embed_geometric_column():
    pair = dv.validate_pair([[0.5]], [[0.5]], require_pure=True)
    j, n_trunc, _ = dv.embed_J(pair, dv.DEFAULT.override(tol_trunc=1e-10))
    expected = (np.sqrt(3) / 2) * 0.5 ** np.arange(n_trunc + 1)
    assert np.allclose(np.abs(j[:, 0]), expected)
    assert abs(np.linalg.norm(j) - 1.0) < 1e-10


def test_embed_defect_cut_follows_tol_rank():
    # I - T1 T1* has eigenvalues 1e-4 and 1, so tol_rank = 1e-3 keeps one
    t1 = np.array([[0.0, np.sqrt(1.0 - 1e-4)], [0.0, 0.0]])
    tol = dv.DEFAULT.override(tol_rank=1e-3)
    pair = dv.validate_pair(t1, np.zeros((2, 2)), require_pure=True, tol=tol)
    assert pair.defect_ranks[0] == 1
    j, _, w = dv.embed_J(pair, tol)
    assert w.shape[1] == 1 and j.shape == (2, 2)
    assert dv.embed_J(pair)[2].shape[1] == 2


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
        assert dv.interior_pureness(psi)[0] < 1.0
        _, _, _, res = dv.coextension_embedding(pair, psi)
        assert res["intertwine_symbol"] <= tol.tol_intertwine
        p = dv.variety_polynomial(psi).p
        assert np.linalg.norm(dv.poly_apply(p, pair), 2) <= tol.tol_ann


def test_construct_psi_rejects_mismatched_symbol(j2_pair):
    # Psi = z^2 cannot intertwine T2 = J2 through any co-extension
    psi = dv.from_polynomial(np.array([[[0.0]], [[0.0]], [[1.0]]], dtype=complex))
    with pytest.raises(NoInnerSolution):
        dv.coextension_embedding(j2_pair, psi)


@pytest.mark.parametrize("t, symbol, rank, d", [
    (J2, "companion_psi_2", 1, 2),
    (np.zeros((3, 3)), "scalar_shift_psi", 3, 1),
], ids=["jordan-rank1-d2", "zero-rank3-d1"])
def test_coextension_rejects_defect_rank_other_than_d(request, t, symbol, rank, d):
    # J has one block per power of T1*, of as many rows as the defect rank
    # of T1; the symbol's Taylor coefficients are d x d
    pair = dv.validate_pair(t, t, require_pure=True)
    assert pair.defect_ranks[0] == rank
    with pytest.raises(NoInnerSolution, match=f"defect rank {rank} .* d = {d}"):
        dv.coextension_embedding(pair, request.getfixturevalue(symbol))


# ---------------------------------------------------------------------------
# closed-form model operators against series references


KINDS = ["companion", "colligation", "scalar_blaschke_times_identity"]


def _series_at_zero(psi, cut=1e-18):
    """Taylor coefficients of Psi at 0, long enough that the tail is below cut."""
    n = 64
    while True:
        coeffs = dv.taylor_at(psi, 0.0, n)
        if psi.kind == "polynomial" or np.linalg.norm(coeffs[-1], 2) < cut:
            return coeffs
        n *= 2


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
        coeffs = _series_at_zero(psi)
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
    """embed_J with one opnorm per power."""
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
    j0, n_trunc, _ = dv.embed_J(pair)
    j_ref, n_ref = _loop_embed_J(pair)
    assert n_trunc == n_ref and j0.tobytes() == j_ref.tobytes()

    # the block system  W R_m T2* = sum_k Psi_k* W R_(m+k)  for every m, from
    # a long series and blocks extended past it
    coeffs = _series_at_zero(psi)
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

    j, _, w, res = dv.coextension_embedding(pair, psi)
    aligned = [w @ b for b in blocks]
    assert np.array_equal(j, np.vstack(aligned[: n_trunc + 1]))
    assert res["isometry"] == opnorm(j.conj().T @ j - np.eye(n))
    x = aligned[0]
    assert res["intertwine_symbol"] == opnorm(
        x @ t2s - (phi @ x.reshape(-1, order="F")).reshape(d, n, order="F"))
    block_res = max(
        opnorm(aligned[m] @ t2s - sum(c.conj().T @ aligned[m + k] for k, c in enumerate(coeffs)))
        for m in range(n_trunc + 1))
    assert abs(res["intertwine_symbol"] - block_res) < 1e-13


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

    J is re-cut at tol_trunc = 1e-14, so that truncation edge effects stay
    below the comparison level, and rotated by the alignment unitary of
    coextension_embedding (the defect basis of embed_J is deterministic).
    """
    _, _, w_align, _ = dv.coextension_embedding(pair, psi)
    j, n, _ = dv.embed_J(pair, dv.DEFAULT.override(tol_trunc=1e-14))
    d = psi.d
    aligned = (w_align @ j.reshape(n + 1, d, -1)).reshape(j.shape)
    mz = np.kron(np.eye(n + 1, k=-1), np.eye(d))
    mpsi = sum(np.kron(np.eye(n + 1, k=-k), c)
               for k, c in enumerate(dv.taylor_at(psi, 0.0, n + 1)))
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
        spair = dv.s_pair(bundle)
        sbasis = dv.ann_generators(spair)
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
