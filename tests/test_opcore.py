import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import distvar as dv
from distvar.errors import DegenerateCluster, NonCommuting, NotContractive, NotPure
from conftest import J2, random_unitary


def _random_commuting_pair(seed, n=6):
    """Commuting contractions as polynomials of one normal matrix."""
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    lam = 0.8 * rng.uniform(0.1, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    base = u @ np.diag(lam) @ u.conj().T
    c1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    c2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    t1 = sum(c * np.linalg.matrix_power(base, k) for k, c in enumerate(c1))
    t2 = sum(c * np.linalg.matrix_power(base, k) for k, c in enumerate(c2))
    t1 = t1 / (np.linalg.norm(t1, 2) * 1.05)
    t2 = t2 / (np.linalg.norm(t2, 2) * 1.05)
    return dv.validate_pair(t1, t2, require_pure=True)


# ---------------------------------------------------------------------------
# validation and defects


def test_validate_pair_j2(j2_pair):
    assert j2_pair.commutator_norm == 0.0
    assert j2_pair.norms == (1.0, 1.0)
    assert j2_pair.purity_margins == (1.0, 1.0)
    assert j2_pair.defect_ranks == (1, 1)


def test_validate_pair_diagonal():
    pair = dv.validate_pair(np.diag([0.1, 0.2]), np.diag([0.3, 0.4]),
                            require_pure=True)
    assert pair.purity_margins[0] == pytest.approx(0.8)
    assert pair.purity_margins[1] == pytest.approx(0.6)


def test_pairs_compare_and_hash_by_identity():
    a = dv.validate_pair(np.diag([0.1, 0.2]), np.diag([0.3, 0.4]))
    b = dv.validate_pair(np.diag([0.1, 0.2]), np.diag([0.3, 0.4]))
    assert (a == a) is True
    assert (a == b) is False
    assert (a != b) is True
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
    assert a.defect_ranks == (2, 2)
    assert "defect_ranks" in vars(a)


def test_validate_pair_noncommuting():
    with pytest.raises(NonCommuting):
        dv.validate_pair([[0, 1], [0, 0]], [[0, 0], [1, 0]])


def test_validate_pair_not_contractive():
    with pytest.raises(NotContractive):
        dv.validate_pair(2 * np.eye(2), np.eye(2))


def test_validate_pair_not_pure():
    with pytest.raises(NotPure):
        dv.validate_pair(np.eye(2), 0.5 * np.eye(2), require_pure=True)


def test_validate_pair_empty():
    with pytest.raises(ValueError, match="t1 and t2 are empty"):
        dv.validate_pair(np.zeros((0, 0)), np.zeros((0, 0)))


def test_defect_examples():
    droot, rank, basis = dv.defect(J2)
    assert np.allclose(droot, np.diag([1.0, 0.0]))
    assert rank == 1
    assert basis.shape == (2, 1)

    droot, rank, _ = dv.defect(np.zeros((3, 3)))
    assert rank == 3
    assert np.allclose(droot, np.eye(3))

    droot, rank, _ = dv.defect(np.eye(2)[[1, 0]].astype(complex))
    assert rank == 0
    assert np.linalg.norm(droot, 2) < 1e-12


# ---------------------------------------------------------------------------
# functional calculus


def test_poly_apply_difference_vanishes(j2_pair):
    p = dv.Poly2([[0.0, -1.0], [1.0, 0.0]])  # z - w
    assert np.linalg.norm(dv.poly_apply(p, j2_pair), 2) < 1e-15


def test_poly_apply_product_diagonal():
    pair = dv.validate_pair(np.diag([0.1, 0.2]), np.diag([0.3, 0.4]))
    got = dv.poly_apply(dv.Poly2([[0, 0], [0, 1]]), pair)  # zw
    assert np.allclose(got, np.diag([0.03, 0.08]))


def test_poly_apply_nilpotent_square(j2_pair):
    got = dv.poly_apply(dv.Poly2([[0], [0], [1]]), j2_pair)  # z^2
    assert np.linalg.norm(got, 2) < 1e-15


def _horner_reference(p, pair):
    """One polynomial by its own nested Horner loop."""
    t1, t2 = (pair.t1, pair.t2) if isinstance(pair, dv.CommutingPair) else pair
    c = p.coeffs
    eye = np.eye(t1.shape[0], dtype=complex)

    def horner_w(row):
        out = row[-1] * eye
        for k in range(row.size - 2, -1, -1):
            out = t2 @ out + row[k] * eye
        return out

    out = horner_w(c[-1])
    for i in range(c.shape[0] - 2, -1, -1):
        out = t1 @ out + horner_w(c[i])
    return out


def _table_bound(c, box, n):
    """poly_stack's rounding bound, 3 (a + b + ab) n^2 u sum|c_ij|, for the
    coefficients c evaluated on an (a, b) box; Horner obeys it too, so two
    evaluations may differ by twice it."""
    a, b = box
    return 3 * (a + b + a * b) * n ** 2 * 2.0 ** -53 * float(np.abs(c).sum())


def _assert_family_within_bound(polys, target, n):
    stack = dv.poly_stack(polys, target)
    assert stack.shape == (len(polys), n, n)
    box = np.max([p.coeffs.shape for p in polys], axis=0)
    for k, p in enumerate(polys):
        ref = _horner_reference(p, target)
        assert np.linalg.norm(stack[k] - ref, 2) <= 2 * _table_bound(p.coeffs, box, n)
        single = dv.poly_apply(p, target)
        assert np.linalg.norm(single - ref, 2) <= 2 * _table_bound(p.coeffs, p.coeffs.shape, n)


@pytest.mark.parametrize("as_tuple", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_poly_stack_slices_equal_single_horner(seed, as_tuple):
    """Every slice, and poly_apply, agrees with Horner within the rounding
    bound the poly_stack docstring states."""
    pair = _random_commuting_pair(seed, n=5)
    basis = dv.ann_generators(pair)
    rng = np.random.default_rng(seed + 7)
    polys = [
        dv.Poly2([[0.7 - 0.2j]]),                                  # constant
        basis.q1,                                                  # z only
        basis.q2,                                                  # w only
        *basis.box_generators,
        dv.Poly2(rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))),
    ]
    assert len({p.coeffs.shape for p in polys}) >= 4  # the family is mixed
    target = (pair.t1, pair.t2) if as_tuple else pair
    _assert_family_within_bound(polys, target, pair.n)


def test_poly_stack_holds_a_5_by_13_family_within_the_bound():
    pair = _random_commuting_pair(4, n=12)
    assert max(pair.norms) <= 1.0
    rng = np.random.default_rng(23)
    shapes = [(5, 13), (1, 1), (5, 1), (1, 13)] + [
        (int(rng.integers(1, 6)), int(rng.integers(1, 14))) for _ in range(34)]
    polys = [dv.Poly2(rng.normal(size=s) + 1j * rng.normal(size=s)) for s in shapes]
    assert len(polys) == 38
    assert np.max([p.coeffs.shape for p in polys], axis=0).tolist() == [5, 13]
    _assert_family_within_bound(polys, pair, pair.n)


def test_poly_stack_rejects_an_empty_family(j2_pair):
    with pytest.raises(ValueError, match="at least one polynomial"):
        dv.poly_stack([], j2_pair)


def test_opnorms_equal_opnorm_per_slice():
    pair = _random_commuting_pair(3, n=4)
    rng = np.random.default_rng(11)
    polys = [dv.Poly2(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
             for _ in range(6)]
    stack = dv.poly_stack(polys, pair)
    got = dv.opcore.opnorms(stack)
    assert got.tolist() == [dv.opcore.opnorm(m) for m in stack]
    assert dv.opcore.opnorm(stack[0]) == float(np.linalg.norm(stack[0], 2))


def test_a_pair_derives_its_spectral_data_and_defects_once(monkeypatch, companion_psi_2):
    calls = []
    for name in ("_jordan_clusters", "defect"):
        orig = getattr(dv.opcore, name)
        monkeypatch.setattr(dv.opcore, name,
                            lambda *a, _f=orig, _n=name, **k: calls.append(_n) or _f(*a, **k))
    theta = dv.BlaschkeProduct([(0.1, 3), (-0.4j, 1)])
    pair = dv.compress_pair(companion_psi_2, theta)
    for _ in range(2):
        m1 = dv.minimal_blaschke(pair)
        dv.joint_spectrum_taylor(pair)
        dv.joint_point_spectrum(pair)
        dv.embed_J(pair, m1)
        dv.construct_psi(pair)
    # T1, then T2 on each of its two generalized eigenspaces; one defect each
    assert sorted(calls) == ["_jordan_clusters"] * 3 + ["defect"] * 2
    arrays = ([q for *_, q in pair.t1_jordan] + [v for *_, v in pair.joint_spaces]
              + [a for droot, _, basis in pair.defects for a in (droot, basis)])
    assert len(arrays) == 2 + 4 + 4
    assert not any(a.flags.writeable for a in arrays)
    # no cache outlives the pair: a second pair on the same matrices derives
    # its own
    calls.clear()
    dv.minimal_blaschke(dv.compress_pair(companion_psi_2, theta))
    assert calls == ["_jordan_clusters"]


def test_defect_ranks_are_lazy_and_follow_the_validation_tolerances():
    t1 = np.diag([0.5, np.sqrt(1 - 1e-5)]).astype(complex)
    t2 = np.diag([0.3, 0.2]).astype(complex)
    pair = dv.validate_pair(t1, t2)
    assert "defect_ranks" not in vars(pair)
    assert pair.defect_ranks == (dv.defect(t1)[1], dv.defect(t2)[1]) == (2, 2)
    loose = dv.DEFAULT.override(tol_rank=1e-3)
    assert dv.validate_pair(t1, t2, tol=loose).defect_ranks == (
        dv.defect(t1, tol=loose)[1], dv.defect(t2, tol=loose)[1]) == (1, 2)


def test_validated_pairs_run_no_defect_unless_ranks_are_read(monkeypatch, companion_psi_2):
    theta = dv.BlaschkeProduct([(0.3, 1), (-0.4j, 1)])
    pair = dv.compress_pair(companion_psi_2, theta)
    basis = dv.ann_generators(pair)
    bundle = dv.constrained_coextension(pair, companion_psi_2, basis)
    variety = dv.variety_polynomial(companion_psi_2)

    def refuse(*args, **kwargs):
        raise AssertionError("defect called")

    monkeypatch.setattr(dv.opcore, "defect", refuse)
    dv.compress_pair(companion_psi_2, theta)
    omega, _ = dv.omega_psi(bundle)
    dv.support_bounds(dv.settle(dv.z_ann, basis, pair), bundle, variety)
    assert omega
    with pytest.raises(AssertionError, match="defect called"):
        dv.validate_pair(pair.t1, pair.t2).defect_ranks


# ---------------------------------------------------------------------------
# joint spectra


def test_taylor_spectrum_diagonal():
    pair = dv.validate_pair(np.diag([0.1, 0.2]), np.diag([0.3, 0.4]))
    spec = dv.joint_spectrum_taylor(pair)
    assert dv.matching_distance(list(spec.points), [(0.1, 0.3), (0.2, 0.4)]) < 1e-10


def test_taylor_spectrum_nilpotent(j2_pair):
    spec = dv.joint_spectrum_taylor(j2_pair)
    assert len(spec.points) == 2
    assert max(abs(l) + abs(m) for l, m in spec.points) < 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_taylor_spectrum_polynomial_oracle(seed):
    # T2 = q(T1) for normal T1: points must be (lambda, q(lambda))
    rng = np.random.default_rng(seed)
    n = 5
    u = random_unitary(rng, n)
    lam = 0.7 * rng.uniform(0.2, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    t1 = u @ np.diag(lam) @ u.conj().T
    q = dv.Poly1(rng.normal(size=3) + 1j * rng.normal(size=3))
    t2 = u @ np.diag(q(lam)) @ u.conj().T
    t2 = t2 / (np.linalg.norm(t2, 2) + 0.1)
    scale = 1.0 / (np.linalg.norm(u @ np.diag(q(lam)) @ u.conj().T, 2) + 0.1)
    pair = dv.validate_pair(t1, t2)
    spec = dv.joint_spectrum_taylor(pair)
    expected = [(l, scale * q(l)) for l in lam]
    assert dv.matching_distance(list(spec.points), expected) < 1e-8


def test_point_spectrum_diagonal():
    pair = dv.validate_pair(np.diag([0.1, 0.2]), np.diag([0.3, 0.4]))
    spec = dv.joint_point_spectrum(pair)
    assert dv.matching_distance(list(spec.points), [(0.1, 0.3), (0.2, 0.4)]) < 1e-10


def test_point_spectrum_nilpotent(j2_pair):
    spec = dv.joint_point_spectrum(j2_pair)
    assert dv.matching_distance(list(spec.points), [(0.0, 0.0)]) < 1e-10
    w = spec.witnesses[0]
    assert abs(abs(w[1]) - 1.0) < 1e-12 and abs(w[0]) < 1e-12


def test_point_spectrum_j2_identity():
    pair = dv.validate_pair(J2, np.eye(2))
    spec = dv.joint_point_spectrum(pair)
    assert dv.matching_distance(list(spec.points), [(0.0, 1.0)]) < 1e-10


def test_point_subset_of_taylor():
    for seed in range(4):
        pair = _random_commuting_pair(seed)
        tay = dv.joint_spectrum_taylor(pair)
        pt = dv.joint_point_spectrum(pair)
        for p in pt.points:
            assert min(
                max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in tay.points
            ) < 1e-8


def test_point_spectrum_of_a_nilpotent_t2_has_one_witness():
    # T1 = 0 has one generalized eigenspace, the whole space, on which T2 is
    # a Jordan block: one joint eigenvector, so one point and one witness
    pair = dv.validate_pair(np.zeros((2, 2)), 0.5 * J2)
    spec = dv.joint_point_spectrum(pair)
    assert spec.points == ((0j, 0j),)
    assert len(spec.witnesses) == 1
    assert abs(abs(spec.witnesses[0][1]) - 1.0) < 1e-15


@pytest.mark.parametrize("jordan, count", [(0.0, 2), (1e-5, 1), (1e-8, None)])
def test_point_spectrum_decides_a_jordan_entry_by_the_guarded_cut(jordan, count):
    # 0.3 I + c J2 has two joint eigenvectors with T2 = diag(0.1, -0.2) when
    # c = 0, and one with T2 = 0.5 I when c is far above the cut
    # tol_eig * scale = 1e-8; c = 1e-8 sits inside its rank-guard band
    t2 = np.diag([0.1, -0.2]) if jordan == 0.0 else 0.5 * np.eye(2)
    pair = dv.validate_pair(0.3 * np.eye(2) + jordan * J2, t2)
    if count is None:
        with pytest.raises(DegenerateCluster, match="joint eigenspace"):
            dv.joint_point_spectrum(pair)
        return
    spec = dv.joint_point_spectrum(pair)
    assert len(spec.points) == len(spec.witnesses) == count


def _spectra_cases():
    pairs = [_random_commuting_pair(seed) for seed in range(6)]
    pairs += [dv.make_instance(dv.random_recipe(s, repeated=True)).pair for s in range(20)]
    return pairs


def test_point_spectrum_witnesses_are_orthonormal_eigenvectors():
    for pair in _spectra_cases():
        try:
            spec = dv.joint_point_spectrum(pair)
        except DegenerateCluster:
            continue
        cut = dv.DEFAULT.tol_eig * max(1.0, *pair.norms)
        for point in set(spec.points):
            w = np.array([v for p, v in zip(spec.points, spec.witnesses) if p == point]).T
            assert np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1]), 2) < 1e-13
            for t, value in zip((pair.t1, pair.t2), point):
                assert np.linalg.norm(t @ w - value * w, 2) <= cut


def test_point_spectrum_is_the_deduplicated_taylor_spectrum():
    # every joint generalized eigenspace holds a joint eigenvector; the two
    # spectra read one traversal, so they raise together or not at all
    for pair in _spectra_cases():
        try:
            taylor = dv.joint_spectrum_taylor(pair)
        except DegenerateCluster:
            with pytest.raises(DegenerateCluster):
                dv.joint_point_spectrum(pair)
            continue
        assert set(dv.joint_point_spectrum(pair).points) == set(taylor.points)


def _close_zero_pairs(gap, companion_psi_2, scalar_shift_psi):
    """Pairs whose T1 has the simple eigenvalues 0.3 and 0.3 + gap: a
    diagonal pair, and the model pairs of two symbols over those zeros
    (T1 is then non-normal, and with d = 2 each eigenvalue is double)."""
    theta = dv.BlaschkeProduct([(0.3, 1), (0.3 + gap, 1)])
    return [dv.validate_pair(np.diag([0.3, 0.3 + gap]), np.diag([0.1, -0.2])),
            dv.compress_pair(scalar_shift_psi, theta),
            dv.compress_pair(companion_psi_2, theta)]


@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5])
def test_taylor_spectrum_never_merges_two_simple_zeros(gap, companion_psi_2,
                                                      scalar_shift_psi):
    # the zeros sit inside the eigenvalue merge radius: the spectrum keeps
    # both or refuses to decide, and never returns one merged point
    for pair in _close_zero_pairs(gap, companion_psi_2, scalar_shift_psi):
        try:
            spec = dv.joint_spectrum_taylor(pair)
        except DegenerateCluster:
            continue
        lams = [lam for lam, _ in spec.points]
        assert dv.matching_distance(lams, list(np.linalg.eigvals(pair.t1))) < 1e-9


def test_taylor_spectrum_keeps_zeros_outside_the_merge_radius(companion_psi_2,
                                                              scalar_shift_psi):
    for pair in _close_zero_pairs(1e-2, companion_psi_2, scalar_shift_psi):
        lams = [lam for lam, _ in dv.joint_spectrum_taylor(pair).points]
        assert dv.matching_distance(lams, list(np.linalg.eigvals(pair.t1))) < 1e-12


def _separated_or_degenerate(points_of):
    """``points_of()`` raises DegenerateCluster, or its distinct points lie
    pairwise more than cluster_warn apart."""
    try:
        points = list(points_of())
    except DegenerateCluster:
        return
    for i, a in enumerate(points):
        for b in points[:i]:
            assert np.abs(np.subtract(a, b)).max() > dv.DEFAULT.cluster_warn, (a, b)


def _assert_point_sets_come_from_the_traversal(pair, bundle, m1):
    """Repeats of a Taylor-spectrum point are bit-equal, with one distinct
    point per joint space; Z(Ann), Omega, the support's lower set and the
    projection check's two sets are separated or degenerate."""
    for p in (pair, bundle.constrained):
        try:
            points = dv.joint_spectrum_taylor(p).points
        except DegenerateCluster:
            continue
        distinct = list(dict.fromkeys(points))
        assert len(distinct) == len(p.joint_spaces)
        _separated_or_degenerate(lambda: distinct)
    try:
        basis = dv.ann_generators(pair)
    except DegenerateCluster:
        return
    _separated_or_degenerate(lambda: dv.z_ann(basis, pair))
    _separated_or_degenerate(lambda: dv.omega_psi(bundle)[0])
    _separated_or_degenerate(
        lambda: dv.support_bounds(dv.z_ann(basis, pair), bundle, None).lower_boundary)
    entry = dv.check_projection(dv.settle(dv.omega_psi, bundle), m1)
    if entry.status != "inconclusive":
        _separated_or_degenerate(lambda: entry.data["projection"])
        _separated_or_degenerate(lambda: entry.data["m1_zeros"])


@pytest.mark.parametrize("repeated", [False, True])
def test_recipe_point_sets_need_no_reclustering(repeated):
    for seed in range(40):
        inst = dv.make_instance(dv.random_recipe(seed, repeated=repeated))
        basis = dv.ann_generators(inst.pair)
        bundle = dv.constrained_coextension(inst.pair, inst.psi, basis)
        _assert_point_sets_come_from_the_traversal(inst.pair, bundle, bundle.m1)


@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5])
def test_close_zero_point_sets_need_no_reclustering(gap, companion_psi_2, scalar_shift_psi):
    # each pair stands in for its own constrained pair, as omega_psi and
    # support_bounds read only bundle.constrained
    for pair in _close_zero_pairs(gap, companion_psi_2, scalar_shift_psi):
        try:
            m1 = dv.minimal_blaschke(pair.t1)
        except DegenerateCluster:
            continue
        _assert_point_sets_come_from_the_traversal(
            pair, SimpleNamespace(constrained=pair), m1)


def test_minimal_blaschke_never_merges_two_simple_zeros(companion_psi_2):
    # (T1 - lambda)^k has kernels of dimension 2, then 0 at k = 2: a kernel
    # that shrinks is inconsistent, not a fourfold zero
    theta = dv.BlaschkeProduct([(0.3, 1), (0.3 + 1e-5, 1)])
    with pytest.raises(DegenerateCluster, match="kernels of dimension"):
        dv.minimal_blaschke(dv.compress_pair(companion_psi_2, theta).t1)


@pytest.mark.parametrize("zero", [0.0, 0.2 + 0.1j, -0.45j])
def test_taylor_spectrum_over_a_jordan_block_is_exact(zero, companion_psi_2):
    # over a zero of multiplicity 4, T1 has two Jordan blocks of size 4, which
    # rounding splits by about 1e-4; the generalized eigenspace does not
    # split, so the spectrum is the two points of w^2 = z over the zero, each
    # four times
    pair = dv.compress_pair(companion_psi_2, dv.BlaschkeProduct([(zero, 4)]))
    points = dv.joint_spectrum_taylor(pair).points
    root = np.sqrt(complex(zero))
    assert dv.matching_distance(list(points), [(zero, root)] * 4 + [(zero, -root)] * 4) < 1e-12


def test_minimal_blaschke_and_the_taylor_spectrum_analyse_t1_once(monkeypatch,
                                                                   companion_psi_2):
    pair = dv.compress_pair(companion_psi_2, dv.BlaschkeProduct([(0.1, 3), (-0.4j, 1)]))
    shapes = []
    analyse = dv.opcore._jordan_clusters

    def recording(t, *args):
        shapes.append(t.shape)
        return analyse(t, *args)

    monkeypatch.setattr(dv.opcore, "_jordan_clusters", recording)
    m1 = dv.minimal_blaschke(pair)
    spec = dv.joint_spectrum_taylor(pair)
    # T1 once; then the compressions of T2 to its two generalized eigenspaces
    assert shapes[0] == pair.t1.shape
    assert sorted(shapes[1:]) == [(2, 2), (6, 6)]
    assert sorted(m for _, m in m1.zeros) == [1, 3]
    assert len(spec.points) == pair.n


def test_both_joint_spectra_of_the_pair_read_one_traversal(monkeypatch, companion_psi_2):
    # verify_coextension takes the point spectrum of the pair and z_ann its
    # Taylor spectrum: T2 is compressed to each generalized eigenspace of T1
    # and analysed once, for both
    pair = dv.compress_pair(companion_psi_2, dv.BlaschkeProduct([(0.1, 3), (-0.4j, 1)]))
    basis = dv.ann_generators(pair)
    bundle = dv.constrained_coextension(pair, companion_psi_2, basis)
    variety = dv.variety_polynomial(companion_psi_2)
    dv.minimal_blaschke(bundle.constrained)  # so that verify_coextension finds S1 analysed
    shapes = []
    analyse = dv.opcore._jordan_clusters

    def recording(t, *args):
        shapes.append(t.shape)
        return analyse(t, *args)

    monkeypatch.setattr(dv.opcore, "_jordan_clusters", recording)
    dv.verify_coextension(bundle, variety)
    zset = dv.z_ann(basis, pair)
    assert sorted(shapes) == [(2, 2), (6, 6)]
    assert len(zset) == 4  # two points of w^2 = z over each zero


def _reference_jordan_clusters(t, scale, tol):
    """The one-cluster-at-a-time loop: union-find clusters in sorted order,
    each cluster's powers taken by ``kernel`` until its kernel stops growing,
    and the first failure raised at once."""
    n = t.shape[0]
    if n == 1:
        return [(complex(t[0, 0]), 1, np.ones((1, 1), dtype=complex))]
    pts = np.linalg.eigvals(t).reshape(n, 1)
    clusters = [(pts[g].mean(axis=0), len(g))
                for g in _reference_clusters(pts, dv.opcore._EIG_MERGE)]
    clusters.sort(key=lambda cm: tuple((v.real, v.imag) for v in cm[0]))
    out = []
    for center, count in clusters:
        lam = complex(center[0])
        shifted = t - lam * np.eye(n)
        shift_norm = max(dv.opcore.opnorm(shifted), 1e-300) if count > 1 else 1.0
        power, dims = np.eye(n, dtype=complex), [0]
        while dims[-1] < count:
            power = power @ shifted
            floor = 1e-12 * scale * shift_norm ** (len(dims) - 1)
            q = dv.opcore.kernel(power, tol.tol_rank, floor,
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


def _jordan_outcome(analyse, t, scale, tol):
    """The bytes of each (lambda, index, Q), or the text it raised."""
    try:
        return [(np.complex128(lam).tobytes(), index, q.shape, q.tobytes())
                for lam, index, q in analyse(t, scale, tol)]
    except DegenerateCluster as exc:
        return str(exc)


@pytest.mark.parametrize("repeated", [False, True])
def test_jordan_clusters_match_the_one_cluster_loop(monkeypatch, repeated):
    # every matrix a certification analyses, symbol fibers included
    inputs = []
    analyse = dv.opcore._jordan_clusters

    def recording(t, scale, tol):
        inputs.append((t.copy(), scale, tol))
        return analyse(t, scale, tol)

    for mod in (dv.opcore, dv.annvar):
        monkeypatch.setattr(mod, "_jordan_clusters", recording)
    for seed in range(40):
        dv.run_certification(dv.make_instance(dv.random_recipe(seed, repeated=repeated)))
    outcomes = [(_jordan_outcome(analyse, *args),
                 _jordan_outcome(_reference_jordan_clusters, *args)) for args in inputs]
    # several clusters are decided together on some of the matrices
    assert any(isinstance(got, list) and len(got) > 1 for got, _ in outcomes)
    for got, ref in outcomes:
        assert got == ref


def test_the_first_failing_cluster_in_sorted_order_raises():
    # the cluster at -0.5, a split Jordan block with coupling 100, is clear at
    # power 1 (singular value 1e-9, cut 1e-5) and inside the guard band at
    # power 2 (1e-7, cut 1e-7); the cluster at 0.5 is inside it at power 1
    # (1e-5, cut 1e-5), a round before the earlier cluster fails
    h = np.sqrt(1e-7)
    t = np.zeros((4, 4), dtype=complex)
    t[:2, :2] = [[-0.5 + h, 100.0], [0.0, -0.5 - h]]
    t[2:, 2:] = np.diag([0.5 - 1e-5, 0.5 + 1e-5])
    for analyse in (dv.opcore._jordan_clusters, _reference_jordan_clusters):
        with pytest.raises(DegenerateCluster, match=r"^rank of \(T - -0\.5\+0j\)\^2: "):
            analyse(t, 1.0, dv.DEFAULT)
    # with an exact Jordan block there, the later cluster's failure shows
    t[:2, :2] = [[-0.5, 100.0], [0.0, -0.5]]
    with pytest.raises(DegenerateCluster, match=r"^rank of \(T - 0\.5\+0j\)\^1: "):
        dv.opcore._jordan_clusters(t, 1.0, dv.DEFAULT)


# ---------------------------------------------------------------------------
# minimal Blaschke products


def test_minimal_blaschke_jordan():
    b = dv.minimal_blaschke(J2)
    assert b.zeros == ((0j, 2),)


def test_minimal_blaschke_diagonal():
    b = dv.minimal_blaschke(np.diag([0.0, 0.5]))
    assert sorted((a.real, m) for a, m in b.zeros) == [(0.0, 1), (0.5, 1)]


def test_minimal_blaschke_zero_matrix():
    b = dv.minimal_blaschke(np.zeros((4, 4)))
    assert b.zeros == ((0j, 1),)


def test_minimal_blaschke_of_the_empty_matrix_is_constant():
    b = dv.minimal_blaschke(np.zeros((0, 0)))
    assert b.zeros == () and b.constant == 1.0 and b.degree == 0


def test_minimal_blaschke_annihilates_through_taylor_route():
    # the rational evaluation and the Taylor series at 0, summed against the
    # powers of T, must agree; the coefficients of b are at most 1 in modulus
    # and ||T|| = 0.5, so the tail past 41 terms is below 0.5^40 < 1e-12
    t = np.diag([0.2, -0.35 + 0.1j, 0.5j])
    b = dv.minimal_blaschke(t)
    coeffs = dv.taylor_at(dv.from_scalar_blaschke_identity(b, 1), 0.0, 41)[:, 0, 0]
    via_series = np.zeros((3, 3), dtype=complex)
    power = np.eye(3, dtype=complex)
    for c in coeffs:
        via_series += c * power
        power = power @ t
    assert np.linalg.norm(via_series, 2) < 1e-8
    assert np.linalg.norm(via_series - dv.blaschke_apply(b, t), 2) < 1e-8


def test_minimal_blaschke_annihilates_and_is_minimal():
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 5)
    lam = np.array([0.1, 0.1, -0.4, 0.3j, 0.3j])
    nil = np.zeros((5, 5), dtype=complex)
    nil[0, 1] = 1.0  # Jordan block on the repeated 0.1 eigenvalue
    t = u @ (np.diag(lam) + nil) @ u.conj().T
    t = t / (np.linalg.norm(t, 2) + 0.2)
    scale = 1.0 / (np.linalg.norm(u @ (np.diag(lam) + nil) @ u.conj().T, 2) + 0.2)
    b = dv.minimal_blaschke(t)
    assert np.linalg.norm(dv.blaschke_apply(b, t), 2) < 1e-8
    mults = dict()
    for a, m in b.zeros:
        mults[round(a.real, 6), round(a.imag, 6)] = m
    lam_s = lam * scale
    assert mults[round(lam_s[0].real, 6), round(lam_s[0].imag, 6)] == 2
    # dropping any zero (one multiplicity) must break annihilation
    for k, (a, m) in enumerate(b.zeros):
        reduced = [(x, mm) for x, mm in b.zeros if x != a]
        if m > 1:
            reduced.append((a, m - 1))
        if not reduced:
            continue
        res = np.linalg.norm(dv.blaschke_apply(dv.BlaschkeProduct(reduced), t), 2)
        assert res > 1e-4


# ---------------------------------------------------------------------------
# algebraic properties


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_poly_apply_is_homomorphism(seed):
    pair = _random_commuting_pair(seed)
    rng = np.random.default_rng(seed + 100)
    p = dv.Poly2(rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
    q = dv.Poly2(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    scale = max(p.scale, q.scale) ** 2
    prod = dv.poly_apply(p * q, pair)
    comp = dv.poly_apply(p, pair) @ dv.poly_apply(q, pair)
    assert np.linalg.norm(prod - comp, 2) <= 1e-10 * scale
    s = dv.poly_apply(p + q, pair)
    assert np.linalg.norm(
        s - dv.poly_apply(p, pair) - dv.poly_apply(q, pair), 2
    ) <= 1e-10 * scale


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_spectral_mapping(seed):
    pair = _random_commuting_pair(seed, n=6)
    rng = np.random.default_rng(seed + 50)
    p = dv.Poly2(rng.normal(size=(3, 3)))
    spec = dv.joint_spectrum_taylor(pair)
    expected = [p(l, m) for l, m in spec.points]
    got = list(np.linalg.eigvals(dv.poly_apply(p, pair)))
    assert dv.matching_distance(expected, got) < 1e-6


def _solver_max(cost):
    """Reference: one linear_sum_assignment call per matrix."""
    return np.array([c[linear_sum_assignment(c)].max() for c in cost], dtype=float)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_assignment_max_matches_solver_on_tied_costs(m, solver_calls):
    # few distinct integer values make ties in row minima and in optimal sums
    rng = np.random.default_rng(100 + m)
    rows = fallback = 0
    for alphabet in (2, 3, 5, 50):
        cost = rng.integers(0, alphabet, size=(1000, m, m))
        before = len(solver_calls)
        got = dv.opcore.assignment_max(cost)
        fallback += len(solver_calls) - before
        rows += cost.shape[0]
        assert np.array_equal(got, _solver_max(cost))
    assert fallback < rows
    assert (fallback > 0) == (m > 1)


def _reduction_assignment_max(cost):
    """Reference: row minima and first argmins by reductions over the short
    axis, the row-minimum certificate, and the solver for the rest; returns
    the maxima and the number of solver calls."""
    rowmin = cost.min(axis=2)
    cols = np.sort(cost.argmin(axis=2), axis=1)
    certified = (
        np.all(cols[:, 1:] != cols[:, :-1], axis=1)
        | np.all(np.diagonal(cost, axis1=1, axis2=2) == rowmin, axis=1)
    ) & np.isfinite(cost).all(axis=(1, 2))
    out = rowmin.max(axis=1)
    out[~certified] = _solver_max(cost[~certified])
    return out, int(np.count_nonzero(~certified))


def _short_axis_stacks(rng, m):
    """(k, m, m) cost stacks with tied entries, repeated rows and repeated
    points (constant rows) among them."""
    k = 500
    ties = rng.integers(0, 3, size=(k, m, m)).astype(float)
    rows = rng.uniform(size=(k, 1, m)).repeat(m, axis=1)
    points = rng.uniform(size=(k, m, 1)).repeat(m, axis=2)
    mixed = rng.uniform(size=(k, m, m))
    mixed[::3, -1] = mixed[::3, 0]
    return [ties, rows, points, mixed, rng.uniform(size=(k, m, m))]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_row_minima_match_the_reductions_on_short_axes(m, solver_calls):
    rng = np.random.default_rng(70 + m)
    for cost in _short_axis_stacks(rng, m):
        entries = np.ascontiguousarray(cost.transpose(1, 2, 0))
        rowmin, first = dv.opcore._row_minima(entries)
        assert np.array_equal(rowmin, cost.min(axis=2).T)
        # ties take the first index, as argmin does
        assert np.array_equal(first, cost.argmin(axis=2).T)
        expected, calls = _reduction_assignment_max(cost)
        before = len(solver_calls)
        assert np.array_equal(dv.opcore.assignment_max(cost), expected)
        assert len(solver_calls) - before == calls
        # a view of entry-major storage, as the mesh passes it, gives the same
        assert np.array_equal(dv.opcore.assignment_max(entries.transpose(2, 0, 1)), expected)


def test_assignment_max_single_matrix(solver_calls):
    certified = np.array([[[0.3, 0.1, 0.9], [0.2, 0.8, 0.7], [0.6, 0.5, 0.4]]])
    got = dv.opcore.assignment_max(certified)
    assert got.tolist() == _solver_max(certified).tolist() == [0.4]
    assert solver_calls == []
    # every row's minimum is in column 0: the solver must pay 2 in some row
    tied = np.array([[[0.0, 2.0, 3.0], [0.0, 2.0, 5.0], [0.0, 4.0, 4.0]]])
    assert dv.opcore.assignment_max(tied).tolist() == _solver_max(tied).tolist() == [3.0]
    assert solver_calls == [(3, 3)]
    # a non-finite cost goes to the solver even where the row minima settle it
    blocked = certified.copy()
    blocked[0, 0, 2] = np.inf
    assert dv.opcore.assignment_max(blocked).tolist() == _solver_max(blocked).tolist()
    assert solver_calls == [(3, 3), (3, 3)]


def test_assignment_max_repeated_points_use_the_diagonal(solver_calls):
    # repeated fibers give constant cost rows, whose first argmins all coincide
    w = np.array([[0.5, 0.5, 0.5], [0.25j, 0.25j, 0.25j]])
    cost = np.abs(w[:, :, None] - np.roll(w, -1, axis=0)[:, None, :])
    got = dv.opcore.assignment_max(cost)
    assert solver_calls == []
    assert np.array_equal(got, _solver_max(cost))


def test_assignment_max_rejects_nan_like_the_solver():
    cost = np.zeros((3, 2, 2))
    cost[1, 0, 1] = np.nan
    with pytest.raises(ValueError):
        linear_sum_assignment(cost[1])
    with pytest.raises(ValueError):
        dv.opcore.assignment_max(cost)


def test_matching_distance_matches_pairwise_loop():
    rng = np.random.default_rng(5)
    for dim in (1, 2):
        for n in (1, 3, 6):
            a = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
            b = a[rng.permutation(n)] + 1e-3 * rng.normal(size=(n, dim))
            pa = [complex(p[0]) if dim == 1 else tuple(p) for p in a]
            pb = [complex(p[0]) if dim == 1 else tuple(p) for p in b]
            cost = np.array([[float(np.max(np.abs(x - y))) for y in b] for x in a])
            rows, cols = linear_sum_assignment(cost)
            assert dv.matching_distance(pa, pb) == float(cost[rows, cols].max())
    assert dv.matching_distance([0.1, 0.2], [0.1]) == float("inf")
    assert dv.matching_distance([], []) == 0.0


# ---------------------------------------------------------------------------
# the stacked eigenvalue kernel

_EPS = np.finfo(float).eps


def _multiset_gap(a, b):
    """Per row, the smallest max distance between the rows of two (n, d)
    value arrays over all pairings of their entries."""
    return np.min([np.abs(a[:, list(p)] - b).max(axis=1)
                   for p in itertools.permutations(range(a.shape[1]))], axis=0)


def _lapack_spread(m, rng, tries=4):
    """How far LAPACK's own eigenvalues move, per matrix, under perturbations
    of size 16 eps ||M||_F: the accuracy LAPACK itself can promise."""
    ref = np.linalg.eigvals(m)
    size = 16 * _EPS * np.linalg.norm(m, axis=(1, 2))[:, None, None]
    spread = np.zeros(m.shape[0])
    for _ in range(tries):
        kick = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
        kick *= size / np.linalg.norm(kick, axis=(1, 2))[:, None, None]
        spread = np.maximum(spread, _multiset_gap(np.linalg.eigvals(m + kick), ref))
    return spread


def _assert_matches_lapack(m, rng, slack=4.0):
    got = dv.opcore.stack_eigvals(m)
    assert got.shape == m.shape[:2] and np.isfinite(got).all()
    allowed = slack * (_lapack_spread(m, rng) + 16 * _EPS * np.linalg.norm(m, axis=(1, 2)))
    gap = _multiset_gap(got, np.linalg.eigvals(m))
    assert (gap <= allowed).all(), float((gap / allowed).max())


def _tiled(mats, n=64):
    """A stack of n matrices cycling through ``mats``: long enough for the kernel."""
    mats = np.asarray(mats, dtype=complex)
    return mats[np.arange(n) % mats.shape[0]]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stack_eigvals_matches_lapack_on_random_stacks(d):
    rng = np.random.default_rng(40 + d)
    n = 512
    ginibre = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    unitary = np.linalg.qr(ginibre)[0]
    normal = unitary @ (rng.normal(size=(n, d, 1)) * np.swapaxes(unitary.conj(), 1, 2))
    # upper triangular with a large strict part: ill-conditioned eigenvalues
    skewed = np.triu(ginibre) * (1.0 + 30 * np.triu(np.ones((d, d)), 1))
    for m in (ginibre, unitary, normal, skewed):
        _assert_matches_lapack(m, rng)
        # an (n, d, d) view of entry-major storage, as eval_psi_grid returns,
        # gives the same values and is left as it was
        storage = np.ascontiguousarray(m.transpose(1, 2, 0))
        kept = storage.copy()
        got = dv.opcore.stack_eigvals(storage.transpose(2, 0, 1))
        assert np.array_equal(got, dv.opcore.stack_eigvals(m))
        assert np.array_equal(storage, kept)
    # the kernel scales by powers of two, exactly, so its values scale with
    # the stack, far past the range where |M_ij|^2 overflows or underflows
    for k in (-600, 600) if d <= 3 else ():
        assert np.array_equal(dv.opcore.stack_eigvals(ginibre * 2.0 ** k),
                              dv.opcore.stack_eigvals(ginibre) * 2.0 ** k)


def test_stack_eigvals_special_matrices():
    rng = np.random.default_rng(7)
    q3, q2 = random_unitary(rng, 3), random_unitary(rng, 2)
    j3 = np.diag([1.0, 1.0], 1)
    cases = {
        "zero": [np.zeros((3, 3)), np.zeros((2, 2))],
        "identity multiples": [c * np.eye(3) for c in (1.0, 0.1, -0.3 + 0.7j)]
        + [c * np.eye(2) for c in (0.1, 0.2 - 0.1j)],
        "jordan": [J2, 0.4 * np.eye(2) + J2, j3, 0.2j * np.eye(3) + j3,
                   q3 @ (0.5 * np.eye(3) + j3) @ q3.conj().T, q2 @ J2 @ q2.conj().T],
        "double": [q3 @ np.diag([0.3, 0.3, -0.5j]) @ q3.conj().T,
                   q3 @ np.diag([0.3, 0.3 + 1e-9, -0.5j]) @ q3.conj().T,
                   q2 @ np.diag([0.6j, 0.6j]) @ q2.conj().T,
                   q2 @ np.diag([0.6j, 0.6j + 1e-9]) @ q2.conj().T],
    }
    for mats in cases.values():
        for d in (2, 3):
            group = [m for m in mats if m.shape == (d, d)]
            if group:
                _assert_matches_lapack(_tiled(group), rng)
    got = dv.opcore.stack_eigvals(_tiled(cases["zero"][:1]))
    assert not got.any()
    # normal matrices keep a double eigenvalue, or one split by 1e-9, to rounding
    got = dv.opcore.stack_eigvals(_tiled(cases["double"][:2]))
    want = np.array([[0.3, 0.3, -0.5j], [0.3, 0.3 + 1e-9, -0.5j]])[np.arange(64) % 2]
    assert _multiset_gap(got, want).max() <= 1e-14
    got = dv.opcore.stack_eigvals(_tiled(cases["double"][2:]))
    want = np.array([[0.6j, 0.6j], [0.6j, 0.6j + 1e-9]])[np.arange(64) % 2]
    assert _multiset_gap(got, want).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2048])
def test_stack_eigvals_stack_sizes(n):
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    got = dv.opcore.stack_eigvals(m)
    if n < dv.opcore._STACK_EIG_MIN:
        assert np.array_equal(got, np.linalg.eigvals(m))  # LAPACK's own call
    _assert_matches_lapack(m, rng)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("n, d", [(4, 3), (64, 1), (64, 2), (64, 3)])
def test_stack_eigvals_rejects_non_finite_input_like_lapack(bad, n, d):
    m = np.tile(np.eye(d, dtype=complex), (n, 1, 1))
    m[n // 2, d - 1, 0] = bad
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvals(m)
    with pytest.raises(np.linalg.LinAlgError):
        dv.opcore.stack_eigvals(m)


@pytest.mark.parametrize("repeated", [False, True])
def test_boundary_fibers_need_no_lapack_fallback(repeated, fallback_calls):
    psis = [dv.instances.build_psi(dv.random_recipe(s, repeated=repeated)) for s in range(50)]
    grid = dv.inner.circle_grid(2048)
    fallback_calls.clear()
    for psi in psis:
        dv.fibers_grid(psi, grid)
    assert fallback_calls == []
    assert {psi.d for psi in psis} == {1, 2, 3}


def test_uncertified_matrices_fall_back_to_lapack(fallback_calls):
    # N = x y^T with y^T x = 0: a nilpotent of rank 1, whose triple
    # eigenvalue leaves E - rI of rank 1 and no null vector to deflate with
    rng = np.random.default_rng(3)
    q = random_unitary(rng, 3)
    nil = np.outer([1.0, 1.0, 1.0], [1.0, -1.0, 0.0])
    m = np.linalg.qr(rng.normal(size=(64, 3, 3)) + 1j * rng.normal(size=(64, 3, 3)))[0]
    m[5], m[40] = nil, q @ nil @ q.conj().T
    got = dv.opcore.stack_eigvals(m)
    assert fallback_calls == [(2, 3, 3)]
    assert np.array_equal(got[[5, 40]], np.linalg.eigvals(m[[5, 40]]))
    _assert_matches_lapack(m, rng)


# ---------------------------------------------------------------------------
# numerical kernels and point clustering


def _with_singular_values(rng, rows, cols, svals):
    """A seeded complex rows x cols matrix with the given singular values."""
    u = random_unitary(rng, rows)[:, :len(svals)]
    v = random_unitary(rng, cols)[:, :len(svals)]
    return (u * np.asarray(svals)) @ v.conj().T


@pytest.mark.parametrize("rows, cols, rank", [(12, 5, 3), (5, 5, 2), (3, 7, 2), (0, 4, 0)])
def test_kernel_finds_a_planted_kernel(rows, cols, rank):
    rng = np.random.default_rng(rows * 100 + cols)
    svals = np.logspace(0, -4, rank)
    m = _with_singular_values(rng, rows, cols, svals) if rank else np.zeros((rows, cols))
    # roundoff-level noise stays under the cut and does not move the kernel
    m = m + 1e-14 * (rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape))
    basis = dv.opcore.kernel(m, 1e-8, 1e-12)
    assert basis.shape == (cols, cols - rank)
    assert np.allclose(basis.conj().T @ basis, np.eye(cols - rank), atol=1e-12)
    assert dv.opcore.opnorm(m @ basis) <= max(1e-12, 1e-8 * svals[0] if rank else 0.0)


def test_kernel_guard_band_raises_only_when_guarded():
    tol = dv.DEFAULT
    rng = np.random.default_rng(7)
    for ratio in (0.2, 3.0, 9.0):
        # a singular value within a factor rank_guard of the cut
        m = _with_singular_values(rng, 9, 4, [1.0, 0.5, ratio * tol.kernel_rel])
        with pytest.raises(DegenerateCluster,
                           match="^probe singular value inside the guard band$"):
            dv.opcore.kernel(m, tol.kernel_rel, 0.0, "probe", tol=tol)
        assert dv.opcore.kernel(m, tol.kernel_rel, 0.0).shape[1] == (2 if ratio < 1 else 1)
    # the band's width is read from the table passed as tol
    m = _with_singular_values(rng, 9, 4, [1.0, 0.5, 3.0 * tol.kernel_rel])
    narrow = tol.override(rank_guard=2.0)
    assert dv.opcore.kernel(m, tol.kernel_rel, 0.0, "probe", tol=narrow).shape[1] == 1


def _reference_kernel(m, rel, floor):
    """The cut each call site made before the routine: full SVD, rank by the
    count of singular values above max(floor, rel * s_max), the trailing rows
    of vh as the kernel."""
    _, s, vh = np.linalg.svd(m)
    cut = max(floor, rel * s[0]) if s.size else floor
    return vh.conj().T[:, int(np.count_nonzero(s > cut)):]


# (rel, floor) of each call site: evaluation map, vanishing space, fiber
# geometric multiplicity, witness span, point spectrum, alignment system,
# generator stack
SITE_CUTS = [(1e-8, 1e-12), (1e-10, 1e-12), (1e-7, 1e-7), (1e-8, 0.0),
             (0.0, 1e-7), (1e-8, 1e-10), (1e-8, 0.0)]


@pytest.mark.parametrize("rel, floor", SITE_CUTS)
def test_kernel_agrees_with_the_per_site_cut(rel, floor):
    rng = np.random.default_rng(11)
    for rows, cols in [(16, 6), (6, 6), (4, 9), (9, 4), (2, 2)]:
        for scale in (1e-3, 1.0, 1e3):
            k = min(rows, cols)
            svals = scale * np.logspace(0, -14, k) * rng.uniform(0.5, 2.0, k)
            m = _with_singular_values(rng, rows, cols, np.sort(svals)[::-1])
            got = dv.opcore.kernel(m, rel, floor)
            ref = _reference_kernel(m, rel, floor)
            assert got.shape == ref.shape
            assert np.allclose(got @ got.conj().T, ref @ ref.conj().T, atol=1e-12)


def test_no_tall_matrix_gets_a_full_svd(svd_calls):
    kinds = ("scalar_blaschke_times_identity", "companion", "colligation")
    for seed, kind in enumerate(kinds):
        spec = dv.random_recipe(20 + seed, kinds=(kind,), max_d=2)
        spec = dataclasses.replace(spec, boundary_n=128)
        dv.run_certification(dv.make_instance(spec))
    with_uv = [(shape, full) for shape, full, uv in svd_calls if uv]
    assert any(shape[-2] > shape[-1] for shape, _ in with_uv)
    assert [c for c in with_uv if c[1] and c[0][-2] > c[0][-1]] == []


def _reference_clusters(points, radius):
    """Union-find over the pairwise loop."""
    pts = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in points]
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.max(np.abs(pts[i] - pts[j])) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(pts)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


@pytest.mark.parametrize("dim", [1, 2])
def test_cluster_points_matches_union_find(dim):
    rng = np.random.default_rng(3 + dim)
    for n in (0, 1, 2, 7, 15):
        centers = rng.normal(size=(max(1, n // 3), dim)) + 0j
        raw = centers[rng.integers(len(centers), size=n)]
        raw = raw + 1e-3 * rng.normal(size=(n, dim))
        pts = [complex(p[0]) if dim == 1 else tuple(p) for p in raw]
        for radius in (1e-4, 2e-3, 5e-3, 1.0):
            assert dv.opcore.cluster_points(pts, radius) == _reference_clusters(pts, radius)


def test_no_points_give_no_clusters():
    assert dv.opcore._cluster_means([], 1e-3) == []
