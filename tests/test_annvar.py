import dataclasses
import json
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import distvar as dv
from distvar import annvar, opcore
from distvar.errors import DegenerateCluster, NoInnerSolution
from distvar.instances import (
    InstanceSpec,
    make_instance,
    random_recipe,
    run_certification,
)
from conftest import J2


def _instance(psi, theta_zeros):
    theta = dv.BlaschkeProduct(theta_zeros)
    pair = dv.compress_pair(psi, theta)
    basis = dv.ann_generators(pair)
    bundle = dv.constrained_coextension(pair, psi, basis)
    return pair, basis, bundle


def _zset(pair, basis):
    return dv.settle(dv.z_ann, basis, pair)


def _omega(bundle):
    return dv.settle(dv.omega_psi, bundle)


@pytest.fixture
def j2_instance(scalar_shift_psi):
    return _instance(scalar_shift_psi, [(0.0, 2)])


@pytest.fixture
def two_point_instance(scalar_shift_psi):
    return _instance(scalar_shift_psi, [(0.0, 1), (0.5, 1)])


# ---------------------------------------------------------------------------
# generators


def test_ann_generators_j2(j2_instance):
    pair, basis, _ = j2_instance
    assert basis.box == (2, 2)
    assert len(basis.box_generators) == 2
    # z - w and zw span the kernel
    span = np.array([
        np.pad(g.coeffs, ((0, 2 - g.coeffs.shape[0]), (0, 2 - g.coeffs.shape[1]))).reshape(-1)
        for g in basis.box_generators
    ]).T
    for target in (np.array([0, -1, 1, 0]), np.array([0, 0, 0, 1])):
        res = target - span @ np.linalg.lstsq(span, target, rcond=None)[0]
        assert np.linalg.norm(res) < 1e-10
    # minimal polynomials: z^2 and w^2
    assert basis.q1.bidegree == (2, 0)
    assert basis.q2.bidegree == (0, 2)


def test_ann_generators_diagonal(scalar_shift_psi):
    pair, basis, bundle = _instance(scalar_shift_psi, [(0.1, 1), (0.45, 1)])
    zs = dv.z_ann(basis, pair)
    taylor = dv.joint_spectrum_taylor(pair)
    assert dv.matching_distance(list(zs), list(set(taylor.points))) < 1e-8


def test_ann_generators_t2_zero(j2_pair):
    pair = dv.validate_pair(J2, np.zeros((2, 2)), require_pure=True)
    basis = dv.ann_generators(pair)
    # minimal polynomial of T2 = 0 is w itself
    assert basis.q2.bidegree == (0, 1)
    assert any(
        g.bidegree == (0, 1) or basis.q2.coeffs[0, 1] == 1.0
        for g in basis.generators
    )


def test_ann_generators_rejects_non_pure():
    from distvar.errors import NotPure

    pair = dv.validate_pair(J2, np.eye(2))
    with pytest.raises(NotPure):
        dv.ann_generators(pair)


def test_generators_annihilate(j2_instance):
    pair, basis, _ = j2_instance
    for g in basis.generators:
        assert np.linalg.norm(dv.poly_apply(g, pair), 2) < 1e-10 * max(1.0, g.scale)


# ---------------------------------------------------------------------------
# zero sets and omega


def test_z_ann_j2(j2_instance):
    pair, basis, _ = j2_instance
    assert dv.matching_distance(list(dv.z_ann(basis, pair)), [(0.0, 0.0)]) < 1e-10


def test_omega_j2(j2_instance):
    _, _, bundle = j2_instance
    omega, _ = dv.omega_psi(bundle)
    assert dv.matching_distance(list(omega), [(0.0, 0.0)]) < 1e-10


def test_omega_two_points(two_point_instance):
    _, _, bundle = two_point_instance
    omega, _ = dv.omega_psi(bundle)
    assert dv.matching_distance(list(omega), [(0.0, 0.0), (0.5, 0.5)]) < 1e-8


def _witness_counts(points, witnesses, s1, s2):
    """How many witnesses are common eigenvectors of (S1*, S2*) at the
    conjugate of each point; every witness must belong to exactly one."""
    counts = [0] * len(points)
    for w in witnesses:
        owners = [k for k, (lam, mu) in enumerate(points)
                  if np.linalg.norm(s1.conj().T @ w - np.conj(lam) * w) < 1e-10
                  and np.linalg.norm(s2.conj().T @ w - np.conj(mu) * w) < 1e-10]
        assert len(owners) == 1
        counts[owners[0]] += 1
    return counts


@pytest.mark.parametrize("repeated", [False, True])
def test_omega_agrees_with_the_point_spectrum_of_the_adjoint_pair(repeated):
    # the reference is the adjoint pair's own traversal, conjugated
    for seed in range(20):
        inst = make_instance(random_recipe(seed, repeated=repeated))
        basis = dv.ann_generators(inst.pair)
        bundle = dv.constrained_coextension(inst.pair, inst.psi, basis)
        s1, s2 = bundle.s1, bundle.s2
        ref = dv.joint_point_spectrum(dv.validate_pair(s1.conj().T, s2.conj().T))
        ref_points = list(dict.fromkeys((np.conj(a), np.conj(b)) for a, b in ref.points))
        omega, witnesses = dv.omega_psi(bundle)
        assert dv.matching_distance(list(omega), list(ref_points)) <= 1e-12
        ref_counts = _witness_counts(ref_points, ref.witnesses, s1, s2)
        for (lam, mu), count in zip(omega, _witness_counts(omega, witnesses, s1, s2)):
            near = np.argmin([max(abs(lam - a), abs(mu - b)) for a, b in ref_points])
            assert count == ref_counts[near]


def test_omega_witnesses_are_adjoint_eigenvectors():
    # S1 = E13 / 2 and S2 = E23 / 2 commute (both products vanish); at (0, 0)
    # the joint kernel of (S1, S2) is {x3 = 0} and that of (S1*, S2*) is
    # span(e3), so the right point spectrum has two witnesses and Omega one
    s1, s2 = np.zeros((3, 3)), np.zeros((3, 3))
    s1[0, 2] = s2[1, 2] = 0.5
    pair = dv.validate_pair(s1, s2)
    assert len(dv.joint_point_spectrum(pair).witnesses) == 2
    omega, witnesses = dv.omega_psi(SimpleNamespace(constrained=pair))
    assert omega == ((0j, 0j),)
    assert len(witnesses) == 1
    assert abs(abs(witnesses[0][2]) - 1.0) < 1e-14


def test_zann_equals_omega(j2_instance, two_point_instance):
    for pair, basis, bundle in (j2_instance, two_point_instance):
        entry = dv.check_zann_equals_omega(_zset(pair, basis), _omega(bundle))
        assert entry.status == "pass"
        assert entry.data["matching_distance"] < 1e-8


def test_zann_mismatched_bundle_fails_upstream(j2_pair):
    # wrong symbol for the pair: the co-extension contract itself must fail
    psi_sq = dv.from_polynomial(np.array([[[0.0]], [[0.0]], [[1.0]]], dtype=complex))
    with pytest.raises(NoInnerSolution):
        dv.constrained_coextension(j2_pair, psi_sq, dv.ann_generators(j2_pair))


def test_zann_on_repeated_nonzero_root(scalar_shift_psi):
    # Jordan structure at a nonzero base point: the triangularization
    # candidates split along the curve, where the generators vanish to the
    # full jet order, so the zero set survives the filter
    pair, basis, bundle = _instance(scalar_shift_psi, [(-0.3 + 0.45j, 2)])
    entry = dv.check_zann_equals_omega(_zset(pair, basis), _omega(bundle))
    assert entry.status == "pass"
    assert dv.matching_distance(
        list(dv.z_ann(basis, pair)), [(-0.3 + 0.45j, -0.3 + 0.45j)]
    ) < 1e-7


def test_deep_jordan_zero_set_equals_omega(companion_psi_2):
    # a multiplicity-3 zero splits under rounding by about 6e-6, inside the
    # merge radius; the generalized eigenspace of T1 rejoins it, so Z(Ann)
    # is the two points of w^2 = z over the zero, as Omega is
    pair, basis, bundle = _instance(companion_psi_2, [(0.35, 3)])
    entry = dv.check_zann_equals_omega(_zset(pair, basis), _omega(bundle))
    assert entry.status == "pass"
    root = np.sqrt(0.35)
    assert dv.matching_distance(entry.data["z_ann"], [(0.35, root), (0.35, -root)]) < 1e-12


# the repeated-zero recipes whose split Jordan blocks gave a wrong fail when
# the joint spectrum came from a Schur factorization
SPLIT_JORDAN_SEEDS = (9, 14, 37, 56, 97, 101, 114, 117, 147, 163, 174, 176)


@pytest.mark.parametrize("seed", SPLIT_JORDAN_SEEDS)
def test_repeated_zero_recipe_does_not_fail(seed):
    report = run_certification(make_instance(random_recipe(seed, repeated=True)))
    statuses = {e.name: e.status for e in report.entries}
    assert [name for name, status in statuses.items() if status == "fail"] == []
    assert statuses["zero-set-equals-omega"] == statuses["support-collapse"] == "pass"


def test_repeated_zero_statuses_survive_a_rounding_perturbation():
    # Jordan blocks move by about (1e-15)^(1/m) under this perturbation; the
    # generalized eigenspaces do not, so no entry status may move
    rng = np.random.default_rng(2026)

    def statuses(inst):
        return {e.name: e.status for e in run_certification(inst).entries}

    for seed in range(40):
        inst = make_instance(random_recipe(seed, repeated=True))
        t1, t2 = inst.pair.t1, inst.pair.t2
        t1p, t2p = (t + 1e-15 * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))
                    for t in (t1, t2))
        moved = dataclasses.replace(inst, pair=dv.validate_pair(t1p, t2p, require_pure=True))
        assert statuses(moved) == statuses(inst), seed


def test_projection_pass(j2_instance, two_point_instance):
    for pair, basis, bundle in (j2_instance, two_point_instance):
        entry = dv.check_projection(_omega(bundle), bundle.m1)
        assert entry.status == "pass"


def test_projection_negative_control(two_point_instance):
    pair, basis, bundle = two_point_instance
    # drop one zero of m1: the projection of Omega can no longer match
    wrong = dataclasses.replace(bundle, m1=dv.BlaschkeProduct([(0.0, 1)]))
    entry = dv.check_projection(_omega(wrong), wrong.m1)
    assert entry.status == "fail"


# ---------------------------------------------------------------------------
# support


def test_support_j2(j2_instance, scalar_shift_psi):
    pair, basis, bundle = j2_instance
    variety = dv.variety_polynomial(scalar_shift_psi)
    sb = dv.support_bounds(dv.z_ann(basis, pair), bundle, variety)
    assert dv.matching_distance(list(sb.inner_set), [(0.0, 0.0)]) < 1e-10
    assert dv.matching_distance(list(sb.inner_set), list(sb.lower_boundary)) < 1e-8
    entry = dv.check_support(_zset(pair, basis), bundle, variety)
    assert entry.status == "pass"


def test_an_empty_constrained_space_is_degenerate():
    # under this perturbation the generators of repeated seed 56 (box 4 x 12)
    # no longer vanish on the model pair, and the kernel cut keeps nothing of
    # a space that must hold the 12-dimensional pair: degenerate, not a crash
    inst = make_instance(random_recipe(56, repeated=True))
    rng = np.random.default_rng(10_056)
    t1p, t2p = (t + 1e-15 * (rng.normal(size=t.shape) + 1j * rng.normal(size=t.shape))
                for t in (inst.pair.t1, inst.pair.t2))
    pair = dv.validate_pair(t1p, t2p, require_pure=True)
    with pytest.raises(dv.errors.DegenerateCluster, match="dimension 0 < n = 12"):
        dv.constrained_coextension(pair, inst.psi, dv.ann_generators(pair))


def test_mismatched_sets_report_both_counts_and_a_null_distance(j2_instance,
                                                                 scalar_shift_psi):
    # sets of different sizes have no matching: the entries fail and say so
    # in strict JSON, with no infinite distance
    pair, basis, bundle = j2_instance
    zset = dv.z_ann(basis, pair) + ((0.5 + 0j, 0.5 + 0j),)
    entries = [
        dv.check_zann_equals_omega(zset, _omega(bundle)),
        dv.check_support(zset, bundle, dv.variety_polynomial(scalar_shift_psi)),
    ]
    assert [e.status for e in entries] == ["fail", "fail"]
    assert [e.margin for e in entries] == [-1.0, -1.0]
    assert {k: v for k, v in entries[0].data.items() if "_count" in k} == {
        "z_ann_count": 2, "omega_count": 1}
    assert {k: v for k, v in entries[1].data.items() if "_count" in k} == {
        "inner_set_count": 2, "lower_boundary_count": 1}
    for entry in entries:
        assert entry.data["matching_distance"] is None
        json.dumps(entry.to_dict(), allow_nan=False)


def test_empty_sets_are_decided_not_crashed(j2_instance):
    # an empty Z(Ann) or Omega reaches the set checks as an empty tuple (no
    # point clusters to nothing) and they report on it
    pair, basis, bundle = j2_instance
    empty = ((), ())
    same = dv.check_zann_equals_omega((), empty)
    assert same.status == "pass" and same.data["matching_distance"] == 0.0
    assert dv.check_zann_equals_omega(dv.z_ann(basis, pair), empty).status == "fail"
    projection = dv.check_projection(empty, bundle.m1)
    assert projection.status == "fail" and projection.data["projection"] == []
    json.dumps([same.to_dict(), projection.to_dict()], allow_nan=False)


def test_support_points_on_variety():
    for seed in (2, 5, 7):
        inst = make_instance(random_recipe(seed))
        basis = dv.ann_generators(inst.pair)
        bundle = dv.constrained_coextension(inst.pair, inst.psi, basis)
        variety = dv.variety_polynomial(inst.psi)
        zs = dv.z_ann(basis, inst.pair)
        for lam, mu in zs:
            assert abs(variety.p(lam, mu)) < 1e-8 * variety.p.scale


# ---------------------------------------------------------------------------
# synthesis


def _condition_values(entries):
    verdict = [e for e in entries if e.name == "synthesis-equivalence"][0]
    return verdict, verdict.data.get("conditions", {})


def test_synthesis_all_false_on_double_root(j2_instance):
    pair, basis, bundle = j2_instance
    verdict, conds = _condition_values(dv.synthesis_report(_omega(bundle), bundle, basis))
    assert verdict.status == "pass"
    assert conds == {"i": False, "ii": False, "iii": False, "iv": False}


def test_synthesis_all_true_on_simple_roots(two_point_instance):
    pair, basis, bundle = two_point_instance
    verdict, conds = _condition_values(dv.synthesis_report(_omega(bundle), bundle, basis))
    assert verdict.status == "pass"
    assert conds == {"i": True, "ii": True, "iii": True, "iv": True}


def test_synthesis_all_true_on_distinct_diagonal(scalar_shift_psi):
    pair, basis, bundle = _instance(scalar_shift_psi, [(0.2j, 1), (-0.5, 1)])
    verdict, conds = _condition_values(dv.synthesis_report(_omega(bundle), bundle, basis))
    assert verdict.status == "pass"
    assert all(conds.values())


def test_synthesis_defective_fiber_is_inconclusive(companion_psi_2):
    # simple theta zero at the branch point of w^2 = z: the fiber is defective
    pair, basis, bundle = _instance(companion_psi_2, [(0.0, 1)])
    entries = dv.synthesis_report(_omega(bundle), bundle, basis)
    verdict = [e for e in entries if e.name == "synthesis-equivalence"][0]
    assert verdict.status == "inconclusive"


@pytest.mark.parametrize("fiber, degenerate", [
    (0.3 * np.eye(2) + 0.5 * J2, True),       # a Jordan block
    (0.3 * np.eye(2), False),
    (np.diag([0.3, 0.305]), False),            # outside the merge radius
    (np.diag([0.3, 0.301]), True),             # inside it, and distinct
    (np.diag([0.3, 0.3005]), True),
    (np.diag([0.3, 0.30005]), True),
    (np.diag([0.3, 0.3 + 5e-9]), True),
    (np.diag([0.3, 0.3 + 5e-10]), True),
])
def test_the_fiber_guard_reads_the_jordan_analysis(monkeypatch, fiber, degenerate):
    # the fiber at a simple zero of m1 is judged at the pipeline's merge
    # radius: distinct eigenvalues closer than it, or a Jordan block, make
    # the witness-span reading inconclusive
    monkeypatch.setattr(annvar, "eval_psi_grid", lambda psi, zs: np.array([fiber] * len(zs)))
    m1 = dv.BlaschkeProduct([(0.2, 1)])
    if degenerate:
        with pytest.raises(DegenerateCluster):
            annvar._require_conclusive_fibers(None, m1, dv.DEFAULT)
    else:
        annvar._require_conclusive_fibers(None, m1, dv.DEFAULT)


def test_synthesis_iii_iv_always_agree():
    for seed in range(8):
        inst = make_instance(random_recipe(seed, repeated=bool(seed % 2)))
        basis = dv.ann_generators(inst.pair)
        bundle = dv.constrained_coextension(inst.pair, inst.psi, basis)
        _, conds = _condition_values(dv.synthesis_report(_omega(bundle), bundle, basis))
        if conds.get("iii") is not None:
            assert conds["iii"] == conds["iv"]
            if conds.get("i") is not None:
                assert conds["i"] == conds["iv"]


# ---------------------------------------------------------------------------
# one certification computes each set once


def test_run_certification_computes_each_set_once(monkeypatch):
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("distvar")]
    for owner, name in ((annvar, "omega_psi"), (annvar, "z_ann"),
                        (opcore, "minimal_blaschke")):
        orig = getattr(owner, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        # replace every binding, so calls through imported names count too
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, counted)
    analysed = []
    analyse = opcore._jordan_clusters
    for mod in modules:
        if vars(mod).get("_jordan_clusters") is analyse:
            monkeypatch.setattr(mod, "_jordan_clusters",
                                lambda t, *args: analysed.append(t) or analyse(t, *args))

    # the curve w^2 = z over a double zero of theta at the branch point
    spec = InstanceSpec(theta_zeros=((0j, 2),), psi_spec={"kind": "companion", "d": 2},
                        boundary_n=128)
    inst = make_instance(spec)
    counts.clear()
    opcore._jordan_of.cache_clear()
    opcore._joint_spaces.cache_clear()
    artifacts = {}
    run_certification(inst, artifacts=artifacts)
    # m1 and m2 of the pair, then the check that S1 has minimal product m1
    assert counts == {"omega_psi": 1, "z_ann": 1, "minimal_blaschke": 3}

    # Omega reads the traversal of (S1, S2): S1 is analysed once, and neither
    # S1* nor a compression of S2* to a generalized eigenspace of S1* is
    def times(m):
        return sum(t.shape == m.shape and np.allclose(t, m, rtol=0, atol=1e-12)
                   for t in analysed)

    s1, s2 = artifacts["bundle"].s1, artifacts["bundle"].s2
    assert times(s1) == 1
    assert times(s1.conj().T) == 0
    for _, _, q in analyse(s1.conj().T, max(1.0, opcore.opnorm(s1)), dv.DEFAULT):
        assert times(q.conj().T @ s2.conj().T @ q) == 0
