import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

import distvar as dv
from distvar import annvar, opcore
from distvar.errors import NoInnerSolution
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


def test_deep_jordan_routes_to_inconclusive(companion_psi_2):
    # multiplicity-3 eigenvalue splitting lands between the merge radius and
    # the warning gap: the instance must flag, never hard-fail
    pair, basis, bundle = _instance(companion_psi_2, [(0.35, 3)])
    entry = dv.check_zann_equals_omega(_zset(pair, basis), _omega(bundle))
    assert entry.status == "inconclusive"


def test_cluster_merge_override_is_applied():
    # a multiplicity-4 zero splits by ~1e-4: the default merge radius keeps
    # the cluster apart, a 3e-3 override merges it.  Which other checks fail
    # at the default radius follows rounding, so only the set check is pinned
    spec = random_recipe(9, repeated=True)

    def failing(tolerances):
        report = run_certification(
            make_instance(dataclasses.replace(spec, tolerances=tolerances)))
        assert report.tolerances["cluster_merge"] == tolerances.get(
            "cluster_merge", dv.DEFAULT.cluster_merge)
        return sorted(e.name for e in report.entries if e.status == "fail")

    assert "zero-set-equals-omega" in failing({})
    assert failing({"cluster_merge": 3e-3}) == []


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

    # the curve w^2 = z over a double zero of theta at the branch point
    spec = InstanceSpec(theta_zeros=((0j, 2),), psi_spec={"kind": "companion", "d": 2},
                        boundary_n=128)
    inst = make_instance(spec)
    counts.clear()
    run_certification(inst)
    # m1 and m2 of the pair, then the check that S1 has minimal product m1
    assert counts == {"omega_psi": 1, "z_ann": 1, "minimal_blaschke": 3}
