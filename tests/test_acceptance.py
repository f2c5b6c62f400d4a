"""Acceptance suite: one test per criterion, one printed verdict line each.

Heavy seeded sweeps are shared through module-scoped fixtures; every
tolerance asserted here is pinned to the value stated in the criterion.
"""

import numpy as np
import pytest

import distvar as dv
from distvar.errors import DegenerateCluster
from distvar.instances import make_instance, random_recipe, random_test_polys
from conftest import J2, w2z_poly

BOUNDARY_N = 256


def _verdict(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def _bundle_for(inst):
    basis = dv.ann_generators(inst.pair)
    bundle = dv.constrained_coextension(inst.pair, inst.psi, basis)
    return basis, bundle


@pytest.fixture(scope="module")
def sweep200():
    """200 seeded well-separated instances with the full check battery."""
    out = []
    for k in range(200):
        spec = random_recipe(9000 + k)
        inst = make_instance(spec)
        row = {"kind": spec.psi_spec["kind"], "d": inst.psi.d}
        try:
            basis, bundle = _bundle_for(inst)
            row["residuals"] = bundle.residuals
            row["deg_m1"] = bundle.m1.degree
            row["kpsi_dim"] = bundle.kpsi_dim
            zset = dv.settle(dv.z_ann, basis, inst.pair)
            omega = dv.settle(dv.omega_psi, bundle)
            row["zann"] = dv.check_zann_equals_omega(zset, omega)
            row["proj"] = dv.check_projection(omega, bundle.m1)
            variety = dv.variety_polynomial(inst.psi)
            row["supp"] = dv.check_support(zset, bundle, variety)
            mb = dv.minimal_blaschke(bundle.s1)
            row["mb_dist"] = dv.matching_distance(
                [(a, float(m)) for a, m in mb.zeros],
                [(a, float(m)) for a, m in bundle.m1.zeros],
            )
        except DegenerateCluster as exc:
            row["degenerate"] = str(exc)
        out.append(row)
    return out


def test_criterion_1_w2z_end_to_end(companion_psi_2):
    variety = dv.variety_polynomial(companion_psi_2)
    dist = dv.unit_distance(variety.p, w2z_poly())
    cert = dv.distinguished_certificate(companion_psi_2)
    pair = dv.compress_pair(companion_psi_2, dv.BlaschkeProduct([(0.0, 2)]))
    ann_norm = float(np.linalg.norm(dv.poly_apply(variety.p, pair), 2))
    ok = dist < 1e-8 and cert.passed and ann_norm < 1e-10
    _verdict(
        1, ok,
        f"w^2=z: coefficient distance {dist:.2e}, distinguished "
        f"{cert.status}, ||p(T1,T2)|| = {ann_norm:.2e}",
    )


def test_criterion_2_inequality_suite():
    total = failures = 0
    for k in range(50):
        spec = random_recipe(3000 + k)
        inst = make_instance(spec)
        variety = dv.variety_polynomial(inst.psi)
        rng = np.random.default_rng(3000 + k)
        polys = random_test_polys(rng, 20, (3, 3))
        entries = dv.vn_report(inst.pair, variety, polys, boundary_n=BOUNDARY_N)
        for e in entries[1:]:
            total += 1
            if e.data["norm"] > e.data["sup"] + e.data["slack"]:
                failures += 1
    ok = failures == 0 and total == 1000
    _verdict(
        2, ok,
        f"||q(T1,T2)|| <= sup + slack held in {total - failures}/{total} cases "
        f"(50 instances x 20 polynomials)",
    )


def test_criterion_3_zero_set_equals_omega(sweep200):
    passed = sum(1 for r in sweep200 if "zann" in r and r["zann"].status == "pass")
    hard_fail = sum(1 for r in sweep200 if "zann" in r and r["zann"].status == "fail")
    degenerate = sum(
        1 for r in sweep200
        if "degenerate" in r or ("zann" in r and r["zann"].status == "inconclusive")
    )
    dists = [r["zann"].data["matching_distance"] for r in sweep200
             if "zann" in r and r["zann"].status == "pass"]
    ok = passed >= 190 and hard_fail == 0 and (not dists or max(dists) < 1e-6)
    _verdict(
        3, ok,
        f"Z(Ann) = Omega on {passed}/200 (degenerate-flagged: {degenerate}, "
        f"hard fails: {hard_fail}, worst distance "
        f"{max(dists) if dists else 0.0:.2e})",
    )


def test_criterion_4_projection(sweep200):
    rows = [r for r in sweep200 if "proj" in r]
    bad = [r for r in rows if r["proj"].status == "fail"]
    ok = not bad and rows
    _verdict(
        4, bool(ok),
        f"projection of Omega equals zeros of m1 on all {len(rows)} "
        f"conclusive instances",
    )


def test_criterion_5_support_collapse(sweep200):
    rows = [r for r in sweep200 if "supp" in r]
    bad = [r for r in rows if r["supp"].status == "fail"]
    worst = max(
        (r["supp"].data.get("max_variety_residual", 0.0) for r in rows
         if r["supp"].status == "pass"),
        default=0.0,
    )
    ok = not bad and rows and worst < 1e-8
    _verdict(
        5, bool(ok),
        f"inner set = constrained spectrum on all {len(rows)} conclusive "
        f"instances, max |p| at points {worst:.2e}",
    )


def test_criterion_6_synthesis_agreement(scalar_shift_psi):
    conclusive = inconclusive = disagree = 0
    for k in range(100):
        spec = random_recipe(5000 + k, repeated=(k % 2 == 1))
        inst = make_instance(spec)
        try:
            basis, bundle = _bundle_for(inst)
            entries = dv.synthesis_report(dv.settle(dv.omega_psi, bundle), bundle, basis)
        except DegenerateCluster:
            inconclusive += 1
            continue
        verdict = [e for e in entries if e.name == "synthesis-equivalence"][0]
        if verdict.status == "inconclusive":
            inconclusive += 1
        elif verdict.status == "pass":
            conclusive += 1
        else:
            disagree += 1

    def named_conditions(theta_zeros):
        pair = dv.compress_pair(scalar_shift_psi, dv.BlaschkeProduct(theta_zeros))
        basis = dv.ann_generators(pair)
        bundle = dv.constrained_coextension(pair, scalar_shift_psi, basis)
        entries = dv.synthesis_report(dv.settle(dv.omega_psi, bundle), bundle, basis)
        verdict = [e for e in entries if e.name == "synthesis-equivalence"][0]
        return verdict.data["conditions"]

    conds_false = named_conditions([(0.0, 2)])
    conds_true = named_conditions([(0.0, 1), (0.5, 1)])

    ok = (
        disagree == 0
        and conclusive >= 60
        and all(v is False for v in conds_false.values())
        and all(v is True for v in conds_true.values())
    )
    _verdict(
        6, ok,
        f"four-way agreement on {conclusive} conclusive of 100 "
        f"({inconclusive} inconclusive, {disagree} disagreements); "
        f"theta=z^2 all-false, theta=z(z-1/2)/(1-z/2) all-true",
    )


def test_criterion_7_dilation_contracts(sweep200):
    # scalar-defect suite: the spec's dimension identity applies verbatim
    dim_ok = mb_ok = ann_ok = res_ok = True
    checked = 0
    for k in range(25):
        spec = random_recipe(7000 + k, max_d=1)
        inst = make_instance(spec)
        try:
            basis, bundle = _bundle_for(inst)
        except DegenerateCluster:
            continue
        checked += 1
        r = bundle.residuals
        res_ok &= r["isometry"] <= 1e-10
        res_ok &= max(r["intertwine_shift"], r["intertwine_symbol"]) <= 1e-7
        dim_ok &= bundle.kpsi_dim == bundle.m1.degree
        mb = dv.minimal_blaschke(bundle.s1)
        mb_ok &= dv.matching_distance(
            [(a, float(m)) for a, m in mb.zeros],
            [(a, float(m)) for a, m in bundle.m1.zeros],
        ) <= 1e-6
        sbasis = dv.ann_generators(bundle.constrained)
        from distvar.annvar import _span_matrix, _spans_equal

        d1, d2 = basis.box
        ann_ok &= sbasis.box == basis.box
        ann_ok &= _spans_equal(
            _span_matrix(basis.box_generators, d1, d2),
            _span_matrix(sbasis.box_generators, d1, d2),
        )
    # mixed-defect sweep: embedding and annihilator contracts still bind
    for row in sweep200:
        if "residuals" not in row:
            continue
        r = row["residuals"]
        res_ok &= r["isometry"] <= 1e-10
        res_ok &= max(r["intertwine_shift"], r["intertwine_symbol"]) <= 1e-7
        mb_ok &= row["mb_dist"] <= 1e-6
    ok = dim_ok and mb_ok and ann_ok and res_ok and checked >= 20
    _verdict(
        7, ok,
        f"dilation contracts on {checked} scalar-defect + "
        f"{sum(1 for r in sweep200 if 'residuals' in r)} mixed instances "
        f"(isometry <= 1e-10, intertwining <= 1e-7, dim K = deg m1, "
        f"minimal symbol of S1 = m1, annihilator boxes coincide)",
    )


def test_criterion_8_colligation_certification():
    from scipy.stats import unitary_group

    worst_defect = 0.0
    worst_rho = 0.0
    count = 0
    draws = 0
    rng = np.random.default_rng(8000)
    while count < 100 and draws < 300:
        draws += 1
        n_state = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        u = unitary_group.rvs(n_state + d, random_state=int(rng.integers(2 ** 31)))
        try:
            psi = dv.from_colligation(
                u[:n_state, :n_state], u[:n_state, n_state:],
                u[n_state:, :n_state], u[n_state:, n_state:],
            )
        except dv.errors.NotPureRealization:
            continue
        count += 1
        worst_defect = max(worst_defect, dv.boundary_unitarity_defect(psi, 512))
        rho = dv.interior_pureness(psi)
        worst_rho = max(worst_rho, rho)
    ok = count == 100 and worst_defect < 1e-8 and worst_rho < 1.0
    _verdict(
        8, ok,
        f"100 colligations: max boundary defect {worst_defect:.2e}, "
        f"max spectral radius of Psi(0) {worst_rho:.6f}",
    )


def test_criterion_9_hypothesis_checkers(scalar_shift_psi):
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    w_pass = dv.williams_check(nil, dv.Poly1.identity(), boundary_n=512)
    w_fail = dv.williams_check(np.diag([0.5]), dv.Poly1.identity(), boundary_n=512)

    t1 = np.zeros((3, 3), dtype=complex)
    t1[1, 0] = 1.0
    iso = dv.isometry_variant(dv.validate_pair(t1, np.eye(3)))

    variety = dv.variety_polynomial(scalar_shift_psi)
    mc = dv.min_conditions(
        dv.validate_pair(J2, np.eye(2)), variety,
        dv.Poly1.identity(), dv.Poly1.identity(),
    )
    by_name = {e.name: e for e in mc}
    mc_margin = dv.min_conditions(
        dv.validate_pair(np.diag([0.999]), np.diag([0.5])), variety,
        dv.Poly1.identity(), dv.Poly1.identity(),
    )
    try:
        dv.min_conditions(dv.validate_pair(J2, np.eye(2)), variety,
                          dv.Poly1([1.0]), dv.Poly1.identity())
        const_raises = False
    except dv.errors.ConstantSymbol:
        const_raises = True

    ok = (
        w_pass.status == "pass"
        and w_fail.status == "fail"
        and iso.status == "pass"
        and by_name["minimality-certified"].status == "pass"
        and mc_margin[0].status == "inconclusive"
        and const_raises
    )
    _verdict(9, ok, "disc-case, isometry-commutant and two-variable "
                    "hypothesis checkers behave per their contracts")


def test_criterion_10_determinism(tmp_path):
    from distvar.cli import main

    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(["--out", str(out), "--seed", "11",
                     "--boundary-samples", "128", "demo"])
        assert code == 0
        report = sorted(out.glob("*-report.json"))[0].read_bytes()
        blobs.append(report)
    ok = blobs[0] == blobs[1]
    _verdict(10, ok, "repeated cmd_certify runs with identical seed and "
                     "tolerances produce byte-identical reports")
