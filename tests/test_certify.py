import json
from dataclasses import replace

import numpy as np
import pytest

import distvar as dv
from distvar.certify import gradient_bound
from distvar.errors import ConstantSymbol, DenominatorVanishes, NotUnitaryColligation
from conftest import J2


@pytest.fixture
def w2z_variety(companion_psi_2):
    return dv.variety_polynomial(companion_psi_2)


@pytest.fixture
def w2z_pair(companion_psi_2):
    return dv.compress_pair(companion_psi_2, dv.BlaschkeProduct([(0.0, 2)]))


# ---------------------------------------------------------------------------
# suprema on the variety


def test_sup_of_defining_polynomial_vanishes(w2z_variety):
    assert dv.sup_on_variety(w2z_variety, w2z_variety.p, 128) < 1e-8


def test_sup_of_coordinates_reach_one(w2z_variety):
    pz = dv.Poly2([[0.0], [1.0]])
    pw = dv.Poly2([[0.0, 1.0]])
    assert dv.sup_on_variety(w2z_variety, pz, 256) == pytest.approx(1.0, abs=1e-12)
    assert dv.sup_on_variety(w2z_variety, pw, 256) == pytest.approx(1.0, abs=1e-12)


def test_sup_monotone_under_refinement(w2z_variety):
    rng = np.random.default_rng(3)
    q = dv.Poly2(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    sups = [
        dv.sup_on_variety(w2z_variety, q, bn)
        for bn in (64, 128, 256)
    ]
    assert sups[0] <= sups[1] + 1e-15
    assert sups[1] <= sups[2] + 1e-15


# ---------------------------------------------------------------------------
# inequality reports


def test_vn_report_basic(w2z_pair, w2z_variety):
    polys = [
        dv.Poly2([[0.0], [1.0]]),        # z
        dv.Poly2([[0.0, 1.0]]),          # w
        dv.Poly2([[0.0, 0.0], [0.0, 1.0]]),  # zw
    ]
    entries = dv.vn_report(w2z_pair, w2z_variety, polys, boundary_n=256)
    defining = entries[0]
    assert defining.name == "defining-polynomial-annihilates"
    assert defining.status == "pass"
    assert defining.data["norm"] < 1e-10
    for e in entries[1:]:
        assert e.status in ("pass", "inconclusive")
        assert e.data["norm"] <= e.data["sup"] + e.data["slack"] + 1e-12


def test_vn_rational_entry(w2z_pair, w2z_variety):
    p1 = dv.Poly2([[0.0, 1.0]])              # w
    p2 = dv.Poly2([[1.0], [0.5]])            # 1 + z/2, zero at -2
    entries = dv.vn_report(w2z_pair, w2z_variety, [], boundary_n=256,
                           rationals=[(p1, p2)])
    rat = entries[-1]
    assert rat.name == "variety-dominates-rational0"
    assert rat.status in ("pass", "inconclusive")


def test_vn_rational_denominator_vanishes(w2z_pair, w2z_variety):
    p1 = dv.Poly2([[1.0]])
    p2 = dv.Poly2([[-0.5, 1.0]])             # w - 1/2 vanishes on the closure
    with pytest.raises(DenominatorVanishes):
        dv.vn_report(w2z_pair, w2z_variety, [], boundary_n=256,
                     rationals=[(p1, p2)])


@pytest.mark.parametrize("repeated", [False, True])
def test_interior_fibers_stay_below_boundary_sup(repeated):
    # the maximum principle on a distinguished variety, which lets the
    # inequality suite sample boundary fibers only
    radii = np.arange(1, 17) / 17
    disc = (radii[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)).ravel()
    kinds = ("scalar_blaschke_times_identity", "companion", "colligation")
    for seed in range(30):
        spec = dv.random_recipe(seed, repeated=repeated, kinds=(kinds[seed % 3],))
        psi = dv.instances.build_psi(spec)
        variety = dv.variety_polynomial(psi)
        samples = dv.VarietySamples(variety, 512)
        zi = np.repeat(disc, psi.d)
        wi = dv.fibers_grid(psi, disc).ravel()
        for q in dv.random_test_polys(np.random.default_rng(seed), 5):
            sup = dv.sup_on_variety(variety, q, samples=samples)
            assert np.abs(q(zi, wi)).max() <= sup


def test_vn_rational_zero_between_samples(w2z_pair, w2z_variety):
    # w - a vanishes at (a^2, a) inside the bidisc, which an 8 x 32 polar grid
    # of interior fibers misses; the winding count of the fiber product finds it
    a = 0.62 * np.exp(1j * np.pi / 64)
    with pytest.raises(DenominatorVanishes, match="winds 1 times"):
        dv.vn_report(w2z_pair, w2z_variety, [], boundary_n=256,
                     rationals=[(dv.Poly2([[1.0]]), dv.Poly2([[-a, 1.0]]))])
    p1 = dv.Poly2([[0.0, 1.0]])              # w
    p2 = dv.Poly2([[1.0], [0.5]])            # 1 + z/2, least modulus at z = -1
    rat = dv.vn_report(w2z_pair, w2z_variety, [], boundary_n=256,
                       rationals=[(p1, p2)])[-1]
    assert rat.status == "pass"
    assert rat.data["den_min"] == pytest.approx(0.5, abs=1e-12)


def test_vn_report_evaluates_psi_on_the_circle_only(w2z_pair, w2z_variety, monkeypatch):
    seen = []
    evaluate = dv.inner.eval_psi_grid

    def spy(psi, zs):
        seen.append(np.abs(np.asarray(zs, dtype=complex).reshape(-1)))
        return evaluate(psi, zs)

    monkeypatch.setattr(dv.inner, "eval_psi_grid", spy)
    dv.vn_report(w2z_pair, w2z_variety, [dv.Poly2([[0.0, 0.0], [0.0, 1.0]])],
                 boundary_n=128,
                 rationals=[(dv.Poly2([[0.0, 1.0]]), dv.Poly2([[1.0], [0.5]]))])
    assert seen
    assert np.abs(np.concatenate(seen) - 1.0).max() < 1e-15


def test_variety_sup_below_bidisc_sup(w2z_variety):
    rng = np.random.default_rng(8)
    for _ in range(5):
        q = dv.Poly2(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        vsup = dv.sup_on_variety(w2z_variety, q, 128)
        ts = np.exp(2j * np.pi * np.arange(64) / 64)
        zz, ww = np.meshgrid(ts, ts)
        bidisc = float(np.abs(q(zz, ww)).max())
        assert vsup <= bidisc + 1e-9


def test_ando_baseline(w2z_pair):
    rng = np.random.default_rng(12)
    ts = np.exp(2j * np.pi * np.arange(128) / 128)
    zz, ww = np.meshgrid(ts, ts)
    for _ in range(5):
        q = dv.Poly2(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        nrm = np.linalg.norm(dv.poly_apply(q, w2z_pair), 2)
        bidisc = float(np.abs(q(zz, ww)).max())
        assert nrm <= bidisc * (1.0 + 1e-9) + gradient_bound(q) * (2 * np.pi / 128)


# ---------------------------------------------------------------------------
# minimality hypothesis checkers


def test_min_conditions_pass(scalar_shift_psi):
    variety = dv.variety_polynomial(scalar_shift_psi)
    pair = dv.validate_pair(J2, np.eye(2))
    entries = dv.min_conditions(pair, variety, dv.Poly1.identity(),
                                dv.Poly1.identity())
    by_name = {e.name: e for e in entries}
    assert by_name["spectrum-inside-disc"].status == "pass"
    assert by_name["attainment"].status == "pass"
    assert by_name["minimality-certified"].status == "pass"


def test_min_conditions_margin_semantics(scalar_shift_psi):
    variety = dv.variety_polynomial(scalar_shift_psi)
    pair = dv.validate_pair(np.diag([0.999]), np.diag([0.5]))
    entries = dv.min_conditions(pair, variety, dv.Poly1.identity(),
                                dv.Poly1.identity())
    assert entries[0].status == "inconclusive"


def test_min_conditions_constant_symbol(scalar_shift_psi):
    variety = dv.variety_polynomial(scalar_shift_psi)
    pair = dv.validate_pair(J2, np.eye(2))
    with pytest.raises(ConstantSymbol):
        dv.min_conditions(pair, variety, dv.Poly1([1.0]), dv.Poly1.identity())


def test_min_conditions_rational_second_symbol(scalar_shift_psi):
    # phi2 = (z - 1/2)/(1 - z/2) in numerator/denominator form
    variety = dv.variety_polynomial(scalar_shift_psi)
    pair = dv.validate_pair(J2, np.eye(2))
    phi2 = (dv.Poly1([-0.5, 1.0]), dv.Poly1([1.0, -0.5]))
    entries = dv.min_conditions(pair, variety, dv.Poly1.identity(), phi2)
    by_name = {e.name: e for e in entries}
    assert by_name["attainment"].data["sup_phi2"] == pytest.approx(1.0, abs=1e-12)


def test_isometry_variant_examples():
    t1 = np.zeros((3, 3), dtype=complex)
    t1[1, 0] = 1.0
    pair = dv.validate_pair(t1, np.eye(3))
    assert dv.isometry_variant(pair).status == "pass"

    pair = dv.validate_pair(np.zeros((2, 2)), np.diag([1.0, 0.5]))
    entry = dv.isometry_variant(pair)
    assert entry.status == "fail"
    assert entry.data["isometry_defect"] == pytest.approx(0.75)

    pair = dv.validate_pair(np.zeros((2, 2)), np.eye(2))
    assert dv.isometry_variant(pair).status == "fail"


def test_williams_examples():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert dv.williams_check(nil, dv.Poly1.identity(), boundary_n=256).status == "pass"
    assert dv.williams_check(np.diag([0.5]), dv.Poly1.identity(),
                             boundary_n=256).status == "fail"
    assert dv.williams_check(nil, dv.Poly1([0, 0, 1.0]),
                             boundary_n=256).status == "fail"


def test_williams_blaschke_symbol():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = dv.BlaschkeProduct([(0.5, 1)])
    entry = dv.williams_check(nil, b, boundary_n=256)
    assert entry.data["disc_sup"] == pytest.approx(1.0, abs=1e-12)
    # phi(T) = -T for the factor with zero at the origin: attains norm 1
    b0 = dv.BlaschkeProduct([(0.0, 1)])
    assert dv.williams_check(nil, b0, boundary_n=256).status == "pass"


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_deterministic(w2z_pair, w2z_variety):
    def run():
        entries = dv.vn_report(w2z_pair, w2z_variety,
                               [dv.Poly2([[0.0], [1.0]])], boundary_n=128)
        rep = dv.CertificateReport("demo", 7, dv.DEFAULT.as_dict())
        rep.extend(entries)
        return json.dumps(rep.to_dict(), sort_keys=True)

    assert run() == run()


def test_spec_tolerances_are_applied_and_recorded():
    # w^2 = z annihilates its pair to about 1e-15, far above tol_ann = 1e-30
    spec = dv.InstanceSpec(theta_zeros=((0j, 2),), psi_spec={"kind": "companion", "d": 2},
                           boundary_n=128, tolerances={"tol_ann": 1e-30})
    report = dv.run_certification(dv.make_instance(spec))
    assert report.tolerances["tol_ann"] == 1e-30
    assert not any(e.name == "defining-polynomial-annihilates" and e.passed
                   for e in report.entries)
    assert report.overall != "pass"
    # its symbol has a boundary unitarity defect of about 2e-16
    with pytest.raises(NotUnitaryColligation):
        dv.run_certification(dv.make_instance(replace(spec, tolerances={"tol_unitary": 1e-300})))
