import json

import numpy as np
import pytest

import distvar as dv
from distvar.cli import main
from distvar.instances import make_instance, random_recipe
from distvar.serialize import (
    blaschke_from_json,
    blaschke_to_json,
    dump_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    pair_to_json,
    poly2_from_json,
    poly2_to_json,
    psi_from_json,
    psi_to_json,
)


# ---------------------------------------------------------------------------
# serialization round trips


def test_matrix_roundtrip():
    m = np.array([[1 + 2j, 0], [3, -4j]], dtype=complex)
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_poly2_roundtrip():
    p = dv.Poly2([[0, 0, 1], [-1, 0, 0]])
    q = poly2_from_json(poly2_to_json(p))
    assert np.array_equal(p.coeffs, q.coeffs)


def test_blaschke_roundtrip():
    b = dv.BlaschkeProduct([(0.2 + 0.1j, 2), (-0.4, 1)], constant=1j)
    c = blaschke_from_json(blaschke_to_json(b))
    assert b.zeros == c.zeros and b.constant == c.constant


@pytest.mark.parametrize("kind", ["colligation", "bp_product", "polynomial",
                                  "scalar_blaschke_times_identity"])
def test_psi_roundtrip(kind, companion_psi_2):
    rng = np.random.default_rng(0)
    if kind == "colligation":
        from conftest import random_unitary

        u = random_unitary(rng, 4)
        psi = dv.from_colligation(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:])
    elif kind == "bp_product":
        eye = np.eye(2)
        psi = dv.from_bp_factors([dv.BPFactor(0.3, eye, np.diag([1j, 1.0]))])
    elif kind == "scalar_blaschke_times_identity":
        obj = {"kind": kind, "zeros": [{"point": [0.5, 0.0]}], "d": 2}
        psi = psi_from_json(obj)
    else:
        psi = companion_psi_2
    if kind != "scalar_blaschke_times_identity":
        psi2 = psi_from_json(psi_to_json(psi))
        z = 0.3 - 0.2j
        assert np.allclose(dv.eval_psi(psi, z), dv.eval_psi(psi2, z), atol=1e-12)
    else:
        assert dv.eval_psi(psi, 0.5)[0, 0] == pytest.approx(0.0)


def test_pair_roundtrip(j2_pair):
    back = pair_from_json(pair_to_json(j2_pair))
    assert np.array_equal(back.t1, j2_pair.t1)
    assert np.array_equal(back.t2, j2_pair.t2)


# ---------------------------------------------------------------------------
# commands


def _psi_file(tmp_path, companion_psi_2):
    path = tmp_path / "psi.json"
    dump_json(psi_to_json(companion_psi_2), path)
    return str(path)


def test_cmd_variety(tmp_path, companion_psi_2, capsys):
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "256",
                 "--disc-samples", "8x32",
                 "variety", _psi_file(tmp_path, companion_psi_2)])
    assert code == 0
    assert (out / "variety.json").exists()
    assert (out / "variety-samples.csv").exists()
    assert (out / "variety.svg").exists()
    payload = load_json(out / "variety.json")
    p = poly2_from_json(payload["p"])
    assert dv.unit_distance(p, dv.Poly2([[0, 0, 1], [-1, 0, 0]])) < 1e-8
    assert payload["distinguished"]["status"] == "pass"
    # CSV holds plain parseable floats on the curve
    lines = (out / "variety-samples.csv").read_text().strip().splitlines()
    assert lines[0] == "re_z,im_z,re_w,im_w,abs_q"
    rez, imz, rew, imw, absq = (float(v) for v in lines[1].split(","))
    assert abs(complex(rew, imw) ** 2 - complex(rez, imz)) < 1e-8
    svg = (out / "variety.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_cmd_variety_scalar_blaschke_square(tmp_path, capsys):
    path = tmp_path / "b2.json"
    dump_json({"kind": "scalar_blaschke_times_identity",
               "zeros": [{"point": [0.0, 0.0], "multiplicity": 2}],
               "d": 1}, path)
    out = tmp_path / "o"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "variety", str(path)])
    assert code == 0
    p = poly2_from_json(load_json(out / "variety.json")["p"])
    target = dv.Poly2([[0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]])  # w - z^2
    assert dv.unit_distance(p, target) < 1e-8


def test_cmd_variety_constant_unitary_fails(tmp_path, capsys):
    path = tmp_path / "const.json"
    dump_json({"kind": "colligation", "A": [], "B": [], "C": [],
               "D": [[[1.0, 0.0]]]}, path)
    code = main(["--out", str(tmp_path / "o"), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "variety", str(path)])
    assert code == 1


def test_cmd_variety_invalid_input(tmp_path, capsys):
    code = main(["--out", str(tmp_path / "o"), "variety",
                 str(tmp_path / "missing.json")])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().out)


def test_cmd_variety_malformed_symbol_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    dump_json({"kind": "scalar_blaschke_times_identity", "zeros": 3, "d": 1}, path)
    code = main(["--out", str(tmp_path / "o"), "variety", str(path)])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("recipe", [
    # a phase written as a [re, im] pair is not a number
    {"theta_zeros": [{"point": [0.0, 0.0], "multiplicity": 2}],
     "psi": {"kind": "companion", "d": 2, "phases": [[0.0, 1.0], [1.0, 0.0]]}},
    # fewer phases than d
    {"theta_zeros": [{"point": [0.0, 0.0], "multiplicity": 2}],
     "psi": {"kind": "companion", "d": 2, "phases": [1.0]}},
    # a theta zero that is not a [re, im] pair
    {"theta_zeros": [{"point": 0.5}], "psi": {"kind": "companion", "d": 1}},
    # a symbol descriptor that is not a mapping
    {"theta_zeros": [{"point": [0.0, 0.0]}], "psi": ["companion", 1]},
])
def test_cmd_certify_malformed_recipe_exits_2(tmp_path, capsys, recipe):
    rp = tmp_path / "recipe.json"
    dump_json(recipe, rp)
    code = main(["--out", str(tmp_path / "o"), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "certify", "--recipe", str(rp)])
    assert code == 2
    assert "malformed" in json.loads(capsys.readouterr().out)["error"]


def test_cmd_certify_malformed_pair_exits_2(tmp_path, capsys):
    pp = tmp_path / "pair.json"
    dump_json({"t1": 3, "t2": [[[0.0, 0.0]]]}, pp)
    code = main(["--out", str(tmp_path / "o"), "certify", "--pair", str(pp)])
    assert code == 2
    assert "malformed pair" in json.loads(capsys.readouterr().out)["error"]


def test_cmd_certify_recipe(tmp_path, capsys):
    recipe = {
        "theta_zeros": [{"point": [0.0, 0.0], "multiplicity": 2}],
        "psi": {"kind": "companion", "d": 2},
        "seed": 3,
    }
    rp = tmp_path / "recipe.json"
    dump_json(recipe, rp)
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "certify", "--recipe", str(rp)])
    assert code == 0
    summary = load_json(out / "summary.json")
    assert summary["pass"] == 1 and summary["fail"] == 0


def test_cmd_certify_recipe_symbol_zero_past_factorial_range(tmp_path, capsys):
    # the symbol's Taylor series needs 220 terms, more than k! covers in floats
    recipe = {
        "theta_zeros": [{"point": [0.3, 0.0]}],
        "psi": {"kind": "scalar_blaschke_times_identity", "zeros": [[0.85, 0.0]], "d": 1},
    }
    rp = tmp_path / "recipe.json"
    dump_json(recipe, rp)
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "certify", "--recipe", str(rp)])
    assert code == 0
    summary = load_json(out / "summary.json")
    assert summary["pass"] == 1 and summary["fail"] == 0


def test_cmd_certify_recipe_all_true_instance(tmp_path, capsys):
    recipe = {
        "theta_zeros": [
            {"point": [0.0, 0.0], "multiplicity": 1},
            {"point": [0.5, 0.0], "multiplicity": 1},
        ],
        "psi": {"kind": "companion", "d": 1},
        "seed": 0,
    }
    rp = tmp_path / "recipe.json"
    dump_json(recipe, rp)
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "certify", "--recipe", str(rp)])
    assert code == 0
    rep = load_json(sorted(out.glob("*-report.json"))[0])
    verdict = [e for e in rep["entries"] if e["name"] == "synthesis-equivalence"][0]
    assert verdict["status"] == "pass"
    assert all(verdict["witnesses"]["conditions"].values())


def test_cmd_certify_recipe_uses_sample_flags(tmp_path, monkeypatch, capsys):
    specs = []

    def capture(inst, tol, artifacts):
        specs.append(inst.spec)
        return dv.CertificateReport(instance_id=inst.spec.instance_id,
                                    seed=inst.spec.seed, tolerances={})

    monkeypatch.setattr("distvar.cli.run_certification", capture)
    rp = tmp_path / "recipe.json"
    dump_json({"theta_zeros": [{"point": [0.0, 0.0], "multiplicity": 2}],
               "psi": {"kind": "companion", "d": 2}, "seed": 3}, rp)
    code = main(["--out", str(tmp_path / "out"), "--boundary-samples", "96",
                 "--disc-samples", "8x40", "certify", "--recipe", str(rp)])
    assert code == 0
    assert [(s.boundary_n, s.disc_grid, s.seed) for s in specs] == [(96, (8, 40), 3)]


@pytest.mark.parametrize("command", [["demo"], ["certify", "--batch", "1"],
                                     ["variety", "psi.json"]])
@pytest.mark.parametrize("override", ["bogus=1", "tol_ann=abc", "tol_ann",
                                      "tol_ann=nan", "match_cap=-1"])
def test_invalid_tolerance_override_exits_2(tmp_path, capsys, command, override):
    code = main(["--out", str(tmp_path / "o"), "--tol", override] + command)
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().out)
    assert not (tmp_path / "o").exists()


def test_cmd_certify_batch(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "--seed", "50",
                 "certify", "--batch", "2"])
    assert code == 0
    summary = load_json(out / "summary.json")
    assert summary["instances"] == 2
    assert summary["pass"] + summary["inconclusive"] == 2
    assert len(summary["reports"]) == 2


def test_cmd_certify_pair_with_supplied_symbol(tmp_path, j2_pair, scalar_shift_psi):
    pp = tmp_path / "pair.json"
    dump_json(pair_to_json(j2_pair), pp)
    sp = tmp_path / "psi.json"
    dump_json(psi_to_json(scalar_shift_psi), sp)
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "certify",
                 "--pair", str(pp), "--psi", str(sp)])
    assert code == 0


def test_cmd_certify_pair_constructs_symbol(tmp_path, j2_pair):
    pp = tmp_path / "pair.json"
    dump_json(pair_to_json(j2_pair), pp)
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "certify", "--pair", str(pp)])
    assert code == 0


def test_cmd_certify_pair_constructs_symbol_for_d3(tmp_path, capsys):
    # the pair of a Blaschke-Potapov symbol with d = 3
    inst = make_instance(random_recipe(3))
    assert inst.psi.d == 3
    pp = tmp_path / "pair.json"
    dump_json(pair_to_json(inst.pair), pp)
    code = main(["--out", str(tmp_path / "out"), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "certify", "--pair", str(pp)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["pass"] == 1


def test_cmd_certify_writes_bundle_export(tmp_path, capsys):
    recipe = {
        "theta_zeros": [{"point": [0.0, 0.0], "multiplicity": 2}],
        "psi": {"kind": "companion", "d": 1},
        "seed": 0,
    }
    rp = tmp_path / "recipe.json"
    dump_json(recipe, rp)
    out = tmp_path / "out"
    assert main(["--out", str(out), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "certify", "--recipe", str(rp)]) == 0
    bundle = load_json(sorted(out.glob("*-bundle.json"))[0])
    assert set(bundle) >= {"J", "n_trunc", "psi", "m1", "kpsi_basis",
                           "S1", "S2", "residuals"}
    assert matrix_from_json(bundle["S1"]).shape == (2, 2)


def test_cmd_certify_inconclusive_exit_code(tmp_path, capsys):
    # simple theta zero at the branch point of w^2 = z: degenerate instance
    recipe = {
        "theta_zeros": [{"point": [0.0, 0.0], "multiplicity": 1}],
        "psi": {"kind": "companion", "d": 2},
        "seed": 0,
    }
    rp = tmp_path / "recipe.json"
    dump_json(recipe, rp)
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "--disc-samples", "8x32", "certify", "--recipe", str(rp)])
    assert code == 3


def test_cmd_demo_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["--out", str(out), "--seed", "7",
                     "--boundary-samples", "128", "--disc-samples", "8x32",
                     "demo"])
        assert code == 0
        reports = sorted(out.glob("*-report.json"))
        assert len(reports) == 1
        outs.append(reports[0].read_bytes())
    assert outs[0] == outs[1]


def test_cmd_demo_records_seed(tmp_path, capsys):
    out = tmp_path / "o"
    main(["--out", str(out), "--seed", "7", "--boundary-samples", "128",
          "--disc-samples", "8x32", "demo"])
    rep = load_json(sorted(out.glob("*-report.json"))[0])
    assert rep["seed"] == 7


def test_report_json_schema(tmp_path):
    out = tmp_path / "o"
    main(["--out", str(out), "--seed", "1", "--boundary-samples", "128",
          "--disc-samples", "8x32", "demo"])
    rep = load_json(sorted(out.glob("*-report.json"))[0])
    assert set(rep) >= {"instance_id", "seed", "tolerances", "entries"}
    for e in rep["entries"]:
        assert set(e) >= {"name", "anchor", "status", "margin"}
        assert e["status"] in ("pass", "fail", "inconclusive")
