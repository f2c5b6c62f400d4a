import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import distvar as dv
from distvar.cli import main
from distvar.instances import InstanceSpec, make_instance, random_recipe
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
                 "variety", _psi_file(tmp_path, companion_psi_2)])
    assert code == 0
    assert (out / "variety.json").exists()
    assert (out / "variety-samples.csv").exists()
    assert (out / "variety.svg").exists()
    payload = load_json(out / "variety.json")
    assert set(payload) == {"p", "degz", "degw", "distinguished", "psi"}
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
                 "variety", str(path)])
    assert code == 0
    p = poly2_from_json(load_json(out / "variety.json")["p"])
    target = dv.Poly2([[0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]])  # w - z^2
    assert dv.unit_distance(p, target) < 1e-8


def test_cmd_variety_constant_unitary_fails(tmp_path, capsys):
    path = tmp_path / "const.json"
    dump_json({"kind": "colligation", "A": [], "B": [], "C": [],
               "D": [[[1.0, 0.0]]]}, path)
    code = main(["--out", str(tmp_path / "o"), "--boundary-samples", "128",
                 "variety", str(path)])
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
                 "certify", "--recipe", str(rp)])
    assert code == 2
    assert "malformed" in json.loads(capsys.readouterr().out)["error"]


def test_cmd_certify_malformed_pair_exits_2(tmp_path, capsys):
    pp = tmp_path / "pair.json"
    dump_json({"t1": 3, "t2": [[[0.0, 0.0]]]}, pp)
    code = main(["--out", str(tmp_path / "o"), "certify", "--pair", str(pp)])
    assert code == 2
    assert "malformed pair" in json.loads(capsys.readouterr().out)["error"]


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, obj, message", [
    (["certify", "--pair"], {"t1": [[[_NAN, 0.0]]], "t2": [[[0.0, 0.0]]]},
     "malformed pair: non-finite value [nan, 0.0]"),
    (["variety"], {"kind": "colligation", "A": [[[0.0, 0.0]]], "B": [[[1.0, 0.0]]],
                   "C": [[[1.0, 0.0]]], "D": [[[0.0, _NAN]]]},
     "malformed symbol: non-finite value [0.0, nan]"),
    (["variety"], {"kind": "polynomial", "coeffs": [[[[0.0, 0.0]]], [[[_INF, 0.0]]]]},
     "malformed symbol: non-finite value [inf, 0.0]"),
    (["variety"], {"kind": "bp_product", "factors": [
        {"zero": [_NAN, 0.0], "projection": [[[1.0, 0.0]]], "unitary": [[[1.0, 0.0]]]}]},
     "malformed symbol: non-finite value [nan, 0.0]"),
    (["certify", "--recipe"], {"theta_zeros": [{"point": [_NAN, 0.0]}],
                               "psi": {"kind": "companion", "d": 1}},
     "malformed recipe theta_zeros: non-finite value [nan, 0.0]"),
    (["certify", "--recipe"], {"theta_zeros": [{"point": [0.1, 0.0]}],
                               "psi": {"kind": "scalar_blaschke_times_identity",
                                       "zeros": [[_NAN, 0.0]], "d": 1}},
     "malformed symbol descriptor: non-finite value in zeros"),
    (["certify", "--recipe"], {"theta_zeros": [{"point": [0.1, 0.0]}],
                               "psi": {"kind": "scalar_blaschke_times_identity",
                                       "zeros": [[0.2, 0.0]], "constant": _INF, "d": 1}},
     "malformed symbol descriptor: non-finite value in constant"),
    (["certify", "--recipe"], {"theta_zeros": [{"point": [0.1, 0.0]}],
                               "psi": {"kind": "companion", "d": 2, "phases": [1.0, _NAN]}},
     "malformed symbol descriptor: non-finite value in phases"),
    (["certify", "--recipe"], {"theta_zeros": [{"point": [0.1, 0.0]}],
                               "psi": {"kind": "colligation", "A": [[0.0]], "B": [[1.0]],
                                       "C": [[1.0]], "D": [[_NAN]]}},
     "malformed symbol descriptor: non-finite value in D"),
])
def test_non_finite_input_value_exits_2(tmp_path, capsys, command, obj, message):
    path = tmp_path / "in.json"
    # written with json's NaN and Infinity tokens, which dump_json refuses
    path.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        code = main(["--out", str(tmp_path / "o")] + command + [str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"] == message
    assert err == ""


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
                 "certify", "--recipe", str(rp)])
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
                 "certify", "--recipe", str(rp)])
    assert code == 0
    summary = load_json(out / "summary.json")
    assert summary["pass"] == 1 and summary["fail"] == 0


def test_cmd_certify_recipe_state_radius_near_one(tmp_path, capsys):
    # Psi = (z - a)/(1 - a z) as a colligation with state matrix [[a]]: its
    # Taylor series at 0 falls below 1e-16 only after about 7350 terms, and
    # the model pair is built without one
    a = 0.995
    s = float(np.sqrt(1.0 - a * a))
    recipe = {
        "theta_zeros": [{"point": [0.3, 0.0], "multiplicity": 2}],
        "psi": {"kind": "colligation", "A": [[a]], "B": [[s]], "C": [[s]], "D": [[-a]]},
    }
    rp = tmp_path / "recipe.json"
    dump_json(recipe, rp)
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "certify", "--recipe", str(rp)])
    assert code == 0, capsys.readouterr().out
    summary = load_json(out / "summary.json")
    assert summary["pass"] == 1 and summary["fail"] == 0


def test_cmd_certify_recipe_theta_zero_near_the_circle(tmp_path, capsys):
    # rho(T1) = 0.998: a series embedding needs thousands of powers of T1,
    # the model-space embedding one solve per zero of m1
    recipe = {
        "theta_zeros": [{"point": [0.998, 0.0]}, {"point": [0.0, 0.3]}],
        "psi": {"kind": "companion", "d": 2},
    }
    rp = tmp_path / "recipe.json"
    dump_json(recipe, rp)
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "certify", "--recipe", str(rp)])
    assert code == 0, capsys.readouterr().out
    rep = load_json(sorted(out.glob("*-report.json"))[0])
    assert {e["status"] for e in rep["entries"]} == {"pass"}


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
                 "certify", "--recipe", str(rp)])
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
                 "certify", "--recipe", str(rp)])
    assert code == 0
    assert [(s.boundary_n, s.seed) for s in specs] == [(96, 3)]


def test_variety_and_certify_share_the_distinguished_certificate(tmp_path, capsys):
    recipe = {"theta_zeros": [{"point": [0.2, 0.1]}, {"point": [-0.3, 0.0]}],
              "psi": {"kind": "companion", "d": 3, "phases": [1.0, -1.0, 1.0]}}
    dump_json(recipe, tmp_path / "recipe.json")
    spec = dv.InstanceSpec(theta_zeros=((0.2 + 0.1j, 1), (-0.3 + 0j, 1)),
                           psi_spec=recipe["psi"])
    dump_json(psi_to_json(dv.instances.build_psi(spec)), tmp_path / "psi.json")
    flags = ["--boundary-samples", "320"]
    assert main(["--out", str(tmp_path / "v")] + flags
                + ["variety", str(tmp_path / "psi.json")]) == 0
    assert main(["--out", str(tmp_path / "c")] + flags
                + ["certify", "--recipe", str(tmp_path / "recipe.json")]) == 0
    block = load_json(tmp_path / "v" / "variety.json")["distinguished"]
    (report,) = (tmp_path / "c").glob("*-report.json")
    entries = {e["name"]: e for e in load_json(report)["entries"]}
    assert block == entries["distinguished-variety"]


@pytest.mark.parametrize("command", [["demo"], ["certify", "--batch", "1"],
                                     ["variety", "psi.json"]])
@pytest.mark.parametrize("override", ["bogus=1", "tol_ann=abc", "tol_ann",
                                      "tol_ann=nan", "match_cap=-1"])
def test_invalid_tolerance_override_exits_2(tmp_path, capsys, command, override):
    code = main(["--out", str(tmp_path / "o"), "--tol", override] + command)
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().out)
    assert not (tmp_path / "o").exists()


def test_removed_tolerance_is_unknown(tmp_path, capsys):
    # tol_calc and tol_root had no reader left on the certification path
    for name in ("tol_calc", "tol_root"):
        code = main(["--out", str(tmp_path / "o"), "--tol", f"{name}=1e-10", "demo"])
        assert code == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == f"invalid --tol: unknown tolerance {name!r}"


def test_zero_cluster_warn_certifies(tmp_path, capsys):
    # a separation of 0 is a valid override: it flags only coincident zeros of m1
    out = tmp_path / "o"
    code = main(["--tol", "cluster_warn=0", "--out", str(out), "certify", "--batch", "3"])
    assert code == 0
    summary = load_json(out / "summary.json")
    assert (summary["instances"], summary["pass"]) == (3, 3)


def test_cmd_certify_pair_symbol_dimension_mismatch_exits_2(tmp_path, capsys, j2_pair,
                                                            companion_psi_2):
    # the Jordan pair has defect rank 1; the companion symbol has d = 2
    dump_json(pair_to_json(j2_pair), tmp_path / "pair.json")
    code = main(["--out", str(tmp_path / "o"), "--boundary-samples", "128",
                 "certify", "--pair", str(tmp_path / "pair.json"),
                 "--psi", _psi_file(tmp_path, companion_psi_2)])
    assert code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith("NoInnerSolution:")
    assert "defect rank 1" in error and "d = 2" in error


@pytest.mark.parametrize("argv", [
    ["--boundary-samples", "10", "demo"],
    # the interior grid flag is gone: the distinguished certificate samples no fiber
    ["--disc-samples", "8x32", "demo"],
    ["--disc-samples", "8x32", "certify", "--batch", "1"],
    ["--disc-samples", "8x32", "variety", "psi.json"],
    ["--boundary-samples", "10", "variety", "psi.json"],
    ["--tol", "tol_unitary=1e-300", "demo"],
    # the table has no tol_fit field, so this is an unknown tolerance
    ["--tol", "tol_fit=1e-30", "certify", "--batch", "2"],
    # the symbol [z] of this pair has a boundary unitarity defect of about 1e-16
    ["--tol", "tol_unitary=1e-300", "certify", "--pair", "pair.json", "--psi", "shift.json"],
])
def test_rejected_input_exits_2_on_every_command(tmp_path, capsys, companion_psi_2,
                                                 j2_pair, scalar_shift_psi, argv):
    dump_json(pair_to_json(j2_pair), tmp_path / "pair.json")
    dump_json(psi_to_json(scalar_shift_psi), tmp_path / "shift.json")
    files = {"psi.json": _psi_file(tmp_path, companion_psi_2),
             "pair.json": str(tmp_path / "pair.json"),
             "shift.json": str(tmp_path / "shift.json")}
    argv = [files.get(a, a) for a in argv]
    code = main(["--out", str(tmp_path / "o")] + argv)
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("existing", [True, False])
def test_negative_batch_exits_2(tmp_path, capsys, existing):
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    code = main(["--out", str(out), "certify", "--batch", "-3"])
    assert code == 2
    assert "--batch" in json.loads(capsys.readouterr().out)["error"]
    assert not (out / "summary.json").exists()


def test_cmd_certify_batch(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "--seed", "50",
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
                 "certify",
                 "--pair", str(pp), "--psi", str(sp)])
    assert code == 0


def test_cmd_certify_pair_constructs_symbol(tmp_path, j2_pair):
    pp = tmp_path / "pair.json"
    dump_json(pair_to_json(j2_pair), pp)
    out = tmp_path / "out"
    code = main(["--out", str(out), "--boundary-samples", "128",
                 "certify", "--pair", str(pp)])
    assert code == 0


def test_cmd_certify_pair_constructs_symbol_for_d3(tmp_path, capsys):
    # the pair of a Blaschke-Potapov symbol with d = 3
    inst = make_instance(random_recipe(3))
    assert inst.psi.d == 3
    pp = tmp_path / "pair.json"
    dump_json(pair_to_json(inst.pair), pp)
    code = main(["--out", str(tmp_path / "out"), "--boundary-samples", "128",
                 "certify", "--pair", str(pp)])
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
                 "certify", "--recipe", str(rp)]) == 0
    bundle = load_json(sorted(out.glob("*-bundle.json"))[0])
    assert set(bundle) == {"J", "psi", "m1", "kpsi_basis",
                           "S1", "S2", "residuals"}
    assert matrix_from_json(bundle["S1"]).shape == (2, 2)


def _strict_json(path):
    """The JSON file at ``path``, parsed as RFC 8259 JSON: a NaN, Infinity or
    -Infinity token raises."""
    def refuse(token):
        raise ValueError(f"{path.name}: non-standard JSON token {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def test_dump_json_refuses_a_non_finite_float(tmp_path):
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_json({"entries": [{"margin": value}]}, tmp_path / "out.json")
    assert not (tmp_path / "out.json").exists()


def test_certify_writes_strict_json(tmp_path, capsys):
    # the repeated recipe whose set check once wrote an infinite distance
    inst = make_instance(random_recipe(9, repeated=True))
    dump_json(pair_to_json(inst.pair), tmp_path / "pair.json")
    dump_json(psi_to_json(inst.psi), tmp_path / "psi.json")
    runs = {
        "batch": ["certify", "--batch", "5"],
        "pair": ["certify", "--pair", str(tmp_path / "pair.json"),
                 "--psi", str(tmp_path / "psi.json")],
    }
    for name, argv in runs.items():
        assert main(["--out", str(tmp_path / name), "--boundary-samples", "128"] + argv) == 0
    written = sorted(tmp_path.glob("*/*.json"))
    # five reports and a summary; a report, a bundle and a summary
    assert len(written) == 9
    for path in written:
        _strict_json(path)


def test_cmd_certify_pair_bundle_does_not_depend_on_seed(tmp_path, capsys):
    # a scalar-Blaschke symbol with d = 2 has a 4-dimensional alignment null
    # space, so the alignment unitary is chosen inside it
    inst = make_instance(InstanceSpec(
        theta_zeros=((0.3, 1), (-0.2 + 0.4j, 1)),
        psi_spec={"kind": "scalar_blaschke_times_identity", "zeros": [0.5 + 0.1j], "d": 2},
    ))
    pp = tmp_path / "pair.json"
    dump_json(pair_to_json(inst.pair), pp)
    bundles = []
    for seed in ("0", "1", "7"):
        out = tmp_path / f"out{seed}"
        main(["--out", str(out), "--seed", seed, "--boundary-samples", "128",
              "certify", "--pair", str(pp),
              "--psi", _psi_file(tmp_path, inst.psi)])
        [path] = out.glob("*-bundle.json")
        bundles.append(path.read_text())
    assert bundles[0] == bundles[1] == bundles[2]


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
                 "certify", "--recipe", str(rp)])
    assert code == 3


def test_cmd_demo_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["--out", str(out), "--seed", "7",
                     "--boundary-samples", "128",
                     "demo"])
        assert code == 0
        reports = sorted(out.glob("*-report.json"))
        assert len(reports) == 1
        outs.append(reports[0].read_bytes())
    assert outs[0] == outs[1]


def test_cmd_demo_records_seed(tmp_path, capsys):
    out = tmp_path / "o"
    main(["--out", str(out), "--seed", "7", "--boundary-samples", "128",
          "demo"])
    rep = load_json(sorted(out.glob("*-report.json"))[0])
    assert rep["seed"] == 7


def test_report_json_schema(tmp_path):
    out = tmp_path / "o"
    main(["--out", str(out), "--seed", "1", "--boundary-samples", "128",
          "demo"])
    rep = load_json(sorted(out.glob("*-report.json"))[0])
    assert set(rep) >= {"instance_id", "seed", "tolerances", "entries"}
    for e in rep["entries"]:
        assert set(e) >= {"name", "anchor", "status", "margin"}
        assert e["status"] in ("pass", "fail", "inconclusive")


# ---------------------------------------------------------------------------
# property: invalid input exits 2 with a JSON error, never with a traceback

_J2 = [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
_PAIR = {"t1": _J2, "t2": _J2, "require_pure": True}
_SYMBOL = {"kind": "scalar_blaschke_times_identity", "zeros": [{"point": [0.5, 0.0]}], "d": 1}
_RECIPE = {"theta_zeros": [{"point": [0.0, 0.0], "multiplicity": 2}],
           "psi": {"kind": "companion", "d": 2}}
_FILES = {"pair.json": _PAIR, "psi.json": _SYMBOL, "recipe.json": _RECIPE}
_TOLERANCES = sorted(dv.DEFAULT.as_dict())

# JSON values with too few leaves to spell a 2 x 2 matrix or a valid field
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2.0, 2.0)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
_not_mapping = _json.filter(lambda v: not isinstance(v, dict))
_off_circle = st.floats(0.0, 0.9) | st.floats(1.1, 10.0)
_outside_disc = st.floats(1.0, 10.0)
_nonpositive = st.integers(-3, 0)
_fractional = st.floats(0.05, 4.95).filter(lambda m: not m.is_integer())


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _scaled_identity(s):
    return [[[s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [s, 0.0]]]


_bad_pair = st.one_of(
    _not_mapping,
    st.sampled_from(["t1", "t2"]).map(lambda k: _without(_PAIR, k)),
    st.builds(lambda k, v: {**_PAIR, k: v}, st.sampled_from(["t1", "t2"]), _json),
    st.floats(1.1, 10.0).map(lambda s: {"t1": _scaled_identity(s), "t2": _J2}),
    st.just({"t1": _J2, "t2": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}),
    st.just({**_PAIR, "t1": _scaled_identity(1.0), "t2": _scaled_identity(1.0)}),
    st.just({"t1": [], "t2": []}),
)
_bad_symbol = st.one_of(
    _not_mapping,
    st.text(max_size=5).map(lambda kind: {"kind": kind}),
    st.sampled_from(["kind", "zeros", "d"]).map(lambda k: _without(_SYMBOL, k)),
    _outside_disc.map(lambda r: {**_SYMBOL, "zeros": [{"point": [r, 0.0]}]}),
    (_nonpositive | _fractional).map(
        lambda m: {**_SYMBOL, "zeros": [{"point": [0.5, 0.0], "multiplicity": m}]}),
    _nonpositive.map(lambda d: {**_SYMBOL, "d": d}),
    _off_circle.map(lambda c: {"kind": "polynomial", "coeffs": [[[[c, 0.0]]]]}),
    _off_circle.map(lambda s: {"kind": "colligation", "A": [[[0.0, 0.0]]], "B": [[[s, 0.0]]],
                               "C": [[[s, 0.0]]], "D": [[[0.0, 0.0]]]}),
)
_bad_recipe = st.one_of(
    _not_mapping,
    st.sampled_from(["theta_zeros", "psi"]).map(lambda k: _without(_RECIPE, k)),
    st.builds(lambda k, v: {**_RECIPE, k: v}, st.sampled_from(["theta_zeros", "psi"]), _json),
    _outside_disc.map(lambda r: {**_RECIPE, "theta_zeros": [{"point": [r, 0.0]}]}),
    (_nonpositive | _fractional).map(
        lambda m: {**_RECIPE, "theta_zeros": [{"point": [0.0, 0.0], "multiplicity": m}]}),
    _nonpositive.map(lambda d: {**_RECIPE, "psi": {"kind": "companion", "d": d}}),
)
_bad_tol = st.one_of(
    st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
    .filter(lambda k: k not in _TOLERANCES).map(lambda k: f"{k}=1"),
    st.sampled_from(_TOLERANCES),
    st.builds("{}={}".format, st.sampled_from(_TOLERANCES),
              st.sampled_from(["", "abc", "nan", "inf", "1e400", "1j"])
              | st.floats(max_value=-1e-300).map(repr)),
    st.just("rank_guard=0"),
)
_bad_boundary = st.integers(-10 ** 4, 63).map(lambda n: [f"--boundary-samples={n}"])


def _assert_exits_2(argv, files):
    """Run the CLI on argv, with the file names of ``files`` written to a
    scratch directory; it must print a JSON error and return 2."""
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            dump_json(obj, os.path.join(tmp, name))
        argv = [os.path.join(tmp, a) if a in files else a for a in argv]
        with contextlib.redirect_stdout(stdout):
            code = main(["--out", os.path.join(tmp, "out")] + argv)
    assert code == 2, stdout.getvalue()
    assert "error" in json.loads(stdout.getvalue())


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    _bad_pair.map(lambda obj: (["certify", "--pair", "in.json"], obj)),
    _bad_symbol.map(lambda obj: (["variety", "in.json"], obj)),
    _bad_symbol.map(lambda obj: (["certify", "--pair", "pair.json", "--psi", "in.json"], obj)),
    _bad_recipe.map(lambda obj: (["certify", "--recipe", "in.json"], obj)),
))
@example((["certify", "--pair", "in.json"], {"t1": [], "t2": []}))
@example((["variety", "in.json"],
          {**_SYMBOL, "zeros": [{"point": [0.5, 0.0], "multiplicity": 1.5}]}))
@example((["certify", "--recipe", "in.json"],
          {**_RECIPE, "theta_zeros": [{"point": [0.0, 0.0], "multiplicity": 1.5}]}))
def test_malformed_input_file_exits_2(case):
    argv, obj = case
    _assert_exits_2(["--boundary-samples=128"] + argv, {**_FILES, "in.json": obj})


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.tuples(_bad_boundary, st.sampled_from(
        [["demo"], ["certify", "--recipe", "recipe.json"], ["variety", "psi.json"]])),
    st.tuples(_bad_tol.map(lambda t: ["--tol", t]), st.sampled_from(
        [["demo"], ["certify", "--batch", "1"], ["variety", "psi.json"]])),
))
@example((["--disc-samples", "8x32"], ["demo"]))
@example((["--boundary-samples", "abc"], ["certify", "--recipe", "recipe.json"]))
def test_invalid_option_value_exits_2(case):
    flags, command = case
    _assert_exits_2(flags + command, _FILES)
