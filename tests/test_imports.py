"""Import hygiene of the library modules: no unused imported name, and a
light import path.  ``import distvar`` loads numpy and no scipy module, and
so does a certification whose matchings all certify: ``scipy.linalg`` alone
costs about 0.3 s, and ``scipy.optimize``, with the ``sparse``, ``spatial``
and ``special`` packages it pulls in, about 0.2 s more.  The assignment
solver is imported only when a tied matching reaches it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distvar as dv


def _unused_from_imports(source):
    """Names bound by ``from ... import`` that the module never references."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name: node.lineno
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name}:{line}" for name, line in bound.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    paths = [p for p in sorted(Path(dv.__file__).parent.glob("*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 5
    bad = {p.name: u for p in paths if (u := _unused_from_imports(p.read_text()))}
    assert bad == {}


def test_the_scan_sees_an_unused_name():
    src = "from a import b, c\nfrom d import e as f\nprint(b.x, f)\n"
    assert _unused_from_imports(src) == ["c:1"]


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports distvar from this
    checkout; returns the JSON object it prints."""
    src = str(Path(dv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_distvar_loads_no_heavy_scipy_subpackage(tmp_path):
    # no scipy module at all: after the import, after certifying the warm-up
    # curve w^2 = z and a separated and a repeated recipe of each symbol
    # kind, and after a ``certify --batch 20`` run
    out = _fresh_python(f"""
import contextlib, io, json, sys
import distvar as dv
from distvar.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

imported = scipy_modules()
specs = [dv.InstanceSpec(theta_zeros=((0j, 2),), psi_spec={{"kind": "companion", "d": 2}})]
specs += [dv.random_recipe(0, repeated=repeated, kinds=(kind,))
          for kind in ("scalar_blaschke_times_identity", "companion", "colligation")
          for repeated in (False, True)]
overall = [dv.run_certification(dv.make_instance(s)).overall for s in specs]
certified = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["--out", {str(tmp_path / "batch")!r}, "certify", "--batch", "20"])
print(json.dumps({{"imported": imported, "certified": certified, "batch": scipy_modules(),
                  "overall": overall, "code": code, "file": dv.__file__}}))
""")
    assert Path(out["file"]).resolve() == Path(dv.__file__).resolve()
    assert out["imported"] == out["certified"] == out["batch"] == []
    assert out["overall"] == ["pass"] * 7
    assert out["code"] == 0
    assert len(list((tmp_path / "batch").glob("*-report.json"))) == 20


# (call, its cost matrix, value): each needs the solver, since every row
# minimum of TIED is in column 0, and the nearest neighbours of A's points
# in B (columns 0, 0, 1) are not distinct
TIED_CALLS = {
    "assignment_max": ("float(dv.opcore.assignment_max(np.array([TIED]))[0])",
                       "np.array(TIED)", 3.0),
    "matching_distance": ("dv.matching_distance(A, B)",
                          "np.abs(np.subtract.outer(A, B))", 1.0),
}


@pytest.mark.parametrize("name", sorted(TIED_CALLS))
def test_a_tied_matching_imports_the_solver_on_first_use(name):
    call, cost, expected = TIED_CALLS[name]
    out = _fresh_python(f"""
import json, sys
import numpy as np
import distvar as dv
TIED = [[0.0, 2.0, 3.0], [0.0, 2.0, 5.0], [0.0, 4.0, 4.0]]
A, B = [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]
before = "scipy.optimize" in sys.modules
got = {call}
loaded = "scipy.optimize" in sys.modules
from scipy.optimize import linear_sum_assignment
c = {cost}
ref = float(c[linear_sum_assignment(c)].max())
print(json.dumps({{"before": before, "got": got, "loaded": loaded, "ref": ref}}))
""")
    assert out["before"] is False
    assert out["got"] == out["ref"] == expected
    assert out["loaded"] is True
