"""Import hygiene of the library modules: no unused imported name, and a
light import path.  ``import distvar`` loads numpy and ``scipy.linalg`` (for
the complex Schur factorisation) and no other scipy subpackage:
``scipy.stats`` alone costs about half a second, and ``scipy.optimize``,
with the ``sparse``, ``spatial`` and ``special`` packages it pulls in, about
0.2 s.  The assignment solver is imported only when a tied matching reaches
it, so a certification whose matchings all certify never loads it."""

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


# loaded by none of: a fresh ``import distvar``, or certifications whose
# matchings all certify
UNLOADED = ("scipy.optimize", "scipy.stats", "scipy.sparse", "scipy.spatial", "scipy.special")


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


def test_importing_distvar_loads_no_heavy_scipy_subpackage():
    out = _fresh_python(f"""
import json, sys
import distvar as dv
imported = [m for m in {UNLOADED!r} if m in sys.modules]
spec = dv.InstanceSpec(theta_zeros=((0j, 2),), psi_spec={{"kind": "companion", "d": 2}})
overall = [dv.run_certification(dv.make_instance(s)).overall
           for s in (spec, dv.random_recipe(0))]
print(json.dumps({{"imported": imported, "linalg": "scipy.linalg" in sys.modules,
                  "after": [m for m in {UNLOADED!r} if m in sys.modules],
                  "overall": overall, "file": dv.__file__}}))
""")
    assert Path(out["file"]).resolve() == Path(dv.__file__).resolve()
    assert out["imported"] == []
    assert out["linalg"]
    # the warm-up curve w^2 = z and a seeded random recipe, both certified
    # without loading the assignment solver
    assert out["overall"] == ["pass", "pass"]
    assert out["after"] == []


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
