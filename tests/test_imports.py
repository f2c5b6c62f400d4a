"""Import hygiene of the library modules: no unused imported name, and a
light import path (``scipy.stats`` alone costs about half a second)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_importing_distvar_does_not_load_scipy_stats():
    src = str(Path(dv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, distvar; print('scipy.stats' in sys.modules, distvar.__file__)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, where = proc.stdout.split()
    assert loaded == "False"
    assert Path(where).resolve() == Path(dv.__file__).resolve()
