"""Every random draw in the library sits where a report can name its seed:
the recipe and test-polynomial draws of ``instances``.  The joint spectra,
the co-extension, the symbol construction and every check are
deterministic."""

import ast
import hashlib
import json
from pathlib import Path

import pytest

import distvar as dv

ALLOWED = {("instances.py", None)}


def _is_draw(node):
    """``default_rng``, ``np.random.<...>`` or ``<...>.rvs``."""
    if isinstance(node, ast.Name):
        return node.id == "default_rng"
    if isinstance(node, ast.Attribute):
        return node.attr in ("default_rng", "rvs") or (
            node.attr == "random" and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy"))
    return False


def _draws(node, function=None):
    """(enclosing top-level function or None, line) of every draw under node."""
    for child in ast.iter_child_nodes(node):
        inner = function
        if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        if _is_draw(child):
            yield inner, child.lineno
        yield from _draws(child, inner)


def _all_draws():
    for path in sorted(Path(dv.__file__).parent.glob("*.py")):
        for function, line in _draws(ast.parse(path.read_text(), str(path))):
            yield path.name, function, line


def test_random_draws_sit_in_instances():
    draws = set(_all_draws())
    bad = sorted(f"{name}:{line}:{function}" for name, function, line in draws
                 if (name, None) not in ALLOWED and (name, function) not in ALLOWED)
    assert bad == []
    # the scan sees the draws it allows, so an empty list above is not vacuous
    assert any(name == "instances.py" for name, _, _ in draws)


def test_the_scan_sees_a_draw_in_a_function():
    src = "import numpy as np\ndef f():\n    return np.random.default_rng(0)\n"
    assert [(function, line) for function, line in _draws(ast.parse(src))] == [
        ("f", 3), ("f", 3)]


def test_haar_unitary_reproduces_scipys_draw():
    from scipy.stats import unitary_group

    from distvar.instances import _haar_unitary

    for n in range(1, 7):
        for seed in (0, 1, 17, 2 ** 31 - 1, *range(1000 * n, 1000 * n + 40)):
            u = _haar_unitary(n, seed)
            assert u.tobytes() == unitary_group.rvs(n, random_state=seed).tobytes()


# sha256 of the JSON of random_recipe(s, repeated=...) for seeds 0-99, one
# spec a line.  The draws' acceptance rules read fibers and symbol checks, so
# a change to the eigenvalue or evaluation layers that re-drew a recipe, and
# with it every seeded sweep and benchmark pool, changes these digests
RECIPE_DIGESTS = {
    False: "26db3321326af429233e9359c4b44fc20e1bc257440ddb0d911f3baaf77a7dd3",
    True: "5474c93e4fba956d1a02881b8b541dffd34db4623a82e837821c74928e1cea8f",
}


@pytest.mark.parametrize("repeated", [False, True])
def test_random_recipes_are_pinned(repeated):
    digest = hashlib.sha256()
    for seed in range(100):
        spec = dv.random_recipe(seed, repeated=repeated)
        line = json.dumps({"theta_zeros": spec.theta_zeros, "psi": spec.psi_spec,
                           "seed": spec.seed},
                          default=lambda c: [c.real, c.imag], sort_keys=True)
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == RECIPE_DIGESTS[repeated]
