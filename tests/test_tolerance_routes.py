"""Every threshold reaches its check through the Tolerances table, passed as
``tol``: no parameter carries a single tolerance, every ``tol`` parameter
defaults to the table DEFAULT, and a function given a validated pair reads
the pair's own table."""

import ast
from dataclasses import fields
from pathlib import Path

import distvar as dv

FIELDS = {f.name for f in fields(dv.Tolerances)}


def _modules():
    """(file name, parsed tree) of each module of src/distvar."""
    for path in sorted(Path(dv.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def _parameters():
    """(function, parameter name, default expression or None) over src/distvar."""
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            where = f"{name}:{node.lineno}:{getattr(node, 'name', 'lambda')}"
            for arg, default in zip(positional + args.kwonlyargs,
                                    defaults + args.kw_defaults):
                yield where, arg.arg, default


def test_no_parameter_is_named_after_a_tolerance():
    assert [(w, name) for w, name, _ in _parameters() if name in FIELDS] == []


def test_every_tol_parameter_defaults_to_the_table():
    bad = [w for w, name, default in _parameters()
           if name == "tol" and default is not None
           and not (isinstance(default, ast.Name) and default.id == "DEFAULT")]
    assert bad == []


def test_every_field_is_read_by_a_check():
    # a field that no ``tol.<field>`` reads is an override that moves nothing
    read = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "tol"):
                read.add(node.attr)
    assert sorted(FIELDS - read) == []


def test_no_function_given_a_pair_takes_a_second_table():
    # a pair, bundle or instance carries the table its pair was validated
    # with, so a separate ``tol`` could only disagree with it
    params = list(_parameters())
    owners = {w for w, name, _ in params if name in ("pair", "bundle", "instance")}
    assert sorted(owners & {w for w, name, _ in params if name == "tol"}) == []


def test_no_module_keeps_a_function_cache():
    # derived data lives on the object it is derived from, not in a cache
    # keyed on array bytes or object identity
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [(name, a.name) for a in node.names if a.name in ("cache", "lru_cache")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append((name, node.attr))
    assert found == []
