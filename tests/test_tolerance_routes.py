"""Every threshold reaches its check through the Tolerances table, passed as
``tol``: no parameter carries a single tolerance, and every ``tol`` parameter
defaults to the table DEFAULT."""

import ast
from dataclasses import fields
from pathlib import Path

import distvar as dv

FIELDS = {f.name for f in fields(dv.Tolerances)}


def _parameters():
    """(function, parameter name, default expression or None) over src/distvar."""
    for path in sorted(Path(dv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            where = f"{path.name}:{node.lineno}:{getattr(node, 'name', 'lambda')}"
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
    for path in Path(dv.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "tol"):
                read.add(node.attr)
    assert sorted(FIELDS - read) == []
