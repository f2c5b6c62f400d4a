"""The demo scripts and the README library tour run against the current API."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from distvar.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs():
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", tour.split("\n## ", 1)[0], re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def _readme_command_lines():
    """The argument lists of the README "Command line" block, comments cut."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line.split("#", 1)[0]) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("command", ["demo", "--batch"])
def test_readme_command_line_runs(command, tmp_path, monkeypatch, capsys):
    # the lines run as written, with out/ pointed at a scratch directory
    argv = next(args[1:] for args in _readme_command_lines() if command in args)
    out = tmp_path / "out"
    monkeypatch.chdir(tmp_path)
    code = main([str(out) if a == "out/" else a for a in argv])
    printed = json.loads(capsys.readouterr().out)
    assert code != 2, printed
    if command == "demo":
        assert code == 0 and (out / printed["report"]).exists()
    else:
        assert printed["instances"] == int(argv[argv.index("--batch") + 1])
        assert (out / "summary.json").exists()
