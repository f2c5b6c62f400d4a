"""The benchmark's call tracer must still find every function it wraps.

``perfbench/`` is not collected here, so a renamed or deleted traced
function would otherwise surface only in a traced benchmark run.
"""

import importlib.util
import pathlib
import sys

import distvar as dv

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_distvar():
    tracer_mod = _load_tracer()
    modules = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "distvar"]
    before = dv.dilation.construct_psi
    tracer = tracer_mod.Tracer()
    tracer.install(dv, modules)
    try:
        assert len(tracer._patches) >= len(tracer_mod.TARGETS)
        assert dv.construct_psi is not before
        assert dv.dilation.construct_psi is not before
    finally:
        tracer.uninstall()
    assert dv.construct_psi is before
    assert dv.dilation.construct_psi is before
