"""Every benchmark workload must still run on the library.

``perfbench/`` is not collected here, and the benchmark counts an op that
raises as a failed op, not as a test failure.  So a library change that
breaks a call the workloads make (a keyword of ``InstanceSpec`` or of
``construct_psi``, say) would otherwise surface only in a benchmark run.
"""

import importlib.util
import pathlib

import pytest

import distvar as dv

WORKLOADS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WL = _load_workloads()


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_workload_ops_run_without_error(name):
    wl = WL.WORKLOADS[name]
    items = WL.make_pool(dv, wl, 0, size=1) + [WL.warmup_item(dv, wl)]
    statuses = [WL.run_op(dv, item).status for item in items]
    assert [s for s in statuses if s.startswith("error:")] == [], statuses
