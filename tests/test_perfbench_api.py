"""Guard of the benchmark's calls into the package.

Runs one toy pass of every workload in perfbench/workloads.py in-process and
checks that no op raises.  Numeric check failures at toy size are allowed:
the toy grids are far too coarse for the benchmark's tolerances.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cauchygap import semigroup
from cauchygap.measures import MeasureParams

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_toy_pass_raises_nothing_unexpected(name):
    w = workloads.WORKLOADS[name](0, toy=True)
    w.warm_up()
    rec = workloads.Recorder()
    w.run_pass(rec, 0)
    assert rec.records
    assert {r.label: r.error for r in rec.records if r.error} == {}
    w.metrics(rec, 1.0)


def test_heat_flow_deficit_set_passes_at_full_size():
    # the deficit set has no grid for the toy pass to coarsen, so its checks
    # hold as the benchmark runs them: a sign flip in any deficit would show
    # as a failed op in heat_flow
    heat = workloads.HeatFlow
    failed = []
    for s in range(4):
        for label, (n, beta), make, sign in heat._deficit_set(s):
            value = semigroup.deficit(make(), MeasureParams(n, beta), label.split()[0])
            if not heat.check_deficit(value, sign)[0]:
                failed.append((s, label, value))
    assert failed == []
