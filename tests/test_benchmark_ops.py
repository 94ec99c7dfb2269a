"""Every op of the benchmark's four workloads runs once, in process, as
`perfbench/run.py` runs it: set-up first, then each op through
`Tracer.op`, with the op list of seed 101.  A renamed or reshaped
function that an op calls fails here, not only in a benchmark run.

The modules of `perfbench/` are imported as the benchmark imports them,
as top-level `run`, `workloads` and `layers`; no bytecode is written
there and the modules are dropped again afterwards."""

import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_MODULES = ("run", "workloads", "layers")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in _MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run
    import workloads

    yield run, workloads
    for name in _MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["orders", "classes", "modules", "bounds"])
def test_every_op_of_the_workload_runs(bench, name, monkeypatch):
    run, workloads = bench
    monkeypatch.delenv("SSP_MAX_ENUM", raising=False)
    workloads.setup(name)
    ops = workloads.OPS[name](random.Random(101))
    assert ops
    tracer = run.Tracer()
    for i, (op_name, fn) in enumerate(ops):
        tracer.op(i, op_name, fn)
