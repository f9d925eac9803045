"""The benchmark's stage-count contract, checked in-process: each
workload's set-up and one pass, run under the benchmark's tracer, must see
the stage counts ``bench/workloads.py`` fixes in ``STAGE_COUNTS``, as
``bench/run.py --trace 1`` requires.  So a change that stops an exporter
or a session from calling a traced function (``lat.covers()``, say) fails
here, and not only in the benchmark's own smoke run."""

import contextlib
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import tracing  # noqa: E402  (bench/)
import workloads  # noqa: E402  (bench/)


class Unscaled:
    """The benchmark gauge's interface with no host sampling: the stage
    counts do not read the clock."""

    clock = staticmethod(perf_counter)

    @contextlib.contextmanager
    def segment(self):
        yield SimpleNamespace(factor=1.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_pass_sees_the_fixed_stage_counts(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    given = workload.inputs(1, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = tracer.call("bench.setup", workload.set_up, given)
        tracer.call("bench.pass", workload.run_pass, state, tracer, Unscaled())
    finally:
        tracer.uninstall()
    seen = tracing.stage_counts(tracer.spans)
    want = workloads.STAGE_COUNTS[name]
    assert {stage: seen.get(stage, set()) for stage in want} == want
