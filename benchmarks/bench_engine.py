"""Engine hot-path benchmarks: event throughput and the tracer fast path.

Not a paper table — these price the substrate the experiments run on
(the end-to-end number lives in ``benchmarks/e2e``):

* ``test_event_throughput`` — engine-level self-rescheduling tick chain
  (the PR 2 baseline workload).
* ``test_trace_emit_20k`` — Tracer.emit with retention on vs the
  zero-allocation drop path (keep=False, no matching subscriber).
  ``bench_to_json.py --suite engine`` derives ``trace_drop_path_speedup``
  from this pair.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


@pytest.mark.benchmark(group="engine")
def test_event_throughput(benchmark):
    def run():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count

    assert benchmark(run) == 20_000


@pytest.mark.benchmark(group="engine")
@pytest.mark.parametrize("path", ["keep", "drop"])
def test_trace_emit_20k(benchmark, path):
    # One subscriber that never matches the emitted category: the drop
    # path must return before the TraceRecord is built, the keep path
    # retains every record.
    tracer = Tracer(keep=(path == "keep"))
    tracer.subscribe("app.", lambda record: None)

    def run():
        emit = tracer.emit
        for i in range(20_000):
            emit(
                0.001 * i,
                "mac.tx",
                node=1,
                packet_uid=i,
                packet_kind="data",
                dst=7,
                broadcast=True,
            )
        count = len(tracer)
        tracer.clear()
        return count

    assert benchmark(run) == (20_000 if path == "keep" else 0)
