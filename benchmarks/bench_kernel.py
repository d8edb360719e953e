"""Kernel hot-path microbenchmark — the bare event loop in events/sec.

Timeout-ping processes driving only :class:`repro.sim.core.Environment`,
no protocol stack, isolate the event-loop cost itself; the numbers go to
``BENCH_kernel.json`` at the repo root.  End-to-end host time on real
scenarios (``relay_steady``, ``burst_5000`` — Fig. 12) is measured by
the repo benchmark in ``perf/``, with calibration and a host
fingerprint; the scenarios' event counts and report hashes are held
fixed by ``python -m repro check replay``.

Timing methodology: a warmup run first (so allocator arenas are
steady-state), then ``REPS`` measured repetitions; the artifact records
the median.  The ``accounting`` section is fully deterministic — the
microbench's event count — and is what ``tests/test_bench_kernel.py``
re-derives.  The ``timing`` section is honest measurement, stamped with
the CPU count and Python version it was taken on, and excluded from any
byte-stability claim.
"""

from __future__ import annotations

import json
import os
import platform
import statistics

from repro.parallel import hostclock
from repro.sim.core import Environment

ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_kernel.json",
)

MICRO_PROCESSES = 200
MICRO_HORIZON = 500.0
REPS = 5


def _ping(env: Environment, horizon: float):
    while env.now < horizon:
        yield env.timeout(1.0)


def run_kernel_microbench() -> tuple[int, float]:
    """(events processed, wall seconds) for the bare event loop."""
    env = Environment()
    pingers = [
        env.process(_ping(env, MICRO_HORIZON)) for _ in range(MICRO_PROCESSES)
    ]
    start = hostclock.now()
    env.run(until=MICRO_HORIZON)
    wall = hostclock.elapsed_since(start)
    assert all(p.processed for p in pingers)
    return env.events_processed, wall


def run_bench() -> dict:
    # The microbench times itself (wall covers only env.run, not setup).
    run_kernel_microbench()  # warmup
    runs = [run_kernel_microbench() for _ in range(REPS)]
    events = runs[0][0]
    median = statistics.median(wall for _events, wall in runs)
    return {
        "accounting": {"microbench_events": events},
        "timing": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "microbench": {
                "processes": MICRO_PROCESSES,
                "horizon": MICRO_HORIZON,
                "reps": REPS,
                "median_wall_seconds": median,
                "events_per_second": events / median,
            },
        },
    }


def test_kernel_bench(benchmark):
    result = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    micro = result["timing"]["microbench"]
    events = result["accounting"]["microbench_events"]
    print(
        f"\nKernel benchmark:\n"
        f"  microbench : {micro['events_per_second']:,.0f} ev/s "
        f"({events} events)"
    )

    with open(ARTIFACT, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"  numbers written to {ARTIFACT}")
