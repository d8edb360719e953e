"""Parallel executor — serial vs parallel wall-clock on a standard sweep.

Runs the ``python -m repro bench`` 8-point input-rate grid three ways —
serially, across 4 worker processes, and from a warm on-disk cache — and
records the wall-clocks in ``BENCH_parallel_sweep.json`` at the repo
root.  Correctness (merged documents byte-identical across all three) is
asserted unconditionally; the speedup is recorded and asserted only on
machines with at least one core per worker — on fewer cores the ratio
measures spawn overhead, not parallelism, and the artifact says ``null``.
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.parallel import bench_configs, run_points

POINTS = 8
WORKERS = 4
BLOCKS = 3
ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_parallel_sweep.json",
)


def run_comparison():
    cpu_count = os.cpu_count() or 1
    configs = bench_configs(POINTS, measurement_blocks=BLOCKS)

    serial = run_points(configs, workers=1)
    parallel = run_points(configs, workers=WORKERS)

    with tempfile.TemporaryDirectory() as cache_dir:
        cold = run_points(configs, workers=WORKERS, cache_dir=cache_dir)
        warm = run_points(configs, workers=WORKERS, cache_dir=cache_dir)

    return {
        "points": POINTS,
        "workers": WORKERS,
        "measurement_blocks": BLOCKS,
        "cpu_count": cpu_count,
        "serial_seconds": serial.wall_seconds,
        "parallel_seconds": parallel.wall_seconds,
        "speedup": (
            serial.wall_seconds / max(1e-9, parallel.wall_seconds)
            if cpu_count >= WORKERS
            else None
        ),
        "warm_cache_seconds": warm.wall_seconds,
        "warm_cache_hits": warm.cache_hits.value,
        "merged_bytes_identical": (
            serial.merged_json() == parallel.merged_json()
            == cold.merged_json() == warm.merged_json()
        ),
    }


def test_parallel_sweep(benchmark):
    result = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    speedup = result["speedup"]
    ratio = "too few cores for a speedup" if speedup is None else f"{speedup:.2f}x"
    print(
        f"\nParallel sweep — {result['points']} points, "
        f"{result['workers']} workers on {result['cpu_count']} CPU(s):\n"
        f"  serial   : {result['serial_seconds']:.2f}s\n"
        f"  parallel : {result['parallel_seconds']:.2f}s "
        f"({ratio})\n"
        f"  warm     : {result['warm_cache_seconds']:.2f}s "
        f"({result['warm_cache_hits']} cache hits)"
    )

    # Correctness holds on any machine: worker count and cache state must
    # never change a byte of the merged document.
    assert result["merged_bytes_identical"]
    assert result["warm_cache_hits"] == result["points"]

    # The speedup claim needs cores to be physically available.
    if speedup is not None:
        assert speedup >= 2.5, (
            f"8-point sweep with {result['workers']} workers only "
            f"{speedup:.2f}x faster than serial"
        )

    with open(ARTIFACT, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"  wall-clock numbers written to {ARTIFACT}")
