"""Million-user workload benchmark — memory and wall-clock ramp.

Runs the generated-workload engine at population scales 1 k → 1 M and
writes ``BENCH_workload.json`` at the repo root.  Each scale runs in a
fresh subprocess so ``ru_maxrss`` (a process-lifetime high-water mark)
measures that scale alone:

* **memory** — peak RSS after the run minus the post-import baseline,
  divided by the population.  Only the 1 M row is meaningful per-account
  (the fixed simulation overhead dominates small scales); the artifact
  records all four for the curve.
* **timing** — whole-run wall seconds, genesis included: reserving a
  million-account slot block is array fills, so the run costs what its
  few hundred active senders cost at any population.

The ``accounting`` section is fully deterministic — per-scale simulation
event counts and submission tallies — and is what
``tests/test_bench_workload.py`` re-derives on every tier-1 run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.framework import ExperimentConfig, WorkloadSpec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACT = os.path.join(REPO_ROOT, "BENCH_workload.json")

#: The population ramp.  1 M is the headline scale: the array-backed
#: account state must keep it to a few dozen bytes per account where one
#: object per account would cost a kilobyte or more.
SCALES = (1_000, 10_000, 100_000, 1_000_000)

#: Ceiling for the 1 M row's marginal memory (bytes per account).  The
#: measured figure is ~35-50 (40 by construction): four int64 column
#: slots (auth number and sequence, two bank denoms) + the 8-byte
#: cumulative-weight entry.  No string and no interner entry: an account
#: nobody names has no address.
MAX_BYTES_PER_ACCOUNT = 100


def ramp_config(population: int) -> ExperimentConfig:
    """One engine-mode scenario, identical at every scale but population."""
    return ExperimentConfig(
        input_rate=20,
        measurement_blocks=3,
        seed=7,
        workload=WorkloadSpec(population=population),
    )


def measure_scale(population: int) -> dict:
    """Run one scale in *this* process and return its measurements.

    Call through :func:`measure_scale_subprocess` when measuring several
    scales: ``ru_maxrss`` never goes down, so in-process back-to-back
    runs would inherit the largest predecessor's peak.
    """
    import resource

    from repro.framework.runner import _ExperimentEngine, _reset_run_caches
    from repro.parallel import hostclock

    baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    config = ramp_config(population)
    _reset_run_caches()
    start = hostclock.now()
    engine = _ExperimentEngine(config)
    report = engine.run()
    wall = hostclock.elapsed_since(start)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    events = engine.testbed.env.events_processed
    stats = report.workload
    return {
        "population": population,
        "accounting": {
            "events": events,
            "requested": stats.requested_transfers,
            "accepted": stats.accepted_transfers,
            "committed": stats.committed_transfers,
            "deferred": stats.deferred_transfers,
        },
        "memory": {
            "baseline_rss_kb": baseline_kb,
            "peak_rss_kb": peak_kb,
            "bytes_per_account": (peak_kb - baseline_kb) * 1024 / population,
        },
        "timing": {"wall_seconds": wall},
    }


def measure_scale_subprocess(population: int) -> dict:
    """Run :func:`measure_scale` in a fresh interpreter for a clean RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.bench_workload", str(population)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def run_bench() -> dict:
    rows = [measure_scale_subprocess(population) for population in SCALES]
    return {
        "accounting": {
            str(row["population"]): row["accounting"] for row in rows
        },
        "memory": {str(row["population"]): row["memory"] for row in rows},
        "timing": {str(row["population"]): row["timing"] for row in rows},
    }


def test_workload_bench(benchmark):
    result = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    print("\nMillion-user workload ramp:")
    for population in SCALES:
        key = str(population)
        memory = result["memory"][key]
        timing = result["timing"][key]
        accounting = result["accounting"][key]
        print(
            f"  {population:>9,} accounts: "
            f"{memory['bytes_per_account']:7.1f} B/account, "
            f"{timing['wall_seconds']:6.2f} s wall, "
            f"{accounting['committed']} committed"
        )

    top = result["memory"][str(SCALES[-1])]
    assert top["bytes_per_account"] < MAX_BYTES_PER_ACCOUNT, (
        f"1M-account marginal memory {top['bytes_per_account']:.0f} B/account "
        f"exceeds the {MAX_BYTES_PER_ACCOUNT} B ceiling"
    )
    for population in SCALES:
        assert result["accounting"][str(population)]["committed"] > 0

    with open(ARTIFACT, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"  numbers written to {ARTIFACT}")


if __name__ == "__main__":
    print(json.dumps(measure_scale(int(sys.argv[1]))))
