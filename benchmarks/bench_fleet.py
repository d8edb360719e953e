"""Fleet coordination benchmark — goodput vs redundancy for K relayers.

Reproduces the shape of the paper's Fig. 9 (two uncoordinated Hermes
instances on one channel do ~2x the work and *lower* throughput) and
extends it along two axes the paper discusses but ICS-18 does not
specify: fleet size K in {1, 2, 4} and the coordination policy
(``none`` / ``shard`` / ``leader``, see :mod:`repro.relayer.fleet`).
One extra point crashes the leader's host mid-run and records the
failover: handoff count, measured recovery latency, and completion.

Everything under the artifact's ``grid`` and ``leader_crash`` keys is a
pure function of the simulation (the runs are deterministic, including
simulated time and therefore goodput); ``tests/test_bench_fleet.py``
re-derives a subset and diffs it against the committed
``BENCH_fleet.json``.  Only ``timing`` varies between hosts.
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import run_batch, run_cached
from repro.analysis import format_table
from repro.faults import FaultSchedule, NodeCrash
from repro.framework import ExperimentConfig, FleetConfig
from repro.parallel import hostclock

ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_fleet.json",
)

POLICIES = ("none", "shard", "leader")
FLEET_SIZES = (1, 2, 4)

#: Big enough to saturate the relay path (cf. Fig. 12's megabatch): the
#: redundant submissions of an uncoordinated fleet then genuinely delay
#: completion, reproducing Fig. 9's throughput *drop* at K=2.
TRANSFERS = 600
SUBMISSION_BLOCKS = 1
SEED = 17


def fleet_config(policy: str, count: int) -> ExperimentConfig:
    """A fixed-total run-to-completion point: goodput is completion speed."""
    return ExperimentConfig(
        input_rate=0.0,
        total_transfers=TRANSFERS,
        submission_blocks=SUBMISSION_BLOCKS,
        measurement_blocks=6,
        num_relayers=count,
        run_to_completion=True,
        relayer=FleetConfig(policy=policy),
        seed=SEED,
    )


def leader_crash_config() -> ExperimentConfig:
    """K=2 leader fleet whose leader host dies mid-relay (cf. the
    ``fleet`` schedcheck scenario): measures failover, not steady state."""
    return ExperimentConfig(
        input_rate=0.0,
        total_transfers=TRANSFERS,
        submission_blocks=SUBMISSION_BLOCKS,
        measurement_blocks=6,
        num_relayers=2,
        run_to_completion=True,
        clear_interval=2,
        relayer=FleetConfig(policy="leader", rpc_retry_attempts=3),
        faults=FaultSchedule((NodeCrash("machine-0", at=8.0, duration=30.0),)),
        seed=SEED,
    )


def _cell(report) -> dict:
    """The deterministic accounting for one grid point's fleet row."""
    (row,) = report.fleet
    return {
        "delivered": row.delivered,
        "recv_attempts": row.recv_attempts,
        "redundant_ratio": row.redundant_ratio,
        "redundant_errors": row.redundant_errors,
        "failed_txs": row.failed_txs,
        "goodput_tfps": row.goodput_tfps,
        "completed": report.window.completion.as_fractions()["completed"],
    }


def run_grid() -> dict:
    configs = [
        fleet_config(policy, count)
        for policy in POLICIES
        for count in FLEET_SIZES
    ] + [leader_crash_config()]
    start = hostclock.now()
    run_batch(configs)
    wall = hostclock.elapsed_since(start)

    grid = {
        policy: {
            str(count): _cell(run_cached(fleet_config(policy, count)))
            for count in FLEET_SIZES
        }
        for policy in POLICIES
    }

    crash_report = run_cached(leader_crash_config())
    (crash_row,) = crash_report.fleet
    leader = crash_row.leader
    leader_crash = {
        "completed": crash_report.window.completion.as_fractions()["completed"],
        "handoff_count": leader.handoff_count,
        "recovery_seconds": leader.recovery_seconds,
        "redundant_errors": crash_row.redundant_errors,
    }

    return {
        "workload": {
            "transfers": TRANSFERS,
            "submission_blocks": SUBMISSION_BLOCKS,
            "seed": SEED,
        },
        "grid": grid,
        "leader_crash": leader_crash,
        "timing": {"sweep_wall_seconds": wall, "points": len(configs)},
    }


def test_fleet_bench(benchmark):
    result = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    grid = result["grid"]

    rows = [
        (
            policy,
            f"K={count}",
            cell["delivered"],
            f"{cell['redundant_ratio']:.2f}x",
            cell["redundant_errors"],
            f"{cell['goodput_tfps']:.2f}",
        )
        for policy in POLICIES
        for count, cell in sorted(grid[policy].items(), key=lambda kv: int(kv[0]))
    ]
    print(f"\nFleet coordination — {TRANSFERS} transfers to completion")
    print(
        format_table(
            ["policy", "fleet", "delivered", "redundancy", "errors", "goodput"],
            rows,
        )
    )
    crash = result["leader_crash"]
    print(
        f"leader crash: {crash['completed'] * 100:.0f}% completed, "
        f"{crash['handoff_count']} handoff(s), "
        f"recovery {crash['recovery_seconds']:.1f}s"
    )

    # Fig. 9's finding: the uncoordinated pair does ~2x the work...
    assert 1.6 <= grid["none"]["2"]["redundant_ratio"] <= 2.4
    # ...and coordination removes the waste entirely.
    for policy in ("shard", "leader"):
        for count in FLEET_SIZES:
            cell = grid[policy][str(count)]
            assert cell["redundant_errors"] == 0, (policy, count)
            assert cell["redundant_ratio"] == 1.0, (policy, count)
    # Fig. 9's headline: naive scaling *lowers* goodput; sharding scales.
    assert grid["none"]["2"]["goodput_tfps"] < grid["none"]["1"]["goodput_tfps"]
    assert grid["shard"]["2"]["goodput_tfps"] > grid["none"]["1"]["goodput_tfps"]
    # The failover point: the fleet survives its leader's death.
    assert crash["completed"] == 1.0
    assert crash["handoff_count"] >= 1
    assert crash["recovery_seconds"] > 0

    with open(ARTIFACT, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"numbers written to {ARTIFACT}")
