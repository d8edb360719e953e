"""Fleet benchmark accounting — deterministic and pinned.

The ``grid`` and ``leader_crash`` sections of ``BENCH_fleet.json`` are a
pure function of the simulation; these tests re-derive representative
points and diff them against the committed artifact, then assert the
Fig. 9 acceptance envelope on the artifact itself — so a behaviour
change that shifts the redundancy or failover numbers fails tier-1
until the artifact is regenerated (``pytest benchmarks/bench_fleet.py``).
"""

import json
from pathlib import Path

import pytest

from benchmarks.bench_fleet import (
    ARTIFACT,
    FLEET_SIZES,
    POLICIES,
    SEED,
    TRANSFERS,
    _cell,
    fleet_config,
    leader_crash_config,
)
from repro.framework import run_experiment

REPO_ROOT = Path(__file__).parent.parent


def _artifact() -> dict:
    path = Path(ARTIFACT)
    assert path.is_file(), (
        "BENCH_fleet.json must be committed; regenerate with "
        "`pytest benchmarks/bench_fleet.py`"
    )
    return json.loads(path.read_text())


def test_artifact_lives_at_repo_root():
    assert Path(ARTIFACT) == REPO_ROOT / "BENCH_fleet.json"


def test_artifact_covers_the_full_grid():
    document = _artifact()
    assert document["workload"] == {
        "transfers": TRANSFERS,
        "submission_blocks": 1,
        "seed": SEED,
    }
    for policy in POLICIES:
        for count in FLEET_SIZES:
            assert str(count) in document["grid"][policy], (policy, count)


@pytest.mark.parametrize(
    "policy,count", [("none", 2), ("shard", 2), ("leader", 2)]
)
def test_grid_accounting_matches_a_fresh_run(policy, count):
    """The committed cells replay exactly (the runs are deterministic,
    simulated time and therefore goodput included)."""
    report = run_experiment(fleet_config(policy, count))
    assert _cell(report) == _artifact()["grid"][policy][str(count)]


def test_leader_crash_accounting_matches_a_fresh_run():
    report = run_experiment(leader_crash_config())
    (row,) = report.fleet
    leader = row.leader
    pinned = _artifact()["leader_crash"]
    assert pinned == {
        "completed": report.window.completion.as_fractions()["completed"],
        "handoff_count": leader.handoff_count,
        "recovery_seconds": leader.recovery_seconds,
        "redundant_errors": row.redundant_errors,
    }


def test_artifact_meets_the_fig9_envelope():
    """The acceptance bounds: ~2x redundant work uncoordinated at K=2,
    zero redundancy under coordination, and the paper's throughput story
    (naive scaling hurts, sharding scales)."""
    document = _artifact()
    grid = document["grid"]

    ratio = grid["none"]["2"]["redundant_ratio"]
    assert 1.6 <= ratio <= 2.4, f"K=2 uncoordinated redundancy {ratio}"
    for policy in ("shard", "leader"):
        for count in FLEET_SIZES:
            cell = grid[policy][str(count)]
            assert cell["redundant_errors"] == 0, (policy, count)
            assert cell["redundant_ratio"] == 1.0, (policy, count)
            assert cell["completed"] == 1.0, (policy, count)

    assert grid["none"]["2"]["goodput_tfps"] < grid["none"]["1"]["goodput_tfps"]
    assert grid["none"]["4"]["goodput_tfps"] <= grid["none"]["2"]["goodput_tfps"]
    assert grid["shard"]["2"]["goodput_tfps"] > grid["none"]["1"]["goodput_tfps"]

    crash = document["leader_crash"]
    assert crash["completed"] == 1.0
    assert crash["handoff_count"] >= 1
    assert crash["recovery_seconds"] > 0
