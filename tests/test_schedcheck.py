"""Tests for repro.lint.schedcheck, the dynamic scheduler-race sanitizer.

The toy scenarios below distill the race class schedcheck exists to
catch: two processes wake at the same instant and draw from one *shared
sequential* RNG stream, so the event-heap tie-break decides who gets
which draw.  Reversing the tie-break (fifo vs lifo) swaps the draws —
a divergence.  The keyed variant makes the same draws order-independent
(a :class:`~repro.sim.rng.KeyedStream` is a pure function of time and
salt), so it must come out clean.
"""

import json
import zlib

import pytest

from repro.lint import scenarios
from repro.lint.schedcheck import (
    Divergence,
    RunArtifacts,
    SchedcheckResult,
    check,
    check_config,
    compare_runs,
)
from repro.sim import Environment, RngRegistry


# ----------------------------------------------------------------------
# Toy scenarios
# ----------------------------------------------------------------------


def _toy_artifacts(values):
    report = json.dumps(values, sort_keys=True)
    journal = "\n".join(f"0.0|{k}|{v!r}" for k, v in sorted(values.items()))
    return RunArtifacts(report=report, journal=journal)


def _racy_toy(tiebreak):
    """Two same-instant processes share one sequential stream.

    Each worker draws when its start event pops, so the tie-break decides
    which worker consumes the stream's first value.
    """
    env = Environment(tiebreak=tiebreak)
    stream = RngRegistry(11).stream("toy/shared")
    values = {}

    def worker(name):
        values[name] = stream.random()
        yield env.timeout(1.0)

    worker_a = env.process(worker("a"), name="toy/a")
    worker_b = env.process(worker("b"), name="toy/b")
    env.run()
    assert worker_a.processed and worker_b.processed
    return _toy_artifacts(values)


def _keyed_toy(tiebreak):
    """Same shape, but the draws are keyed by (time, salt): no race."""
    env = Environment(tiebreak=tiebreak)
    stream = RngRegistry(11).keyed("toy/shared")
    values = {}

    def worker(name):
        values[name] = stream.u01(env.now, salt=zlib.crc32(name.encode()))
        yield env.timeout(1.0)

    worker_a = env.process(worker("a"), name="toy/a")
    worker_b = env.process(worker("b"), name="toy/b")
    env.run()
    assert worker_a.processed and worker_b.processed
    return _toy_artifacts(values)


def test_order_sensitive_toy_scenario_is_flagged():
    result = check("racy-toy", _racy_toy)
    assert not result.clean
    kinds = {d.kind for d in result.divergences}
    assert kinds == {"report", "journal"}
    assert "RACE" in result.summary()
    assert "racy-toy" in result.summary()


def test_keyed_toy_scenario_is_clean():
    result = check("keyed-toy", _keyed_toy)
    assert result.clean, result.summary()
    assert "OK" in result.summary()


# ----------------------------------------------------------------------
# Comparison semantics
# ----------------------------------------------------------------------


def test_identical_artifacts_are_clean():
    run = RunArtifacts(report='{"x": 1}', journal="1.0|a\n2.0|b")
    assert compare_runs("s", run, run).clean


def test_report_divergence_names_the_json_path():
    fifo = RunArtifacts(report='{"x": 1, "y": {"z": 2}}', journal="")
    lifo = RunArtifacts(report='{"x": 1, "y": {"z": 3}}', journal="")
    result = compare_runs("s", fifo, lifo)
    (div,) = result.divergences
    assert div.kind == "report"
    assert "$.y.z" in div.detail


def test_journal_same_time_reordering_is_not_a_divergence():
    fifo = RunArtifacts(report="{}", journal="1.0|a\n1.0|b")
    lifo = RunArtifacts(report="{}", journal="1.0|b\n1.0|a")
    assert compare_runs("s", fifo, lifo).clean


def test_journal_content_change_is_a_divergence():
    fifo = RunArtifacts(report="{}", journal="1.0|a|0.25")
    lifo = RunArtifacts(report="{}", journal="1.0|a|0.75")
    result = compare_runs("s", fifo, lifo)
    kinds = {d.kind for d in result.divergences}
    assert kinds == {"journal"}
    details = " ".join(d.detail for d in result.divergences)
    assert "only in fifo run" in details and "only in lifo run" in details


def test_summary_points_at_the_design_walkthrough():
    result = SchedcheckResult("s", [Divergence("report", "$.x: 1 != 2")])
    assert "DESIGN.md" in result.summary()


def test_unknown_scenario_raises():
    with pytest.raises(ValueError, match="unknown scenario 'nope'.*golden"):
        scenarios.lookup("nope")


# ----------------------------------------------------------------------
# Experiment-backed runs (tests/test_check.py gates the whole matrix)
# ----------------------------------------------------------------------


def test_golden_scenario_has_no_scheduling_race():
    """``check_config`` varies only the tie-break of the config it is
    handed, and leaves that config as it was."""
    config = scenarios.lookup("golden").build(7)
    result = check_config("golden", config)
    assert result.clean, result.summary()
    assert result.scenario == "golden"
    assert config.tiebreak == "fifo"


def test_scenario_registry_names():
    assert {name for _check, name in scenarios.matrix(["sched"])} == {
        "golden", "golden-faults", "fleet", "timeouts", "line3", "hub4", "skewed"
    }
