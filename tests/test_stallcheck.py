"""Liveness sanitizer: toy detections and the pin-diff semantics.

The toy tests pin each detector's behaviour on a purpose-built stall;
the budget tests pin how a monitored run is diffed against a ``stall``
pin.  The enforcement point — every gated scenario run under the
:class:`StallMonitor`, torn down and diffed against the committed
``SCENARIO_PINS.json`` — is the matrix gate in ``tests/test_check.py``.
"""
# repro-lint: disable-file=R003 -- clean toys hand their processes to env.run()

import importlib.util
import json
from pathlib import Path

import pytest

from repro.framework import ExperimentConfig
from repro.lint import check, scenarios
from repro.lint.check import DEFAULT_PINS_PATH, UNBUDGETED_FLOOR, compare_stall
from repro.lint.stallcheck import (
    StallcheckResult,
    StallMonitor,
    check_toy,
    run_monitored,
)
from repro.sim.core import SHUTDOWN, Condition, Environment, ProcessGroup
from repro.sim.resources import Store

REPO_ROOT = Path(__file__).parent.parent

# The stalling builders live in the fixture directory the clean-tree
# lint gate skips, loaded by path.
_TOYS_PATH = Path(__file__).parent / "lint_fixtures" / "stall_toys.py"
_spec = importlib.util.spec_from_file_location("stall_toys", _TOYS_PATH)
stall_toys = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stall_toys)


# ----------------------------------------------------------------------
# Toy detections: each detector pinned on a purpose-built stall
# ----------------------------------------------------------------------


def test_toy_clean_producer_consumer_is_clean():
    def build(env):
        queue = Store(env)

        def producer():
            for item in range(5):
                yield env.timeout(1.0)
                queue.put(item)

        def consumer():
            for _ in range(5):
                yield queue.get()

        env.process(producer(), name="producer")
        env.process(consumer(), name="consumer")

    result = check_toy("clean", build)
    assert result.clean, result.summary()
    assert result.live == 0
    assert "OK" in result.summary()


def test_toy_deadlock_dumps_the_wait_graph():
    """Classic opposite-order deadlock: the report must name both stuck
    processes, their suspension sites, and the resources they wait on."""
    result = check_toy("deadlock", stall_toys.build_deadlock)
    assert not result.clean
    assert result.live == 2
    assert any("deadlock" in v for v in result.violations)
    graph = "\n".join(result.wait_lines)
    assert "forward" in graph and "backward" in graph
    assert "Request on Resource@" in graph
    assert "stall_toys.py:" in graph  # suspension + creation sites
    # The held slots and queued requests also surface as residue.
    assert any("granted slot" in v for v in result.violations)
    assert any("ungranted request" in v for v in result.violations)
    assert "runtime wait graph" in result.summary()


def test_toy_livelock_raises_inside_step():
    result = check_toy(
        "livelock", stall_toys.build_livelock, livelock_threshold=50
    )
    assert not result.clean
    assert any("livelock" in v for v in result.violations)
    assert any("t=0.0" in v for v in result.violations)
    assert result.same_instant_max > 50


def test_toy_unreleased_request_is_residue():
    result = check_toy("leak", stall_toys.build_leak)
    assert not result.clean
    assert result.live == 0  # the process finished; only the slot leaked
    assert any("granted slot" in v for v in result.violations)


def test_toy_shutdown_interrupt_drains_a_group():
    """SHUTDOWN teardown is graceful: not a crash, nothing left alive."""

    def build(env):
        queue = Store(env)
        group = ProcessGroup(env)

        def service():
            while True:
                yield queue.get()

        group.spawn(service(), name="service")

        def killer():
            yield env.timeout(3.0)
            group.interrupt_all(SHUTDOWN)

        env.process(killer(), name="killer")

    result = check_toy("teardown", build)
    assert result.clean, result.summary()


def test_toy_group_left_owning_a_live_process_is_residue():
    """A group whose process still waits at teardown is reported by name;
    its finished siblings have left the group and are not."""
    owners = []  # the component that owns the group outlives the build

    def build(env):
        group = ProcessGroup(env)
        owners.append(group)
        never = env.event()

        def stuck():
            yield never

        def quick():
            yield env.timeout(1.0)

        group.spawn(quick(), name="quick")
        group.spawn(stuck(), name="stuck")
        group.spawn(quick(), name="quick-too")

    result = check_toy("group-residue", build)
    assert not result.clean
    (residue,) = [v for v in result.violations if "ProcessGroup@" in v]
    assert residue.endswith("still owns 1 live process(es): stuck")


def test_monitor_tracks_store_high_water():
    monitor = StallMonitor()
    with monitor.activate():
        env = Environment()
        store = Store(env)
        for item in range(4):
            store.put(item)
    # Keyed by file + function, so an edit above the creating line
    # cannot unpin the site.
    ((site, depth),) = monitor.high_water.items()
    assert depth == 4
    assert site.endswith(
        "tests/test_stallcheck.py:test_monitor_tracks_store_high_water"
    )


def test_nested_activation_is_rejected():
    monitor = StallMonitor()
    with monitor.activate():
        with pytest.raises(RuntimeError, match="already active"):
            with StallMonitor().activate():
                pass  # pragma: no cover


# ----------------------------------------------------------------------
# Pin diff semantics (no experiment run needed)
# ----------------------------------------------------------------------


def _diffed(high_water, pinned, events=2000) -> StallcheckResult:
    result = StallcheckResult(
        scenario="golden", events=2000, high_water=high_water
    )
    compare_stall(
        result, {"stall": {"events": events, "high_water": pinned}}, 0.25
    )
    return result


def test_within_budget_is_clean():
    assert _diffed({"repro/x.py:f": 10}, {"repro/x.py:f": 10}).clean


def test_budget_boundary_is_inclusive():
    """Exactly int(pinned * 1.25) + 2 still passes; one more fails."""
    # int(10 * 1.25) + 2 == 14
    assert _diffed({"repro/x.py:f": 14}, {"repro/x.py:f": 10}).clean
    over = _diffed({"repro/x.py:f": 15}, {"repro/x.py:f": 10})
    assert not over.clean
    assert "backlog regression" in over.violations[0]
    assert "= 14)" in over.violations[0]
    assert "STALL" in over.summary()


def test_unbudgeted_site_gated_only_past_floor():
    assert _diffed({"repro/new.py:f": UNBUDGETED_FLOOR}, {}).clean
    over = _diffed({"repro/new.py:f": UNBUDGETED_FLOOR + 1}, {})
    assert not over.clean
    assert "unbudgeted store" in over.violations[0]


def test_pinned_site_the_run_never_observed_is_a_stale_pin():
    """Regression: the old budget pinned ``websocket.py:119`` while the
    store was created at line 123, so the site silently fell back to the
    unbudgeted floor.  A pin nothing matched now fails."""
    stale = _diffed(
        {"repro/tendermint/websocket.py:subscribe": 0},
        {"repro/tendermint/websocket.py:119": 0},
    )
    assert not stale.clean
    assert any(
        "stale pin" in v and "websocket.py:119" in v for v in stale.violations
    )


def test_moved_event_count_is_a_violation():
    moved = _diffed({}, {}, events=1999)
    assert moved.violations == ["events 2000 != pinned 1999"]


def test_budget_document_merges_scenarios(tmp_path):
    """Re-pinning one cell leaves every other pin in the file as it was."""
    path = tmp_path / "pins.json"
    check.run(["stall"], ["golden"], pins_path=str(path), write_pins=True)
    before = json.loads(path.read_text())["scenarios"]["golden"]
    check.run(["replay"], ["line3"], pins_path=str(path), write_pins=True)
    after = json.loads(path.read_text())["scenarios"]
    assert set(after) == {"golden", "line3"}
    assert after["golden"] == before
    assert set(after["line3"]) == {"seed", "events", "report_sha256"}


def test_unknown_scenario_raises():
    with pytest.raises(ValueError, match="unknown scenario"):
        check.run(["stall"], ["no-such-scenario"])


def test_scenario_registry_names():
    assert {name for _check, name in scenarios.matrix(["stall"])} == {
        "golden", "golden-faults", "fleet", "timeouts", "line3", "hub4", "skewed"
    }


def test_default_budget_path_is_repo_root():
    assert DEFAULT_PINS_PATH == REPO_ROOT / "SCENARIO_PINS.json"
    assert DEFAULT_PINS_PATH.is_file(), (
        "SCENARIO_PINS.json must be committed; re-pin with "
        "`python -m repro check replay stall --write-pins`"
    )


# ----------------------------------------------------------------------
# Experiment-backed runs (tests/test_check.py gates the whole matrix)
# ----------------------------------------------------------------------


def test_stallcheck_gate_golden():
    """A monitored golden run tears down leak-free and reports its
    stores under the function-keyed sites the pin file names."""
    result = run_monitored("golden", scenarios.lookup("golden").build(7))
    assert result.clean, result.summary()
    assert result.live == 0
    assert sorted(result.high_water) == [
        "repro/relayer/worker.py:__init__",
        "repro/tendermint/websocket.py:subscribe",
    ]


def test_teardown_reaches_a_pull_in_flight(monkeypatch):
    """A run with no drain ends while a data pull is still waiting on
    its RPC.  Teardown must interrupt it: pulls are spawned through the
    worker's group.  No registry scenario ends mid-pull, so this is the
    only gate on that spawn — the twin run, with pulls started as bare
    ``env.process`` handles, proves a pull really is in flight."""
    config = ExperimentConfig(
        input_rate=140, measurement_blocks=3, drain_seconds=0, seed=7
    )
    clean = run_monitored("no-drain", config)
    assert clean.clean, clean.summary()

    owned_spawn = ProcessGroup.spawn

    def spawn(self, generator, name=""):
        if name.startswith("pull/"):
            return self.env.process(generator, name=name)
        return owned_spawn(self, generator, name)

    monkeypatch.setattr(ProcessGroup, "spawn", spawn)
    leaky = run_monitored("no-drain", config)
    assert any("process(es) alive" in v for v in leaky.violations), leaky.summary()
    assert any("pull/" in line for line in leaky.wait_lines)


def test_gate_fires_on_a_reference_cycle_in_the_loop(monkeypatch):
    """The cyclic collector is paused for a run, so a cycle per event is
    a leak: with the Condition detach disabled, every timed-out RPC of
    golden-faults leaves its AnyOf <-> response pair unreachable and the
    gate says what they are."""
    config = scenarios.lookup("golden-faults").build(7)
    clean = run_monitored("golden-faults", config)
    assert clean.clean and clean.cyclic_garbage == 0, clean.summary()

    monkeypatch.setattr(Condition, "_detach", lambda self: None)
    leaky = run_monitored("golden-faults", config)
    assert not leaky.clean
    assert leaky.cyclic_garbage > 0
    (violation,) = leaky.violations
    assert violation.startswith(f"cyclic garbage: {leaky.cyclic_garbage} object(s)")
    assert "AnyOf" in violation


def test_write_budget_pins_a_diffable_file(tmp_path):
    path = tmp_path / "pins.json"
    (pinned,) = check.run(
        ["stall"], ["golden"], pins_path=str(path), write_pins=True
    )
    document = json.loads(path.read_text())
    assert document["scenarios"]["golden"]["stall"] == {
        "events": pinned.events,
        "high_water": pinned.high_water,
    }

    (checked,) = check.run(["stall"], ["golden"], pins_path=str(path))
    assert checked.clean, checked.summary()
