"""The named, seeded configurations every gate re-runs — defined once.

The paper's framework earns its results by re-running a handful of
*named* parameter sets; this table is the reproduction's equivalent.
Each scenario maps a name to a ``seed -> ExperimentConfig`` factory and
the checks of :mod:`repro.lint.check` that gate it.  The sanitizers, the
determinism tests and CI all build their configs here; the values each
scenario is held to live in ``SCENARIO_PINS.json`` at the repo root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.faults import (
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
    RpcBrownout,
    WsDisconnect,
)
from repro.framework import (
    ExperimentConfig,
    FleetConfig,
    TopologySpec,
    WorkloadSpec,
)

#: Every check a scenario can be gated by, in the order the harness runs
#: them (see :data:`repro.lint.check.CHECKS` for what each one does).
CHECKS = ("replay", "sched", "alloc", "stall")


class SelectionError(ValueError):
    """An unknown check or scenario name, or a selection of no cell."""


class PinError(Exception):
    """A pin document is unusable or disagrees with the registry."""


@dataclass(frozen=True)
class Scenario:
    """One named configuration and the checks that gate it."""

    build: Callable[[int], ExperimentConfig]  #: seed -> config
    checks: tuple[str, ...]


def _golden(seed: int) -> ExperimentConfig:
    """One small two-chain transfer experiment: the golden run."""
    return ExperimentConfig(
        input_rate=20,
        measurement_blocks=4,
        seed=seed,
        drain_seconds=20.0,
    )


def _golden_faults(seed: int) -> ExperimentConfig:
    """The golden shape with recovery enabled under a schedule that
    exercises every fault kind inside the measurement window, against
    both testbed machines."""
    faults = FaultSchedule(
        (
            LinkDegradation(
                "machine-0", "machine-1",
                at=2.0, duration=15.0, latency=0.3, jitter=0.05,
            ),
            RpcBrownout("machine-0", at=4.0, duration=10.0, drop_probability=0.3),
            NodeCrash("machine-1", at=6.0, duration=12.0),
            WsDisconnect("machine-0", at=18.0),
        )
    )
    return ExperimentConfig(
        input_rate=10,
        measurement_blocks=3,
        seed=seed,
        drain_seconds=30.0,
        relayer=FleetConfig(rpc_retry_attempts=3),
        clear_interval=2,
        faults=faults,
    )


def _fleet(seed: int) -> ExperimentConfig:
    """Leader-policy fleet with a mid-run leader crash and failover.

    Two relayers on one edge under the ``leader`` policy; machine-0 (the
    leader's host) crashes after the fixed-total workload has finished
    submitting, so member 1 takes over, clears the pending packets, and
    leadership fails back once machine-0 recovers.  ``run_to_completion``
    makes the 100 %-delivery property part of the checked artifact.
    """
    return ExperimentConfig(
        input_rate=10,
        measurement_blocks=3,
        num_relayers=2,
        total_transfers=40,
        submission_blocks=1,
        seed=seed,
        run_to_completion=True,
        clear_interval=2,
        relayer=FleetConfig(policy="leader", rpc_retry_attempts=3),
        faults=FaultSchedule(
            (NodeCrash("machine-0", at=8.0, duration=30.0),)
        ),
    )


def _timeouts(seed: int) -> ExperimentConfig:
    """Packets that expire two blocks after they are sent: the relayer's
    timeout stage proves their absence on the destination and refunds
    them on the source, the one scenario that runs that path."""
    return ExperimentConfig(
        input_rate=60,
        measurement_blocks=4,
        timeout_blocks=2,
        drain_seconds=60,
        clear_interval=2,
        seed=seed,
    )


def _topology(topology: TopologySpec) -> Callable[[int], ExperimentConfig]:
    """A small traced run on a multi-chain ``topology``."""

    def build(seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            input_rate=5,
            measurement_blocks=3,
            seed=seed,
            drain_seconds=45.0,
            topology=topology,
            tracing=True,
        )

    return build


def _skewed(seed: int) -> ExperimentConfig:
    """Engine-mode workload: Zipf senders, bursty arrivals, adversaries.

    Every draw in the workload engine is keyed by arrival index rather
    than pulled from a shared sequential stream, so the Zipf sender
    choices, MMPP phase flips, payload sizes and spam/griefing tick
    times must all survive a tie-break reversal byte-for-byte.  This is
    the scenario that would catch a sequential-RNG regression in
    ``repro.workload``.
    """
    return ExperimentConfig(
        input_rate=20,
        measurement_blocks=3,
        seed=seed,
        drain_seconds=20.0,
        workload=WorkloadSpec(
            population=200,
            zipf_s=1.2,
            arrival="bursty",
            spam_rate=0.3,
            griefing_rate=0.1,
        ),
    )


def _fig12(seed: int) -> ExperimentConfig:
    """Fig. 12's 5 000-transfer single-block workload (the paper's
    heaviest single experiment; ``burst_5000`` in ``perf/`` times it)."""
    return ExperimentConfig(
        total_transfers=5000,
        submission_blocks=1,
        run_to_completion=True,
        seed=seed,
    )


_DYNAMIC = ("replay", "sched", "stall")

SCENARIOS: dict[str, Scenario] = {
    "golden": Scenario(_golden, _DYNAMIC + ("alloc",)),
    "golden-faults": Scenario(_golden_faults, _DYNAMIC),
    "fleet": Scenario(_fleet, _DYNAMIC),
    "timeouts": Scenario(_timeouts, _DYNAMIC),
    "line3": Scenario(_topology(TopologySpec.line(3)), _DYNAMIC),
    "hub4": Scenario(_topology(TopologySpec.hub_and_spoke(4)), _DYNAMIC),
    "skewed": Scenario(_skewed, _DYNAMIC),
    "fig12": Scenario(_fig12, ("replay",)),
}


def lookup(name: str) -> Scenario:
    """The scenario called ``name``; unknown names raise."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise SelectionError(
            f"unknown scenario {name!r} (known: {', '.join(SCENARIOS)})"
        ) from None


def matrix(
    checks: Sequence[str] = (), names: Sequence[str] = ()
) -> list[tuple[str, str]]:
    """The gated ``(check, scenario)`` cells, narrowed to ``checks`` and
    ``names`` when given (empty = all), in check-major registry order.

    A selection that names something unknown, or that matches no cell
    (``stall`` on ``fig12``), raises instead of passing vacuously.
    """
    for check in checks:
        if check not in CHECKS:
            raise SelectionError(
                f"unknown check {check!r} (known: {', '.join(CHECKS)})"
            )
    for name in names:
        lookup(name)
    cells = [
        (check, name)
        for check in CHECKS
        if not checks or check in checks
        for name, scenario in SCENARIOS.items()
        if (not names or name in names) and check in scenario.checks
    ]
    if not cells:
        raise SelectionError(
            f"no scenario in {list(names)} is gated by any of {list(checks)}"
        )
    return cells
