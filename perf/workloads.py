"""The five pinned benchmark workloads.

Each workload is an :class:`~repro.framework.config.ExperimentConfig`
literal plus an outcome check on the report it must produce.  The
program under test receives only the config.

The simulator's own seed is part of the pin.  Its behaviour has discrete
regimes by seed — ``burst_5000`` does 5.13 M or 5.63 M profiled calls
depending on whether the receives land in one block or two, and
``genesis_300k``'s bursty arrivals move its event count 2.3x — so
re-seeding the simulator would put 7-9 % of interquartile spread into
every host metric of three workloads before any host noise, and a 15 %
regression bound could not stand on that.  ``--seed N`` instead sets the
token amount every transfer moves (``transfer_amount = 1 + N``): packet
data, balances, escrows, commitments and the report's bytes all change,
the work does not (event and call counts are identical for every N), and
the outcome checks hold exactly under every seed.

Why these five: every optimisation the ROADMAP plans has one workload
that exercises its mechanism and one that bypasses it (see the
interaction table in ``perf/README.md``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

from repro.faults import FaultSchedule, NodeCrash, RpcBrownout, WsDisconnect
from repro.framework.config import ExperimentConfig
from repro.framework.topology import TopologySpec
from repro.relayer.fleet import FleetConfig
from repro.workload.spec import WorkloadSpec

#: ``check(document)`` returns the violated conditions (empty = ok);
#: ``document`` is ``report.to_dict()``.
OutcomeCheck = Callable[[dict[str, Any]], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: what the workload stresses and why it is in the set.
    why: str
    #: The pinned config, simulator seed included.
    build: Callable[[], ExperimentConfig]
    check: OutcomeCheck
    #: The paper's measurement of a ``model.*`` counter, where it gives one:
    #: the accuracy reference printed beside the simulated value.
    paper: tuple[tuple[str, float], ...] = ()

    def config(self, seed: int) -> ExperimentConfig:
        """The workload's inputs for ``--seed seed`` (see module docstring)."""
        return dataclasses.replace(
            self.build(), transfer_amount=1 + seed % 1_000_000
        )


def _violations(conditions: dict[str, bool]) -> list[str]:
    return [text for text, holds in conditions.items() if not holds]


# -- relay_steady ------------------------------------------------------------


def _relay_steady() -> ExperimentConfig:
    return ExperimentConfig(
        input_rate=140, measurement_blocks=20, drain_seconds=20, seed=7
    )


def _check_relay_steady(doc: dict[str, Any]) -> list[str]:
    counts = doc["counts"]
    return _violations({
        "sends >= receives >= acks > 0": (
            counts["sends"] >= counts["receives"] >= counts["acks"] > 0
        ),
    })


# -- burst_5000 --------------------------------------------------------------


def _burst_5000() -> ExperimentConfig:
    return ExperimentConfig(
        total_transfers=5000,
        submission_blocks=1,
        run_to_completion=True,
        seed=1,
    )


def _check_burst_5000(doc: dict[str, Any]) -> list[str]:
    counts = doc["counts"]
    return _violations({
        "acks == 5000": counts["acks"] == 5000,
        "completion latency reported": doc["completion_latency"] is not None,
    })


# -- chain_saturated ---------------------------------------------------------


def _chain_saturated() -> ExperimentConfig:
    return ExperimentConfig(
        input_rate=3000, measurement_blocks=3, chain_only=True, seed=3
    )


def _check_chain_saturated(doc: dict[str, Any]) -> list[str]:
    committed = doc["submission"]["committed_chain"]
    return _violations({
        "committed_chain == 45000": committed == 45000,
        "receives == 0 (no relayer)": doc["counts"]["receives"] == 0,
    })


# -- genesis_300k ------------------------------------------------------------


def _genesis_300k() -> ExperimentConfig:
    return ExperimentConfig(
        workload=WorkloadSpec(
            population=300_000,
            zipf_s=1.2,
            arrival="bursty",
            spam_rate=0.3,
            griefing_rate=0.1,
        ),
        input_rate=200,
        measurement_blocks=12,
        drain_seconds=30,
        seed=7,
    )


def _check_genesis_300k(doc: dict[str, Any]) -> list[str]:
    submission = doc["submission"]
    population = doc["population"]
    return _violations({
        "population == 300000": (
            population is not None and population["population"] == 300_000
        ),
        "committed > 0": submission["committed"] > 0,
        "failed == 500 griefing transfers": submission["failed"] == 500,
    })


# -- hub_fleet_faults --------------------------------------------------------


def _hub_fleet_faults() -> ExperimentConfig:
    return ExperimentConfig(
        topology=TopologySpec.hub_and_spoke(3),
        num_relayers=2,
        relayer=FleetConfig(
            policy="none",
            rpc_retry_attempts=3,
            resubscribe_on_disconnect=True,
        ),
        clear_interval=2,
        faults=FaultSchedule((
            RpcBrownout("machine-0", at=4, duration=10, drop_probability=0.3),
            NodeCrash("machine-1", at=12, duration=12),
            WsDisconnect("machine-0", at=30),
        )),
        input_rate=40,
        measurement_blocks=6,
        drain_seconds=40,
        seed=7,
    )


def _check_hub_fleet_faults(doc: dict[str, Any]) -> list[str]:
    fleet = doc["fleet"] or []
    delivered = sum(row["delivered"] for row in fleet)
    attempts = sum(row["recv_attempts"] for row in fleet)
    faults = doc["faults"]
    return _violations({
        "acks > 0": doc["counts"]["acks"] > 0,
        "3 fault windows": faults is not None and len(faults["windows"]) == 3,
        "redundant ratio > 1": delivered > 0 and attempts > delivered,
    })


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="relay_steady",
        why=(
            "Fig. 8 operating point (140 tx/s, one relayer): every layer "
            "takes part and deliver_tx (ibc + cosmos) dominates host work"
        ),
        build=_relay_steady,
        check=_check_relay_steady,
    ),
    Workload(
        name="burst_5000",
        why=(
            "Fig. 12: 5000 transfers in one block; merkle proofs, big RPC "
            "pulls and near-limit WebSocket frames dominate; carries the "
            "paper accuracy reference"
        ),
        build=_burst_5000,
        check=_check_burst_5000,
        paper=(
            ("model.transfer.completion_latency_s", 455.0),
            ("model.transfer.pull_share", 0.69),
        ),
    ),
    Workload(
        name="chain_saturated",
        why=(
            "Fig. 6 / Table I: send-only at the mempool and block limits, "
            "no relayer, proofs or pulls, so a relay-path gain that costs "
            "the inclusion path shows here"
        ),
        build=_chain_saturated,
        check=_check_chain_saturated,
    ),
    Workload(
        name="genesis_300k",
        why=(
            "300k-account workload engine: the only workload where genesis "
            "(setup_s) is large and the only one on the _engine_loop driver"
        ),
        build=_genesis_300k,
        check=_check_genesis_300k,
    ),
    Workload(
        name="hub_fleet_faults",
        why=(
            "hub-and-spoke, two uncoordinated relayers per edge, three "
            "faults: the relayer, fault, topology and per-edge report code "
            "no other workload executes"
        ),
        build=_hub_fleet_faults,
        check=_check_hub_fleet_faults,
    ),
)

BY_NAME: dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}
