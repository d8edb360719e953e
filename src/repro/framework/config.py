"""Experiment configuration — the tool's seven parameters, plus extras.

The paper's tool exposes "seven configurable parameters ... to evaluate
different blockchain configurations".  They are the first seven fields of
:class:`ExperimentConfig`; the remaining fields control measurement and
simulation mechanics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import calibration as cal
from repro.errors import WorkloadError, from_wire, to_wire
from repro.faults import FaultSchedule
from repro.framework.topology import TopologySpec
from repro.relayer.fleet import FleetConfig
from repro.workload.spec import WorkloadSpec

#: Runs expecting more transfers than this use structural "stub" proofs
#: instead of real merkle proofs.
AUTO_STUB_THRESHOLD = 6_000


@dataclass
class ExperimentConfig:
    """Everything needed to set up, run and analyse one experiment."""

    # -- the tool's seven parameters --------------------------------------
    #: Nominal input rate in transfers per second (paper §III-D: rate R
    #: means a batch of R x block_interval transfers submitted per block).
    input_rate: float = 100.0
    #: Length of the measurement window, in source-chain blocks.
    measurement_blocks: int = 50
    #: Enforced round-trip network latency between machines (seconds).
    network_rtt: float = cal.DEFAULT_RTT
    #: Relayer instances per topology edge (the fleet size); how they
    #: coordinate is ``relayer.policy``.
    num_relayers: int = 1
    #: Transfer messages per workload transaction (Hermes max: 100); the
    #: run's ``calibration.max_msgs_per_tx``.
    msgs_per_tx: int = cal.DEFAULT_CALIBRATION.max_msgs_per_tx
    #: Validators per chain (the paper uses 5).
    num_validators: int = cal.DEFAULT_VALIDATORS
    #: Minimum block interval (the paper configures 5 s); the run's
    #: ``calibration.min_block_interval``.
    block_interval: float = cal.DEFAULT_CALIBRATION.min_block_interval

    # -- workload shaping ---------------------------------------------------
    #: Fixed-total mode (Figs. 12/13): submit exactly this many transfers...
    total_transfers: Optional[int] = None
    #: ...spread evenly over this many consecutive blocks.
    submission_blocks: int = 1
    #: Packet timeout, in destination-chain blocks ahead of current height.
    timeout_blocks: int = cal.DEFAULT_TIMEOUT_BLOCKS
    #: Channel ordering ("unordered" as in the paper's experiments, or
    #: "ordered" for strict sequence delivery).
    channel_ordering: str = "unordered"
    #: Tokens moved per transfer message.
    transfer_amount: int = 1

    # -- component behaviour -------------------------------------------------
    #: Deploy no relayer (``num_relayers`` reads 0): Table I / Figs. 6-7
    #: measure only inclusion.
    chain_only: bool = False
    #: Relayer packet-clearing interval in blocks (0 = disabled, as in the
    #: paper's §V experiment).
    clear_interval: int = 0
    #: Concurrent in-flight relayer data pulls (the parallel-RPC ablation
    #: raises this together with ``calibration.rpc_workers``).
    pull_concurrency: int = 1
    #: EXTENSION: the chain/connection graph (see
    #: :class:`repro.framework.topology.TopologySpec`).  None = the paper's
    #: two-chain pair; multi-hop routes run packet-forward style through
    #: intermediate chains.
    topology: Optional[TopologySpec] = None

    # -- robustness scenarios -----------------------------------------------
    #: Deterministic fault schedule (see :mod:`repro.faults`); fault times
    #: are relative to the measurement-window start.  None = fault-free.
    faults: Optional[FaultSchedule] = None
    #: How the ``num_relayers`` instances of each topology edge coordinate
    #: (policy ``channel`` gives each its own channel, and the workload is
    #: spread across them round-robin), plus the per-instance robustness
    #: knobs (see :class:`repro.relayer.fleet.FleetConfig`).
    relayer: FleetConfig = field(default_factory=FleetConfig)
    #: EXTENSION: the generated-workload engine (schema v6).  None = the
    #: paper's fixed account pool (§III-D); a spec switches the driver to
    #: a Zipf-skewed population with configurable arrivals, payload mixes
    #: and adversarial traffic (see :mod:`repro.workload`).
    workload: Optional[WorkloadSpec] = None

    # -- measurement/simulation mechanics ----------------------------------------
    #: Record per-packet lifecycle spans/events (see :mod:`repro.trace`).
    #: Tracing is pure observation on the simulated clock: enabling it
    #: leaves every non-trace report section byte-identical, and adds a
    #: versioned ``"trace"`` latency-decomposition section to the report.
    tracing: bool = False
    seed: int = 1
    #: Event-heap tie-break policy for same-time/same-priority events
    #: ("fifo" or "lifo").  Results must NOT depend on this knob; the
    #: scheduler-race sanitizer (repro.lint.schedcheck) runs a scenario
    #: under both policies and treats any output divergence as a race.
    tiebreak: str = "fifo"
    #: Extra simulated time after the window closes, letting in-flight
    #: packets settle (latency experiments run to completion instead).
    drain_seconds: float = 0.0
    #: For latency experiments: keep simulating until every submitted
    #: transfer settles (completed or timed out), up to ``max_sim_seconds``.
    run_to_completion: bool = False
    #: Hard stop for the simulation clock.
    max_sim_seconds: float = 3600.0 * 6
    #: Calibration overrides for ablations (e.g. parallel RPC).  Its two
    #: paper parameters come from ``msgs_per_tx`` and ``block_interval``.
    calibration: Optional[cal.Calibration] = None

    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        if self.chain_only:
            self.num_relayers = 0
        if self.input_rate <= 0 and self.total_transfers is None:
            raise WorkloadError("input_rate must be positive")
        if self.submission_blocks < 1:
            raise WorkloadError("submission_blocks must be >= 1")
        if self.total_transfers is not None and self.total_transfers < 1:
            raise WorkloadError("total_transfers must be >= 1")
        if self.num_relayers < 0:
            raise WorkloadError("num_relayers must be >= 0")
        if self.pull_concurrency < 1:
            raise WorkloadError("pull_concurrency must be >= 1")
        if self.clear_interval < 0:
            raise WorkloadError("clear_interval must be >= 0 (0 = disabled)")
        if self.channel_ordering not in ("ordered", "unordered"):
            raise WorkloadError(
                f"unknown channel ordering {self.channel_ordering!r}"
            )
        if self.tiebreak not in ("fifo", "lifo"):
            raise WorkloadError(f"unknown tie-break policy {self.tiebreak!r}")
        if self.calibration is not None:
            for name, parameter in (
                ("max_msgs_per_tx", "msgs_per_tx"),
                ("min_block_interval", "block_interval"),
            ):
                value = getattr(self.calibration, name)
                if value not in (
                    getattr(cal.DEFAULT_CALIBRATION, name),
                    getattr(self, parameter),
                ):
                    raise WorkloadError(
                        f"calibration.{name} comes from the {parameter} "
                        f"parameter: set {parameter}={value!r} instead"
                    )
        if self.workload is not None:
            if self.total_transfers is not None:
                raise WorkloadError(
                    "the workload engine is continuous: it cannot combine "
                    "with fixed-total mode (total_transfers)"
                )
            if self.topology is not None:
                raise WorkloadError(
                    "the workload engine drives the two-chain pair; custom "
                    "topologies use the fixed account pool"
                )
            if self.relayer.policy == "channel" and self.num_relayers > 1:
                raise WorkloadError(
                    "the workload engine submits on a single channel"
                )

    # -- wire format ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialize every field to a JSON-compatible dict.

        This is the wire format parallel workers receive: the exact
        inverse of :meth:`from_dict`, nested fault schedules and
        calibration overrides included.
        """
        return to_wire(self)

    @classmethod
    def from_dict(cls, data: Any) -> "ExperimentConfig":
        """Load a config from its wire dict.

        Missing keys take the field defaults; unknown keys, wrongly-typed
        values and values the config tree's classes refuse raise
        :class:`~repro.errors.SchemaError` naming the path, so a typo'd
        parameter can never silently run the default experiment instead.
        """
        return from_wire(cls, data, "config", defaults=True)

    def summary_lines(self) -> list[str]:
        """The configuration's lines of the report's text summary."""
        lines = [
            f"input rate        : {self.input_rate:.0f} transfers/s "
            f"({self.num_relayers} relayer(s), "
            f"{self.network_rtt * 1000:.0f} ms RTT)",
        ]
        if self.topology is not None:
            topo = self.topology
            lines.append(
                f"topology          : {topo.name} — {len(topo.chain_ids)} "
                f"chains, {len(topo.edges)} edge(s), {len(topo.routes)} "
                f"route(s), max {topo.max_hops} hop(s)"
            )
        return lines

    # ------------------------------------------------------------------

    @property
    def resolved_calibration(self) -> cal.Calibration:
        """The run's calibration: ``calibration`` (or the default) with the
        two paper parameters filled in from this config."""
        return (self.calibration or cal.DEFAULT_CALIBRATION).with_overrides(
            max_msgs_per_tx=self.msgs_per_tx,
            min_block_interval=self.block_interval,
        )

    @property
    def transfers_per_block(self) -> int:
        """Transfers the workload aims to land in each block."""
        if self.total_transfers is not None:
            return math.ceil(self.total_transfers / self.submission_blocks)
        return round(self.input_rate * self.block_interval)

    @property
    def num_accounts(self) -> int:
        """User accounts needed to sustain the per-block batch (§III-D)."""
        return max(1, math.ceil(self.transfers_per_block / self.msgs_per_tx))

    @property
    def expected_total_transfers(self) -> int:
        if self.total_transfers is not None:
            return self.total_transfers
        return self.transfers_per_block * self.measurement_blocks

    @property
    def resolved_proof_mode(self) -> str:
        """Real "merkle" proofs, or structural "stub" proofs for runs
        expecting more than :data:`AUTO_STUB_THRESHOLD` transfers."""
        if self.expected_total_transfers > AUTO_STUB_THRESHOLD:
            return "stub"
        return "merkle"

    @property
    def num_machines(self) -> int:
        """One machine per validator pair, as in the paper's deployment."""
        return self.num_validators
