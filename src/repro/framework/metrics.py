"""Performance metrics (paper §III-E): throughput, latency, completion.

All ground-truth counts come from chain state (the executed blocks and the
IBC module), windowed to the measurement interval; the relayer-side view
comes from the event processor.

Each report section is defined here once, beside its collector: a
dataclass whose fields are the section's wire shape (read and written by
the codec in :mod:`repro.errors`) plus the lines it contributes to the
text summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.faults import FaultWindow
from repro.framework.processor import in_flight_seconds
from repro.relayer.fleet import Handoff
from repro.sim.monitor import SummaryStats
from repro.tendermint.node import Chain

#: Packet event kinds per life-cycle stage, from the source chain's and the
#: destination chain's perspective.
SEND_EVENT = "send_packet"
RECV_EVENT = "recv_packet"
ACK_EVENT = "acknowledge_packet"
TIMEOUT_EVENT = "timeout_packet"


@dataclass
class CompletionStatus:
    """The paper's Figs. 10-11 categories."""

    requested: int
    committed: int  # transfer recorded on source chain
    received: int  # + receive recorded on destination
    acknowledged: int  # + ack recorded on source (completed)
    timed_out: int

    @property
    def completed(self) -> int:
        return self.acknowledged

    @property
    def partially_completed(self) -> int:
        """Transfer + receive recorded, acknowledgement missing.

        Timed-out packets were never received, so they do not overlap this
        category.
        """
        return max(0, self.received - self.acknowledged)

    @property
    def only_initiated(self) -> int:
        """Transfer recorded, receive missing."""
        return max(0, self.committed - self.received - self.timed_out)

    @property
    def not_committed(self) -> int:
        return max(0, self.requested - self.committed)

    def as_fractions(self) -> dict[str, float]:
        base = max(1, self.requested)
        return {
            "completed": self.completed / base,
            "partially_completed": self.partially_completed / base,
            "only_initiated": self.only_initiated / base,
            "not_committed": self.not_committed / base,
            "timed_out": self.timed_out / base,
        }


@dataclass
class WindowMetrics:
    """Everything measured inside one experiment's window — the report's
    ``window`` section, and the source its ``throughput`` / ``completion``
    / ``counts`` / ``block_interval_mean`` sections are recomputed from."""

    start_time: float
    end_time: float
    start_height_a: int
    end_height_a: int
    sends: int
    receives: int
    acks: int
    timeouts: int
    requested: int
    accepted: int
    #: Transfers committed on chain over the whole run (not window-cut) —
    #: Table I's "Committed (from submitted)" numerator.
    sends_total: int = 0
    block_intervals_a: list[float] = field(default_factory=list)
    block_message_counts_a: list[int] = field(default_factory=list)
    #: Per-channel breakdown (fairness view): one dict per channel end,
    #: ``{chain, port, channel, sends, receives, acks, timeouts}``, counted
    #: in the block-time window on the owning chain.
    channels: list[dict[str, Any]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(1e-9, self.end_time - self.start_time)

    @property
    def chain_throughput_tfps(self) -> float:
        """Transfers *included in the source chain* per second (Fig. 6)."""
        return self.sends / self.duration

    @property
    def transfer_throughput_tfps(self) -> float:
        """Completed cross-chain transfers per second (Figs. 8-9)."""
        return self.acks / self.duration

    @property
    def completion(self) -> CompletionStatus:
        return CompletionStatus(
            requested=self.requested,
            committed=self.sends,
            received=self.receives,
            acknowledged=self.acks,
            timed_out=self.timeouts,
        )

    @property
    def block_interval_mean(self) -> float:
        intervals = self.block_intervals_a
        return sum(intervals) / len(intervals) if intervals else 0.0

    def derived_sections(self) -> dict[str, Any]:
        """The report's top-level sections that restate this window.

        They are recomputed on every dump, never loaded — so a loaded
        report re-serializes byte-identically — and a document whose copy
        disagrees with its own ``window`` section is rejected.
        """
        return {
            "throughput": {
                "chain_tfps": self.chain_throughput_tfps,
                "transfer_tfps": self.transfer_throughput_tfps,
                "duration": self.duration,
            },
            "completion": self.completion.as_fractions(),
            "counts": {
                "sends": self.sends,
                "receives": self.receives,
                "acks": self.acks,
                "timeouts": self.timeouts,
            },
            "block_interval_mean": self.block_interval_mean,
        }

    def summary_lines(self) -> list[str]:
        completion = self.completion
        return [
            f"window            : "
            f"{self.end_height_a - self.start_height_a} blocks, "
            f"{self.duration:.1f} s",
            f"committed (chain) : {self.sends} "
            f"({self.chain_throughput_tfps:.1f} TFPS included)",
            f"completed (acked) : {self.acks} "
            f"({self.transfer_throughput_tfps:.1f} TFPS end-to-end)",
            f"partially complete: {completion.partially_completed}",
            f"only initiated    : {completion.only_initiated}",
            f"not committed     : {completion.not_committed}",
            f"timed out         : {self.timeouts}",
            f"avg block interval: {self.block_interval_mean:.2f} s",
        ]


#: A channel end for scoped counting: (port, channel) on a known chain.
ChannelEnd = tuple[str, str]


def scan_window(
    chain: Chain,
    kinds: tuple[str, ...],
    channels: list[ChannelEnd],
    *,
    after_height: int = 0,
    start_time: float = float("-inf"),
    end_time: float = float("inf"),
) -> tuple[dict[str, int], list[tuple[int, float]]]:
    """The one pass every windowed count goes through.

    Visits ``chain``'s blocks above ``after_height`` whose block time lies
    in ``[start_time, end_time]`` (open by default) and returns the
    number of events of each of ``kinds`` on ``channels`` in them, plus the
    visited ``(height, block time)`` pairs in height order.

    Counts key on an event's *local* channel end (the source end for
    send/ack/timeout events, the destination end for recv), so two
    channels on one chain never double-count each other's traffic.
    """
    counts = dict.fromkeys(kinds, 0)
    blocks: list[tuple[int, float]] = []
    store, indexer = chain.block_store, chain.indexer
    for height in range(after_height + 1, store.latest_height + 1):
        time = store.block_time(height)
        if not start_time <= time <= end_time:
            continue
        blocks.append((height, time))
        for kind in kinds:
            for port, channel in channels:
                counts[kind] += indexer.channel_events_at(
                    height, kind, port, channel
                )
    return counts, blocks


#: Per-channel-end wire keys of ``window.channels`` and their event kinds.
_CHANNEL_COUNTS = {
    "sends": SEND_EVENT,
    "receives": RECV_EVENT,
    "acks": ACK_EVENT,
    "timeouts": TIMEOUT_EVENT,
}


def collect_window_metrics(
    source_chain: Chain,
    dest_chain: Chain,
    start_time: float,
    end_time: float,
    start_height_a: int,
    requested: int,
    accepted: int,
    source_channels: list[ChannelEnd],
    dest_channels: list[ChannelEnd],
    channel_ends: list[tuple[Chain, str, str]],
) -> WindowMetrics:
    """Assemble the ground-truth window metrics.

    ``source_chain``/``dest_chain`` anchor the headline numbers: the first
    chain of the primary route (sends/acks/timeouts, height-windowed) and
    its final chain (receives, time-windowed).  ``source_channels`` /
    ``dest_channels`` restrict those counts to the route's own channel
    ends — without them a second channel (or a second route through the
    same chain) would be double-counted.  ``channel_ends`` enumerates
    every channel end in the topology for the per-channel breakdown.
    """
    source, blocks = scan_window(
        source_chain,
        (SEND_EVENT, ACK_EVENT, TIMEOUT_EVENT),
        source_channels,
        after_height=start_height_a,
        end_time=end_time,
    )
    # Chain-truth commit counting: every send after the workload began,
    # whether or not its block made the window.
    committed, _ = scan_window(
        source_chain, (SEND_EVENT,), source_channels, after_height=start_height_a
    )
    # The destination chain's matching window starts at its height when the
    # workload began; we approximate by block time.
    dest, _ = scan_window(
        dest_chain,
        (RECV_EVENT,),
        dest_channels,
        start_time=start_time,
        end_time=end_time,
    )
    channels: list[dict[str, Any]] = []
    for chain, port, channel in channel_ends:
        counts, _ = scan_window(
            chain,
            tuple(_CHANNEL_COUNTS.values()),
            [(port, channel)],
            start_time=start_time,
            end_time=end_time,
        )
        row = {"chain": chain.chain_id, "port": port, "channel": channel}
        row.update((key, counts[kind]) for key, kind in _CHANNEL_COUNTS.items())
        channels.append(row)
    times = [time for _, time in blocks]
    return WindowMetrics(
        start_time=start_time,
        end_time=end_time,
        start_height_a=start_height_a,
        end_height_a=blocks[-1][0] if blocks else start_height_a,
        sends=source[SEND_EVENT],
        receives=dest[RECV_EVENT],
        acks=source[ACK_EVENT],
        timeouts=source[TIMEOUT_EVENT],
        requested=requested,
        accepted=accepted,
        sends_total=committed[SEND_EVENT],
        block_intervals_a=[t1 - t0 for t0, t1 in zip(times, times[1:])],
        block_message_counts_a=[
            source_chain.indexer.message_count_at(height) for height, _ in blocks
        ],
        channels=channels,
    )


@dataclass
class GasMetrics:
    """Average gas per 100-message transaction, by message kind (§IV-A)."""

    transfer_avg: float
    recv_avg: float
    ack_avg: float
    transfer_samples: int
    recv_samples: int
    ack_samples: int

    def summary_lines(self) -> list[str]:
        return []  # gas is a data-file metric (§IV-A), not a headline


def collect_gas_metrics(chains: list[Chain]) -> GasMetrics:
    """Gas used by full 100-message transactions, per kind, over all
    chains (a transfer tx lands on a route's source chain, its recv on the
    next hop, its ack back on the source — any chain can play any role in
    a multi-chain topology)."""

    def harvest(kind: str, payload: int = 100) -> list[int]:
        samples: list[int] = []
        for chain in chains:
            for executed in chain.block_store.iter_executed():
                for item in executed.txs:
                    if not item.ok:
                        continue
                    kinds = [
                        k for k in item.tx.msg_kinds() if k != "update_client"
                    ]
                    if len(kinds) == payload and all(k == kind for k in kinds):
                        samples.append(item.result.gas_used)
        return samples

    transfer = harvest("transfer")
    recv = harvest("recv_packet")
    ack = harvest("acknowledgement")

    def avg(values: list[int]) -> float:
        return sum(values) / len(values) if values else 0.0

    return GasMetrics(
        transfer_avg=avg(transfer),
        recv_avg=avg(recv),
        ack_avg=avg(ack),
        transfer_samples=len(transfer),
        recv_samples=len(recv),
        ack_samples=len(ack),
    )


@dataclass
class FaultReport:
    """What a fault schedule did to the run, and how the relayers coped.

    Injection counts come from the chain-side servers; recovery counts
    come from the relayer journals.  ``recovery_latency`` summarises, per
    packet completed after the first fault window opened, the seconds from
    that window's opening to the packet's ack — the recovery-latency
    inflation the fault-recovery benchmark bounds.
    """

    windows: list[FaultWindow]
    rpc_refused: int
    rpc_dropped: int
    ws_disconnects: int
    rpc_retries: int
    retry_exhausted: int
    resubscribes: int
    height_gaps: int
    recovery_latency: Optional[SummaryStats] = None

    def summary_lines(self) -> list[str]:
        lines = [
            f"faults            : {len(self.windows)} window(s), "
            f"{self.rpc_refused} refused / {self.rpc_dropped} dropped RPCs, "
            f"{self.rpc_retries} retries, {self.resubscribes} resubscribes, "
            f"{self.height_gaps} height gap(s)"
        ]
        if self.recovery_latency is not None:
            lines.append(
                f"recovery latency  : median "
                f"{self.recovery_latency.median:.1f} s, max "
                f"{self.recovery_latency.maximum:.1f} s after first fault"
            )
        return lines


def collect_fault_metrics(
    windows: list[FaultWindow],
    chains: list[Chain],
    logs: list,
    completion_curve: list[tuple[float, int]],
    first_fault_offset: Optional[float] = None,
) -> FaultReport:
    """Assemble the fault report after a run.

    ``completion_curve`` and ``first_fault_offset`` share the same origin
    (the workload start); the offset is the first fault window's opening
    relative to it.  Recovery latencies are read off the journal's
    cumulative completion curve: one per transfer completed after the
    first fault opened.
    """
    refused = 0
    dropped = 0
    for chain in chains:
        for node in chain.nodes.values():
            refused += node.rpc.stats.refused
            dropped += node.rpc.stats.dropped

    def count(event: str) -> int:
        return sum(log.count(event) for log in logs)

    latencies: list[float] = []
    if first_fault_offset is not None:
        previous = 0
        for time, cumulative in completion_curve:
            if time >= first_fault_offset:
                latencies.extend(
                    [time - first_fault_offset] * (cumulative - previous)
                )
            previous = cumulative

    return FaultReport(
        windows=list(windows),
        rpc_refused=refused,
        rpc_dropped=dropped,
        ws_disconnects=count("websocket_disconnected"),
        rpc_retries=count("rpc_retry"),
        retry_exhausted=count("rpc_retry_exhausted"),
        resubscribes=count("resubscribed"),
        height_gaps=count("height_gap_detected"),
        recovery_latency=(
            SummaryStats.from_values(latencies) if latencies else None
        ),
    )


@dataclass
class FleetMemberRow:
    """One fleet member's share of an edge's relay work."""

    index: int
    name: str
    recv_attempts: int
    ack_attempts: int
    redundant_errors: int
    failed_txs: int


@dataclass
class FleetLeader:
    """A leader-policy fleet's failover history."""

    handoffs: list[Handoff] = field(metadata={"derived": "handoff_count"})
    #: Seconds from the first handoff to the new leader's first successful
    #: confirmation (None: no handoff, or nothing confirmed after it).
    recovery_seconds: Optional[float]

    @property
    def handoff_count(self) -> int:
        return len(self.handoffs)


@dataclass
class FleetRow:
    """One topology edge's fleet accounting — a row of the ``fleet``
    section: goodput vs. redundancy (Fig. 9's axis)."""

    edge: int
    chains: tuple[str, str]
    count: int
    policy: str
    #: Chain-truth delivery counts on the edge's channels.
    delivered: int
    acked: int
    recv_attempts: int
    ack_attempts: int = field(metadata={"derived": "redundant_ratio"})
    redundant_errors: int
    failed_txs: int
    goodput_tfps: float
    leader: Optional[FleetLeader]  # leader-policy fleets only
    members: list[FleetMemberRow]

    @property
    def redundant_ratio(self) -> float:
        """Receive attempts per delivered packet: ≈2.0 for two
        uncoordinated relayers (Fig. 9), ≈1.0 under ``shard``/``leader``."""
        return self.recv_attempts / self.delivered if self.delivered else 0.0

    def summary_lines(self) -> list[str]:
        line = (
            f"fleet (edge {self.edge})    : K={self.count} "
            f"policy={self.policy}, redundancy "
            f"{self.redundant_ratio:.2f}x, "
            f"{self.redundant_errors} redundant error(s)"
        )
        if self.leader is not None:
            line += f", {self.leader.handoff_count} handoff(s)"
            if self.leader.recovery_seconds is not None:
                line += f", recovery {self.leader.recovery_seconds:.1f} s"
        return [line]


def _log_field_sum(log, event: str, key: str) -> int:
    """Sum one integer field over a log's records of one event type."""
    return sum(record.field(key, 0) for record in log.by_event(event))


def collect_fleet_metrics(
    topology,
    chains: list[Chain],
    edge_paths,
    edge_relayers,
    fleets,
    start_time: float,
    end_time: float,
) -> Optional[list[FleetRow]]:
    """Per-edge fleet accounting: one :class:`FleetRow` per topology edge
    with the fleet's size and policy, the chain-truth delivery counts on
    the edge's channels and every member's broadcast attempts.  Leader
    fleets add their handoff history and the post-crash recovery latency
    (first successful confirmation by the new leader after the handoff).
    Returns None when no relayers were deployed (chain-only experiments).

    Every value is integer event accounting or a ratio of such integers
    on the simulated clock, so the section is byte-stable across host
    platforms and event tie-break policies.
    """
    if not any(edge_relayers) or not fleets:
        return None
    chains_by_id = {chain.chain_id: chain for chain in chains}
    duration = max(end_time - start_time, 0.0)
    rows: list[FleetRow] = []
    for edge, (i, j) in enumerate(topology.edges):
        fleet = fleets[edge]
        relayers = edge_relayers[edge]
        delivered = 0
        acked = 0
        for path in edge_paths[edge]:
            for end in (path.a, path.b):
                counts, _ = scan_window(
                    chains_by_id[end.chain_id],
                    (RECV_EVENT, ACK_EVENT),
                    [(end.port_id, end.channel_id)],
                    start_time=start_time,
                    end_time=end_time,
                )
                delivered += counts[RECV_EVENT]
                acked += counts[ACK_EVENT]
        members = [
            FleetMemberRow(
                index=index,
                name=relayer.name,
                recv_attempts=_log_field_sum(
                    relayer.log, "recv_broadcast", "count"
                ),
                ack_attempts=_log_field_sum(relayer.log, "ack_broadcast", "count"),
                redundant_errors=relayer.log.count("packet_messages_redundant"),
                failed_txs=relayer.log.count("tx_execution_failed")
                + relayer.log.count("failed_tx_no_confirmation"),
            )
            for index, relayer in enumerate(relayers)
        ]
        leader = None
        if fleet.config.policy == "leader":
            recovery = None
            if fleet.handoffs:
                first = fleet.handoffs[0]
                successor = relayers[first.to_index].log
                confirmed = [
                    record.time
                    for record in successor.records
                    if record.event in ("recv_confirmation", "ack_confirmation")
                    and record.field("code") == 0
                    and record.time >= first.time
                ]
                if confirmed:
                    recovery = min(confirmed) - first.time
            leader = FleetLeader(
                handoffs=list(fleet.handoffs), recovery_seconds=recovery
            )
        rows.append(
            FleetRow(
                edge=edge,
                chains=(chains[i].chain_id, chains[j].chain_id),
                count=fleet.count,
                policy=fleet.config.policy,
                delivered=delivered,
                acked=acked,
                recv_attempts=sum(m.recv_attempts for m in members),
                ack_attempts=sum(m.ack_attempts for m in members),
                redundant_errors=sum(m.redundant_errors for m in members),
                failed_txs=sum(m.failed_txs for m in members),
                goodput_tfps=acked / duration if duration else 0.0,
                leader=leader,
                members=members,
            )
        )
    return rows


@dataclass
class RpcBusyMetrics:
    """Where RPC time went (the 69 % data-pull claim) — the ``rpc`` section."""

    total_busy_seconds: float
    pull_busy_seconds: float = field(metadata={"derived": "pull_fraction"})
    by_method: dict[str, float]

    @property
    def pull_fraction(self) -> float:
        if self.total_busy_seconds <= 0:
            return 0.0
        return self.pull_busy_seconds / self.total_busy_seconds

    def summary_lines(self) -> list[str]:
        return [
            f"rpc pull fraction : {self.pull_fraction * 100:.1f}% "
            f"of RPC busy time"
        ]


# ----------------------------------------------------------------------
# Trace aggregation: per-packet lifecycles and the latency decomposition
# ----------------------------------------------------------------------

#: Life-cycle boundary names, in causal order.  Boundary ``i`` opens stage
#: ``TRACE_STAGES[i]``, which runs until boundary ``i + 1`` — the stages
#: therefore *partition* a packet's end-to-end latency exactly (no gaps, no
#: overlaps), which the conservation property tests assert.
TRACE_BOUNDARIES = (
    "submit_at",  # workload began submitting the transfer tx
    "proposed_at",  # source block carrying the send was proposed
    "src_commit_at",  # that block committed (send_packet on chain)
    "pull_done_at",  # relayer finished this packet's transfer data pull
    "recv_commit_at",  # recv_packet committed on the destination
    "ack_commit_at",  # acknowledge_packet committed back on the source
)

#: Stage names; stage ``i`` spans boundaries ``i`` → ``i + 1``.
TRACE_STAGES = ("submit", "commit", "pull", "recv", "ack")


@dataclass
class PacketTrace:
    """One packet's life-cycle boundaries, joined from the trace records.

    Boundaries are absolute simulated times; ``None`` marks a leg the trace
    never observed (lost packet, cleared out of band, or cut off by the
    window).  Multi-relayer duplicates are merged by taking the *earliest*
    observation of each boundary, so redundant relaying cannot inflate a
    stage.

    For a hub-routed multi-hop transfer each hop is its own packet and
    gets its own lifecycle; ``forwarded_from`` links a hop's key back to
    the packet whose receipt spawned it (the hub's recv tx committed both
    in one block), so lifecycles chain into end-to-end routes.  Forwarded
    hops have no workload submission — their ``submit_at`` is pinned to
    their send's proposal time, keeping the stage partition exact with a
    zero-length submit stage.
    """

    key: tuple[str, str, int]
    submit_at: Optional[float] = None
    proposed_at: Optional[float] = None
    src_commit_at: Optional[float] = None
    pull_done_at: Optional[float] = None
    recv_commit_at: Optional[float] = None
    ack_commit_at: Optional[float] = None
    timed_out: bool = False
    #: Key of the previous hop's packet, for forwarded (hop >= 2) packets.
    forwarded_from: Optional[tuple[str, str, int]] = None

    def boundaries(self) -> list[Optional[float]]:
        return [getattr(self, name) for name in TRACE_BOUNDARIES]

    @property
    def complete(self) -> bool:
        return all(value is not None for value in self.boundaries())

    @property
    def total_seconds(self) -> float:
        if self.submit_at is None or self.ack_commit_at is None:
            raise ValueError(f"packet {self.key} has no end-to-end interval")
        return self.ack_commit_at - self.submit_at

    def stage_seconds(self) -> dict[str, float]:
        """Per-stage durations; defined only for complete lifecycles."""
        bounds = self.boundaries()
        if not self.complete:
            raise ValueError(f"packet {self.key} lifecycle is incomplete")
        return {
            stage: bounds[i + 1] - bounds[i]
            for i, stage in enumerate(TRACE_STAGES)
        }


@dataclass
class TraceReport:
    """The latency decomposition distilled from one run's trace.

    ``stage_seconds`` sums each stage over every *complete* packet
    lifecycle; because the stages partition each packet's latency, the
    per-stage sums partition the summed end-to-end latency the same way.
    ``data_pull_share`` is the paper's headline ratio: seconds with a
    data-pull query in flight (either leg, any relayer) over the batch's
    wall time — 317 s / 455 s ≈ 69 % for the 5 000-transfer megabatch.
    The per-leg ``*_pull_seconds`` sum every pull, overlapping or not.

    The per-packet lifecycles ride along in ``packets`` for rendering
    (waterfalls) but are host-side only — like the journal, they never
    enter the JSON wire format.
    """

    traced: int
    completed: int
    partial: int
    timed_out: int
    forwarded: int
    origin_time: float
    wall_seconds: float
    stage_seconds: dict[str, float]
    transfer_pull_seconds: float
    recv_pull_seconds: float
    data_pull_share: float
    packets: list[PacketTrace] = field(
        default_factory=list, compare=False, metadata={"wire": None}
    )

    @property
    def pull_seconds(self) -> float:
        """Seconds with a pull in flight: the share's numerator."""
        return self.data_pull_share * self.wall_seconds

    def summary_lines(self) -> list[str]:
        if not self.completed:
            return []
        stages = " / ".join(
            f"{stage} {seconds:.1f}s"
            for stage, seconds in self.stage_seconds.items()
        )
        return [
            f"trace             : {self.completed}/{self.traced} lifecycles "
            f"complete; pulls {self.pull_seconds:.1f}s of "
            f"{self.wall_seconds:.1f}s wall "
            f"({self.data_pull_share * 100:.1f}%)",
            f"trace stages      : {stages}",
        ]


def _min_by_key(
    events, value=lambda e: e.time
) -> dict[tuple[str, str, int], float]:
    """Earliest observation per packet key (multi-relayer duplicate merge)."""
    merged: dict[tuple[str, str, int], float] = {}
    for event in events:
        candidate = value(event)
        if candidate is None:
            continue
        current = merged.get(event.key)
        if current is None or candidate < current:
            merged[event.key] = candidate
    return merged


def _forward_links(tracer) -> dict[tuple[str, str, int], tuple[str, str, int]]:
    """Map each forwarded hop's key to the key of the hop it came from.

    A hub forwards inside the recv transaction: the module emits the
    ``recv_packet`` event, then the onward ``send_packet``, in one tx.
    The commit marks preserve that emission order, so within one
    (chain, tx_hash) group every send following a recv was spawned by the
    most recent recv before it.
    """
    links: dict[tuple[str, str, int], tuple[str, str, int]] = {}
    last_recv: dict[tuple[Any, Any], tuple[str, str, int]] = {}
    for event in tracer.events:
        if event.key is None:
            continue
        group = (event.attr("chain"), event.attr("tx_hash"))
        if event.name == "commit/recv_packet":
            last_recv[group] = event.key
        elif event.name == "commit/send_packet":
            parent = last_recv.get(group)
            if parent is not None:
                links[event.key] = parent
    return links


def assemble_packet_traces(tracer) -> list[PacketTrace]:
    """Join trace records into per-packet lifecycles, sorted by key.

    The submit leg has no packet key at recording time (the sequence is
    assigned on chain), so submit spans are joined through the tx hash the
    ``commit/send_packet`` mark carries.  Forwarded hops (spawned inside a
    hub's recv transaction) have no submit span at all; they are linked to
    their parent hop and their submit boundary is pinned to their own
    proposal time.
    """
    submit_starts: dict[Any, float] = {}
    for span in tracer.spans_named("submit"):
        tx_hash = span.attrs.get("tx_hash")
        if tx_hash is None:
            continue
        current = submit_starts.get(tx_hash)
        if current is None or span.start < current:
            submit_starts[tx_hash] = span.start

    send_events = tracer.packet_events("commit/send_packet")
    src_commits = _min_by_key(send_events)
    proposed = _min_by_key(send_events, value=lambda e: e.attr("proposed"))
    submits = _min_by_key(
        send_events, value=lambda e: submit_starts.get(e.attr("tx_hash"))
    )
    pulls = _min_by_key(tracer.packet_events("transfer_data_pull_done"))
    recv_commits = _min_by_key(tracer.packet_events("commit/recv_packet"))
    ack_commits = _min_by_key(tracer.packet_events("commit/acknowledge_packet"))
    timeouts = _min_by_key(tracer.packet_events("commit/timeout_packet"))
    links = _forward_links(tracer)

    keys = set(src_commits) | set(pulls) | set(recv_commits)
    keys |= set(ack_commits) | set(timeouts)
    traces = []
    for key in sorted(keys):
        submit_at = submits.get(key)
        if submit_at is None and key in links:
            submit_at = proposed.get(key)
        traces.append(
            PacketTrace(
                key=key,
                submit_at=submit_at,
                proposed_at=proposed.get(key),
                src_commit_at=src_commits.get(key),
                pull_done_at=pulls.get(key),
                recv_commit_at=recv_commits.get(key),
                ack_commit_at=ack_commits.get(key),
                timed_out=key in timeouts,
                forwarded_from=links.get(key),
            )
        )
    return traces


@dataclass
class RouteTrace:
    """One end-to-end route: the chained hop lifecycles of a transfer.

    ``hops[0]`` is the origin packet (a workload submission); each later
    hop was spawned inside the previous hop's recv transaction.  The
    route's end-to-end latency runs from the origin's submit to the final
    hop's delivery — the ack legs ripple backwards concurrently and are
    not on the delivery path.
    """

    hops: list[PacketTrace]

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    @property
    def complete(self) -> bool:
        origin, final = self.hops[0], self.hops[-1]
        return origin.submit_at is not None and final.recv_commit_at is not None

    @property
    def delivery_seconds(self) -> float:
        if not self.complete:
            raise ValueError(
                f"route {self.hops[0].key} has no end-to-end interval"
            )
        return self.hops[-1].recv_commit_at - self.hops[0].submit_at


def assemble_route_traces(tracer) -> list[RouteTrace]:
    """Chain per-hop lifecycles into end-to-end routes, sorted by origin key.

    Follows each origin packet (one with no ``forwarded_from`` parent)
    through the forward links to its terminal hop.  Single-hop transfers
    come back as one-hop routes, so latency-vs-hop-count figures compare
    like with like across topologies.
    """
    packets = assemble_packet_traces(tracer)
    by_key = {p.key: p for p in packets}
    child_of = {
        p.forwarded_from: p.key for p in packets if p.forwarded_from is not None
    }
    routes = []
    for packet in packets:
        if packet.forwarded_from is not None:
            continue
        hops = [packet]
        while hops[-1].key in child_of:
            hops.append(by_key[child_of[hops[-1].key]])
        routes.append(RouteTrace(hops=hops))
    return routes


def collect_trace_metrics(tracer, window_start: float = 0.0) -> Optional[TraceReport]:
    """Distill the tracer's records into a :class:`TraceReport`.

    Returns ``None`` for an untraced run (the null tracer).  All float
    accumulation runs over sorted orderings, so the result is byte-stable
    across scheduler tie-break variations and worker counts.
    """
    if not tracer.enabled:
        return None
    packets = assemble_packet_traces(tracer)
    complete = [p for p in packets if p.complete]
    partial = [p for p in packets if not p.complete and not p.timed_out]
    stage_seconds = {stage: 0.0 for stage in TRACE_STAGES}
    for packet in complete:  # already key-sorted: stable float sums
        for stage, seconds in packet.stage_seconds().items():
            stage_seconds[stage] += seconds

    transfer_spans = [s for s in tracer.spans_named("transfer_data_pull") if s.closed]
    recv_spans = [s for s in tracer.spans_named("recv_data_pull") if s.closed]
    transfer_pull = sum(sorted(s.duration for s in transfer_spans))
    recv_pull = sum(sorted(s.duration for s in recv_spans))
    if complete:
        origin = min(p.submit_at for p in complete)
        wall = max(p.ack_commit_at for p in complete) - origin
    else:
        origin = window_start
        wall = 0.0
    pulls = [(s.end, s.duration) for s in transfer_spans + recv_spans]
    share = in_flight_seconds(pulls) / wall if wall > 0 else 0.0
    return TraceReport(
        traced=len(packets),
        completed=len(complete),
        partial=len(partial),
        timed_out=sum(1 for p in packets if p.timed_out),
        forwarded=sum(1 for p in packets if p.forwarded_from is not None),
        origin_time=origin,
        wall_seconds=wall,
        stage_seconds=stage_seconds,
        transfer_pull_seconds=transfer_pull,
        recv_pull_seconds=recv_pull,
        data_pull_share=share,
        packets=packets,
    )


def collect_rpc_metrics(chains: list[Chain]) -> RpcBusyMetrics:
    by_method: dict[str, float] = {}
    for chain in chains:
        for node in chain.nodes.values():
            for method, busy in node.rpc.stats.busy_by_method.items():
                by_method[method] = by_method.get(method, 0.0) + busy
    total = sum(by_method.values())
    pulls = by_method.get("pull_packet_data", 0.0)
    return RpcBusyMetrics(
        total_busy_seconds=total, pull_busy_seconds=pulls, by_method=by_method
    )


@dataclass
class SpamCounts:
    """Stale-sequence spam transactions the engine submitted."""

    submitted: int
    rejected: int


@dataclass
class GriefingCounts:
    """§IV-A gas-griefing transactions the engine submitted."""

    submitted: int
    failed: int


@dataclass
class MempoolCounts:
    """The source mempool's admission accounting."""

    admitted: int
    rejected: int
    evicted: int


@dataclass
class PopulationReport:
    """The ``population`` section (generated workloads only): per-percentile
    sender activity from the engine, the adversarial counters, and the
    source mempool's admission accounting — every value an integer or a
    ratio of integers, so the section is byte-stable across scheduler
    tie-break variations."""

    population: int
    senders_active: int
    submissions: int
    activity_p50: int
    activity_p90: int
    activity_p99: int
    activity_max: int
    top1_share: float
    deferred: int
    spam: SpamCounts
    griefing: GriefingCounts
    mempool: MempoolCounts

    def summary_lines(self) -> list[str]:
        mempool = self.mempool
        return [
            f"population        : {self.population} senders, "
            f"{self.senders_active} active, p99 activity "
            f"{self.activity_p99}, top-1% share "
            f"{self.top1_share * 100:.1f}%, "
            f"{self.deferred} deferred",
            f"mempool           : {mempool.admitted} admitted / "
            f"{mempool.rejected} rejected / {mempool.evicted} evicted",
        ]


def collect_population_metrics(engine, source_chain: Chain) -> PopulationReport:
    mempool = source_chain.mempool
    return PopulationReport(
        **engine.activity_summary(),
        spam=SpamCounts(engine.spam_submitted, engine.spam_rejected),
        griefing=GriefingCounts(engine.griefing_submitted, engine.griefing_failed),
        mempool=MempoolCounts(mempool.admitted, mempool.rejected, mempool.evicted),
    )


@dataclass
class FrameReport:
    """The ``frames`` section: §V WebSocket frame accounting over every
    node's event server."""

    #: Frames delivered, and failures (including repeat suppressions after
    #: a latch).
    delivered: int
    failures: int
    #: Subscriptions latched by an oversized frame.
    latched: int
    #: The largest frame any server computed, against the calibrated limit.
    max_frame_bytes: int
    limit_bytes: int

    def summary_lines(self) -> list[str]:
        if not self.latched:
            return []
        return [
            f"frame limit       : {self.latched} subscription(s) latched "
            f"(max frame {self.max_frame_bytes} B > "
            f"limit {self.limit_bytes} B)"
        ]


def collect_frame_metrics(chains: list[Chain]) -> FrameReport:
    delivered = failures = latched = 0
    max_frame = 0
    limit = 0
    for chain in chains:
        for node in chain.nodes.values():
            server = node.websocket
            limit = server.cal.websocket_max_frame_bytes
            if server.max_frame_bytes > max_frame:
                max_frame = server.max_frame_bytes
            for subscription in server.subscriptions:
                delivered += subscription.delivered
                failures += subscription.failures
                latched += 1 if subscription.failed else 0
    return FrameReport(
        delivered=delivered,
        failures=failures,
        latched=latched,
        max_frame_bytes=max_frame,
        limit_bytes=limit,
    )
