"""K-relayer fleets and the coordination policy that divides their work.

The paper's Fig. 9 measures two *uncoordinated* Hermes instances on one
channel: each relays every packet, one of the two submissions loses the
race, and roughly half the work is redundant.  ICS-18 makes relaying
permissionless and many-party but specifies no coordination, which the
paper calls out as the gap behind that waste.  This module models the
gap and three ways of closing it.  Every relayer of an experiment sits
in a :class:`Fleet`: the K = ``num_relayers`` instances of one topology
edge, under one policy named by ``FleetConfig.policy``:

* ``none`` — the paper's baseline.  Every member relays everything;
  at K=2 the redundant-delivery ratio lands near 2x (Fig. 9).
* ``shard`` — static sequence-range partitioning.  Member ``i`` of
  ``K`` owns sequence blocks ``(sequence // SHARD_BLOCK) % K == i``;
  no two members ever build the same message.
* ``leader`` — deterministic leader election with failover.  The
  lowest-indexed healthy member relays everything; a per-fleet monitor
  process probes member health (their machine-local nodes' crash flags)
  and hands leadership to the next healthy member when the leader's
  host dies, so recovery latency under :mod:`repro.faults` crash
  schedules is measurable.
* ``channel`` — per-relayer channels (the paper's §IV-A alternative).
  The edge opens one channel per member on its connection and member
  ``i`` relays channel ``i`` alone, so members never share a packet;
  the price is one voucher denomination per channel.

Every member is deterministic: the monitor's probe jitter comes from a
:class:`~repro.sim.rng.KeyedStream` derived from the experiment seed and
the edge index, so fleet runs are byte-identical under event tie-break
reversal (the schedcheck gate).  Only ``leader`` spawns a process; the
other policies leave the single-relayer event accounting untouched.

:class:`FleetConfig` is also the nested ``relayer`` section of the
experiment-config wire format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import WorkloadError, from_wire, to_wire
from repro.sim.core import SHUTDOWN, Environment, ProcessGroup

if TYPE_CHECKING:
    from repro.relayer.events import WorkBatch
    from repro.relayer.relayer import Relayer
    from repro.sim.rng import RngRegistry

#: Sequences are partitioned between shard-policy members in contiguous
#: blocks of this many, so one worker batch mostly stays on one member.
SHARD_BLOCK = 8

#: Leader-policy health-probe cadence (seconds) plus jitter bound.  The
#: probe reads the member nodes' crash flags out of band (no RPC), so a
#: short cadence costs two events per second per fleet.
MONITOR_PERIOD_SECONDS = 1.0
MONITOR_JITTER_SECONDS = 0.25


#: The coordination policies, by wire name (``FleetConfig.policy``).
POLICY_NAMES = ("none", "shard", "leader", "channel")


@dataclass(frozen=True)
class FleetConfig:
    """The ``relayer`` section of the experiment config.

    The fleet size is the experiment's ``num_relayers``; this section
    says how the members coordinate and how each one rides out faults.
    """

    #: Coordination policy name (one of :data:`POLICY_NAMES`).
    policy: str = "none"
    #: Per-instance retry budget for transient RPC errors (0 = Hermes
    #: 1.0.0 behaviour: fail the query on the first timeout).
    rpc_retry_attempts: int = 0
    #: Reopen dropped WebSocket subscriptions (with height-gap detection
    #: feeding the clear machinery).
    resubscribe_on_disconnect: bool = True

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise WorkloadError(
                f"unknown coordination policy {self.policy!r} "
                f"(known: {', '.join(POLICY_NAMES)})"
            )
        if self.rpc_retry_attempts < 0:
            raise WorkloadError("rpc_retry_attempts must be >= 0")

    # -- wire format ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return to_wire(self)

    @classmethod
    def from_dict(cls, data: Any) -> "FleetConfig":
        return from_wire(cls, data, "relayer section", defaults=True)


@dataclass(slots=True)
class Handoff:
    """One leadership transition of a leader-policy fleet (reported in
    the ``fleet`` section's ``leader.handoffs``)."""

    time: float
    from_index: int = field(metadata={"wire": "from"})
    to_index: int = field(metadata={"wire": "to"})


class FleetMember:
    """One relayer's seat in a fleet: the worker-side coordination hooks.

    The member is threaded into the relayer's direction workers, which
    consult it before relaying a batch (:meth:`filter_batch`) and before
    running packet clears (:meth:`may_clear` / :meth:`owns_sequence`).
    """

    __slots__ = ("fleet", "index", "relayer")

    def __init__(self, fleet: "Fleet", index: int):
        self.fleet = fleet
        self.index = index
        #: The relayer sitting in this seat (it seats itself on creation).
        self.relayer: Optional["Relayer"] = None

    # -- worker hooks --------------------------------------------------

    def owns_sequence(self, sequence: int) -> bool:
        return self.fleet.owns(self.index, sequence)

    def filter_batch(self, batch: "WorkBatch") -> "WorkBatch":
        """Keep only the events whose packet sequences this member owns."""
        fleet = self.fleet
        if fleet.count <= 1 or fleet.policy in ("none", "channel"):
            return batch
        owned = [
            e for e in batch.events if self.owns_sequence(e.packet.sequence)
        ]
        if len(owned) == len(batch.events):
            return batch
        from repro.relayer.events import WorkBatch

        return WorkBatch(
            chain_id=batch.chain_id,
            height=batch.height,
            kind=batch.kind,
            routing_channel=batch.routing_channel,
            events=owned,
        )

    def may_clear(self) -> bool:
        return self.fleet.may_clear(self.index)

    # -- monitor hooks -------------------------------------------------

    def probe_health(self) -> bool:
        """Out-of-band liveness check: are the member's local nodes up?"""
        relayer = self.relayer
        return not (relayer.node_a.rpc.crashed or relayer.node_b.rpc.crashed)

    def on_became_leader(self) -> None:
        """Failover: sweep pending work the old leader left behind."""
        for worker in self.relayer.workers:
            worker.request_clear()


class Fleet:
    """K relayer instances sharing one topology edge under one policy."""

    def __init__(
        self,
        env: Environment,
        edge_index: int,
        config: FleetConfig,
        count: int,
        rng: "RngRegistry",
    ):
        self.env = env
        self.edge_index = edge_index
        self.config = config
        self.count = count
        #: The coordination policy's name (one of :data:`POLICY_NAMES`).
        self.policy = config.policy
        self.members = [FleetMember(self, i) for i in range(count)]
        #: Index of the current leader (leader policy; fixed at 0 otherwise).
        self.leader_index = 0
        self.healthy = [True] * count
        #: Leadership transitions, oldest first.
        self.handoffs: list[Handoff] = []
        self.processes = ProcessGroup(env)
        self._started = False
        # Keyed (cursor-free) jitter: probe times are a pure function of
        # the tick index, so fleet runs replay identically whatever else
        # draws randomness — and only the leader policy creates the stream.
        self._jitter = (
            rng.keyed(f"fleet/edge{edge_index}/monitor")
            if self.policy == "leader"
            else None
        )

    # -- the policy ----------------------------------------------------

    def owns(self, index: int, sequence: int) -> bool:
        """Whether member ``index`` relays packets with ``sequence``."""
        if self.policy == "shard":
            count = self.count
            return count <= 1 or (sequence // SHARD_BLOCK) % count == index
        if self.policy == "leader":
            return index == self.leader_index
        # ``none`` relays everything; under ``channel`` the member's own
        # channel already holds only its packets.
        return True

    def may_clear(self, index: int) -> bool:
        """Whether member ``index`` may run packet-clear scans.  Shard
        members clear too, but only their own sequence blocks: a gap on a
        shared channel triggers K partitioned scans, not K full duplicates."""
        return self.policy != "leader" or index == self.leader_index

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn the health monitor (leader policy with 2+ members only)."""
        if self._started:
            return
        self._started = True
        if self.policy == "leader" and self.count > 1:
            self.processes.spawn(
                self._monitor_loop(),
                name=f"fleet/edge{self.edge_index}/monitor",
            )

    def stop(self) -> None:
        self._started = False
        self.processes.interrupt_all(SHUTDOWN)

    # ------------------------------------------------------------------

    def _monitor_loop(self):
        tick = 0
        while True:
            period = MONITOR_PERIOD_SECONDS + self._jitter.uniform(
                float(tick), 0.0, MONITOR_JITTER_SECONDS
            )
            yield self.env.timeout(period)
            tick += 1
            self._probe()

    def _probe(self) -> None:
        for member in self.members:
            self.healthy[member.index] = member.probe_health()
        alive = [i for i, ok in enumerate(self.healthy) if ok]
        if not alive:
            return  # nobody to hand off to; keep the seat until recovery
        new_leader = alive[0]
        if new_leader == self.leader_index:
            return
        old_leader = self.leader_index
        self.leader_index = new_leader
        self.handoffs.append(Handoff(self.env.now, old_leader, new_leader))
        leader = self.members[new_leader]
        leader.relayer.log.info(
            "fleet_leader_handoff",
            edge=self.edge_index,
            from_index=old_leader,
            to_index=new_leader,
        )
        leader.on_became_leader()
