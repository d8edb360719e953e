"""Packet workers: the relayer's per-channel batch pipeline (Fig. 4).

One :class:`DirectionWorker` serves one direction of one channel (packets
src→dst plus their acknowledgements flowing back).  Work arrives as
per-block batches from the supervisor and moves through the stages the
paper's Fig. 12 names:

* **recv stage** — *transfer data pull* (one serial RPC query per source
  transaction, cost scaling with the height's event count), then the recv
  filter: drop packets already on a recv or timeout leg, already-received
  sequences and packets that could land no earlier than their timeout
  height on the destination.
* **ack stage** — triggered by ``write_acknowledgement`` events from the
  destination: *recv data pull* (the single largest cost in the paper's
  breakdown), then drop packets whose acks the source already holds.
* **timeout stage** — packets whose timeout height passed on the
  destination, with nothing in flight, are settled with ``MsgTimeout``;
  one ``unreceived_packets`` query per poll leaves the ones the
  destination received after all to the ack stage, and out of later polls.
* **clear loop** — when ``clear_interval > 0``, periodically re-scans the
  source chain's pending commitments to recover packets whose events were
  lost (e.g. to the WebSocket frame limit).  Unreceived packets pass the
  same recv filter as the event path; received ones have their acks
  relayed.

Every stage ends in the same *leg* (:meth:`DirectionWorker._relay_leg`):
*build* the batch's messages, prove each transaction's packets with one
``prove_packets`` query, prepend a ``MsgUpdateClient`` to the proof
height, *broadcast* and confirm.  The recv and ack stages run as
separate processes connected by queues, so batches pipeline: while block
``h``'s acks are being pulled, block ``h+1``'s packets can already be in
their transfer pull — matching Hermes's worker concurrency.  Every stage
asks one :class:`PacketLedger` what each packet has in flight, so none
relays a packet on a leg this worker's unconfirmed transactions carry.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any

from repro.errors import RpcError
from repro.ibc.msgs import MsgAcknowledgement, MsgRecvPacket, MsgTimeout, MsgUpdateClient
from repro.ibc.packet import Packet
from repro.relayer.endpoint import ChainEndpoint, SubmittedTx
from repro.relayer.events import WorkBatch
from repro.relayer.fleet import FleetMember
from repro.relayer.logging import RelayerLog
from repro.sim.core import SHUTDOWN, Environment, ProcessGroup
from repro.sim.records import dataclass
from repro.sim.resources import Store
from repro.trace import NULL_TRACER, packet_key


@dataclass
class PathEnd:
    """One side of a relay path."""

    chain_id: str
    client_id: str  # the light client ON this chain tracking the other one
    connection_id: str
    port_id: str
    channel_id: str


@dataclass
class RelayPath:
    """A fully established channel between two chains."""

    a: PathEnd
    b: PathEnd


def _by_sequence(packet: Packet) -> int:
    return packet.sequence


def _expired(packet: Packet, dst_height: int) -> bool:
    """Whether ``packet`` times out in a destination block at ``dst_height``."""
    timeout = packet.timeout_height
    return not timeout.is_zero and timeout.revision_height <= dst_height


#: Per leg: the ``prove_packets`` proof kind and the error stage logged
#: when that query fails.
_LEG_PROOFS = {
    "recv": ("commitment", "prove_recv"),
    "ack": ("ack", "prove_ack"),
    "timeout": ("absence", "timeout_proof"),
}

#: Ledger state bits: in flight on a leg, or reported received by ``dst``.
_RECV, _ACK, _TIMEOUT, _RECEIVED = 1, 2, 4, 8
#: Per leg: its bit, and the bits that refuse its claim.  An ack event
#: proves the recv executed, so only an ack in flight refuses an ack
#: claim; a timeout needs the packet idle.
_LEG_BITS = {
    "recv": (_RECV, _RECV | _TIMEOUT),
    "ack": (_ACK, _ACK),
    "timeout": (_TIMEOUT, _RECV | _ACK | _TIMEOUT),
}


class PacketLedger:
    """One direction's packets, each with its state bits.

    A packet is *tracked* from its send event (or a clear pass) until an
    ack or timeout for it settles.  A leg *claims* its packets before it
    builds and holds them until its transaction confirms or fails, or
    releases them at once if no transaction carries them.  A heap by
    timeout height makes a timeout poll O(expired); a packet the
    destination reports received leaves it.
    """

    def __init__(self) -> None:
        #: Tracked packets by sequence.
        self.packets: dict[int, Packet] = {}
        #: Sequence -> its leg bits and ``_RECEIVED`` (absent: none set).
        self._state: dict[int, int] = {}
        self._heap: list[tuple[int, int]] = []
        self._overdue: set[int] = set()

    def track(self, packet: Packet) -> None:
        if packet.sequence not in self.packets:
            self.packets[packet.sequence] = packet
            height = packet.timeout_height
            if not height.is_zero:
                heappush(self._heap, (height.revision_height, packet.sequence))

    def busy(self, leg: str, sequence: int) -> bool:
        """Whether a claim of ``sequence`` on ``leg`` is refused."""
        return bool(self._state.get(sequence, 0) & _LEG_BITS[leg][1])

    def claim(self, leg: str, packets: list[Packet]) -> list[Packet]:
        """Put ``packets`` in flight on ``leg``; returns the ones not refused."""
        state, (bit, refused) = self._state, _LEG_BITS[leg]
        claimed = [p for p in packets if not state.get(p.sequence, 0) & refused]
        for packet in claimed:
            state[packet.sequence] = state.get(packet.sequence, 0) | bit
        return claimed

    def release(self, leg: str, sequences: list[int], settled: bool = False) -> None:
        """Take ``sequences`` off ``leg``; untrack them if ``settled``."""
        state = self._state
        mask = ~(_LEG_BITS[leg][0] | (_RECEIVED if settled else 0))
        for sequence in sequences:
            bits = state.pop(sequence, 0) & mask
            if bits:
                state[sequence] = bits
            if settled:
                self.packets.pop(sequence, None)

    def received(self, sequences: list[int]) -> None:
        """The destination reported ``sequences`` received: no timeout."""
        state = self._state
        for sequence in sequences:
            if sequence in self.packets:
                state[sequence] = state.get(sequence, 0) | _RECEIVED
                self._overdue.discard(sequence)

    def overdue(self, dst_height: int) -> list[Packet]:
        """Tracked packets due at ``dst_height``, idle and not reported
        received, by sequence; one that stays so returns next poll."""
        heap, overdue, state = self._heap, self._overdue, self._state
        while heap and heap[0][0] <= dst_height:
            sequence = heappop(heap)[1]
            if not state.get(sequence, 0) & _RECEIVED:
                overdue.add(sequence)
        if not overdue:
            return []
        overdue.intersection_update(self.packets)
        return [self.packets[s] for s in sorted(overdue) if s not in state]


class DirectionWorker:
    """Relays packets ``src → dst`` and their acks ``dst → src``."""

    def __init__(
        self,
        env: Environment,
        src: ChainEndpoint,
        dst: ChainEndpoint,
        src_end: PathEnd,
        dst_end: PathEnd,
        clear_interval: int,
        pull_concurrency: int,
        log: RelayerLog,
        heights: dict[str, int],
        member: FleetMember,
        tracer=NULL_TRACER,
    ):
        self.env = env
        self.src = src
        self.dst = dst
        self.src_end = src_end
        self.dst_end = dst_end
        #: Packet-clear cadence in source blocks (0 disables the loop).
        self.clear_interval = clear_interval
        #: Concurrent in-flight packet-data pulls.
        self.pull_concurrency = pull_concurrency
        self.log = log
        self.tracer = tracer
        #: The relayer's seat in its fleet, consulted for batch ownership
        #: and clear permission.
        self.member = member
        self._track = f"{log.relayer}/worker/{src_end.chain_id}->{dst_end.chain_id}"
        #: Latest known height per chain (maintained by the supervisor).
        self.heights = heights

        self.recv_queue: Store = Store(env)
        self.ack_queue: Store = Store(env)
        self.ledger = PacketLedger()
        self._started = False
        self._clear_pending = False
        #: Every process this worker spawns (stage loops, confirmations,
        #: one-shot clears), so teardown/faults can interrupt them.
        self.processes = ProcessGroup(env)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        name = f"worker/{self.src_end.chain_id}->{self.dst_end.chain_id}"
        self.processes.spawn(self._recv_loop(), name=f"{name}/recv")
        self.processes.spawn(self._ack_loop(), name=f"{name}/ack")
        self.processes.spawn(self._timeout_loop(), name=f"{name}/timeout")
        if self.clear_interval > 0:
            self.processes.spawn(self._clear_loop(), name=f"{name}/clear")

    def stop(self) -> None:
        """Teardown: interrupt every stage loop and in-flight pull."""
        self._started = False
        self.processes.interrupt_all(SHUTDOWN)

    # -- Stage 1: receive relaying (src events -> dst transactions) --------------

    def _recv_loop(self):
        while True:
            batch: WorkBatch = yield self.recv_queue.get()
            yield from self._relay_recv_batch(batch)

    def _relay_recv_batch(self, batch: WorkBatch):
        batch = self.member.filter_batch(batch)
        if not batch.events:
            return
        # Track for timeout handling regardless of relay success.
        for event in batch.events:
            self.ledger.track(event.packet)

        # The *transfer data pull* (Fig. 12 step 4).
        packets: list[Packet] = []
        responses = yield from self._pull_batch(self.src, batch, "transfer_data_pull")
        for tx_hash, response in responses:
            expected = {e.packet.sequence for e in batch.events_for_tx(tx_hash)}
            for entry in response["entries"]:
                if entry["packet"].sequence in expected:
                    packets.append(entry["packet"])
        if packets:
            yield from self._relay_unreceived(packets, stage="unreceived")

    def _relay_unreceived(self, packets: list[Packet], stage: str):
        """The recv filter the event path and clearing share, then the leg.

        Packets already on a recv or timeout leg are left alone; the rest
        are claimed while ``dst`` is asked which it has received.  Those
        are skipped, and the ones that could land no earlier than their
        timeout height there are dropped: the timeout stage settles them.
        Returns the packets ``dst`` had already received (none when the
        query fails).
        """
        packets = self.ledger.claim("recv", packets)
        if not packets:
            return []
        sequences = [p.sequence for p in packets]
        wanted = yield from self._unreceived(sequences, stage)
        self.ledger.release("recv", sequences)  # the leg claims what it relays
        if wanted is None:
            return []
        received = [p for p in packets if p.sequence not in wanted]
        wanted_packets = [p for p in packets if p.sequence in wanted]
        if received:
            # Another relayer (or an earlier pass) got there first.
            self.log.info("skipped_already_received", count=len(received))
            self.ledger.received([p.sequence for p in received])
        # A transaction built now lands in the next block at the earliest.
        next_height = self.heights.get(self.dst_end.chain_id, 0) + 1
        live = sorted(
            (p for p in wanted_packets if not _expired(p, next_height)),
            key=_by_sequence,
        )
        if live:
            yield from self._relay_leg("recv", live)
        return received

    def _unreceived(self, sequences: list[int], stage: str):
        """The ``unreceived_packets`` query on ``dst``, as a membership set
        (never iterated: its order would depend on the hash seed, not the
        simulation — repro.lint D003); ``None`` when the query fails."""
        try:
            unreceived = yield from self.dst.query(
                "unreceived_packets",
                port=self.dst_end.port_id,
                channel=self.dst_end.channel_id,
                sequences=sequences,
            )
        except RpcError as exc:
            self.log.error("query_failed", stage=stage, reason=str(exc))
            return None
        return set(unreceived)

    def _pull_batch(self, endpoint: ChainEndpoint, batch: WorkBatch, step: str):
        """Per-tx packet-data pulls, ``pull_concurrency`` at a time.

        With the default concurrency of 1 this is the paper's serial query
        loop; the parallel-RPC ablation raises it together with the server's
        worker count.
        """
        responses: list[tuple[bytes, Any]] = []
        concurrency = self.pull_concurrency
        tx_hashes = batch.tx_hashes

        def one(tx_hash):
            started = self.env.now
            try:
                response = yield from endpoint.query(
                    "pull_packet_data",
                    height=batch.height,
                    tx_hash=tx_hash,
                    kind=batch.kind,
                )
            except RpcError as exc:
                self.log.error("query_failed", stage=step, reason=str(exc))
                return None
            # Stamped here (not after the concurrency barrier) so the record
            # and the span cover exactly this pull's wall time.
            self.log.info(
                step,
                height=batch.height,
                count=sum(1 for e in response["entries"] if e["packet"].data),
                duration=self.env.now - started,
            )
            if self.tracer.enabled:
                self.tracer.record_span(
                    step,
                    self._track,
                    start=started,
                    chain=endpoint.chain_id,
                    height=batch.height,
                    tx_hash=tx_hash,
                )
                for entry in response["entries"]:
                    packet = entry["packet"]
                    self.tracer.event(
                        f"{step}_done",
                        self._track,
                        key=packet_key(
                            entry["src_chain"], packet.source_channel, packet.sequence
                        ),
                        height=batch.height,
                        tx_hash=tx_hash,
                    )
            return response

        for start in range(0, len(tx_hashes), concurrency):
            group = tx_hashes[start : start + concurrency]
            # Spawned through the worker's group (not bare env.process) so
            # teardown can interrupt pulls still in flight.
            procs = [
                self.processes.spawn(one(tx_hash), name=f"pull/{step}")
                for tx_hash in group
            ]
            yield self.env.all_of(procs)
            responses += [
                (tx_hash, proc.value)
                for tx_hash, proc in zip(group, procs)
                if proc.value is not None
            ]
        return responses

    # -- Stage 2: acknowledgement relaying (dst events -> src transactions) ------

    def _ack_loop(self):
        while True:
            batch: WorkBatch = yield self.ack_queue.get()
            yield from self._relay_ack_batch(batch)

    def _relay_ack_batch(self, batch: WorkBatch):
        batch = self.member.filter_batch(batch)
        if not batch.events:
            return
        packets: list[Packet] = []
        acks: dict[int, Any] = {}
        responses = yield from self._pull_batch(self.dst, batch, "recv_data_pull")
        for _tx_hash, response in responses:
            for entry in response["entries"]:
                if entry["ack"] is None:
                    continue
                packet = entry["packet"]
                # Only handle packets belonging to our channel direction.
                if (
                    packet.source_port != self.src_end.port_id
                    or packet.source_channel != self.src_end.channel_id
                ):
                    continue
                packets.append(packet)
                acks[packet.sequence] = entry["ack"]
        if not packets:
            return
        try:
            unacked = yield from self.src.query(
                "unreceived_acks",
                port=self.src_end.port_id,
                channel=self.src_end.channel_id,
                sequences=[p.sequence for p in packets],
            )
        except RpcError as exc:
            self.log.error("query_failed", stage="unreceived_acks", reason=str(exc))
            return
        # Membership-only set; the submitted order is made canonical by
        # sorting on sequence so ack transactions replay identically.
        wanted = set(unacked)
        to_relay = sorted(
            (p for p in packets if p.sequence in wanted),
            key=_by_sequence,
        )
        if to_relay:
            yield from self._relay_leg("ack", to_relay, acks)

    # -- Timeout relaying --------------------------------------------------------

    def _timeout_loop(self):
        while True:
            yield self.env.timeout(self.src.cal.relayer_confirm_poll_seconds * 2)
            expired = self.ledger.overdue(self.heights.get(self.dst_end.chain_id, 0))
            if not expired:
                continue
            # A packet dst received after all is left to the ack stage.
            sequences = [p.sequence for p in expired]
            wanted = yield from self._unreceived(sequences, "timeout_unreceived")
            if wanted is None:
                continue
            self.ledger.received([s for s in sequences if s not in wanted])
            expired = [p for p in expired if p.sequence in wanted]
            if expired:
                yield from self._relay_leg("timeout", expired)

    # -- Packet clearing ---------------------------------------------------------

    def _clear_loop(self):
        interval = self.clear_interval * self.src.cal.min_block_interval
        while True:
            yield self.env.timeout(interval)
            yield from self.clear_once()

    def request_clear(self) -> None:
        """Run one out-of-band clear pass now (supervisor gap recovery):
        a resubscribed WebSocket stream revealed a height gap, whose
        events never arrived.  Concurrent requests coalesce, and a fleet
        member whose policy forbids clearing (a leader-policy standby)
        declines, so one gap never fans out into K duplicate scans.
        """
        if self._clear_pending or not self.member.may_clear():
            return
        self._clear_pending = True

        def one_shot():
            try:
                yield from self.clear_once()
            finally:
                self._clear_pending = False

        name = f"clear-gap/{self.src_end.chain_id}->{self.dst_end.chain_id}"
        self.processes.spawn(one_shot(), name=name)

    def clear_once(self):
        """Re-scan pending commitments on src and re-relay missing packets.

        Only the sequences this instance owns are cleared: under a
        sharded fleet each member re-relays its own partition, and a
        leader-policy standby clears nothing.
        """
        member = self.member
        if not member.may_clear():
            return
        try:
            sequences = yield from self.src.query(
                "commitments",
                port=self.src_end.port_id,
                channel=self.src_end.channel_id,
            )
        except RpcError as exc:
            self.log.error("query_failed", stage="clear_scan", reason=str(exc))
            return
        stale = sorted(
            s
            for s in sequences
            if not self.ledger.busy("recv", s) and member.owns_sequence(s)
        )
        if not stale:
            return
        self.log.info("packet_clear", count=len(stale))
        try:
            packets = yield from self.src.query(
                "packets_by_sequence",
                port=self.src_end.port_id,
                channel=self.src_end.channel_id,
                sequences=stale,
            )
        except RpcError as exc:
            self.log.error("query_failed", stage="clear_fetch", reason=str(exc))
            return
        if not packets:
            return
        for packet in packets:
            self.ledger.track(packet)
        received = yield from self._relay_unreceived(packets, "clear_unreceived")
        if not received:
            return
        # Ack-side clearing: packets already received on dst whose acks were
        # never relayed back (e.g. the ack events were lost to a WebSocket
        # failure).  Hermes's packet clearing covers this leg too.
        try:
            response = yield from self.dst.query(
                "acks_by_sequence",
                port=self.dst_end.port_id,
                channel=self.dst_end.channel_id,
                sequences=[p.sequence for p in received],
            )
        except RpcError as exc:
            self.log.error("query_failed", stage="clear_acks", reason=str(exc))
            return
        acks = response["acks"]
        stale_acked = [p for p in received if p.sequence in acks]
        if stale_acked:
            yield from self._relay_leg("ack", stale_acked, acks)

    # -- The relay leg: build -> prove -> submit -> confirm ----------------------

    def _relay_leg(
        self, leg: str, packets: list[Packet], acks: dict[int, Any] | None = None
    ):
        """Build, prove, submit and confirm one batch of packet messages.

        The one path of every packet transaction, for the ``packets`` the
        ledger lets it claim on ``leg``.  A ``recv`` leg submits
        ``MsgRecvPacket`` to ``dst`` with commitment proofs from ``src``;
        an ``ack`` leg (``acks`` maps sequence to acknowledgement) or a
        ``timeout`` leg submits ``MsgAcknowledgement`` / ``MsgTimeout`` to
        ``src`` with ack or absence proofs from ``dst``.

        The *build* stage runs for the whole batch before any broadcast —
        Hermes assembles all of a batch's messages first and then submits
        the transactions back to back, which is why the paper's 5 000
        receives land in a single destination block.  Each transaction's
        proofs and client-update header then come from a single
        ``prove_packets`` response (Hermes's abci_query pattern), so they
        are mutually consistent even when the proving chain advances
        between chunks.  A packet the response leaves unproven (already
        received, acked or settled) gets no message.
        """
        if leg == "recv":
            target, prover, prover_end = self.dst, self.src, self.src_end
            client_id = self.dst_end.client_id
        else:
            target, prover, prover_end = self.src, self.dst, self.dst_end
            client_id = self.src_end.client_id
        packets = self.ledger.claim(leg, packets)
        if not packets:
            return
        kind, stage = _LEG_PROOFS[leg]
        build_started = self.env.now
        self.log.info(f"{leg}_build", count=len(packets))
        yield self.env.timeout(target.cal.relayer_build_seconds_per_msg * len(packets))
        self.tracer.record_span(
            f"{leg}_build", self._track, start=build_started, count=len(packets)
        )
        size = target.cal.max_msgs_per_tx
        signer = target.factory.wallet.address
        for start in range(0, len(packets), size):
            chunk = packets[start : start + size]
            try:
                proven = yield from prover.query(
                    "prove_packets",
                    port=prover_end.port_id,
                    channel=prover_end.channel_id,
                    sequences=[p.sequence for p in chunk],
                    kind=kind,
                )
            except RpcError as exc:
                self.log.error("query_failed", stage=stage, reason=str(exc))
                proven = None
            header = proven["signed_header"] if proven else None
            proofs = proven["proofs"] if header is not None else {}
            self.ledger.release(
                leg, [p.sequence for p in chunk if p.sequence not in proofs]
            )
            proven_chunk = [p for p in chunk if p.sequence in proofs]
            if not proven_chunk:
                continue
            height = proven["proof_height"]
            if leg == "recv":
                msgs = [
                    MsgRecvPacket(p, proofs[p.sequence], height, signer)
                    for p in proven_chunk
                ]
            elif leg == "ack":
                msgs = [
                    MsgAcknowledgement(
                        p, acks[p.sequence], proofs[p.sequence], height, signer
                    )
                    for p in proven_chunk
                ]
            else:
                next_recv = proven["next_sequence_recv"]
                msgs = [
                    MsgTimeout(p, proofs[p.sequence], height, next_recv, signer)
                    for p in proven_chunk
                ]
            update = MsgUpdateClient(client_id=client_id, header=header, signer=signer)
            submitted = yield from target.submit_msgs(
                msgs,
                label=leg,
                prepend_msg=update,
                packet_src_chain=self.src.chain_id,
            )
            self.processes.spawn(
                self._confirm(target, submitted, leg), name=f"confirm/{leg}"
            )

    def _confirm(self, endpoint: ChainEndpoint, submitted: list[SubmittedTx], leg: str):
        """Confirm one leg's transactions and release their claims.  An ack
        or timeout that executed, or was rejected as redundant, settles
        its packets; anything else leaves them tracked."""
        confirmed = yield from endpoint.confirm_txs(submitted, leg)
        for entry in confirmed:
            settled = entry.executed_ok
            if entry.confirmed is not None and entry.confirmed.code != 0:
                settled = "redundant" in entry.confirmed.log
                if settled:
                    self.log.error(
                        "packet_messages_redundant",
                        chain=endpoint.chain_id,
                        tx_hash=entry.tx.hash,
                        log=entry.confirmed.log,
                    )
                else:
                    self.log.error(
                        "tx_execution_failed",
                        chain=endpoint.chain_id,
                        code=entry.confirmed.code,
                        log=entry.confirmed.log,
                    )
            sequences = [key[2] for key in entry.packet_keys]
            self.ledger.release(leg, sequences, settled=settled and leg != "recv")
