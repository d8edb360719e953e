"""Packet workers: the relayer's per-channel batch pipeline (Fig. 4).

One :class:`DirectionWorker` serves one direction of one channel (packets
src→dst plus their acknowledgements flowing back).  Work arrives as
per-block batches from the supervisor and moves through the stages the
paper's Fig. 12 names:

* **recv stage** — *transfer data pull* (one serial RPC query per source
  transaction, cost scaling with the height's event count), filter against
  already-received sequences, *build* ``MsgRecvPacket`` messages, *broadcast*
  to the destination, and confirm.
* **ack stage** — triggered by ``write_acknowledgement`` events from the
  destination: *recv data pull* (the single largest cost in the paper's
  breakdown), *build* ``MsgAcknowledgement``, *broadcast* to the source,
  confirm.
* **timeout stage** — packets whose timeout height passed on the
  destination before receipt are settled with ``MsgTimeout``.
* **clear loop** — when ``clear_interval > 0``, periodically re-scans the
  source chain's pending commitments to recover packets whose events were
  lost (e.g. to the WebSocket frame limit).

The two stages run as separate processes connected by queues, so batches
pipeline: while block ``h``'s acks are being pulled, block ``h+1``'s
packets can already be in their transfer pull — matching Hermes's worker
concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any

from repro.errors import RpcError
from repro.ibc.msgs import MsgAcknowledgement, MsgRecvPacket, MsgTimeout, MsgUpdateClient
from repro.ibc.packet import Packet
from repro.relayer.config import RelayerConfig
from repro.relayer.endpoint import ChainEndpoint, SubmittedTx
from repro.relayer.events import WorkBatch
from repro.relayer.fleet import FleetMember
from repro.relayer.logging import RelayerLog
from repro.sim.core import SHUTDOWN, Environment, ProcessGroup
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


class TimeoutIndex:
    """Pending packets ordered by timeout height, so a poll costs O(expired).

    Each packet is pushed once as it enters ``pending``.  A poll moves every
    entry due at the (monotonic) destination height into the overdue set,
    drops the overdue sequences no longer pending, and returns the rest
    minus those in flight.  That is exactly the packets of ``pending`` with
    a non-zero timeout height at or below the destination height and not
    in flight.  They come sorted by sequence, so timeout submission order
    does not depend on pending-dict insertion history.  An overdue packet
    that stays pending (it was in flight, or turned out to be received) is
    returned again next poll.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int]] = []
        self._overdue: set[int] = set()

    def add(self, packet: Packet) -> None:
        if not packet.timeout_height.is_zero:
            heappush(
                self._heap, (packet.timeout_height.revision_height, packet.sequence)
            )

    def expired(
        self, pending: dict[int, Packet], in_flight: set[int], dst_height: int
    ) -> list[Packet]:
        heap, overdue = self._heap, self._overdue
        while heap and heap[0][0] <= dst_height:
            overdue.add(heappop(heap)[1])
        if not overdue:
            return []
        overdue.intersection_update(pending)
        return [pending[s] for s in sorted(overdue) if s not in in_flight]


class DirectionWorker:
    """Relays packets ``src → dst`` and their acks ``dst → src``."""

    def __init__(
        self,
        env: Environment,
        src: ChainEndpoint,
        dst: ChainEndpoint,
        src_end: PathEnd,
        dst_end: PathEnd,
        config: RelayerConfig,
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
        self.config = config
        self.log = log
        self.tracer = tracer
        #: The relayer's seat in its fleet, consulted for batch ownership
        #: and clear permission.
        self.member = member
        self._track = (
            f"{log.relayer}/worker/{src_end.chain_id}->{dst_end.chain_id}"
        )
        #: Latest known height per chain (maintained by the supervisor).
        self.heights = heights

        self.recv_queue: Store = Store(env)
        self.ack_queue: Store = Store(env)
        #: Packets sent on src whose acks we have not yet relayed.
        self.pending: dict[int, Packet] = {}
        self._timeouts = TimeoutIndex()
        #: Sequences currently being relayed (avoid double work in clearing).
        self._in_flight: set[int] = set()
        self._started = False
        self._clear_pending = False
        #: Every process this worker spawns (stage loops, confirmations,
        #: one-shot clears), so teardown/faults can interrupt them.
        self.processes = ProcessGroup(env)

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        name = f"worker/{self.src_end.chain_id}->{self.dst_end.chain_id}"
        self.processes.spawn(self._recv_loop(), name=f"{name}/recv")
        self.processes.spawn(self._ack_loop(), name=f"{name}/ack")
        self.processes.spawn(self._timeout_loop(), name=f"{name}/timeout")
        if self.config.clear_interval > 0:
            self.processes.spawn(self._clear_loop(), name=f"{name}/clear")

    def stop(self) -> None:
        """Teardown: interrupt every stage loop and in-flight pull."""
        self._started = False
        self.processes.interrupt_all(SHUTDOWN)

    # ------------------------------------------------------------------
    # Stage 1: receive relaying (src events -> dst transactions)
    # ------------------------------------------------------------------

    def _recv_loop(self):
        while True:
            batch: WorkBatch = yield self.recv_queue.get()
            yield from self._relay_recv_batch(batch)

    def _add_pending(self, packet: Packet) -> None:
        if packet.sequence not in self.pending:
            self.pending[packet.sequence] = packet
            self._timeouts.add(packet)

    def _owned(self, batch: WorkBatch) -> WorkBatch:
        """Keep only the work this relayer instance owns: the fleet
        member's policy filter (sequence ownership)."""
        return self.member.filter_batch(batch)

    def _relay_recv_batch(self, batch: WorkBatch):
        batch = self._owned(batch)
        if not batch.events:
            return
        # Track for timeout handling regardless of relay success.
        for event in batch.events:
            self._add_pending(event.packet)

        packets = yield from self._pull_send_data(batch)
        if not packets:
            return
        sequences = [p.sequence for p in packets]
        self._in_flight.update(sequences)
        try:
            try:
                unreceived = yield from self.dst.query(
                    "unreceived_packets",
                    port=self.dst_end.port_id,
                    channel=self.dst_end.channel_id,
                    sequences=sequences,
                )
            except RpcError as exc:
                self.log.error("query_failed", stage="unreceived", reason=str(exc))
                return
            # Membership set only — never iterated: iteration order would
            # depend on the hash seed, not the simulation (repro.lint D003).
            wanted = set(unreceived)
            to_relay = sorted(
                (p for p in packets if p.sequence in wanted),
                key=lambda p: p.sequence,
            )
            skipped = len(packets) - len(to_relay)
            if skipped:
                # Another relayer won the race before we even built the msgs.
                self.log.info("skipped_already_received", count=skipped)
            # Drop packets already past their timeout at the destination —
            # those go through the timeout stage instead.
            dst_height = self.heights.get(self.dst_end.chain_id, 0)
            live = [
                p
                for p in to_relay
                if p.timeout_height.is_zero
                or dst_height < p.timeout_height.revision_height
            ]
            if not live:
                return
            yield from self._submit_recv_chunks(live)
        finally:
            self._in_flight.difference_update(sequences)

    def _submit_recv_chunks(self, packets: list[Packet]):
        """Build and submit recv transactions, one proof fetch per chunk.

        Each transaction's proofs and client-update header come from a
        single ``prove_packets`` response (Hermes's abci_query pattern), so
        they are mutually consistent even when the source chain advances
        between chunks.

        The *build* stage runs for the whole batch before any broadcast —
        Hermes assembles all of a batch's messages first and then submits
        the transactions back to back, which is why the paper's 5 000
        receives land in a single destination block.
        """
        dst = self.dst
        build_started = self.env.now
        self.log.info("recv_build", count=len(packets))
        yield self.env.timeout(
            dst.cal.relayer_build_seconds_per_msg * len(packets)
        )
        self.tracer.record_span(
            "recv_build", self._track, start=build_started, count=len(packets)
        )
        size = dst.cal.max_msgs_per_tx
        signer = dst.factory.wallet.address
        for start in range(0, len(packets), size):
            chunk = packets[start : start + size]
            try:
                proven = yield from self.src.query(
                    "prove_packets",
                    port=self.src_end.port_id,
                    channel=self.src_end.channel_id,
                    sequences=[p.sequence for p in chunk],
                    kind="commitment",
                )
            except RpcError as exc:
                self.log.error("query_failed", stage="prove_recv", reason=str(exc))
                continue
            header = proven["signed_header"]
            proofs = proven["proofs"]
            if header is None:
                continue
            msgs = [
                MsgRecvPacket(
                    packet=packet,
                    proof_commitment=proofs[packet.sequence],
                    proof_height=proven["proof_height"],
                    signer=signer,
                )
                for packet in chunk
                if packet.sequence in proofs
            ]
            if not msgs:
                continue
            update = MsgUpdateClient(
                client_id=self.dst_end.client_id,
                header=header,
                signer=signer,
            )
            submitted = yield from dst.submit_msgs(
                msgs,
                label="recv",
                prepend_msg=update,
                packet_src_chain=self.src.chain_id,
            )
            self.processes.spawn(
                self._confirm(dst, submitted, "recv"), name="confirm/recv"
            )

    def _pull_batch(self, endpoint: ChainEndpoint, batch: WorkBatch, step: str):
        """Per-tx packet-data pulls, ``pull_concurrency`` at a time.

        With the default concurrency of 1 this is the paper's serial query
        loop; the parallel-RPC ablation raises it together with the server's
        worker count.
        """
        responses: list[tuple[bytes, Any]] = []
        concurrency = max(1, self.config.pull_concurrency)
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
                return None, started
            if self.tracer.enabled:
                # Stamped here (not after the concurrency barrier) so the
                # span covers exactly this pull's wall time.
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
            return response, started

        env = self.env
        for start in range(0, len(tx_hashes), concurrency):
            group = tx_hashes[start : start + concurrency]
            # Spawned through the worker's group (not bare env.process) so
            # teardown can interrupt pulls still in flight.
            procs = [
                self.processes.spawn(one(tx_hash), name=f"pull/{step}")
                for tx_hash in group
            ]
            yield env.all_of(procs)
            for tx_hash, proc in zip(group, procs):
                response, started = proc.value
                if response is None:
                    continue
                self.log.info(
                    step,
                    height=batch.height,
                    count=sum(1 for e in response["entries"] if e["packet"].data),
                    duration=env.now - started,
                )
                responses.append((tx_hash, response))
        return responses

    def _pull_send_data(self, batch: WorkBatch):
        """The *transfer data pull* (Fig. 12 step 4)."""
        packets: list[Packet] = []
        responses = yield from self._pull_batch(
            self.src, batch, "transfer_data_pull"
        )
        for tx_hash, response in responses:
            expected = {e.packet.sequence for e in batch.events_for_tx(tx_hash)}
            for entry in response["entries"]:
                if entry["packet"].sequence in expected:
                    packets.append(entry["packet"])
        return packets

    # ------------------------------------------------------------------
    # Stage 2: acknowledgement relaying (dst events -> src transactions)
    # ------------------------------------------------------------------

    def _ack_loop(self):
        while True:
            batch: WorkBatch = yield self.ack_queue.get()
            yield from self._relay_ack_batch(batch)

    def _relay_ack_batch(self, batch: WorkBatch):
        batch = self._owned(batch)
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
        sequences = [p.sequence for p in packets]
        try:
            unacked = yield from self.src.query(
                "unreceived_acks",
                port=self.src_end.port_id,
                channel=self.src_end.channel_id,
                sequences=sequences,
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
        if not to_relay:
            return
        yield from self._submit_ack_chunks(to_relay, acks)

    def _submit_ack_chunks(self, packets: list[Packet], acks: dict[int, Any]):
        """Build and submit ack transactions with per-chunk proof fetches.

        As with receives, the build stage covers the whole batch before the
        back-to-back broadcasts.
        """
        src = self.src
        build_started = self.env.now
        self.log.info("ack_build", count=len(packets))
        yield self.env.timeout(
            src.cal.relayer_build_seconds_per_msg * len(packets)
        )
        self.tracer.record_span(
            "ack_build", self._track, start=build_started, count=len(packets)
        )
        size = src.cal.max_msgs_per_tx
        signer = src.factory.wallet.address
        for start in range(0, len(packets), size):
            chunk = packets[start : start + size]
            try:
                proven = yield from self.dst.query(
                    "prove_packets",
                    port=self.dst_end.port_id,
                    channel=self.dst_end.channel_id,
                    sequences=[p.sequence for p in chunk],
                    kind="ack",
                )
            except RpcError as exc:
                self.log.error("query_failed", stage="prove_ack", reason=str(exc))
                continue
            header = proven["signed_header"]
            proofs = proven["proofs"]
            if header is None:
                continue
            msgs = [
                MsgAcknowledgement(
                    packet=packet,
                    acknowledgement=acks[packet.sequence],
                    proof_acked=proofs[packet.sequence],
                    proof_height=proven["proof_height"],
                    signer=signer,
                )
                for packet in chunk
                if packet.sequence in proofs
            ]
            if not msgs:
                continue
            update = MsgUpdateClient(
                client_id=self.src_end.client_id,
                header=header,
                signer=signer,
            )
            submitted = yield from src.submit_msgs(
                msgs, label="ack", prepend_msg=update
            )
            for msg in msgs:
                self.pending.pop(msg.packet.sequence, None)
            self.processes.spawn(
                self._confirm(src, submitted, "ack"), name="confirm/ack"
            )

    # ------------------------------------------------------------------
    # Timeout relaying
    # ------------------------------------------------------------------

    def _timeout_loop(self):
        while True:
            yield self.env.timeout(self.src.cal.relayer_confirm_poll_seconds * 2)
            if not self.pending:
                continue
            expired = self._timeouts.expired(
                self.pending,
                self._in_flight,
                self.heights.get(self.dst_end.chain_id, 0),
            )
            if expired:
                yield from self._relay_timeouts(expired)

    def _relay_timeouts(self, expired: list[Packet]):
        # Group messages by the header they were proven against so each
        # transaction's client update matches its proofs.
        src = self.src
        signer = src.factory.wallet.address
        by_header: dict[int, tuple[Any, list[MsgTimeout]]] = {}
        for packet in expired:
            try:
                response = yield from self.dst.query(
                    "prove_unreceived",
                    port=self.dst_end.port_id,
                    channel=self.dst_end.channel_id,
                    sequence=packet.sequence,
                )
            except RpcError as exc:
                self.log.error("query_failed", stage="timeout_proof", reason=str(exc))
                continue
            if response["received"]:
                # It made it after all; the ack path will settle it.
                continue
            header = response["signed_header"]
            if header is None:
                continue
            msg = MsgTimeout(
                packet=packet,
                proof_unreceived=response["proof"],
                proof_height=header.height,
                next_sequence_recv=response["next_sequence_recv"],
                signer=signer,
            )
            by_header.setdefault(header.height, (header, []))[1].append(msg)
        for _height, (header, msgs) in sorted(by_header.items()):
            update = MsgUpdateClient(
                client_id=self.src_end.client_id,
                header=header,
                signer=signer,
            )
            self.log.info("timeout_build", count=len(msgs))
            submitted = yield from src.submit_msgs(
                msgs,
                label="timeout",
                build_seconds_per_msg=src.cal.relayer_build_seconds_per_msg,
                prepend_msg=update,
            )
            for msg in msgs:
                self.pending.pop(msg.packet.sequence, None)
            self.processes.spawn(
                self._confirm(src, submitted, "timeout"), name="confirm/timeout"
            )

    # ------------------------------------------------------------------
    # Packet clearing
    # ------------------------------------------------------------------

    def _clear_loop(self):
        interval = self.config.clear_interval * self.src.cal.min_block_interval
        while True:
            yield self.env.timeout(interval)
            yield from self.clear_once()

    def request_clear(self) -> None:
        """Run one out-of-band clear pass now (supervisor gap recovery).

        Used when a resubscribed WebSocket stream reveals a height gap:
        events committed during the outage never arrived, so the pending
        commitments are re-scanned immediately instead of waiting for the
        next ``clear_interval`` tick.  Concurrent requests coalesce, and
        a fleet member whose policy forbids clearing (a leader-policy
        standby) declines — one gap on a shared channel must not fan out
        into K duplicate clear scans.
        """
        if not self.member.may_clear():
            return
        if self._clear_pending:
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
            if s not in self._in_flight and member.owns_sequence(s)
        )
        if not stale:
            return
        self.log.info("packet_clear", count=len(stale))
        try:
            response = yield from self.src.query(
                "packets_by_sequence",
                port=self.src_end.port_id,
                channel=self.src_end.channel_id,
                sequences=stale,
            )
        except RpcError as exc:
            self.log.error("query_failed", stage="clear_fetch", reason=str(exc))
            return
        header = response["signed_header"]
        if header is None:
            return
        proof_height = response["proof_height"]
        entries = response["entries"]
        if not entries:
            return
        packets = [e["packet"] for e in entries]
        for packet in packets:
            self._add_pending(packet)
        try:
            unreceived = yield from self.dst.query(
                "unreceived_packets",
                port=self.dst_end.port_id,
                channel=self.dst_end.channel_id,
                sequences=[p.sequence for p in packets],
            )
        except RpcError as exc:
            self.log.error("query_failed", stage="clear_unreceived", reason=str(exc))
            return
        wanted = set(unreceived)
        msgs = []
        for packet, entry in zip(packets, entries):
            if packet.sequence in wanted and entry["proof"] is not None:
                msgs.append(
                    MsgRecvPacket(
                        packet=packet,
                        proof_commitment=entry["proof"],
                        proof_height=proof_height,
                        signer=self.dst.factory.wallet.address,
                    )
                )
        if msgs:
            update = MsgUpdateClient(
                client_id=self.dst_end.client_id,
                header=header,
                signer=self.dst.factory.wallet.address,
            )
            submitted = yield from self.dst.submit_msgs(
                msgs,
                label="recv",
                build_seconds_per_msg=self.dst.cal.relayer_build_seconds_per_msg,
                prepend_msg=update,
                packet_src_chain=self.src.chain_id,
            )
            self.processes.spawn(
                self._confirm(self.dst, submitted, "recv"), name="confirm/clear"
            )
        # Ack-side clearing: packets already received on dst whose acks were
        # never relayed back (e.g. the ack events were lost to a WebSocket
        # failure).  Hermes's packet clearing covers this leg too.
        received_pending = [p for p in packets if p.sequence not in wanted]
        if received_pending:
            try:
                response = yield from self.dst.query(
                    "acks_by_sequence",
                    port=self.dst_end.port_id,
                    channel=self.dst_end.channel_id,
                    sequences=[p.sequence for p in received_pending],
                )
            except RpcError as exc:
                self.log.error(
                    "query_failed", stage="clear_acks", reason=str(exc)
                )
                return
            acks = response["acks"]
            stale_acked = [p for p in received_pending if p.sequence in acks]
            if stale_acked:
                yield from self._submit_ack_chunks(stale_acked, acks)

    # ------------------------------------------------------------------

    def _confirm(self, endpoint: ChainEndpoint, submitted: list[SubmittedTx], label: str):
        confirmed = yield from endpoint.confirm_txs(submitted, label)
        for entry in confirmed:
            if entry.confirmed is not None and entry.confirmed.code != 0:
                if "redundant" in entry.confirmed.log:
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
