"""The relayer Supervisor (Fig. 4): event subscription and dispatch.

One listener process per chain consumes that chain's WebSocket stream,
parses events into per-block :class:`WorkBatch` items (the paper's
*extraction* steps) and routes them to the direction workers.  The
simulated parse is charged to every supervisor, but the host parses each
block once: every notification of a block refers to the chain's one
:class:`~repro.tendermint.websocket.BlockView`, which keeps the batches
of its first parse for every other relayer subscribed with the same
filter.  A failed
frame (>16 MB) surfaces here as ``Failed to collect events``; the
subscription stays latched server-side, so — exactly as the paper's §V
experiment shows — no further events arrive for it.
"""

from __future__ import annotations

from typing import Optional

from repro.calibration import RELAYER_BATCH_HANDOFF_SECONDS
from repro.errors import RpcError
from repro.relayer.config import RelayerConfig
from repro.relayer.events import WorkBatch, batches_from_notification
from repro.relayer.logging import RelayerLog
from repro.relayer.worker import DirectionWorker
from repro.sim.core import SHUTDOWN, Environment, ProcessGroup
from repro.tendermint.node import ChainNode
from repro.tendermint.websocket import (
    BlockNotification,
    Subscription,
    SubscriptionClosed,
)
from repro.trace import NULL_TRACER, packet_key

#: Event kinds the supervisor subscribes to per chain.  A frozenset: used
#: for membership filtering only, never iterated (repro.lint D003).
SUBSCRIBED_KINDS = frozenset(
    {"send_packet", "write_acknowledgement", "acknowledge_packet"}
)

#: First resubscribe backoff; doubles per attempt up to the cap.
RESUBSCRIBE_BACKOFF_SECONDS = 1.0
RESUBSCRIBE_MAX_BACKOFF_SECONDS = 30.0

#: Event kinds whose batches are handed to a direction worker's queue
#: (``acknowledge_packet`` batches are logged only).
_WORKER_KINDS = frozenset({"send_packet", "write_acknowledgement"})

#: Log-step name per extracted event kind (the paper's 13-step naming).
_EXTRACTION_STEP = {
    "send_packet": "transfer_extraction",
    "write_acknowledgement": "recv_extraction",
    "acknowledge_packet": "ack_extraction",
}


class Supervisor:
    """Subscribes to both chains and feeds the direction workers."""

    def __init__(
        self,
        env: Environment,
        log: RelayerLog,
        heights: dict[str, int],
        client_host: str,
        config: Optional[RelayerConfig] = None,
        tracer=NULL_TRACER,
    ):
        self.env = env
        self.log = log
        self.heights = heights
        self.client_host = client_host
        self.config = config or RelayerConfig()
        self.tracer = tracer
        #: (chain_id, channel) -> worker whose recv stage consumes that
        #: chain's send_packet events for that channel.
        self._recv_routes: dict[tuple[str, str], DirectionWorker] = {}
        #: (chain_id, channel) -> worker whose ack stage consumes that
        #: chain's write_acknowledgement events for that channel.
        self._ack_routes: dict[tuple[str, str], DirectionWorker] = {}
        self.subscriptions: dict[str, Subscription] = {}
        self._nodes: dict[str, ChainNode] = {}
        self._started = False
        #: Listener processes, one per attached chain, retained so faults
        #: and teardown can interrupt them.
        self.processes = ProcessGroup(env)

    def route(self, worker: DirectionWorker) -> None:
        """Register a direction worker's event routes (per channel)."""
        self._recv_routes[
            (worker.src_end.chain_id, worker.src_end.channel_id)
        ] = worker
        self._ack_routes[
            (worker.dst_end.chain_id, worker.dst_end.channel_id)
        ] = worker

    def attach(self, node: ChainNode) -> None:
        subscription = node.websocket.subscribe(
            self.client_host, event_types=SUBSCRIBED_KINDS
        )
        self.subscriptions[node.chain.chain_id] = subscription
        self._nodes[node.chain.chain_id] = node

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for chain_id, subscription in self.subscriptions.items():
            self.processes.spawn(
                self._listen(chain_id, subscription),
                name=f"supervisor/{chain_id}",
            )

    def stop(self) -> None:
        """Teardown: interrupt the listeners and close the subscriptions."""
        self._started = False
        self.processes.interrupt_all(SHUTDOWN)
        for chain_id, subscription in self.subscriptions.items():
            self._nodes[chain_id].websocket.unsubscribe(subscription)
        self.subscriptions.clear()

    # ------------------------------------------------------------------

    def _listen(self, chain_id: str, subscription: Subscription):
        #: Last height seen before a disconnect; set while a gap check is
        #: pending after a successful resubscribe.
        gap_from: Optional[int] = None
        heights = self.heights
        log_error = self.log.error
        calibration = self._nodes[chain_id].chain.cal
        parse_seconds = calibration.relayer_event_parse_seconds
        while True:
            item = yield subscription.queue.get()
            if isinstance(item, SubscriptionClosed):
                log_error(
                    "websocket_disconnected", chain=chain_id, reason=item.reason
                )
                # Deregister the dead subscription: the server keeps
                # delivering to registered subscriptions, so leaving it
                # behind leaks one queue per disconnect (stallcheck
                # residue finding).
                self._nodes[chain_id].websocket.unsubscribe(subscription)
                if not self.config.resubscribe_on_disconnect:
                    del self.subscriptions[chain_id]
                    return  # the stream is gone for good (Hermes 1.0.0-like)
                gap_from = heights.get(chain_id, 0)
                subscription = yield from self._resubscribe(chain_id)
                continue
            notification: BlockNotification = item
            heights[chain_id] = max(
                heights.get(chain_id, 0), notification.height
            )
            if gap_from is not None:
                if notification.height > gap_from + 1:
                    # Blocks committed during the outage: their events are
                    # lost, so hand the missed range to the clear machinery.
                    log_error(
                        "height_gap_detected",
                        chain=chain_id,
                        gap_from=gap_from,
                        resumed_at=notification.height,
                    )
                    self._recover_gap(chain_id)
                gap_from = None
            if not notification.ok:
                log_error(
                    "failed_to_collect_events",
                    chain=chain_id,
                    height=notification.height,
                    frame_bytes=notification.frame_bytes,
                )
                continue
            if not notification.events:
                continue
            # Parsing cost scales with the number of events in the frame.
            yield self.env.timeout(parse_seconds * len(notification.events))
            batches = batches_from_notification(notification)
            handed_off = False
            for batch in batches:
                if handed_off and batch.kind in _WORKER_KINDS:
                    # Hand-offs are serial: when one frame feeds several
                    # workers (hub blocks put send_packet *and* write_ack
                    # events in one tx), the later workers wake strictly
                    # after the first, so their follow-up queries cannot
                    # tie for the node's serial RPC slot.
                    yield self.env.timeout(RELAYER_BATCH_HANDOFF_SECONDS)
                handed_off = self._dispatch(chain_id, batch) or handed_off

    def _resubscribe(self, chain_id: str):
        """Re-open the WebSocket subscription with capped exponential
        backoff; keeps trying while the node is down."""
        node = self._nodes[chain_id]
        backoff = RESUBSCRIBE_BACKOFF_SECONDS
        attempt = 0
        while True:
            yield self.env.timeout(backoff)
            attempt += 1
            try:
                subscription = node.websocket.subscribe(
                    self.client_host, event_types=SUBSCRIBED_KINDS
                )
            except RpcError as exc:
                self.log.error(
                    "resubscribe_failed",
                    chain=chain_id,
                    attempt=attempt,
                    reason=str(exc),
                )
                backoff = min(backoff * 2.0, RESUBSCRIBE_MAX_BACKOFF_SECONDS)
                continue
            self.subscriptions[chain_id] = subscription
            self.log.info("resubscribed", chain=chain_id, attempt=attempt)
            return subscription

    def _recover_gap(self, chain_id: str) -> None:
        """Hand the missed heights to the clear machinery: every worker that
        consumes this chain's events re-scans pending commitments now.
        ``clear_once`` passes the unreceived packets (missed send_packet
        events) through the event path's recv filter and relay leg, and
        relays the acks of the received ones (missed
        write_acknowledgement events) through the ack leg.

        The supervisor is *not* the channel's only observer: in a K-relayer
        fleet every member sees the same gap.  ``request_clear`` is
        coordination-aware — a fleet member only scans the sequences its
        policy assigns it (and leader-policy standbys decline entirely), so
        one gap triggers K partitioned scans instead of K full duplicates."""
        for key in sorted(self._recv_routes):
            if key[0] == chain_id:
                self._recv_routes[key].request_clear()
        for key in sorted(self._ack_routes):
            if key[0] == chain_id:
                self._ack_routes[key].request_clear()

    def _dispatch(self, chain_id: str, batch: WorkBatch) -> bool:
        """Log/trace the batch; returns True if a worker queue received it."""
        step = _EXTRACTION_STEP.get(batch.kind)
        if step is not None:
            self.log.info(
                step, chain=chain_id, height=batch.height, count=len(batch)
            )
            if self.tracer.enabled:
                # One detect mark per packet: the relayer first learned of
                # this lifecycle step (extraction time, post frame parse).
                track = f"{self.log.relayer}/supervisor"
                for event in batch.events:
                    self.tracer.event(
                        "detect",
                        track,
                        key=packet_key(
                            event.src_chain,
                            event.packet.source_channel,
                            event.packet.sequence,
                        ),
                        kind=batch.kind,
                        chain=chain_id,
                        height=batch.height,
                        tx_hash=event.tx_hash,
                    )
        if batch.kind == "send_packet":
            worker = self._recv_routes.get((chain_id, batch.routing_channel))
            if worker is not None:
                worker.recv_queue.put(batch)
                return True
        elif batch.kind == "write_acknowledgement":
            worker = self._ack_routes.get((chain_id, batch.routing_channel))
            if worker is not None:
                worker.ack_queue.put(batch)
                return True
        # acknowledge_packet events are only logged (step 12 of Fig. 12);
        # the packet life cycle is complete when they appear.
        return False
