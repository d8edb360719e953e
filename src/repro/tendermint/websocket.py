"""Tendermint WebSocket event subscriptions, with the 16 MB frame limit.

Every node publishes each committed block; each subscriber (a relayer
supervisor) receives one notification per block, carrying a descriptor
per event of the kinds it subscribed to.  A packet event's descriptor
references the event's frozen :class:`~repro.ibc.packet.Packet` rather
than a copy of it, and descriptors are built only when the node has a
subscription.  The *frame size* — the simulated payload — is the sum of
the events' indexed ``size_bytes`` plus an envelope, computed for every
block whether or not anyone listens; when it exceeds
``websocket_max_frame_bytes`` the server fails the delivery and the
subscription latches into an error state.  Hermes logs this as ``Failed
to collect events`` and, as the paper's §V experiment shows, never
recovers for that subscription: the events of the oversized block are lost
and (with ``clear_interval=0``) so are all later packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Optional

from repro import calibration as cal
from repro.errors import NodeUnavailableError, WebSocketFrameTooLargeError
from repro.sim.core import Environment
from repro.sim.network import Network
from repro.sim.resources import Store
from repro.tendermint.abci import ExecutedBlock
from repro.trace import NULL_TRACER

if TYPE_CHECKING:
    from repro.ibc.packet import Packet


@dataclass(slots=True)
class EventDescriptor:
    """What a subscriber learns about one event from the notification.

    ``packet`` and ``src_chain`` are the event's own (None and "" for a
    non-packet event).
    """

    type: str
    height: int
    tx_hash: Optional[bytes]
    packet: Optional["Packet"] = None
    src_chain: str = ""


@dataclass(slots=True)
class BlockNotification:
    """One WebSocket frame: NewBlock plus the block's events."""

    chain_id: str
    height: int
    time: float
    frame_bytes: int
    events: list[EventDescriptor]
    error: Optional[WebSocketFrameTooLargeError] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(slots=True)
class SubscriptionClosed:
    """Pushed into a subscription's queue when the connection drops.

    Distinct from the §V frame-limit latch: a closed subscription stops
    receiving frames entirely (connection-level), whereas a latched one
    stays connected but yields no events.  The subscriber must open a
    *new* subscription to resume.
    """

    chain_id: str
    time: float
    reason: str = "connection reset"


@dataclass(slots=True)
class Subscription:
    """One client's subscription to a node's event stream."""

    subscriber_host: str
    queue: Store
    #: Membership filter only — kept frozen so it can never be iterated in
    #: an order-sensitive path (repro.lint D003).
    event_types: Optional[frozenset[str]] = None
    failed: bool = False
    #: Connection dropped (fault injection); no further frames arrive.
    disconnected: bool = False
    delivered: int = 0
    failures: int = 0
    #: Blocks committed while the subscription was disconnected.
    missed: int = 0


class WebSocketServer:
    """Per-node event server fed by the consensus engine."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        host: str,
        chain_id: str,
        calibration: Optional[cal.Calibration] = None,
        tracer=NULL_TRACER,
    ):
        self.env = env
        self.network = network
        self.host = host
        self.chain_id = chain_id
        self.cal = calibration or cal.DEFAULT_CALIBRATION
        self.tracer = tracer
        self.subscriptions: list[Subscription] = []
        #: Largest frame computed so far (tracked even with no
        #: subscribers, so reports can show how close blocks came to the
        #: §V limit).
        self.max_frame_bytes = 0
        #: Fault-injection state: a crashed node accepts no subscriptions.
        self.crashed = False

    def subscribe(
        self,
        subscriber_host: str,
        event_types: Optional[Collection[str]] = None,
    ) -> Subscription:
        if self.crashed:
            raise NodeUnavailableError(
                f"connection refused: node {self.host} is down"
            )
        subscription = Subscription(
            subscriber_host=subscriber_host,
            queue=Store(self.env),
            event_types=frozenset(event_types) if event_types else None,
        )
        self.subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        if subscription in self.subscriptions:
            self.subscriptions.remove(subscription)

    def resubscribe(self, subscription: Subscription) -> None:
        """Clear a failed subscription's error latch (client reconnect)."""
        subscription.failed = False

    # -- fault injection ------------------------------------------------------

    def disconnect(self, subscription: Subscription, reason: str) -> None:
        """Drop one subscription's connection mid-stream.

        The subscription stays registered (so ``missed`` counts the blocks
        it never sees) but receives a :class:`SubscriptionClosed` sentinel
        and no further frames; the client must call :meth:`subscribe` again.
        """
        if subscription.disconnected:
            return
        subscription.disconnected = True
        closed = SubscriptionClosed(
            chain_id=self.chain_id, time=self.env.now, reason=reason
        )
        delay = self.network.delay(self.host, subscription.subscriber_host)
        self.env.schedule_callback(
            delay, lambda: subscription.queue.put(closed)
        )

    def disconnect_all(self, reason: str) -> None:
        """Drop every live subscription (node crash / restart)."""
        for subscription in list(self.subscriptions):
            self.disconnect(subscription, reason)

    def set_crashed(self, crashed: bool) -> None:
        """Mark the node down (up); going down severs every connection."""
        self.crashed = crashed
        if crashed:
            self.disconnect_all("node down")

    # ------------------------------------------------------------------

    def publish_block(self, executed: ExecutedBlock) -> None:
        """Called by the node for each committed block."""
        frame_bytes = 200  # envelope
        for item in executed.txs:
            if item.result.ok:
                for event in item.result.events:
                    frame_bytes += event.size_bytes
        if frame_bytes > self.max_frame_bytes:
            self.max_frame_bytes = frame_bytes
        if not self.subscriptions:
            return
        height = executed.height
        descriptors = [
            EventDescriptor(
                event.type, height, item.hash, event.packet, event.src_chain
            )
            for item in executed.txs
            if item.result.ok
            for event in item.result.events
        ]
        # The server writes frames to its subscribers serially: subscriber
        # k's frame goes on the wire only after the first k frames.  The
        # stagger also keeps two same-node subscribers from observing a
        # block at the exact same instant — their follow-up queries would
        # otherwise race for the serial RPC slot in event-heap tie order.
        offset = 0.0
        for subscription in self.subscriptions:
            if self._deliver(
                subscription, executed, descriptors, frame_bytes, offset
            ):
                offset += frame_bytes * 8e-9

    def _deliver(
        self,
        subscription: Subscription,
        executed: ExecutedBlock,
        descriptors: list[EventDescriptor],
        frame_bytes: int,
        send_offset: float = 0.0,
    ) -> bool:
        if subscription.disconnected:
            subscription.missed += 1
            return False
        if subscription.failed:
            # The paper's observation: after a frame failure the
            # subscription stops yielding events entirely.
            subscription.failures += 1
            return False
        selected = [
            d
            for d in descriptors
            if subscription.event_types is None or d.type in subscription.event_types
        ]
        if frame_bytes > self.cal.websocket_max_frame_bytes:
            subscription.failed = True
            subscription.failures += 1
            notification = BlockNotification(
                chain_id=self.chain_id,
                height=executed.height,
                time=executed.time,
                frame_bytes=frame_bytes,
                events=[],
                error=WebSocketFrameTooLargeError(
                    size=frame_bytes, limit=self.cal.websocket_max_frame_bytes
                ),
            )
        else:
            notification = BlockNotification(
                chain_id=self.chain_id,
                height=executed.height,
                time=executed.time,
                frame_bytes=frame_bytes,
                events=selected,
            )
        delay = self.network.delay(self.host, subscription.subscriber_host)
        # Large frames also take wire time (frame bytes / ~1 Gbps), behind
        # whatever the server already has on the wire (``send_offset``).
        delay += frame_bytes * 8e-9 + send_offset

        def push() -> None:
            subscription.delivered += 1
            self.tracer.event(
                "ws_frame",
                f"{self.chain_id}/{self.host}/ws",
                subscriber=subscription.subscriber_host,
                height=executed.height,
                events=len(notification.events),
                frame_bytes=frame_bytes,
                ok=notification.ok,
            )
            subscription.queue.put(notification)

        self.env.schedule_callback(delay, push)
        return True
