"""Tendermint WebSocket event subscriptions, with the 16 MB frame limit.

Every node publishes each committed block; each subscriber (a relayer
supervisor) receives one notification per block, carrying a descriptor
per event of the kinds it subscribed to.  The chain builds one
:class:`BlockView` per committed block and every node's server publishes
that same view, so the host work of a block is paid once, not once per
node or per subscriber: the frame is counted once, each subscription
filter's descriptors are built once (and only if some server has a
subscription with that filter), and the relayer's work batches of a
selection are parsed once (``BlockView.batches``).  A packet
event's descriptor references the event's frozen
:class:`~repro.ibc.packet.Packet` rather than a copy of it.

The *frame size* — the simulated payload — is the sum of the events'
indexed ``size_bytes`` plus an envelope, computed for every block
whether or not anyone listens; when it exceeds
``websocket_max_frame_bytes`` the server fails the delivery and the
subscription latches into an error state.  Hermes logs this as ``Failed
to collect events`` and, as the paper's §V experiment shows, never
recovers for that subscription: the events of the oversized block are lost
and (with ``clear_interval=0``) so are all later packets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Collection, Optional

from repro import calibration as cal
from repro.errors import NodeUnavailableError, WebSocketFrameTooLargeError
from repro.sim.core import Environment
from repro.sim.network import Network
from repro.sim.records import dataclass
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


class BlockView:
    """One committed block as its event readers see it, built once per
    chain (``Chain._fanout_block``) and shared by every node's server and
    every subscriber.

    ``frame_bytes`` is the envelope plus the OK transactions' event bytes.
    :meth:`select` builds the descriptors a subscription filter passes, on
    the first request per filter.  ``batches`` holds each filter's
    relayer work batches, keyed by the filter and filled by
    :func:`repro.relayer.events.batches_from_notification`.
    """

    __slots__ = (
        "chain_id",
        "height",
        "time",
        "frame_bytes",
        "batches",
        "_executed",
        "_selections",
    )

    def __init__(self, chain_id: str, executed: ExecutedBlock):
        self.chain_id = chain_id
        self.height = executed.height
        self.time = executed.time
        frame_bytes = 200  # envelope
        for item in executed.txs:
            if item.result.ok:
                for event in item.result.events:
                    frame_bytes += event.size_bytes
        self.frame_bytes = frame_bytes
        self.batches: dict[Optional[frozenset[str]], list[Any]] = {}
        self._executed = executed
        self._selections: dict[Optional[frozenset[str]], list[EventDescriptor]] = {}

    def select(self, event_types: Optional[frozenset[str]]) -> list[EventDescriptor]:
        """The descriptors of the events whose type ``event_types`` admits
        (all of them for ``None``), in block order."""
        selection = self._selections.get(event_types)
        if selection is None:
            height = self.height
            selection = self._selections[event_types] = [
                EventDescriptor(
                    event.type, height, item.hash, event.packet, event.src_chain
                )
                for item in self._executed.txs
                if item.result.ok
                for event in item.result.events
                if event_types is None or event.type in event_types
            ]
        return selection


@dataclass(slots=True)
class BlockNotification:
    """One WebSocket frame: a block's view through one subscription's
    filter (``event_types``), or the frame-limit ``error``."""

    view: BlockView
    event_types: Optional[frozenset[str]] = None
    error: Optional[WebSocketFrameTooLargeError] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def chain_id(self) -> str:
        return self.view.chain_id

    @property
    def height(self) -> int:
        return self.view.height

    @property
    def time(self) -> float:
        return self.view.time

    @property
    def frame_bytes(self) -> int:
        return self.view.frame_bytes

    @property
    def events(self) -> list[EventDescriptor]:
        """The block's events this subscription receives (none on error)."""
        if self.error is not None:
            return []
        return self.view.select(self.event_types)


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

    def publish_block(self, view: BlockView) -> None:
        """Called by the node for each committed block."""
        frame_bytes = view.frame_bytes
        if frame_bytes > self.max_frame_bytes:
            self.max_frame_bytes = frame_bytes
        if not self.subscriptions:
            return
        # The server writes frames to its subscribers serially: subscriber
        # k's frame goes on the wire only after the first k frames.  The
        # stagger also keeps two same-node subscribers from observing a
        # block at the exact same instant — their follow-up queries would
        # otherwise race for the serial RPC slot in event-heap tie order.
        offset = 0.0
        for subscription in self.subscriptions:
            if self._deliver(subscription, view, offset):
                offset += frame_bytes * 8e-9

    def _deliver(
        self,
        subscription: Subscription,
        view: BlockView,
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
        frame_bytes = view.frame_bytes
        limit = self.cal.websocket_max_frame_bytes
        if frame_bytes > limit:
            subscription.failed = True
            subscription.failures += 1
            notification = BlockNotification(
                view,
                error=WebSocketFrameTooLargeError(size=frame_bytes, limit=limit),
            )
        else:
            notification = BlockNotification(view, subscription.event_types)
        delay = self.network.delay(self.host, subscription.subscriber_host)
        # Large frames also take wire time (frame bytes / ~1 Gbps), behind
        # whatever the server already has on the wire (``send_offset``).
        delay += frame_bytes * 8e-9 + send_offset

        def push() -> None:
            subscription.delivered += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "ws_frame",
                    f"{self.chain_id}/{self.host}/ws",
                    subscriber=subscription.subscriber_host,
                    height=view.height,
                    events=len(notification.events),
                    frame_bytes=frame_bytes,
                    ok=notification.ok,
                )
            subscription.queue.put(notification)

        self.env.schedule_callback(delay, push)
        return True
