"""Parsing chain events into relayer work items."""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from repro.ibc.packet import Packet
from repro.sim.records import dataclass
from repro.tendermint.websocket import BlockNotification, EventDescriptor


@dataclass(slots=True)
class WorkBatch:
    """All packet events of one kind and channel from one block.

    ``routing_channel`` is the channel end used to pick the direction
    worker: the *source* channel for ``send_packet`` events, the
    *destination* channel for acknowledgement-side events.  Each event's
    ``packet`` is the chain event's own object, and ``src_chain`` is the
    chain the packet *originated* on, which together with the source
    channel and sequence forms the globally unique trace key in
    multi-chain topologies.

    A batch parsed from a block is shared by every subscriber of that
    block, so ``events`` is not changed once the batch has been read.
    """

    chain_id: str
    height: int
    kind: str
    routing_channel: str = ""
    events: list[EventDescriptor] = field(default_factory=list)
    #: ``events`` grouped by transaction, in first-seen order; made on
    #: first read.
    _by_tx: Optional[dict[bytes, list[EventDescriptor]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _grouped(self) -> dict[bytes, list[EventDescriptor]]:
        by_tx = self._by_tx
        if by_tx is None:
            by_tx = self._by_tx = {}
            for event in self.events:
                group = by_tx.get(event.tx_hash)
                if group is None:
                    by_tx[event.tx_hash] = [event]
                else:
                    group.append(event)
        return by_tx

    @property
    def tx_hashes(self) -> list[bytes]:
        return list(self._grouped())

    def events_for_tx(self, tx_hash: bytes) -> list[EventDescriptor]:
        return self._grouped().get(tx_hash, [])

    def __len__(self) -> int:
        return len(self.events)


def routing_channel_for(kind: str, packet: Packet) -> str:
    """The channel end that identifies the responsible direction worker."""
    if kind == "send_packet":
        return packet.source_channel
    return packet.destination_channel


def batches_from_notification(notification: BlockNotification) -> list[WorkBatch]:
    """Split a block notification's packet events into per-(kind, channel)
    work batches, in the order each pair first occurs in the block.

    The batches of a selection are made once per block and kept on its
    shared :class:`~repro.tendermint.websocket.BlockView`: every
    subscriber with the same filter, on any node, receives the same
    objects.
    """
    if not notification.ok:
        return []
    cache = notification.view.batches
    event_types = notification.event_types
    batches = cache.get(event_types)
    if batches is not None:
        return batches
    chain_id, height = notification.chain_id, notification.height
    by_route: dict[tuple[str, str], WorkBatch] = {}
    for descriptor in notification.events:
        packet = descriptor.packet
        if packet is None or descriptor.tx_hash is None:
            continue
        kind = descriptor.type
        channel = routing_channel_for(kind, packet)
        batch = by_route.get((kind, channel))
        if batch is None:
            batch = by_route[(kind, channel)] = WorkBatch(
                chain_id=chain_id, height=height, kind=kind, routing_channel=channel
            )
        batch.events.append(descriptor)
    batches = cache[event_types] = list(by_route.values())
    return batches
