"""Parsing chain events into relayer work items."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

from repro.ibc.packet import Packet
from repro.tendermint.websocket import BlockNotification


@dataclass(slots=True)
class PacketEvent:
    """One IBC packet event the relayer must act on.

    ``packet`` is the chain event's own object, not a copy.  ``src_chain``
    is the chain the packet *originated* on, which together with the source
    channel and sequence forms the globally unique trace key in
    multi-chain topologies.
    """

    kind: str  # send_packet | write_acknowledgement | ...
    height: int
    tx_hash: bytes
    packet: Packet
    src_chain: str = ""


@dataclass(slots=True)
class WorkBatch:
    """All packet events of one kind and channel from one block.

    ``routing_channel`` is the channel end used to pick the direction
    worker: the *source* channel for ``send_packet`` events, the
    *destination* channel for acknowledgement-side events.
    """

    chain_id: str
    height: int
    kind: str
    routing_channel: str = ""
    events: list[PacketEvent] = field(default_factory=list)

    @property
    def tx_hashes(self) -> list[bytes]:
        seen: list[bytes] = []
        known: set[bytes] = set()
        for event in self.events:
            if event.tx_hash not in known:
                known.add(event.tx_hash)
                seen.append(event.tx_hash)
        return seen

    def events_for_tx(self, tx_hash: bytes) -> list[PacketEvent]:
        return [e for e in self.events if e.tx_hash == tx_hash]

    def __len__(self) -> int:
        return len(self.events)


def routing_channel_for(kind: str, packet: Packet) -> str:
    """The channel end that identifies the responsible direction worker."""
    if kind == "send_packet":
        return packet.source_channel
    return packet.destination_channel


def batches_from_notification(
    notification: BlockNotification, kinds: Collection[str]
) -> list[WorkBatch]:
    """Split a block notification into per-(kind, channel) work batches.

    ``kinds`` is a membership filter only — it is never iterated, so the
    produced batch order depends exclusively on the (deterministic) event
    order inside the notification.
    """
    batches: dict[tuple[str, str], WorkBatch] = {}
    for descriptor in notification.events:
        if descriptor.type not in kinds:
            continue
        packet = descriptor.packet
        if packet is None or descriptor.tx_hash is None:
            continue
        channel = routing_channel_for(descriptor.type, packet)
        key = (descriptor.type, channel)
        batch = batches.get(key)
        if batch is None:
            batch = WorkBatch(
                chain_id=notification.chain_id,
                height=notification.height,
                kind=descriptor.type,
                routing_channel=channel,
            )
            batches[key] = batch
        batch.events.append(
            PacketEvent(
                kind=descriptor.type,
                height=notification.height,
                tx_hash=descriptor.tx_hash,
                packet=packet,
                src_chain=descriptor.src_chain,
            )
        )
    return list(batches.values())
