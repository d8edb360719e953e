"""Block store and transaction indexer.

The indexer is what the RPC layer serves queries from, and its per-height
event footprint is the input to the serial-RPC cost model (the paper's main
bottleneck: queries that scan/serialise a whole height's indexed events).
"""

from __future__ import annotations

from dataclasses import field
from typing import Iterator, Optional

from repro.errors import SimulationError
from repro.sim.records import dataclass
from repro.tendermint.abci import ExecutedBlock, ExecutedTx
from repro.tendermint.types import Block


class BlockStore:
    """Committed blocks plus their execution results, by height."""

    def __init__(self) -> None:
        self._blocks: dict[int, Block] = {}
        self._executed: dict[int, ExecutedBlock] = {}
        self.latest_height = 0

    def save(self, block: Block, executed: ExecutedBlock) -> None:
        height = block.header.height
        if height in self._blocks:
            raise SimulationError(f"block {height} already stored")
        if height != self.latest_height + 1:
            raise SimulationError(
                f"non-contiguous block {height}, latest {self.latest_height}"
            )
        self._blocks[height] = block
        self._executed[height] = executed
        self.latest_height = height

    def block(self, height: int) -> Optional[Block]:
        return self._blocks.get(height)

    def executed(self, height: int) -> Optional[ExecutedBlock]:
        return self._executed.get(height)

    def iter_executed(self, start: int = 1, end: Optional[int] = None) -> Iterator[ExecutedBlock]:
        stop = end if end is not None else self.latest_height
        for height in range(start, stop + 1):
            executed = self._executed.get(height)
            if executed is not None:
                yield executed

    def block_time(self, height: int) -> float:
        block = self._blocks.get(height)
        if block is None:
            raise SimulationError(f"no block at height {height}")
        return block.header.time

    def intervals(self) -> list[float]:
        """Deltas between consecutive block times (Fig. 7's metric)."""
        times = [
            self._blocks[h].header.time
            for h in range(1, self.latest_height + 1)
            if h in self._blocks
        ]
        return [t1 - t0 for t0, t1 in zip(times, times[1:])]


@dataclass
class HeightIndex:
    """Aggregated event-index footprint for one height."""

    height: int
    message_count: int = 0
    #: Messages inside FAILED transactions at this height.  Failed txs are
    #: still indexed by Tendermint and still returned by tx_search — when
    #: two relayers race, the loser's redundant transactions inflate every
    #: later scan of the height (the interference behind Fig. 9's drop).
    failed_message_count: int = 0
    event_bytes: int = 0
    events_by_type: dict[str, int] = field(default_factory=dict)
    #: Packet events keyed by (type, local port, local channel) — the
    #: *local* end is the source end for send/ack/timeout events and the
    #: destination end for recv/write_ack events, so two channels on one
    #: chain never count each other's traffic.
    events_by_channel: dict[tuple[str, str, str], int] = field(
        default_factory=dict
    )


#: Which channel end is *local* to the indexing chain, per packet event
#: type: send/ack/timeout events are emitted on the packet's source chain,
#: recv/write_ack events on its destination chain.
_SOURCE_END_EVENTS = frozenset(
    {"send_packet", "acknowledge_packet", "timeout_packet"}
)
_DEST_END_EVENTS = frozenset({"recv_packet", "write_acknowledgement"})


def _local_channel(event) -> Optional[tuple[str, str]]:
    packet = event.packet
    if packet is None:
        return None
    if event.type in _SOURCE_END_EVENTS:
        return (packet.source_port, packet.source_channel)
    if event.type in _DEST_END_EVENTS:
        return (packet.destination_port, packet.destination_channel)
    return None


class TxIndexer:
    """Index of executed transactions by hash and of events by height."""

    def __init__(self) -> None:
        self._by_hash: dict[bytes, ExecutedTx] = {}
        self._height_index: dict[int, HeightIndex] = {}

    def index_block(self, executed: ExecutedBlock) -> None:
        index = HeightIndex(height=executed.height)
        for item in executed.txs:
            self._by_hash[item.hash] = item
            index.message_count += getattr(item.tx, "msg_count", 1)
            if not item.ok:
                index.failed_message_count += getattr(item.tx, "msg_count", 1)
            for event in item.result.events:
                index.event_bytes += event.size_bytes
                index.events_by_type[event.type] = (
                    index.events_by_type.get(event.type, 0) + 1
                )
                end = _local_channel(event)
                if end is not None:
                    key = (event.type, end[0], end[1])
                    index.events_by_channel[key] = (
                        index.events_by_channel.get(key, 0) + 1
                    )
        for event in executed.end_block_events:
            index.event_bytes += event.size_bytes
        self._height_index[executed.height] = index

    def get_tx(self, tx_hash: bytes) -> Optional[ExecutedTx]:
        return self._by_hash.get(tx_hash)

    def events_at(self, height: int) -> dict[str, int]:
        index = self._height_index.get(height)
        return dict(index.events_by_type) if index else {}

    def channel_events_at(
        self, height: int, event_type: str, port: str, channel: str
    ) -> int:
        """Events of a type at a height scoped to one local channel end."""
        index = self._height_index.get(height)
        if index is None:
            return 0
        return index.events_by_channel.get((event_type, port, channel), 0)

    def event_bytes_at(self, height: int) -> int:
        index = self._height_index.get(height)
        return index.event_bytes if index else 0

    def message_count_at(self, height: int) -> int:
        index = self._height_index.get(height)
        return index.message_count if index else 0

    def failed_message_count_at(self, height: int) -> int:
        index = self._height_index.get(height)
        return index.failed_message_count if index else 0
