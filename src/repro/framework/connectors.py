"""Cross-chain Data Connector and Event Connector (framework Fig. 5).

* The **Data Connector** retrieves per-block data from both chains
  concurrently over their RPC interfaces — the paper's §V documents how
  expensive these queries are (hundreds of thousands of output lines,
  seconds per block); those costs are faithfully charged to the serial RPC
  when this connector is used.
* The **Event Connector** gathers the cross-chain communicator's (relayer's)
  event logs, which the Event Processor turns into step timelines.

The metrics module reads simulation state directly (a zero-cost "god view")
for its ground truth; the connectors exist for framework fidelity.  The
Event Connector feeds every run's Event Processor; the Data Connector's
caller is ``examples/analysis_tool_costs.py``, which measures the §V
per-block query costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import RpcError
from repro.relayer.logging import LogRecord, RelayerLog
from repro.sim.core import Environment, Event
from repro.tendermint.node import ChainNode
from repro.tendermint.rpc import RpcClient


@dataclass
class BlockData:
    """What one ``block_info`` query returns for the analysis pipeline."""

    chain_id: str
    height: int
    time: float
    tx_hashes: list[bytes]
    message_count: int
    event_bytes: int
    query_seconds: float


class CrossChainDataConnector:
    """Concurrent per-chain RPC data retrieval."""

    def __init__(self, env: Environment, nodes: dict[str, ChainNode], host: str):
        self.env = env
        self.clients = {
            chain_id: RpcClient(
                env,
                node.chain.network,
                host,
                node.rpc,
                client_id=f"analysis/{host}/{chain_id}",
            )
            for chain_id, node in nodes.items()
        }
        #: Blocks whose fetch failed (RPC error), for honest accounting.
        self.failed_fetches: list[tuple[str, int]] = []

    def collect_blocks(
        self, chain_id: str, heights: list[int]
    ) -> Generator[Event, Any, list[BlockData]]:
        """Fetch block data for the given heights (serially, like the tool)."""
        client = self.clients[chain_id]
        collected: list[BlockData] = []
        for height in heights:
            started = self.env.now
            try:
                info = yield from client.call("block_info", height=height)
            except RpcError:
                self.failed_fetches.append((chain_id, height))
                continue
            if info is None:
                continue
            collected.append(
                BlockData(
                    chain_id=chain_id,
                    height=height,
                    time=info["time"],
                    tx_hashes=info["tx_hashes"],
                    message_count=info["message_count"],
                    event_bytes=info["event_bytes"],
                    query_seconds=self.env.now - started,
                )
            )
        return collected


class CrossChainEventConnector:
    """Merges event logs from every cross-chain communicator instance."""

    __slots__ = ("_logs",)

    def __init__(self) -> None:
        self._logs: list[RelayerLog] = []

    def attach(self, log: RelayerLog) -> None:
        if log not in self._logs:
            self._logs.append(log)

    def merged_records(self) -> list[LogRecord]:
        records: list[LogRecord] = []
        for log in self._logs:
            records.extend(log.records)
        records.sort(key=lambda r: r.time)
        return records

    def count(self, event: str) -> int:
        return sum(log.count(event) for log in self._logs)

    def errors(self) -> list[LogRecord]:
        merged = [r for log in self._logs for r in log.errors()]
        merged.sort(key=lambda r: r.time)
        return merged
