"""ABCI — the Application BlockChain Interface.

Tendermint is application-agnostic: transaction contents are validated and
executed by the application behind this interface.  The shapes mirror the
real ABCI: ``CheckTx`` gates the mempool, the ``BeginBlock → DeliverTx* →
EndBlock → Commit`` sequence executes a decided block, and responses carry
ABCI codes, gas figures and events.
"""

from __future__ import annotations

from dataclasses import field
from typing import TYPE_CHECKING, Any, Optional, Protocol, Sequence

from repro.sim.records import dataclass, record
from repro.tendermint.types import Evidence, Header, TxLike

if TYPE_CHECKING:
    from repro.ibc.packet import Acknowledgement, Packet


@record
class AbciEvent:
    """A typed event emitted during transaction execution.

    ``type`` follows the Cosmos convention (``send_packet``,
    ``write_acknowledgement``, ...) and ``size_bytes`` is the indexed
    footprint used by the RPC/WebSocket cost model (the paper's bottleneck
    is serialising exactly this data).

    A packet event carries the frozen ``packet`` it describes, the chain
    the packet originated on (``src_chain``) and, for
    ``write_acknowledgement``, the ``ack``; every later hop (indexer,
    WebSocket, RPC, relayer) passes that object by reference.  Handshake,
    client and bank events carry flat key/value ``attributes`` instead.
    """

    type: str
    attributes: tuple[tuple[str, Any], ...] = ()
    size_bytes: int = 0
    packet: Optional["Packet"] = None
    src_chain: str = ""
    ack: Optional["Acknowledgement"] = None

    def attr(self, key: str, default: Any = None) -> Any:
        for k, v in self.attributes:
            if k == key:
                return v
        return default


@dataclass
class ResponseCheckTx:
    """Outcome of mempool admission."""

    code: int = 0
    log: str = ""
    gas_wanted: int = 0
    codespace: str = ""

    @property
    def ok(self) -> bool:
        return self.code == 0


@dataclass
class ResponseDeliverTx:
    """Outcome of executing one transaction in a block."""

    code: int = 0
    log: str = ""
    gas_wanted: int = 0
    gas_used: int = 0
    events: list[AbciEvent] = field(default_factory=list)
    codespace: str = ""

    @property
    def ok(self) -> bool:
        return self.code == 0


@dataclass
class ResponseEndBlock:
    """EndBlock may emit events and adjust the validator set (unused here)."""

    events: list[AbciEvent] = field(default_factory=list)


class Application(Protocol):
    """What the consensus engine requires of an ABCI application."""

    def check_tx(self, tx: TxLike) -> ResponseCheckTx:
        """Stateless-ish admission check run by the mempool."""
        ...

    def begin_block(self, header: Header, evidence: Sequence[Evidence]) -> None:
        """Start executing a decided block."""
        ...

    def deliver_tx(self, tx: TxLike) -> ResponseDeliverTx:
        """Execute one transaction against pending state."""
        ...

    def end_block(self, height: int) -> ResponseEndBlock:
        ...

    def commit(self) -> bytes:
        """Persist pending state; returns the new app hash."""
        ...


@dataclass(slots=True)
class ExecutedTx:
    """A transaction paired with its DeliverTx result (indexer record)."""

    tx: TxLike
    height: int
    index: int
    result: ResponseDeliverTx

    @property
    def hash(self) -> bytes:
        return self.tx.hash

    @property
    def ok(self) -> bool:
        return self.result.ok


@dataclass(slots=True)
class ExecutedBlock:
    """A committed block plus everything the application produced for it."""

    height: int
    time: float
    txs: list[ExecutedTx]
    end_block_events: list[AbciEvent]
    app_hash: bytes
    execution_seconds: float

    @property
    def message_count(self) -> int:
        return sum(getattr(t.tx, "msg_count", 1) for t in self.txs)
