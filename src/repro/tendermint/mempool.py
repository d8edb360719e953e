"""The mempool: CheckTx gating, gossip timing and block reaping.

Two behaviours here shape the paper's results:

* **Check-state sequences.**  The mempool validates an incoming tx against
  its own sequence view (chain sequence + already-admitted pending txs).
  That is what lets Hermes queue several sequential transactions for one
  block, and what rejects a client that signs with a stale on-chain
  sequence (``account sequence mismatch``).
* **Gossip-delayed availability.**  A transaction submitted to a local full
  node must gossip to the proposer before it can be reaped.  A batch that
  finishes broadcasting just after the proposal window produces the empty
  blocks the paper observes above 2 000 RPS.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import MempoolFullError, TxInMempoolError
from repro.tendermint.abci import Application, ResponseCheckTx
from repro.tendermint.types import TxLike
from repro.trace import NULL_TRACER


def _reap_order(entry: "MempoolTx") -> tuple:
    """Deterministic FIFO key: arrival time, then sender/sequence/hash."""
    return (
        entry.arrival_time,
        getattr(entry.tx, "signer_address", None) or "",
        getattr(entry.tx, "sequence", None) or 0,
        entry.tx.hash,
    )


@dataclass
class MempoolTx:
    tx: TxLike
    arrival_time: float
    available_at: float  # when the proposer can see it (after gossip)


class Mempool:
    """FIFO mempool with per-sender sequence bookkeeping."""

    def __init__(
        self,
        app: Application,
        max_txs: int,
        tracer=NULL_TRACER,
        chain_id: str = "",
    ):
        self.app = app
        self.max_txs = max_txs
        self.tracer = tracer
        self._track = f"{chain_id}/mempool"
        self._txs: "OrderedDict[bytes, MempoolTx]" = OrderedDict()
        self._check_sequences: dict[str, int] = {}
        # Gossip is per-peer FIFO in Tendermint: a sender's transactions
        # reach the proposer in submission order.  Enforce monotone
        # availability per sender so random per-tx delays cannot reorder
        # them across a proposal cutoff (which would cascade into spurious
        # sequence-mismatch failures).
        self._sender_available: dict[str, float] = {}
        #: Counters for analysis.
        self.admitted = 0
        self.rejected = 0
        #: Admitted txs later dropped by the post-commit recheck because
        #: their sequence went stale (spam replays, crossed submissions).
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, tx_hash: bytes) -> bool:
        return tx_hash in self._txs

    # -- admission -------------------------------------------------------------

    def add(
        self, tx: TxLike, now: float, gossip_delay: float = 0.0
    ) -> ResponseCheckTx:
        """Run CheckTx and admit on success.

        Returns the CheckTx response (callers map failures to broadcast
        errors); raises nothing so the RPC layer can relay ABCI codes.
        """
        if tx.hash in self._txs:
            err = TxInMempoolError()
            self.rejected += 1
            return ResponseCheckTx(code=err.code, log=str(err), codespace=err.codespace)
        if len(self._txs) >= self.max_txs:
            err = MempoolFullError()
            self.rejected += 1
            return ResponseCheckTx(code=err.code, log=str(err), codespace=err.codespace)
        response = self._check(tx)
        if response.ok:
            sender = getattr(tx, "signer_address", None)
            available_at = now + gossip_delay
            if sender is not None:
                available_at = max(
                    available_at, self._sender_available.get(sender, 0.0)
                )
                self._sender_available[sender] = available_at
            self._txs[tx.hash] = MempoolTx(
                tx=tx, arrival_time=now, available_at=available_at
            )
            sequence = getattr(tx, "sequence", None)
            if sender is not None and sequence is not None:
                self._check_sequences[sender] = sequence + 1
            self.admitted += 1
            self.tracer.event(
                "mempool_admit",
                self._track,
                tx_hash=tx.hash,
                available_at=available_at,
            )
        else:
            self.rejected += 1
        return response

    def _check(self, tx: TxLike) -> ResponseCheckTx:
        sender = getattr(tx, "signer_address", None)
        if sender is None:
            return self.app.check_tx(tx)  # type: ignore[arg-type]
        expected = self._check_sequences.get(
            sender, self.app.account_sequence(sender)  # type: ignore[attr-defined]
        )
        return self.app.check_tx(tx, expected_sequence=expected)  # type: ignore[call-arg]

    # -- reaping ---------------------------------------------------------------

    def reap(self, now: float, max_gas: int, max_bytes: int) -> list[TxLike]:
        """Transactions for a proposal: FIFO, gossiped, within block limits.

        FIFO is by *arrival time*, not raw insertion order: transactions
        arriving at the same instant from different machines are inserted
        in event-heap tie order, which must never decide block content
        (the scheduler-race sanitizer reverses that order).  Ties break
        by sender/sequence/hash instead — deterministic, and per-sender
        submission order is preserved.
        """
        chosen: list[TxLike] = []
        total_gas = 0
        total_bytes = 0
        for entry in sorted(self._txs.values(), key=_reap_order):
            if entry.available_at > now:
                continue
            gas = getattr(entry.tx, "gas_limit", 0)
            if total_gas + gas > max_gas and chosen:
                break
            if total_bytes + entry.tx.size_bytes > max_bytes and chosen:
                break
            chosen.append(entry.tx)
            total_gas += gas
            total_bytes += entry.tx.size_bytes
        return chosen

    # -- post-commit maintenance --------------------------------------------------

    def update(self, committed_hashes: list[bytes]) -> None:
        """Remove committed txs and re-check survivors against new state."""
        for tx_hash in committed_hashes:
            self._txs.pop(tx_hash, None)
        self._recheck()

    def _recheck(self) -> None:
        """Drop pending txs whose sequence is now stale; rebuild check state."""
        self._check_sequences.clear()
        stale: list[bytes] = []
        for tx_hash, entry in self._txs.items():
            sender = getattr(entry.tx, "signer_address", None)
            sequence = getattr(entry.tx, "sequence", None)
            if sender is None or sequence is None:
                continue
            expected = self._check_sequences.get(
                sender, self.app.account_sequence(sender)  # type: ignore[attr-defined]
            )
            if sequence < expected:
                stale.append(tx_hash)
            else:
                self._check_sequences[sender] = sequence + 1
        for tx_hash in stale:
            del self._txs[tx_hash]
        self.evicted += len(stale)
