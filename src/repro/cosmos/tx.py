"""Transactions: signed containers of up to ``max_msgs_per_tx`` messages.

The paper's workload packs 100 ``MsgTransfer`` messages per transaction —
the Hermes maximum — to work around the one-transaction-per-account-per-block
limit.  ``Tx`` models exactly the fields that matter for that dynamic:
signer, sequence, gas, fee and the message list.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence

from repro import calibration as cal
from repro.cosmos.accounts import Wallet
from repro.errors import ChainError
from repro.sim.records import dataclass
from repro.tendermint.crypto import PublicKey, hash_value


@dataclass(frozen=True)
class MsgSend:
    """Plain bank transfer (used by examples and non-IBC tests)."""

    kind = "bank_send"
    sender: str
    recipient: str
    denom: str
    amount: int


@dataclass
class Tx:
    """A signed transaction.

    ``hash``/``size_bytes`` satisfy Tendermint's ``TxLike`` protocol; the
    rest is consumed by the ante handler and the application.

    ``nonce`` distinguishes rebuilt transactions that share a signer and
    sequence (e.g. a relayer re-signing after a sequence mismatch).  It is
    issued per :class:`TxFactory` — a process-global counter would leak
    state between runs and change every tx hash on replay.
    """

    msgs: list[Any]
    signer_address: str
    public_key: PublicKey
    sequence: int
    gas_limit: int
    fee: float
    signature: bytes
    memo: str = ""
    nonce: int = 0

    def __post_init__(self) -> None:
        if not self.msgs:
            raise ChainError("transaction must contain at least one message")
        self._hash = hash_value(
            {
                "signer": self.signer_address,
                "sequence": self.sequence,
                "gas": self.gas_limit,
                "memo": self.memo,
                "nonce": self.nonce,
                "n_msgs": len(self.msgs),
                "kinds": [getattr(m, "kind", "unknown") for m in self.msgs],
            }
        )

    @property
    def hash(self) -> bytes:
        return self._hash

    @property
    def msg_count(self) -> int:
        return len(self.msgs)

    @property
    def size_bytes(self) -> int:
        return cal.TX_BYTES_OVERHEAD + cal.TX_BYTES_PER_MSG * len(self.msgs)

    def msg_kinds(self) -> list[str]:
        return [getattr(m, "kind", "unknown") for m in self.msgs]

    def sign_bytes(self) -> bytes:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = self.msg_kinds()
        head = kinds[0] if kinds else "?"
        return (
            f"<Tx {self.hash.hex()[:8]} {len(self.msgs)}x{head} "
            f"seq={self.sequence}>"
        )


class TxFactory:
    """Builds and signs transactions for one wallet.

    Tracks a *local* sequence number the way client software does: it is
    incremented optimistically on signing and must be re-synced from the
    chain after a failure — the exact mechanism behind the paper's
    ``account sequence mismatch`` errors.
    """

    __slots__ = (
        "wallet",
        "max_msgs_per_tx",
        "gas_price",
        "local_sequence",
        "_nonces",
    )

    def __init__(
        self,
        wallet: Wallet,
        calibration: cal.Calibration,
        prepended_msgs: int = 0,
    ):
        """``calibration`` is the chain's: it sets the per-transaction
        message limit and the gas price.  ``prepended_msgs`` raises the
        limit for messages a client puts in front of a full chunk (the
        relayer's ``MsgUpdateClient``)."""
        self.wallet = wallet
        self.max_msgs_per_tx = calibration.max_msgs_per_tx + prepended_msgs
        self.gas_price = calibration.gas_price
        self.local_sequence = 0
        self._nonces = itertools.count()

    def build(
        self,
        msgs: Sequence[Any],
        gas_limit: int,
        sequence: Optional[int] = None,
        memo: str = "",
    ) -> Tx:
        """Sign a transaction; uses and bumps the local sequence by default."""
        if len(msgs) > self.max_msgs_per_tx:
            raise ChainError(
                f"{len(msgs)} messages exceeds the {self.max_msgs_per_tx} "
                f"per-transaction limit"
            )
        if sequence is None:
            sequence = self.local_sequence
            self.local_sequence += 1
        tx = Tx(
            msgs=list(msgs),
            signer_address=self.wallet.address,
            public_key=self.wallet.public_key,
            sequence=sequence,
            gas_limit=gas_limit,
            fee=gas_limit * self.gas_price,
            signature=b"",
            memo=memo,
            nonce=next(self._nonces),
        )
        signature = self.wallet.private_key.sign(tx.sign_bytes())
        tx.signature = signature
        return tx

    def resync_sequence(self, on_chain_sequence: int) -> None:
        """Reset the local sequence from chain state (after mismatch errors)."""
        self.local_sequence = on_chain_sequence


def chunk_msgs(msgs: Sequence[Any], chunk_size: int) -> list[list[Any]]:
    """Split messages into transaction-sized chunks, preserving order."""
    if chunk_size < 1:
        raise ChainError(f"chunk size must be >= 1, got {chunk_size}")
    return [list(msgs[i : i + chunk_size]) for i in range(0, len(msgs), chunk_size)]
