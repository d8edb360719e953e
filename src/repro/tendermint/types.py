"""Tendermint block structure, per Fig. 1 of the paper.

A block carries four fields: the Header, the Data (transactions), the
Evidence of validator misbehaviour, and the LastCommit with the previous
height's votes.  Transactions are opaque to Tendermint — validation of their
contents is the ABCI application's job — so ``Data`` holds objects exposing
only ``hash`` and ``size_bytes``.
"""

from __future__ import annotations

import enum
from dataclasses import field
from typing import Optional, Protocol, Sequence

from repro.sim.records import dataclass, record
from repro.tendermint.crypto import hash_value, sha256, short_hex
from repro.tendermint.merkle import merkle_root_of_hashes


class TxLike(Protocol):
    """What Tendermint requires of a transaction: identity and size."""

    @property
    def hash(self) -> bytes: ...

    @property
    def size_bytes(self) -> int: ...


class BlockIDFlag(enum.IntEnum):
    """Vote disposition recorded in a commit signature (Fig. 1)."""

    ABSENT = 1  # validator did not cast a vote
    COMMIT = 2  # voted for the block accepted by the majority
    NIL = 3  # voted for a different block / nil


@record
class PartSetHeader:
    """Header of the proposal part set (block gossip chunking)."""

    total: int
    hash: bytes


@record
class BlockID:
    """Content address of a block: header hash + part-set header."""

    hash: bytes
    part_set_header: PartSetHeader

    def __str__(self) -> str:
        return short_hex(self.hash)

    @classmethod
    def nil(cls) -> "BlockID":
        return cls(hash=b"", part_set_header=PartSetHeader(total=0, hash=b""))

    @property
    def is_nil(self) -> bool:
        return not self.hash


@record
class CommitSig:
    """One validator's vote in a LastCommit (Fig. 1's signature array)."""

    block_id_flag: BlockIDFlag
    validator_address: str
    timestamp: float
    signature: bytes


@record
class Commit:
    """The LastCommit field: +2/3 precommits for the previous block."""

    height: int
    round: int
    block_id: BlockID
    signatures: tuple[CommitSig, ...]

    @classmethod
    def genesis(cls) -> "Commit":
        return cls(height=0, round=0, block_id=BlockID.nil(), signatures=())


@record
class Header:
    """Block header: chain position, consensus metadata, app metadata."""

    chain_id: str
    height: int
    time: float
    last_block_id: BlockID
    last_commit_hash: bytes
    data_hash: bytes
    validators_hash: bytes
    next_validators_hash: bytes
    app_hash: bytes
    last_results_hash: bytes
    evidence_hash: bytes
    proposer_address: str

    def hash(self) -> bytes:
        return hash_value(
            {
                "chain_id": self.chain_id,
                "height": self.height,
                "time": self.time,
                "last_block_id": self.last_block_id.hash.hex(),
                "last_commit_hash": self.last_commit_hash.hex(),
                "data_hash": self.data_hash.hex(),
                "validators_hash": self.validators_hash.hex(),
                "next_validators_hash": self.next_validators_hash.hex(),
                "app_hash": self.app_hash.hex(),
                "last_results_hash": self.last_results_hash.hex(),
                "evidence_hash": self.evidence_hash.hex(),
                "proposer_address": self.proposer_address,
            }
        )


@record
class Evidence:
    """Proof of validator misbehaviour (duplicate vote)."""

    validator_address: str
    height: int
    kind: str = "duplicate_vote"

    def hash(self) -> bytes:
        return hash_value(
            {"validator": self.validator_address, "height": self.height, "kind": self.kind}
        )


@dataclass(slots=True)
class Data:
    """The transaction list chosen by the proposer."""

    txs: list[TxLike] = field(default_factory=list)

    def hash(self) -> bytes:
        return merkle_root_of_hashes(tx.hash for tx in self.txs)

    @property
    def size_bytes(self) -> int:
        return sum(tx.size_bytes for tx in self.txs)


@dataclass(slots=True)
class Block:
    """A complete Tendermint block (Fig. 1)."""

    header: Header
    data: Data
    evidence: list[Evidence]
    last_commit: Commit

    @property
    def height(self) -> int:
        return self.header.height

    @property
    def time(self) -> float:
        return self.header.time

    def block_id(self) -> BlockID:
        header_hash = self.header.hash()
        # One part per 64 KiB of block data, mirroring part-set chunking.
        total_parts = max(1, (self.data.size_bytes + 65535) // 65536)
        return BlockID(
            hash=header_hash,
            part_set_header=PartSetHeader(
                total=total_parts, hash=sha256(header_hash)
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Block h={self.header.height} txs={len(self.data.txs)} "
            f"t={self.header.time:.2f}>"
        )


def evidence_hash(evidence: Sequence[Evidence]) -> bytes:
    return merkle_root_of_hashes(e.hash() for e in evidence)


def last_commit_hash(commit: Optional[Commit]) -> bytes:
    if commit is None:
        return merkle_root_of_hashes([])
    return merkle_root_of_hashes(
        hash_value(
            {
                "flag": int(s.block_id_flag),
                "val": s.validator_address,
                "ts": s.timestamp,
                "sig": s.signature.hex(),
            }
        )
        for s in commit.signatures
    )
