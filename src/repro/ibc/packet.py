"""IBC packets, commitments and acknowledgements (ICS-04 data model)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.tendermint.crypto import sha256


@dataclass(frozen=True, slots=True)
class Height:
    """An IBC height: revision number + revision height.

    Cosmos chains encode upgrades in the revision number; within one
    revision ordering is by height.  ``zero()`` disables a height timeout.
    """

    revision_number: int
    revision_height: int

    @classmethod
    def zero(cls) -> "Height":
        return cls(0, 0)

    @property
    def is_zero(self) -> bool:
        return self.revision_number == 0 and self.revision_height == 0

    def __lt__(self, other: "Height") -> bool:
        return (self.revision_number, self.revision_height) < (
            other.revision_number,
            other.revision_height,
        )

    def __le__(self, other: "Height") -> bool:
        return self == other or self < other

    def add(self, blocks: int) -> "Height":
        return Height(self.revision_number, self.revision_height + blocks)

    def __str__(self) -> str:
        return f"{self.revision_number}-{self.revision_height}"


@dataclass(frozen=True, slots=True)
class Packet:
    """An IBC packet: opaque data plus routing and timeout metadata."""

    sequence: int
    source_port: str
    source_channel: str
    destination_port: str
    destination_channel: str
    data: bytes
    timeout_height: Height
    timeout_timestamp: float  # 0.0 disables the timestamp timeout
    #: ``(data, timeout_height, timeout_timestamp, commitment)`` of the
    #: last ``commitment()`` call; not part of the packet's value.  One
    #: slot rather than four, because the frozen constructor sets every
    #: slot of every packet, sent or not.
    _commitment: Optional[tuple] = field(
        default=None, init=False, compare=False, repr=False,
        metadata={"wire": None},
    )

    def commitment(self) -> bytes:
        """The commitment stored on the sending chain (ICS-04).

        Commits to the timeout and the data hash — not the full packet —
        exactly as ibc-go does, so the packet itself travels off-chain.
        One packet object carries it from ``send_packet`` through
        ``recv_packet`` to ``acknowledge_packet``, so it is computed once
        and kept on the object.  The kept value is reused only while the
        three committed fields are the very objects it was computed from:
        ``dataclasses.replace`` starts a copy without it, and a
        ``copy.copy`` whose fields are then rewritten with
        ``object.__setattr__`` recomputes instead of inheriting it.
        """
        memo = self._commitment
        if (
            memo is not None
            and memo[0] is self.data
            and memo[1] is self.timeout_height
            and memo[2] is self.timeout_timestamp
        ):
            return memo[3]
        commitment = sha256(
            f"{self.timeout_timestamp}/{self.timeout_height}".encode()
            + sha256(self.data)
        )
        object.__setattr__(
            self,
            "_commitment",
            (self.data, self.timeout_height, self.timeout_timestamp, commitment),
        )
        return commitment

    def timed_out(self, height: "Height", timestamp: float) -> bool:
        """Would this packet be rejected at the given destination state?"""
        if not self.timeout_height.is_zero and not (height < self.timeout_height):
            return True
        if self.timeout_timestamp > 0 and timestamp >= self.timeout_timestamp:
            return True
        return False

    def key(self) -> tuple[str, str, int]:
        """Identity of the packet on its sending chain."""
        return (self.source_port, self.source_channel, self.sequence)


@dataclass(frozen=True, slots=True)
class Acknowledgement:
    """Result written by the receiving application (ICS-20 style)."""

    success: bool
    result: str = ""
    error: str = ""

    def encode(self) -> bytes:
        return _ack_encode(self)

    @classmethod
    def decode(cls, raw: bytes) -> "Acknowledgement":
        payload = json.loads(raw.decode())
        if "result" in payload:
            return cls(success=True, result=payload["result"])
        return cls(success=False, error=payload.get("error", ""))

    def commitment(self) -> bytes:
        """The ack commitment stored on the receiving chain."""
        return _ack_commitment(self)


#: Upper bound on the acknowledgement memos.  Almost every ack in a run is
#: the identical success ack; error acks carry per-packet text, and the
#: bound stops those from accumulating in a long-lived pool worker.
_ACK_CACHE_SIZE = 1 << 10


@lru_cache(maxsize=_ACK_CACHE_SIZE)
def _ack_encode(ack: Acknowledgement) -> bytes:
    # The success ack's json.dumps collapses to one call per run.
    if ack.success:
        return json.dumps({"result": ack.result or "AQ=="}).encode()
    return json.dumps({"error": ack.error}).encode()


@lru_cache(maxsize=_ACK_CACHE_SIZE)
def _ack_commitment(ack: Acknowledgement) -> bytes:
    return sha256(_ack_encode(ack))


def reset_caches() -> None:
    """Drop the acknowledgement memos (per-run hygiene for pool workers)."""
    _ack_encode.cache_clear()
    _ack_commitment.cache_clear()
