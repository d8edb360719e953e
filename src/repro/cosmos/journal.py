"""Transaction-scoped state journaling.

The Cosmos SDK executes each transaction against a cached store and discards
the cache if any message fails, making transactions atomic.  The provable
store does exactly that (``ProvableStore.open_overlay``).  The keepers'
typed state gets the same guarantee from an undo journal: while a
transaction executes, every mutation records what it overwrote; on failure
the journal restores those values in reverse order.

There is one undo form, ``(mapping, key, previous)``: before writing
``mapping[key]``, a keeper records the value it replaces, or ``None`` when
the key was absent.  Every journaled piece of state — bank balance columns
(an ``array`` indexes like a dict) and supply, and the IBC module's
sequence, commitment, receipt, acknowledgement and handshake tables — is
such a mapping, so rollback is a loop over tuples with no per-write
closure.  A value that is itself ``None`` cannot be journaled; no keeper
stores one.

This matters for fidelity: when two relayers race (paper §IV-A), the loser's
*entire* transaction of 100 ``MsgRecvPacket`` fails with ``packet messages
are redundant`` — none of its messages may leave partial state behind.
"""

from __future__ import annotations

from typing import Optional


class Journal:
    """Collects undo entries for one transaction execution."""

    __slots__ = ("_undo",)

    def __init__(self) -> None:
        self._undo: list = []

    def record_kv(self, mapping, key, previous) -> None:
        """Record that ``mapping[key]`` held ``previous`` before a write.

        ``previous is None`` means the key was absent, so rollback removes
        it instead of restoring a value.
        """
        self._undo.append((mapping, key, previous))

    def rollback(self) -> None:
        """Revert all recorded mutations, most recent first."""
        for mapping, key, previous in reversed(self._undo):
            if previous is None:
                mapping.pop(key, None)
            else:
                mapping[key] = previous
        self._undo.clear()

    def commit(self) -> None:
        """Discard the undo log, keeping the mutations."""
        self._undo.clear()

    def __len__(self) -> int:
        return len(self._undo)


class Journaled:
    """Mixin for keepers that support transaction-scoped rollback.

    The application sets ``journal`` before executing a transaction's
    messages and clears it afterwards; while it is set, each mutating
    method calls ``journal.record_kv(mapping, key, previous)`` before it
    writes.  With no journal attached nothing is recorded.
    """

    journal: Optional[Journal] = None
