"""Transaction-scoped state journaling: one place decides what a failed
transaction undoes.

The Cosmos SDK executes each transaction against a cache-wrapped multistore
and discards the cache if any message fails, making transactions atomic.
The provable store does exactly that (``ProvableStore.open_overlay``).  The
keepers' typed state gets the same guarantee from this undo journal.

``GaiaApp`` builds one :class:`Journal` per chain and hands it to each
keeper at construction: the bank, the IBC module and, through the IBC
module, every light client.  A keeper writes its typed state only through
the journal's write methods (:meth:`Journal.add`, :meth:`Journal.put`,
:meth:`Journal.pop`, :meth:`Journal.assign`).  Between :meth:`Journal.begin`
and :meth:`Journal.commit` or :meth:`Journal.rollback`, which
``deliver_tx`` calls around a transaction's messages, each write records
what it overwrote; outside a transaction (genesis, the fee, a keeper
built bare in a test) the same call only writes.  So whether a write is
recorded is decided here and nowhere else.

An undo entry is ``(restore, target, key, previous)``, and rollback calls
``restore(target, key, previous)`` for each entry, newest first: the
``setitem`` of a mapping (an ``array`` balance column indexes like a
dict), the removal of a key that the transaction added, or the
``setattr`` of an attribute.  Each restore is a shared function, so a
write costs one tuple and no closure.

What a failed transaction must undo is everything the journal covers:
bank balance columns and supply; the IBC module's sequences,
commitments, sent packets, receipts, acknowledgements, clients,
connection and channel ends; and each light client's consensus states,
latest height and latest time.  Client, connection and channel ids are
derived from the size of their tables, so a rolled-back creation frees
its id.  What it leaves out on purpose: the fee (charged before the
messages run, and kept when they fail, as in the SDK), a light client's
``frozen`` flag (misbehaviour evidence outlives the transaction that
carried it), and memos that a rolled-back write cannot make wrong
(``DenomRegistry``'s trace cache, fold memos, payload memos).

This matters for fidelity: when two relayers race (paper §IV-A), the loser's
*entire* transaction of 100 ``MsgRecvPacket`` fails with ``packet messages
are redundant`` — none of its messages may leave partial state behind.
"""

from __future__ import annotations

from operator import setitem
from typing import Any, Optional


def _remove(mapping, key, _previous) -> None:
    """Undo of :meth:`Journal.add`: the key was absent before."""
    del mapping[key]


class Journal:
    """Collects undo entries while a transaction is open."""

    __slots__ = ("_undo",)

    def __init__(self) -> None:
        # None while no transaction is open: writes are then not recorded.
        self._undo: Optional[list] = None

    def begin(self) -> None:
        """Open a transaction: writes from here on are recorded."""
        self._undo = []

    def add(self, mapping, key, value) -> None:
        """Insert ``mapping[key] = value`` for a ``key`` not yet present."""
        mapping[key] = value
        undo = self._undo
        if undo is not None:
            undo.append((_remove, mapping, key, None))

    def put(self, mapping, key, value) -> None:
        """Overwrite the value ``mapping`` already holds at ``key``."""
        undo = self._undo
        if undo is not None:
            undo.append((setitem, mapping, key, mapping[key]))
        mapping[key] = value

    def pop(self, mapping, key) -> Any:
        """Remove ``key`` from ``mapping``; returns the removed value."""
        value = mapping.pop(key)
        undo = self._undo
        if undo is not None:
            undo.append((setitem, mapping, key, value))
        return value

    def assign(self, obj, name: str, value) -> None:
        """Set attribute ``name`` of ``obj``."""
        undo = self._undo
        if undo is not None:
            undo.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def rollback(self) -> None:
        """Revert every recorded write, most recent first, and close."""
        for restore, target, key, previous in reversed(self._undo or ()):
            restore(target, key, previous)
        self._undo = None

    def commit(self) -> None:
        """Keep the transaction's writes and close."""
        self._undo = None

    @property
    def open(self) -> bool:
        """Whether a transaction is open (its writes are being recorded)."""
        return self._undo is not None

    def __len__(self) -> int:
        return len(self._undo or ())
