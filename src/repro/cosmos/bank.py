"""The bank module: balances, transfers, minting and burning.

Module accounts (e.g. per-channel ICS-20 escrow accounts) are ordinary
addresses derived from a name, mirroring the SDK's module account scheme.
An invariant — total supply per denom equals the sum of balances — is
maintained by construction and checked by property tests.

Balances live in per-denom ``array('q')`` columns indexed by the shared
:class:`~repro.cosmos.accounts.AddressIndex`, not per-address dicts: a
denom held by a million accounts costs eight bytes per account (and a
genesis population is funded by slot range, without naming anyone).  Every
balance and supply write goes through the chain's
:class:`~repro.cosmos.journal.Journal`, given at construction, which
records it while a transaction is open; an array indexes exactly like a
dict, so :meth:`Journal.put` restores a column slot as it restores a key.

A balance write also notes its ``(address, denom)``, and
:meth:`BankKeeper.write_back` mirrors each noted balance into the provable
store once, at its final value, however many messages moved it: the
application writes back after genesis funding, after the fee and after a
transaction's messages succeed.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Iterable, Optional

from repro.cosmos.accounts import AddressIndex
from repro.cosmos.journal import Journal
from repro.errors import ChainError, InsufficientFundsError
from repro.tendermint.crypto import sha256


def module_address(name: str) -> str:
    """Deterministic address of a module account."""
    return sha256(b"module/" + name.encode())[:20].hex()


class BankKeeper:
    """Balances per (address, denom), with supply tracking.

    When bound to a provable ``store`` (the application does this), every
    balance is mirrored under ``balances/<address>/<denom>`` so the chain's
    app hash commits to bank state, as on a real chain, by
    :meth:`write_back`.
    """

    def __init__(
        self,
        store=None,
        index: Optional[AddressIndex] = None,
        journal: Optional[Journal] = None,
    ) -> None:
        self.index = index if index is not None else AddressIndex()
        self.journal = journal if journal is not None else Journal()
        self._columns: dict[str, array] = {}
        self._supply: dict[str, int] = defaultdict(int)
        self._store = store
        # (address, denom) -> column index of each balance written since
        # the last write_back (none without a store).
        self._touched: dict[tuple[str, str], int] = {}

    def _column(self, denom: str, idx: int) -> array:
        """The denom's balance column, grown (zero-filled) to cover ``idx``."""
        column = self._columns.get(denom)
        if column is None:
            column = array("q")
            self._columns[denom] = column
        short = idx + 1 - len(column)
        if short > 0:
            column.frombytes(bytes(8 * short))
        return column

    def _write(
        self, column: array, idx: int, address: str, denom: str, value: int
    ) -> None:
        """Set ``address``'s balance, already resolved to ``column[idx]``."""
        self.journal.put(column, idx, value)
        if self._store is not None:
            self._touched[address, denom] = idx

    def write_back(self) -> None:
        """Mirror each balance written since the last call into the store,
        once, at its final value (the application calls this after genesis
        funding, after the fee, and after a transaction's messages succeed,
        before it merges the store's overlay)."""
        touched = self._touched
        if not touched:
            return
        store = self._store
        columns = self._columns
        for (address, denom), idx in touched.items():
            store.set(
                f"balances/{address}/{denom}".encode(),
                str(columns[denom][idx]).encode(),
            )
        touched.clear()

    def discard_writes(self) -> None:
        """Forget the transaction's balance writes (it failed and rolled
        back, so the store keeps the balances it already holds)."""
        self._touched.clear()

    def _set_supply(self, denom: str, value: int) -> None:
        self.journal.put(self._supply, denom, value)

    # -- queries --------------------------------------------------------------

    def balance(self, address: str, denom: str) -> int:
        idx = self.index.lookup(address)
        if idx is None:
            return 0
        column = self._columns.get(denom)
        if column is None or idx >= len(column):
            return 0
        return column[idx]

    def balances(self, address: str) -> dict[str, int]:
        idx = self.index.lookup(address)
        if idx is None:
            return {}
        return {
            denom: column[idx]
            for denom, column in self._columns.items()
            if idx < len(column) and column[idx] > 0
        }

    def supply(self, denom: str) -> int:
        return self._supply[denom]

    def total_of(self, denom: str) -> int:
        """Sum of balances for a denom (== supply by invariant)."""
        column = self._columns.get(denom)
        return sum(column) if column is not None else 0

    # -- state transitions ------------------------------------------------------

    def mint(self, address: str, denom: str, amount: int) -> None:
        self._require_positive(amount)
        self._credit(address, denom, amount)
        self._set_supply(denom, self._supply[denom] + amount)

    def burn(self, address: str, denom: str, amount: int) -> None:
        self._debit(address, denom, amount)
        self._set_supply(denom, self._supply[denom] - amount)

    def send(self, sender: str, recipient: str, denom: str, amount: int) -> None:
        self._debit(sender, denom, amount)
        self._credit(recipient, denom, amount)

    def _debit(self, address: str, denom: str, amount: int) -> None:
        """Take ``amount`` from ``address``: the first step, and the
        amount check, of every burn and send."""
        if amount <= 0:
            raise InsufficientFundsError(f"amount must be positive, got {amount}")
        # ``lookup``, never ``intern``: a failed debit must leave the
        # address index untouched (see ``AddressIndex.bind``).
        idx = self.index.lookup(address)
        column = self._columns.get(denom)
        if idx is None or column is None or idx >= len(column):
            balance = 0
        else:
            balance = column[idx]
        if balance < amount:
            raise InsufficientFundsError(
                f"{address} has {balance}{denom}, needs {amount}{denom}"
            )
        self._write(column, idx, address, denom, balance - amount)

    def _credit(self, address: str, denom: str, amount: int) -> None:
        idx = self.index.intern(address)
        column = self._column(denom, idx)
        self._write(column, idx, address, denom, column[idx] + amount)

    @staticmethod
    def _require_positive(amount: int) -> None:
        if amount <= 0:
            raise InsufficientFundsError(f"amount must be positive, got {amount}")

    def genesis_mint_range(self, block: range, denom: str, amount: int) -> None:
        """Bulk genesis funding: every slot of reserved ``block`` gets
        ``amount`` of ``denom``.

        Appends to the balance column directly and skips the provable-store
        mirror — a million genesis balances would otherwise dominate the
        store.  Valid only at genesis (no transaction open, ``denom`` not
        yet credited at or past the block); runtime writes store absolute
        values, so any balance the simulation later touches lands in the
        store as usual.
        """
        self._require_positive(amount)
        if self.journal.open:
            raise RuntimeError("genesis_mint_range is a genesis-only operation")
        column = self._column(denom, block.start - 1)
        if len(column) > block.start:
            raise ChainError(f"{denom} is already credited at slot {block.start}")
        column.extend(array("q", [amount]) * len(block))
        self._supply[denom] += amount * len(block)

    # -- invariants ----------------------------------------------------------

    def check_supply_invariant(self, denoms: Iterable[str]) -> bool:
        """True if supply bookkeeping matches summed balances."""
        return all(self.total_of(d) == self._supply[d] for d in denoms)
