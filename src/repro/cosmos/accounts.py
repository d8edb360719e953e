"""Accounts and sequence numbers.

Cosmos chains enforce transaction ordering per account via sequence numbers
(replay protection).  The consequence the paper wrestles with — only one
transaction per account per block, because a second one would carry a
not-yet-incremented sequence — falls out of the ante handler checking the
values tracked here.

The keeper stores account state in flat ``array('q')`` columns indexed by
an :class:`AddressIndex` (a string-interning table shared with the bank
keeper), not one object per account.  A million-account population then
costs two machine words of column state per account and *no* strings or
key objects: it is a reserved slot range (:meth:`AddressIndex.reserve`),
and a slot learns its address (:meth:`AddressIndex.bind`) only when its
owner's wallet is first materialised.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.errors import ChainError
from repro.sim.records import dataclass
from repro.tendermint.crypto import PrivateKey, PublicKey, new_keypair


class AddressIndex:
    """Interns address strings to dense integer indices.

    One shared instance per chain app maps every address the auth and bank
    modules touch to a stable small integer, so both keepers can use flat
    array columns instead of per-address dictionaries.  Indices are
    allocated in first-touch order and never reused.

    A genesis population takes a block of indices at once (:meth:`reserve`):
    a reserved slot is an account whose address nobody has computed yet,
    reachable by slot and not by string until :meth:`bind` attaches it.
    """

    __slots__ = ("_slots", "_count", "_blocks", "_bound")

    def __init__(self) -> None:
        self._slots: dict[str, int] = {}
        self._count = 0
        self._blocks: list[range] = []
        self._bound: dict[int, str] = {}  # reserved slot -> bound address

    def intern(self, address: str) -> int:
        """Index for ``address``, allocating one on first sight."""
        idx = self._slots.get(address)
        if idx is None:
            idx = self._count
            self._slots[address] = idx
            self._count += 1
        return idx

    def lookup(self, address: str) -> Optional[int]:
        """Index for ``address``, or None if never interned."""
        return self._slots.get(address)

    def reserve(self, count: int) -> range:
        """Allocate ``count`` consecutive indices with no address yet."""
        block = range(self._count, self._count + count)
        self._count = block.stop
        self._blocks.append(block)
        return block

    def bind(self, slot: int, address: str) -> None:
        """Attach ``address`` to reserved ``slot``, before its first use.

        Refused unless that is provable: an address interned elsewhere was
        credited or created before its owner activated, and binding over
        it would turn the mis-ordering into a wrong balance.  The same
        pair again is a no-op.
        """
        if not any(slot in block for block in self._blocks):
            raise ChainError(f"slot {slot} is not in a reserved block")
        interned = self._slots.get(address, slot)
        if interned != slot:
            raise ChainError(f"{address} already interned at {interned}, not {slot}")
        if self._bound.setdefault(slot, address) != address:
            raise ChainError(f"slot {slot} is already bound to {self._bound[slot]}")
        self._slots[address] = slot

    def __len__(self) -> int:
        return self._count


@dataclass
class BaseAccount:
    """On-chain account state, as a plain value (queries and tests)."""

    address: str
    public_key: Optional[PublicKey]
    account_number: int
    sequence: int = 0


@dataclass
class Wallet:
    """Client-side key material for signing transactions."""

    name: str
    private_key: PrivateKey
    public_key: PublicKey

    @property
    def address(self) -> str:
        return self.public_key.address

    @classmethod
    def named(cls, name: str) -> "Wallet":
        priv, pub = new_keypair(name)
        return cls(name=name, private_key=priv, public_key=pub)


#: Column sentinel: this index has no account (the interner may allocate
#: indices for bank-only addresses such as module escrow accounts).
_NO_ACCOUNT = -1


class AccountView:
    """A write-through window onto one account's column slots.

    Behaves like :class:`BaseAccount` for readers, but ``sequence``
    assignments (the ante handler's ``account.sequence += 1``) land
    directly in the keeper's array column.
    """

    __slots__ = ("_keeper", "_idx", "address")

    def __init__(self, keeper: "AccountKeeper", idx: int, address: str) -> None:
        self._keeper = keeper
        self._idx = idx
        self.address = address

    @property
    def sequence(self) -> int:
        return self._keeper._sequences[self._idx]

    @sequence.setter
    def sequence(self, value: int) -> None:
        self._keeper._sequences[self._idx] = value

    @property
    def account_number(self) -> int:
        return self._keeper._numbers[self._idx]

    @property
    def public_key(self) -> Optional[PublicKey]:
        return self._keeper._keys.get(self._idx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AccountView(address={self.address!r}, "
            f"number={self.account_number}, sequence={self.sequence})"
        )


class AccountKeeper:
    """The auth module's account store, on flat array columns.

    ``_sequences`` and ``_numbers`` are ``array('q')`` columns indexed by
    the shared :class:`AddressIndex`; ``_keys`` is a sparse side table
    holding public keys only for accounts created *with* key material
    (bulk-created workload accounts carry none — transaction validation
    uses the key the tx itself presents, exactly like the SDK, which
    stores the pubkey on first use).
    """

    def __init__(self, index: Optional[AddressIndex] = None) -> None:
        self.index = index if index is not None else AddressIndex()
        self._sequences = array("q")
        self._numbers = array("q")
        self._keys: dict[int, PublicKey] = {}
        self._next_number = 0

    def _grow(self, idx: int) -> None:
        short = idx + 1 - len(self._numbers)
        if short > 0:
            self._sequences.frombytes(bytes(8 * short))
            self._numbers.extend([_NO_ACCOUNT] * short)

    def create(self, public_key: PublicKey) -> AccountView:
        address = public_key.address
        idx = self.index.intern(address)
        self._grow(idx)
        if self._numbers[idx] != _NO_ACCOUNT:
            raise ChainError(f"account {address} already exists")
        self._numbers[idx] = self._next_number
        self._next_number += 1
        self._keys[idx] = public_key
        return AccountView(self, idx, address)

    def create_range(self, count: int) -> range:
        """Bulk genesis: ``count`` keyless accounts on a freshly reserved
        slot block, numbered in slot order; returns the block."""
        block = self.index.reserve(count)
        self._grow(block.start - 1)
        self._sequences.frombytes(bytes(8 * count))
        self._numbers.extend(range(self._next_number, self._next_number + count))
        self._next_number += count
        return block

    def get(self, address: str) -> Optional[AccountView]:
        idx = self.index.lookup(address)
        if idx is None or idx >= len(self._numbers):
            return None
        if self._numbers[idx] == _NO_ACCOUNT:
            return None
        return AccountView(self, idx, address)

    def get_or_create(self, public_key: PublicKey) -> AccountView:
        account = self.get(public_key.address)
        if account is None:
            account = self.create(public_key)
        return account

    def require(self, address: str) -> AccountView:
        account = self.get(address)
        if account is None:
            raise ChainError(f"unknown account {address}", code=2)
        return account

    def increment_sequence(self, address: str) -> None:
        idx = self.index.lookup(address)
        if idx is None or idx >= len(self._numbers):
            raise ChainError(f"unknown account {address}", code=2)
        if self._numbers[idx] == _NO_ACCOUNT:
            raise ChainError(f"unknown account {address}", code=2)
        self._sequences[idx] += 1

    def sequence_of(self, address: str) -> int:
        """Sequence for ``address``; 0 for unknown accounts (query path)."""
        idx = self.index.lookup(address)
        if idx is None or idx >= len(self._sequences):
            return 0
        return self._sequences[idx]

    def __len__(self) -> int:
        return self._next_number
