"""Accounts and sequence numbers.

Cosmos chains enforce transaction ordering per account via sequence numbers
(replay protection).  The consequence the paper wrestles with — only one
transaction per account per block, because a second one would carry a
not-yet-incremented sequence — falls out of the ante handler checking the
values tracked here.

The keeper stores account state in flat ``array('q')`` columns indexed by
an :class:`AddressIndex` (a string-interning table shared with the bank
keeper), not one object per account.  A million-account population then
costs a few dozen bytes per account instead of a kilobyte: the address
string and its index slot, two machine words of column state, and *no* key
objects — key material stays lazy (see :func:`derive_address`) until an
account actually signs something.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import ChainError
from repro.tendermint.crypto import PrivateKey, PublicKey, new_keypair, sha256


class AddressIndex:
    """Interns address strings to dense integer indices.

    One shared instance per chain app maps every address the auth and bank
    modules touch to a stable small integer, so both keepers can use flat
    array columns instead of per-address dictionaries.  Indices are
    allocated in first-touch order and never reused.
    """

    __slots__ = ("_slots", "_addresses")

    def __init__(self) -> None:
        self._slots: dict[str, int] = {}
        self._addresses: list[str] = []

    def intern(self, address: str) -> int:
        """Index for ``address``, allocating one on first sight."""
        idx = self._slots.get(address)
        if idx is None:
            idx = len(self._addresses)
            self._slots[address] = idx
            self._addresses.append(address)
        return idx

    def lookup(self, address: str) -> Optional[int]:
        """Index for ``address``, or None if never interned."""
        return self._slots.get(address)

    def __contains__(self, address: str) -> bool:
        return address in self._slots

    def __len__(self) -> int:
        return len(self._addresses)


def derive_address(name: str) -> str:
    """The address :meth:`Wallet.named` would produce for ``name``.

    Pure hashing — no key objects, no cache entries, no signature-registry
    registration.  The workload population model derives the addresses of
    a million prospective senders through this and materializes an actual
    :class:`Wallet` only for the (few) accounts that become active.
    """
    secret = sha256(b"privkey/" + name.encode())
    public = sha256(b"pubkey/" + secret)
    return sha256(public)[:20].hex()


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
        self._count = 0

    def _grow(self, idx: int) -> None:
        short = idx + 1 - len(self._numbers)
        if short > 0:
            self._sequences.frombytes(bytes(8 * short))
            self._numbers.extend([_NO_ACCOUNT] * short)

    def _create_at(self, idx: int, address: str) -> None:
        self._grow(idx)
        if self._numbers[idx] != _NO_ACCOUNT:
            raise ChainError(f"account {address} already exists")
        self._numbers[idx] = self._next_number
        self._next_number += 1
        self._count += 1

    def create(self, public_key: PublicKey) -> AccountView:
        address = public_key.address
        idx = self.index.intern(address)
        self._create_at(idx, address)
        self._keys[idx] = public_key
        return AccountView(self, idx, address)

    def create_lazy(self, address: str) -> int:
        """Create an account with no stored key material; returns its index."""
        idx = self.index.intern(address)
        self._create_at(idx, address)
        return idx

    def create_many(self, addresses: Iterable[str]) -> None:
        """Bulk genesis: create lazy accounts in iteration order."""
        for address in addresses:
            self.create_lazy(address)

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
        return self._count
