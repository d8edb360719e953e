"""Differential testing: array-backed keepers vs a dict-based reference.

The bank and account keepers store state in flat ``array('q')`` columns
indexed by an interning table — the representation that makes a
million-account population affordable.  This stateful test drives both
the real keepers and an obviously-correct dict model through random
interleavings of the operations the simulation performs (genesis
creation, minting, sends, escrow moves, sequence bumps, and failed
transactions rolled back through the undo journal) and asserts the two
worlds never diverge: same balances, same sequences, same supply, same
error behaviour.

Bulk genesis is where the two differ on purpose: the keepers *reserve* a
slot range and learn a member's address only when it is bound, while the
model is the old address list — it names, creates and funds every member
the moment the range is reserved.  Rules name a member only once it is
bound (the closed world the workload driver lives in).
"""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cosmos.accounts import AccountKeeper, AddressIndex, Wallet
from repro.cosmos.bank import BankKeeper, module_address
from repro.cosmos.journal import Journal
from repro.errors import InsufficientFundsError

#: A small closed world: collisions (same account touched repeatedly,
#: sends to self, escrow round trips) are the interesting cases.
WALLETS = {
    wallet.address: wallet
    for wallet in (Wallet.named(f"diff-user-{i}") for i in range(6))
}
ADDRESSES = list(WALLETS)
ESCROW = module_address("transfer/channel-0")
DENOMS = ["stake", "uatom"]

#: Whoever a rule may name: the fixed users, plus every population member
#: whose slot has been bound.
addresses = st.runner().flatmap(
    lambda machine: st.sampled_from(ADDRESSES + list(machine.bound))
)
denoms = st.sampled_from(DENOMS)
amounts = st.integers(min_value=1, max_value=1_000)


class DictModel:
    """The reference: plain dicts, no journal, no columns."""

    def __init__(self) -> None:
        self.balances: dict[tuple, int] = {}
        self.supply: dict[str, int] = {}
        self.sequences: dict[str, int] = {}
        self.numbers: dict[str, int] = {}

    def create(self, address: str) -> None:
        self.sequences[address] = 0
        self.numbers[address] = len(self.numbers)

    def mint(self, address: str, denom: str, amount: int) -> None:
        self.balances[(address, denom)] = (
            self.balances.get((address, denom), 0) + amount
        )
        self.supply[denom] = self.supply.get(denom, 0) + amount

    def send(
        self, sender: str, recipient: str, denom: str, amount: int
    ) -> bool:
        if self.balances.get((sender, denom), 0) < amount:
            return False
        self.balances[(sender, denom)] -= amount
        self.balances[(recipient, denom)] = (
            self.balances.get((recipient, denom), 0) + amount
        )
        return True

    def bump(self, address: str) -> None:
        self.sequences[address] += 1


class BankDifferential(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.index = AddressIndex()
        self.accounts = AccountKeeper(index=self.index)
        self.journal = Journal()
        self.bank = BankKeeper(index=self.index, journal=self.journal)
        self.model = DictModel()
        #: Accounts a rule may name: created users and bound members.
        self.created: set = set()
        #: Reserved slot -> its owner's address, until bound; then
        #: address -> slot, for good.
        self.unbound: dict[int, str] = {}
        self.bound: dict[str, int] = {}

    # -- operations ----------------------------------------------------

    @rule(address=st.sampled_from(ADDRESSES))
    def create_account(self, address: str) -> None:
        if address in self.created:
            return
        self.accounts.create(WALLETS[address].public_key)
        self.model.create(address)
        self.created.add(address)

    @rule(count=st.integers(1, 3), denom=denoms, amount=amounts)
    def reserve(self, count: int, denom: str, amount: int) -> None:
        """Bulk genesis: the keepers take a slot range, the model a list."""
        block = self.accounts.create_range(count)
        self.bank.genesis_mint_range(block, denom, amount)
        for slot in block:
            owner = f"diff-member-{slot}"
            self.unbound[slot] = owner
            self.model.create(owner)
            self.model.mint(owner, denom, amount)

    @precondition(lambda self: self.unbound)
    @rule(data=st.data())
    def bind(self, data) -> None:
        """A member activates: from here on rules may name it."""
        slot = data.draw(st.sampled_from(sorted(self.unbound)))
        owner = self.unbound.pop(slot)
        self.index.bind(slot, owner)
        self.bound[owner] = slot
        self.created.add(owner)

    @rule(address=addresses, denom=denoms, amount=amounts)
    def mint(self, address: str, denom: str, amount: int) -> None:
        self.bank.mint(address, denom, amount)
        self.model.mint(address, denom, amount)

    @rule(
        sender=addresses, recipient=addresses, denom=denoms, amount=amounts
    )
    def send(
        self, sender: str, recipient: str, denom: str, amount: int
    ) -> None:
        """Both worlds agree on success *and* on failure: an insufficient
        balance raises on the keeper exactly when the model refuses."""
        try:
            self.bank.send(sender, recipient, denom, amount)
            sent = True
        except InsufficientFundsError:
            sent = False
        assert sent == self.model.send(sender, recipient, denom, amount)

    @rule(sender=addresses, denom=denoms, amount=amounts)
    def escrow(self, sender: str, denom: str, amount: int) -> None:
        """ICS-20 escrow: a send to a module account (bank-only address
        with no auth account — the case the _NO_ACCOUNT sentinel guards)."""
        try:
            self.bank.send(sender, ESCROW, denom, amount)
            sent = True
        except InsufficientFundsError:
            sent = False
        assert sent == self.model.send(sender, ESCROW, denom, amount)

    @precondition(lambda self: self.created)
    @rule(data=st.data())
    def bump_sequence(self, data) -> None:
        address = data.draw(st.sampled_from(sorted(self.created)))
        self.accounts.increment_sequence(address)
        self.model.bump(address)

    @rule(
        sender=addresses,
        recipient=addresses,
        denom=denoms,
        amount=amounts,
        mint_amount=amounts,
    )
    def failed_tx_rolls_back(
        self,
        sender: str,
        recipient: str,
        denom: str,
        amount: int,
        mint_amount: int,
    ) -> None:
        """A journaled mutation burst, then rollback: the array columns
        must restore to exactly the reference state (which never moved),
        and a bound member stays bound."""
        journal = self.journal
        journal.begin()
        try:
            self.bank.mint(sender, denom, mint_amount)
            try:
                self.bank.send(sender, recipient, denom, amount)
            except InsufficientFundsError:
                pass
            self.bank.send(sender, ESCROW, denom, mint_amount + amount)
        except InsufficientFundsError:
            pass
        finally:
            journal.rollback()
        self.check_balances_match()

    # -- invariants ----------------------------------------------------

    @invariant()
    def check_bound_members_stay_at_their_slot(self) -> None:
        for owner, slot in self.bound.items():
            assert self.index.lookup(owner) == slot

    @invariant()
    def check_balances_match(self) -> None:
        for address in ADDRESSES + [ESCROW] + list(self.bound):
            for denom in DENOMS:
                assert self.bank.balance(address, denom) == (
                    self.model.balances.get((address, denom), 0)
                ), (address, denom)

    @invariant()
    def check_sequences_match(self) -> None:
        for address in ADDRESSES + list(self.bound):
            expected = self.model.sequences.get(address, 0)
            assert self.accounts.sequence_of(address) == expected
            account = self.accounts.get(address)
            if address in self.created:
                assert account is not None
                assert account.sequence == expected
                assert account.account_number == self.model.numbers[address]
            else:
                assert account is None

    @invariant()
    def check_supply_matches_and_is_conserved(self) -> None:
        """The model funded unbound members by name; the keepers hold the
        same coins at slots nobody can name yet — supply counts both."""
        assert len(self.accounts) == len(self.model.numbers)
        for denom in DENOMS:
            assert self.bank.supply(denom) == self.model.supply.get(denom, 0)
        assert self.bank.check_supply_invariant(DENOMS)


TestBankDifferential = BankDifferential.TestCase


def test_bulk_genesis_matches_incremental_mints():
    """genesis_mint_range (the column fast path) plus a bind per member
    lands the same state as per-account mints through the journal-aware
    slow path."""
    fast_index = AddressIndex()
    fast = BankKeeper(index=fast_index)
    slow = BankKeeper()
    addresses = [f"bulk-{i}" for i in range(100)]
    block = fast_index.reserve(len(addresses))
    fast.genesis_mint_range(block, "uatom", 5_000)
    for slot, address in zip(block, addresses):
        fast_index.bind(slot, address)
    for address in addresses:
        slow.mint(address, "uatom", 5_000)
    assert fast.supply("uatom") == slow.supply("uatom") == 500_000
    for address in addresses:
        assert fast.balance(address, "uatom") == slow.balance(
            address, "uatom"
        ) == 5_000
    assert fast.check_supply_invariant(["uatom"])
