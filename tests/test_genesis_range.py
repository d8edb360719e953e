"""Genesis populations as reserved slot ranges: ``reserve``/``bind`` and
the two safety nets that let the address list go.

A genesis population is a block of interner slots with no addresses; the
workload driver binds a slot to its owner's address when the owner's
wallet is first materialised.  That is only sound if (1) *when* a slot is
bound is unobservable and (2) nothing names a member's address before its
owner binds it.  Both are checked here against the old list path rebuilt
from the public API: every rank bound up front, right after genesis.
"""

import gc

import pytest

from repro import framework
from repro.cosmos.accounts import AccountKeeper, AddressIndex, Wallet
from repro.cosmos.app import FEE_DENOM, TRANSFER_DENOM
from repro.cosmos.bank import BankKeeper
from repro.cosmos.journal import Journal
from repro.errors import ChainError
from repro.framework import ExperimentConfig, WorkloadSpec
from repro.framework.runner import _ExperimentEngine, _reset_run_caches
from repro.lint import scenarios
from repro.workload import Population

# ----------------------------------------------------------------------
# AddressIndex.reserve / bind
# ----------------------------------------------------------------------


def test_reserve_hands_out_a_dense_block_without_strings():
    index = AddressIndex()
    assert index.intern("before") == 0
    block = index.reserve(5)
    assert block == range(1, 6)
    assert len(index) == 6
    assert len(index._slots) == 1
    # A bank-only address interned after the reservation lands past it.
    assert index.intern("after") == 6
    assert index.reserve(0) == range(7, 7)
    assert len(index) == 7


def test_bind_makes_the_slot_reachable_by_address_and_is_idempotent():
    index = AddressIndex()
    block = index.reserve(3)
    assert index.lookup("owner") is None
    index.bind(block[1], "owner")
    index.bind(block[1], "owner")
    assert index.lookup("owner") == index.intern("owner") == block[1]
    assert len(index) == 3


def test_bind_refuses_a_slot_outside_every_reserved_block():
    index = AddressIndex()
    taken = index.intern("somebody")
    block = index.reserve(2)
    for slot in (taken, block.stop, -1):
        with pytest.raises(ChainError, match="not in a reserved block"):
            index.bind(slot, "owner")
    assert index.lookup("owner") is None


def test_bind_refuses_a_slot_bound_to_a_different_address():
    index = AddressIndex()
    block = index.reserve(2)
    index.bind(block[0], "owner")
    with pytest.raises(ChainError, match="already bound to owner"):
        index.bind(block[0], "impostor")
    assert index.lookup("impostor") is None
    assert index.lookup("owner") == block[0]


def test_bind_refuses_an_address_already_interned_elsewhere():
    """Something credited the member's address before its owner
    activated: the credit sits at a fresh slot, so binding now would
    split the account in two.  A crash, not a wrong balance."""
    index = AddressIndex()
    bank = BankKeeper(index=index)
    block = index.reserve(2)
    bank.mint("owner", "stake", 5)
    with pytest.raises(ChainError, match="already interned at"):
        index.bind(block[0], "owner")
    # ... including at another slot of the same block.
    index.bind(block[0], "first")
    with pytest.raises(ChainError, match="already interned at"):
        index.bind(block[1], "first")


# ----------------------------------------------------------------------
# Keepers: create_range / genesis_mint_range
# ----------------------------------------------------------------------


def test_create_range_numbers_accounts_in_slot_order():
    index = AddressIndex()
    accounts = AccountKeeper(index=index)
    bank = BankKeeper(index=index)
    first = accounts.create(Wallet.named("range-first").public_key)
    bank.mint("bank-only", "stake", 1)  # a slot with no auth account
    block = accounts.create_range(4)
    assert block == range(2, 6)
    assert len(accounts) == 5
    assert accounts.get("bank-only") is None
    last = accounts.create(Wallet.named("range-last").public_key)
    assert (first.account_number, last.account_number) == (0, 5)
    owner = Wallet.named("range-owner")
    assert accounts.get(owner.address) is None
    index.bind(block[2], owner.address)
    view = accounts.require(owner.address)
    assert (view.account_number, view.sequence) == (3, 0)
    accounts.increment_sequence(owner.address)
    assert accounts.sequence_of(owner.address) == 1


def test_genesis_mint_range_is_genesis_only():
    index = AddressIndex()
    journal = Journal()
    bank = BankKeeper(index=index, journal=journal)
    block = AccountKeeper(index=index).create_range(3)
    journal.begin()  # inside a transaction: refused, and nothing written
    with pytest.raises(RuntimeError, match="genesis-only"):
        bank.genesis_mint_range(block, "stake", 10)
    assert bank.supply("stake") == bank.total_of("stake") == 0
    journal.commit()
    bank.genesis_mint_range(block, "stake", 10)
    assert bank.supply("stake") == bank.total_of("stake") == 30
    # A second funding of the same block would overwrite, not add.
    with pytest.raises(ChainError, match="already credited"):
        bank.genesis_mint_range(block, "stake", 10)
    assert bank.check_supply_invariant(["stake"])


# ----------------------------------------------------------------------
# Engine mode: binding time is unobservable, the world is closed
# ----------------------------------------------------------------------


def _engine_config(population, seed=7, **spec) -> ExperimentConfig:
    return ExperimentConfig(
        input_rate=20,
        measurement_blocks=3,
        seed=seed,
        drain_seconds=20.0,
        workload=WorkloadSpec(population=population, **spec),
    )


#: Every arrival kind, plus spam + griefing; ``skewed`` is the registry
#: scenario whose replay/sched/stall pins gate the workload path.
CONFIGS = {
    "skewed": scenarios.lookup("skewed").build(1),
    "uniform": _engine_config(30),
    "diurnal": _engine_config(120, arrival="diurnal", zipf_s=0.9),
    "bursty": _engine_config(300, arrival="bursty", zipf_s=2.0),
    # A flat Zipf law over few senders: most ranks activate.
    "flat-adversarial": _engine_config(
        40, seed=3, zipf_s=0.2, spam_rate=0.5, griefing_rate=0.2
    ),
}


def _build(config: ExperimentConfig) -> _ExperimentEngine:
    gc.collect()  # a finished engine is cyclic garbage (runner docstring)
    _reset_run_caches()
    return _ExperimentEngine(config)


def _population(engine: _ExperimentEngine):
    """(index, block, member addresses in rank order) of the engine's
    sender population — addresses derived the one way there is."""
    testbed = engine.testbed
    index = testbed.chains[0].app.address_index
    block = testbed.route_blocks[0]
    config = engine.config
    population = Population(len(block), config.workload.zipf_s, config.seed)
    members = [
        Wallet.named(population.sender_name(rank)).address
        for rank in range(len(block))
    ]
    return index, block, members


@pytest.mark.parametrize("name", CONFIGS)
def test_binding_time_is_unobservable(name):
    """Safety net 1: the shipped run (bind on first submission) and the
    reference run (every rank bound right after genesis — the old address
    list) produce the same report, byte for byte."""
    config = CONFIGS[name]
    shipped = _build(config).run().to_json()

    engine = _build(config)
    index, block, members = _population(engine)
    assert len(block) == config.workload.population
    for rank, address in enumerate(members):
        index.bind(block[rank], address)
    assert engine.run().to_json() == shipped


@pytest.mark.parametrize("name", ["skewed", "flat-adversarial"])
def test_no_member_address_is_named_before_its_owner_binds(name, monkeypatch):
    """Safety net 2: an unbound member answers "unknown" to a lookup by
    address, so check nobody asks.  Every string that misses the interner
    during the run is recorded; none may be a member's address, and
    binding every remaining rank afterwards must not be refused (no
    member address was ever interned outside its slot)."""
    engine = _build(CONFIGS[name])
    index, block, members = _population(engine)
    missed: set[str] = set()
    lookup, intern = AddressIndex.lookup, AddressIndex.intern

    def recording_lookup(self, address):
        slot = lookup(self, address)
        if slot is None and self is index:
            missed.add(address)
        return slot

    def recording_intern(self, address):
        if self is index and lookup(self, address) is None:
            missed.add(address)
        return intern(self, address)

    monkeypatch.setattr(AddressIndex, "lookup", recording_lookup)
    monkeypatch.setattr(AddressIndex, "intern", recording_intern)
    report = engine.run()
    monkeypatch.undo()

    assert report.workload.committed_transfers > 0
    assert missed, "the audit saw no miss at all: is it still wired in?"
    assert missed.isdisjoint(members)
    active = len(engine.driver._lazy_clis)
    assert 0 < active < len(members)
    if name == "flat-adversarial":
        assert active > len(members) // 2
    assert sum(index.lookup(address) is not None for address in members) == active
    for rank, address in enumerate(members):
        index.bind(block[rank], address)
        assert index.lookup(address) == block[rank]


def test_an_unbound_sender_is_refused_not_miscounted(monkeypatch):
    """The driver's ``bind`` call removed: every engine submission dies at
    CheckTx as ``unknown account`` and nothing is accepted — never a
    plausible-looking report."""
    monkeypatch.setattr(AddressIndex, "bind", lambda self, slot, address: None)
    engine = _build(CONFIGS["uniform"])
    report = engine.run()
    assert report.workload.requested_transfers > 0
    assert report.workload.accepted_transfers == 0
    assert report.workload.committed_transfers == 0
    for submission in engine.driver.stats.submissions:
        assert submission.broadcast.code == 2
        assert "unknown account" in submission.broadcast.log


def test_active_senders_sit_at_their_rank_slot_and_nobody_else_is_named():
    engine = _build(CONFIGS["uniform"])
    index, block, members = _population(engine)
    before = len(index._slots)
    engine.run()
    app = engine.testbed.chains[0].app
    active = engine.driver._lazy_clis
    assert len(index._slots) - before <= len(active) + 4  # + escrow, fees
    for rank, cli in active.items():
        assert cli.wallet.address == members[rank]
        assert index.lookup(members[rank]) == block[rank]
        assert app.accounts.require(members[rank]).sequence > 0


# ----------------------------------------------------------------------
# Scale is structural: a million accounts, a few dozen strings
# ----------------------------------------------------------------------


def test_million_account_genesis_interns_a_handful_of_addresses():
    testbed = framework.Testbed(
        ExperimentConfig(workload=WorkloadSpec(population=1_000_000))
    )
    app = testbed.chains[0].app
    assert len(testbed.route_blocks[0]) == 1_000_000
    assert len(app.address_index._slots) < 50
    assert len(app.accounts) >= 1_000_000
    assert len(app.address_index) >= 1_000_000
    assert app.bank.check_supply_invariant([FEE_DENOM, TRANSFER_DENOM])
