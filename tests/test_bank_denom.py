"""Tests for the bank keeper and ICS-20 denomination traces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosmos.bank import BankKeeper, module_address
from repro.cosmos.denom import DenomRegistry, DenomTrace
from repro.cosmos.journal import Journal
from repro.errors import InsufficientFundsError


# -- bank ---------------------------------------------------------------------


def test_mint_and_balance():
    bank = BankKeeper()
    bank.mint("alice", "uatom", 100)
    assert bank.balance("alice", "uatom") == 100
    assert bank.supply("uatom") == 100


def test_send_moves_funds():
    bank = BankKeeper()
    bank.mint("alice", "uatom", 100)
    bank.send("alice", "bob", "uatom", 30)
    assert bank.balance("alice", "uatom") == 70
    assert bank.balance("bob", "uatom") == 30
    assert bank.supply("uatom") == 100


def test_send_insufficient_funds():
    bank = BankKeeper()
    bank.mint("alice", "uatom", 10)
    with pytest.raises(InsufficientFundsError):
        bank.send("alice", "bob", "uatom", 11)


@pytest.mark.parametrize("op", ["send", "burn"])
def test_failed_debit_never_interns(op):
    """A debit from a never-seen address fails without interning it, so a
    reserved genesis slot can still bind that address afterwards."""
    bank = BankKeeper()
    block = bank.index.reserve(2)
    bank.mint("alice", "uatom", 10)
    before = len(bank.index)
    with pytest.raises(InsufficientFundsError):
        if op == "send":
            bank.send("ghost", "alice", "uatom", 1)
        else:
            bank.burn("ghost", "uatom", 1)
    assert len(bank.index) == before
    assert bank.index.lookup("ghost") is None
    bank.index.bind(block[0], "ghost")  # would raise had the debit interned
    assert bank.balance("alice", "uatom") == 10


def test_send_to_self_keeps_balance():
    bank = BankKeeper()
    bank.mint("alice", "uatom", 10)
    bank.send("alice", "alice", "uatom", 4)
    assert bank.balance("alice", "uatom") == 10
    assert bank.supply("uatom") == 10


def test_burn_reduces_supply():
    bank = BankKeeper()
    bank.mint("alice", "uatom", 100)
    bank.burn("alice", "uatom", 40)
    assert bank.balance("alice", "uatom") == 60
    assert bank.supply("uatom") == 60


def test_non_positive_amounts_rejected():
    bank = BankKeeper()
    with pytest.raises(InsufficientFundsError):
        bank.mint("a", "uatom", 0)
    with pytest.raises(InsufficientFundsError):
        bank.mint("a", "uatom", -5)


def test_balances_filters_zero():
    bank = BankKeeper()
    bank.mint("a", "uatom", 5)
    bank.send("a", "b", "uatom", 5)
    assert bank.balances("a") == {}


def test_module_address_deterministic():
    assert module_address("x") == module_address("x")
    assert module_address("x") != module_address("y")


def test_journal_rollback_restores_bank():
    journal = Journal()
    bank = BankKeeper(journal=journal)
    bank.mint("alice", "uatom", 100)
    journal.begin()
    bank.send("alice", "bob", "uatom", 60)
    bank.burn("bob", "uatom", 10)
    journal.rollback()
    assert bank.balance("alice", "uatom") == 100
    assert bank.balance("bob", "uatom") == 0
    assert bank.supply("uatom") == 100


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["mint", "send", "burn"]),
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=1, max_value=50),
        ),
        max_size=40,
    )
)
def test_supply_invariant_under_random_ops(ops):
    """Property: supply always equals the sum of balances, even when some
    operations fail."""
    bank = BankKeeper()
    for op, src, dst, amount in ops:
        try:
            if op == "mint":
                bank.mint(src, "tok", amount)
            elif op == "send":
                bank.send(src, dst, "tok", amount)
            else:
                bank.burn(src, "tok", amount)
        except InsufficientFundsError:
            pass
        assert bank.check_supply_invariant(["tok"])
        assert bank.balance(src, "tok") >= 0
        assert bank.balance(dst, "tok") >= 0


# -- denom traces ---------------------------------------------------------------


def test_native_denom_roundtrip():
    trace = DenomTrace.native("uatom")
    assert trace.is_native
    assert trace.ibc_denom() == "uatom"
    assert trace.full_path() == "uatom"


def test_voucher_denom_is_hashed():
    trace = DenomTrace.native("uatom").prepend("transfer", "channel-0")
    denom = trace.ibc_denom()
    assert denom.startswith("ibc/")
    assert len(denom) == 4 + 64  # "ibc/" + sha256 hex
    assert denom == denom.upper()[:0] + denom  # stable


def test_different_channels_are_not_fungible():
    """The paper's §IV-A point: tokens sent through different channels get
    different denominations and are not fungible."""
    via0 = DenomTrace.native("uatom").prepend("transfer", "channel-0")
    via1 = DenomTrace.native("uatom").prepend("transfer", "channel-1")
    assert via0.ibc_denom() != via1.ibc_denom()


def test_parse_roundtrip():
    trace = DenomTrace.parse("transfer/channel-0/uatom")
    assert trace.path == (("transfer", "channel-0"),)
    assert trace.base_denom == "uatom"
    assert trace.full_path() == "transfer/channel-0/uatom"


def test_parse_multi_hop():
    trace = DenomTrace.parse("transfer/channel-3/transfer/channel-0/uatom")
    assert len(trace.path) == 2
    assert trace.outermost_hop() == ("transfer", "channel-3")
    assert trace.unwind().full_path() == "transfer/channel-0/uatom"


def test_unwind_native_rejected():
    with pytest.raises(ValueError):
        DenomTrace.native("uatom").unwind()


def test_parse_requires_base():
    with pytest.raises(ValueError):
        DenomTrace.parse("transfer/channel-0/")


def test_registry_resolves_voucher():
    registry = DenomRegistry()
    trace = DenomTrace.native("uatom").prepend("transfer", "channel-0")
    denom = registry.register(trace)
    assert registry.resolve(denom) == trace


def test_registry_resolves_native_without_registration():
    registry = DenomRegistry()
    assert registry.resolve("uatom") == DenomTrace.native("uatom")
    assert registry.resolve("uatom") is registry.resolve("uatom")


def test_registry_unknown_voucher_raises():
    registry = DenomRegistry()
    with pytest.raises(KeyError):
        registry.resolve("ibc/" + "0" * 64)


@settings(max_examples=40, deadline=None)
@given(
    hops=st.lists(
        st.sampled_from(["channel-0", "channel-1", "channel-42"]),
        min_size=1,
        max_size=4,
    ),
    base=st.sampled_from(["uatom", "stake", "factory/x/token"]),
)
def test_prepend_unwind_inverse(hops, base):
    """Property: unwinding undoes prepending, hop by hop."""
    trace = DenomTrace.native(base)
    for channel in hops:
        trace = trace.prepend("transfer", channel)
    for _ in hops:
        trace = trace.unwind()
    assert trace == DenomTrace.native(base)
