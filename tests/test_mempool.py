"""Mempool tests: check-state sequences, gossip timing, reaping, recheck."""

import pytest

from repro.cosmos.accounts import Wallet
from repro.cosmos.app import FEE_DENOM, GaiaApp
from repro.cosmos.tx import MsgSend, TxFactory
from repro.tendermint.mempool import Mempool


@pytest.fixture
def app() -> GaiaApp:
    return GaiaApp("mempool-chain")


@pytest.fixture
def mempool(app) -> Mempool:
    return Mempool(app, max_txs=10)


def funded_factory(app, name) -> TxFactory:
    wallet = Wallet.named(name)
    app.genesis_account(wallet, {FEE_DENOM: 10**12})
    return TxFactory(wallet, app.cal)


def reap(mempool, now, **limits):
    """Reap under the app's block limits, unless ``limits`` overrides."""
    limits = {
        "max_gas": mempool.app.cal.block_max_gas,
        "max_bytes": mempool.app.cal.block_max_bytes,
        **limits,
    }
    return mempool.reap(now=now, **limits)


def send_msg(factory) -> MsgSend:
    return MsgSend(
        sender=factory.wallet.address, recipient="r", denom=FEE_DENOM, amount=1
    )


def test_admission_and_reap(app, mempool):
    factory = funded_factory(app, "mp-a")
    tx = factory.build([send_msg(factory)], gas_limit=100_000)
    response = mempool.add(tx, now=0.0)
    assert response.ok
    assert reap(mempool, now=1.0) == [tx]


def test_gossip_delay_gates_reaping(app, mempool):
    factory = funded_factory(app, "mp-b")
    tx = factory.build([send_msg(factory)], gas_limit=100_000)
    mempool.add(tx, now=0.0, gossip_delay=2.0)
    assert reap(mempool, now=1.0) == []  # not yet gossiped to the proposer
    assert reap(mempool, now=2.5) == [tx]


def test_duplicate_tx_rejected(app, mempool):
    factory = funded_factory(app, "mp-c")
    tx = factory.build([send_msg(factory)], gas_limit=100_000)
    assert mempool.add(tx, now=0.0).ok
    response = mempool.add(tx, now=0.0)
    assert not response.ok
    assert "cache" in response.log


def test_capacity_limit(app):
    mempool = Mempool(app, max_txs=2)
    factories = [funded_factory(app, f"mp-cap-{i}") for i in range(3)]
    for factory in factories[:2]:
        assert mempool.add(
            factory.build([send_msg(factory)], gas_limit=100_000), now=0.0
        ).ok
    full = mempool.add(
        factories[2].build([send_msg(factories[2])], gas_limit=100_000), now=0.0
    )
    assert not full.ok and "full" in full.log


def test_sequential_txs_from_one_account_queue(app, mempool):
    """The mempool's check state admits seq N then N+1 before either
    commits — how Hermes queues several txs for one block."""
    factory = funded_factory(app, "mp-d")
    tx0 = factory.build([send_msg(factory)], gas_limit=100_000)
    tx1 = factory.build([send_msg(factory)], gas_limit=100_000)
    assert mempool.add(tx0, now=0.0).ok
    assert mempool.add(tx1, now=0.0).ok
    assert len(mempool) == 2


def test_stale_sequence_rejected_like_the_cli(app, mempool):
    """A client signing with the on-chain sequence while a tx is pending
    gets 'account sequence mismatch' (paper §V)."""
    factory = funded_factory(app, "mp-e")
    tx0 = factory.build([send_msg(factory)], gas_limit=100_000, sequence=0)
    dup = factory.build([send_msg(factory)], gas_limit=100_000, sequence=0)
    assert mempool.add(tx0, now=0.0).ok
    response = mempool.add(dup, now=0.0)
    assert not response.ok
    assert "account sequence mismatch" in response.log


def test_gap_sequence_rejected(app, mempool):
    factory = funded_factory(app, "mp-f")
    skip = factory.build([send_msg(factory)], gas_limit=100_000, sequence=5)
    assert not mempool.add(skip, now=0.0).ok


def test_reap_respects_gas_limit(app, mempool):
    factory_a = funded_factory(app, "mp-g1")
    factory_b = funded_factory(app, "mp-g2")
    tx_a = factory_a.build([send_msg(factory_a)], gas_limit=100_000)
    tx_b = factory_b.build([send_msg(factory_b)], gas_limit=100_000)
    mempool.add(tx_a, now=0.0)
    mempool.add(tx_b, now=0.5)  # strictly later: FIFO is by arrival time
    reaped = reap(mempool, now=1.0, max_gas=150_000)
    assert reaped == [tx_a]  # second tx would exceed the block gas cap


def test_reap_respects_byte_limit(app, mempool):
    factories = [funded_factory(app, f"mp-h{i}") for i in range(2)]
    txs = [f.build([send_msg(f)], gas_limit=100_000) for f in factories]
    for i, tx in enumerate(txs):
        mempool.add(tx, now=float(i))
    reaped = reap(mempool, now=2.0, max_bytes=txs[0].size_bytes)
    assert reaped == [txs[0]]


def test_reap_same_instant_ties_break_by_sender(app, mempool):
    """Two txs arriving at the same instant reap in sender-address order,
    not insertion order — insertion order at one instant is event-heap
    tie order, which must never decide block content."""
    factory_a = funded_factory(app, "mp-t1")
    factory_b = funded_factory(app, "mp-t2")
    tx_a = factory_a.build([send_msg(factory_a)], gas_limit=100_000)
    tx_b = factory_b.build([send_msg(factory_b)], gas_limit=100_000)
    # Insert in both orders: the reaped order must not change.
    mempool.add(tx_b, now=0.0)
    mempool.add(tx_a, now=0.0)
    expected = sorted([tx_a, tx_b], key=lambda tx: tx.signer_address)
    assert reap(mempool, now=1.0) == expected


def test_update_removes_committed_and_rechecks(app, mempool):
    factory = funded_factory(app, "mp-i")
    tx0 = factory.build([send_msg(factory)], gas_limit=100_000)
    tx1 = factory.build([send_msg(factory)], gas_limit=100_000)
    mempool.add(tx0, now=0.0)
    mempool.add(tx1, now=0.0)
    # Simulate tx0 committing: account sequence advances on chain.
    app.accounts.require(factory.wallet.address).sequence = 1
    mempool.update([tx0.hash])
    assert tx0.hash not in mempool
    assert tx1.hash in mempool  # still valid: its sequence is 1


def test_recheck_drops_stale_pending_txs(app, mempool):
    factory = funded_factory(app, "mp-j")
    tx0 = factory.build([send_msg(factory)], gas_limit=100_000, sequence=0)
    mempool.add(tx0, now=0.0)
    # Another copy of sequence 0 committed via a different node; chain moved on.
    app.accounts.require(factory.wallet.address).sequence = 1
    mempool.update([])
    assert tx0.hash not in mempool  # stale sequence evicted


def test_eviction_counter_tracks_recheck_drops(app, mempool):
    """The ``evicted`` counter (the report's mempool section) counts only
    recheck drops — admission rejections stay in ``rejected``."""
    factory = funded_factory(app, "mp-l")
    tx0 = factory.build([send_msg(factory)], gas_limit=100_000, sequence=0)
    tx1 = factory.build([send_msg(factory)], gas_limit=100_000, sequence=1)
    assert mempool.add(tx0, now=0.0).ok
    assert mempool.add(tx1, now=0.0).ok
    assert mempool.evicted == 0
    # A replay rejected at admission is not an eviction.
    replay = factory.build(
        [send_msg(factory)], gas_limit=100_000, sequence=0
    )
    assert not mempool.add(replay, now=0.0).ok
    assert mempool.rejected == 1
    assert mempool.evicted == 0
    # The chain commits both sequences via another node: the recheck
    # drops both pending txs and counts them.
    app.accounts.require(factory.wallet.address).sequence = 2
    mempool.update([])
    assert len(mempool) == 0
    assert mempool.evicted == 2
    assert mempool.admitted == 2
