"""Consensus engine tests: block production, timing, faults, evidence."""

import pytest

from repro.cosmos.accounts import Wallet
from repro.cosmos.app import FEE_DENOM
from repro.cosmos.tx import MsgSend, TxFactory
from repro.sim import Environment, Network, RngRegistry
from repro.tendermint.node import Chain
from repro.tendermint.types import BlockIDFlag, Evidence


def build_chain(env, rtt=0.2, n_validators=5, seed=11):
    rng = RngRegistry(seed)
    net = Network(env, rng, default_rtt=rtt, default_jitter=rtt * 0.05)
    hosts = [net.add_host(f"c{i}") for i in range(n_validators)]
    chain = Chain(env, net, "cons-chain", hosts, rng)
    chain.add_node(hosts[0])
    return chain


def test_blocks_at_configured_interval(env):
    chain = build_chain(env)
    chain.start()
    env.run(until=60)
    assert chain.height >= 9
    intervals = chain.block_store.intervals()
    assert all(i >= 5.0 for i in intervals)
    assert all(i < 6.5 for i in intervals)


def test_zero_latency_network_still_produces(env):
    """Regression: equal vote arrival times must not crash the engine."""
    chain = build_chain(env, rtt=0.0)
    chain.start()
    env.run(until=30)
    assert chain.height >= 4
    assert env.crashed_processes == []


def test_faster_blocks_with_lower_latency():
    env_fast, env_slow = Environment(), Environment()
    fast = build_chain(env_fast, rtt=0.0)
    slow = build_chain(env_slow, rtt=0.4)
    fast.start()
    slow.start()
    env_fast.run(until=200)
    env_slow.run(until=200)
    fast_mean = sum(fast.block_store.intervals()) / len(fast.block_store.intervals())
    slow_mean = sum(slow.block_store.intervals()) / len(slow.block_store.intervals())
    assert fast_mean < slow_mean


def test_transactions_execute_and_commit(env):
    chain = build_chain(env)
    wallet = Wallet.named("cons-user")
    chain.app.genesis_account(wallet, {FEE_DENOM: 10**12})
    factory = TxFactory(wallet, chain.cal)
    tx = factory.build(
        [MsgSend(sender=wallet.address, recipient="r", denom=FEE_DENOM, amount=5)],
        gas_limit=200_000,
    )
    chain.start()
    env.schedule_callback(1.0, lambda: chain.mempool.add(tx, now=env.now))
    env.run(until=20)
    executed = chain.indexer.get_tx(tx.hash)
    assert executed is not None and executed.ok
    assert chain.app.bank.balance("r", FEE_DENOM) == 5


def test_proposers_rotate(env):
    chain = build_chain(env)
    chain.start()
    env.run(until=120)
    proposers = {
        chain.block_store.block(h).header.proposer_address
        for h in range(1, chain.height + 1)
    }
    assert len(proposers) == 5  # every validator proposed


def test_app_hash_advances_with_state(env):
    chain = build_chain(env)
    wallet = Wallet.named("cons-user2")
    chain.app.genesis_account(wallet, {FEE_DENOM: 10**12})
    factory = TxFactory(wallet, chain.cal)
    tx = factory.build(
        [MsgSend(sender=wallet.address, recipient="x", denom=FEE_DENOM, amount=1)],
        gas_limit=200_000,
    )
    chain.start()
    env.schedule_callback(6.0, lambda: chain.mempool.add(tx, now=env.now))
    env.run(until=30)
    hashes = [
        chain.block_store.executed(h).app_hash for h in range(1, chain.height + 1)
    ]
    assert len(set(hashes)) >= 2  # state changed at least once


def test_one_silent_validator_tolerated(env):
    """f=1 of n=5: consensus keeps committing (BFT liveness)."""
    chain = build_chain(env)
    chain.engine.set_silent("cons-chain-val1")
    chain.start()
    env.run(until=90)
    assert chain.height >= 8
    # Commits mark the silent validator ABSENT.
    commit = chain.engine._last_commit
    flags = {s.block_id_flag for s in commit.signatures}
    assert BlockIDFlag.ABSENT in flags


def test_silent_proposer_costs_a_round(env):
    chain = build_chain(env)
    chain.engine.set_silent("cons-chain-val2")
    chain.start()
    env.run(until=120)
    assert chain.engine.round_failures >= 1  # its proposal slots timed out
    assert chain.height >= 10


def test_two_silent_validators_halt_consensus(env):
    """f=2 of n=5 exceeds the 1/3 fault bound: no quorum, no blocks."""
    chain = build_chain(env)
    chain.engine.set_silent("cons-chain-val0")
    chain.engine.set_silent("cons-chain-val1")
    chain.start()
    env.run(until=60)
    assert chain.height == 0


def test_recovery_after_fault_heals(env):
    chain = build_chain(env)
    chain.engine.set_silent("cons-chain-val0")
    chain.engine.set_silent("cons-chain-val1")
    chain.start()
    env.schedule_callback(30.0, lambda: chain.engine.set_silent("cons-chain-val0", False))
    env.run(until=90)
    assert chain.height >= 5  # resumed once quorum returned


def test_evidence_included_and_slashed(env):
    chain = build_chain(env)
    evidence = Evidence(validator_address="cheater", height=1)
    chain.engine.pending_evidence.append(evidence)
    chain.start()
    env.run(until=12)
    block = chain.block_store.block(1)
    assert block.evidence == [evidence]
    executed = chain.block_store.executed(1)
    assert any(e.type == "slash" for e in executed.end_block_events)
    # Evidence is not re-included.
    assert chain.block_store.block(chain.height).evidence == []


def test_signed_header_verifies_in_light_client(env):
    """Headers produced by consensus satisfy the ICS-02 client checks."""
    from repro.ibc.client import TendermintLightClient

    chain = build_chain(env)
    chain.start()
    env.run(until=30)
    header = chain.engine.latest_signed_header
    client = TendermintLightClient("c", "cons-chain", chain.validators)
    state = client.update(header, now=env.now)
    assert state.root == chain.engine.app_hash


def test_execution_time_extends_interval(env):
    """A block with many messages delays the next block (Fig. 7's lever)."""
    chain = build_chain(env)
    wallets = [Wallet.named(f"cons-load-{i}") for i in range(30)]
    factories = []
    for wallet in wallets:
        chain.app.genesis_account(wallet, {FEE_DENOM: 10**12})
        factories.append(TxFactory(wallet, chain.cal))
    chain.start()

    def flood():
        for factory in factories:
            msgs = [
                MsgSend(
                    sender=factory.wallet.address,
                    recipient="sink",
                    denom=FEE_DENOM,
                    amount=1,
                )
            ] * 100
            chain.mempool.add(factory.build(msgs, gas_limit=10**8), now=env.now)

    env.schedule_callback(6.0, flood)
    env.run(until=60)
    intervals = chain.block_store.intervals()
    assert max(intervals) > 5.4  # the loaded block took visibly longer
