"""Chain lifecycle tests: stop, node reuse, isolation, gossip FIFO."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Network, RngRegistry
from repro.tendermint.node import Chain


def make_chain(env, chain_id="lc-chain", seed=3):
    rng = RngRegistry(seed)
    net = Network(env, rng, default_rtt=0.2, default_jitter=0.01)
    hosts = [net.add_host(f"{chain_id}-m{i}") for i in range(3)]
    chain = Chain(env, net, chain_id, hosts, rng)
    chain.add_node(hosts[0])
    return chain


def test_stop_halts_block_production(env):
    chain = make_chain(env)
    chain.start()
    env.run(until=30)
    height_at_stop = chain.height
    assert height_at_stop >= 3
    chain.stop()
    env.run(until=90)
    assert chain.height <= height_at_stop + 1  # at most the in-flight block


def test_double_start_rejected(env):
    chain = make_chain(env)
    chain.start()
    with pytest.raises(SimulationError):
        chain.start()


def test_add_node_idempotent(env):
    chain = make_chain(env)
    node1 = chain.add_node("lc-chain-m0")
    node2 = chain.add_node("lc-chain-m0")
    assert node1 is node2
    with pytest.raises(SimulationError):
        chain.node("unknown-host")


def test_two_chains_are_isolated(env):
    rng = RngRegistry(5)
    net = Network(env, rng, default_rtt=0.2)
    hosts = [net.add_host(f"iso-m{i}") for i in range(3)]
    a = Chain(env, net, "iso-a", hosts, rng)
    b = Chain(env, net, "iso-b", hosts, rng)
    a.start()
    b.start()
    env.run(until=40)
    assert a.height >= 3 and b.height >= 3
    # Independent app state and block streams.
    assert a.engine.app_hash != b.engine.app_hash or a.app is not b.app
    assert a.block_store.block(1).header.chain_id == "iso-a"
    assert b.block_store.block(1).header.chain_id == "iso-b"
    # Validator identities do not overlap.
    addrs_a = {v.address for v in a.validators}
    addrs_b = {v.address for v in b.validators}
    assert addrs_a.isdisjoint(addrs_b)


def test_gossip_fifo_per_sender(env):
    """A sender's transactions become reap-available in submission order
    even when individual gossip delays would reorder them."""
    from repro.cosmos.accounts import Wallet
    from repro.cosmos.app import FEE_DENOM
    from repro.cosmos.tx import MsgSend, TxFactory

    chain = make_chain(env, "fifo-chain")
    wallet = Wallet.named("fifo-user")
    chain.app.genesis_account(wallet, {FEE_DENOM: 10**12})
    factory = TxFactory(wallet, chain.cal)
    msg = MsgSend(sender=wallet.address, recipient="r", denom=FEE_DENOM, amount=1)
    for i in range(20):
        tx = factory.build([msg], gas_limit=10**6)
        # Adversarial: later txs get much smaller gossip delays.
        chain.mempool.add(tx, now=0.0, gossip_delay=2.0 - i * 0.09)
    availables = [
        entry.available_at for entry in chain.mempool._txs.values()
    ]
    assert availables == sorted(availables)  # monotone per sender


def test_signed_headers_chain_to_app_hashes(env):
    chain = make_chain(env, "hdr-chain")
    chain.start()
    env.run(until=40)
    header = chain.engine.latest_signed_header
    assert header.height == chain.height
    assert header.root == chain.engine.app_hash
    executed = chain.block_store.executed(chain.height)
    assert executed.app_hash == header.root
