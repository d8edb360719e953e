"""Shared fixtures: simulation environments and two-chain testbeds."""

from __future__ import annotations

import pytest
from hypothesis import settings

# Deterministic property tests: the suite is part of the reproduction
# artifact and must pass identically on every run.
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")

from repro.cosmos.accounts import Wallet
from repro.cosmos.app import FEE_DENOM, TRANSFER_DENOM
from repro.relayer import Fleet, FleetConfig, FleetMember, Relayer, WorkloadCli
from repro.sim import Environment, Network, RngRegistry
from repro.tendermint.node import Chain


def solo_seat(env: Environment, config: FleetConfig = FleetConfig()) -> FleetMember:
    """The one seat of a one-member ``none`` fleet: a relayer that
    coordinates with nobody (plain Hermes behaviour)."""
    return Fleet(env, 0, config, 1, RngRegistry(0)).members[0]


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def rng() -> RngRegistry:
    return RngRegistry(1234)


@pytest.fixture
def network(env, rng) -> Network:
    net = Network(env, rng, default_rtt=0.2, default_jitter=0.01)
    for i in range(5):
        net.add_host(f"m{i}")
    return net


class TwoChainHarness:
    """A deployed pair of chains with one relayer, for integration tests.

    The relayer clears every ``clear_interval`` blocks (0: never, the
    paper's §V setup) and takes its fault-riding settings from ``fleet``.
    """

    def __init__(
        self,
        env,
        network,
        rng,
        proof_mode: str = "merkle",
        clear_interval: int = 0,
        fleet: FleetConfig = FleetConfig(),
    ):
        self.env = env
        self.network = network
        hosts = [f"m{i}" for i in range(5)]
        self.chain_a = Chain(
            env, network, "chain-a", hosts, rng, proof_mode=proof_mode
        )
        self.chain_b = Chain(
            env, network, "chain-b", hosts, rng, proof_mode=proof_mode
        )
        self.node_a = self.chain_a.add_node("m0")
        self.node_b = self.chain_b.add_node("m0")
        self.chain_a.app.register_counterparty(self.chain_b.counterparty_info())
        self.chain_b.app.register_counterparty(self.chain_a.counterparty_info())
        self.wallet_a = Wallet.named("harness-relayer-a")
        self.wallet_b = Wallet.named("harness-relayer-b")
        self.chain_a.app.genesis_account(self.wallet_a, {FEE_DENOM: 10**15})
        self.chain_b.app.genesis_account(self.wallet_b, {FEE_DENOM: 10**15})
        self.user = Wallet.named("harness-user")
        self.receiver = Wallet.named("harness-receiver")
        self.chain_a.app.genesis_account(
            self.user, {FEE_DENOM: 10**15, TRANSFER_DENOM: 10**12}
        )
        self.chain_b.app.genesis_account(self.receiver, {FEE_DENOM: 10**12})
        self.relayer = Relayer(
            env, "hermes-test", "m0", self.node_a, self.node_b,
            self.wallet_a, self.wallet_b, solo_seat(env, fleet),
            clear_interval=clear_interval, pull_concurrency=1,
        )
        self.path = None

    def start(self):
        self.chain_a.start()
        self.chain_b.start()

    def bootstrap(self):
        """Generator: establish the relay path and start the relayer."""
        path = yield from self.relayer.establish_path()
        self.path = path
        self.relayer.start()
        return path

    def cli(self, wallet=None) -> WorkloadCli:
        assert self.path is not None, "bootstrap first"
        return WorkloadCli(
            self.env,
            self.node_a,
            wallet or self.user,
            "m0",
            self.relayer.log,
            source_channel=self.path.a.channel_id,
            receiver=self.receiver.address,
        )

    def run_process(self, generator, limit: float = 2000.0):
        """Drive a generator process to completion and return its value."""
        process = self.env.process(generator, name="test-driver")
        return self.env.run_until_complete(process, limit=limit)


@pytest.fixture
def make_harness(env, network, rng):
    """A factory of started harnesses; keyword arguments go to
    :class:`TwoChainHarness`."""

    def make(**kwargs) -> TwoChainHarness:
        h = TwoChainHarness(env, network, rng, **kwargs)
        h.start()
        return h

    return make


@pytest.fixture
def harness(make_harness) -> TwoChainHarness:
    return make_harness()


@pytest.fixture
def bootstrapped(harness) -> TwoChainHarness:
    """A harness with the relay path established and the relayer running."""
    harness.run_process(harness.bootstrap(), limit=500.0)
    return harness
