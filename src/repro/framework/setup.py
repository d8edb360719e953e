"""The framework's Setup module: testbed deployment.

Builds the paper's private testnet in simulation — and its N-chain
generalizations.  A :class:`~repro.framework.topology.TopologySpec`
names the chain graph: each chain gets ``num_validators`` validators
spread over ``num_machines`` machines (one validator of each chain per
machine), each edge gets an IBC connection and a fleet of
``num_relayers`` Hermes instances (one channel per instance under the
``channel`` policy, one shared channel otherwise), and each route gets
its own workload accounts.  The default topology is the paper's two-chain
pair (``ibc-0`` ↔ ``ibc-1``), and for that preset this module deploys
the *exact* legacy testbed: same names, same construction order, same
RNG streams, byte-identical runs.

Relayer *i* (global index, across edges) runs on machine *i* against
machine-local full nodes, as the paper's production-style deployment
prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.cosmos.accounts import Wallet
from repro.cosmos.app import FEE_DENOM, TRANSFER_DENOM
from repro.framework.config import ExperimentConfig
from repro.framework.topology import TopologySpec
from repro.relayer import (
    ChainEndpoint,
    HandshakeDriver,
    Relayer,
    RelayerLog,
    RelayPath,
)
from repro.relayer.fleet import Fleet
from repro.relayer.worker import PathEnd
from repro.sim.core import Environment, Event
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.tendermint.node import Chain, ChainNode
from repro.trace import NULL_TRACER, NullTracer, Tracer

#: Generous genesis balances: fees never bound the experiments.
GENESIS_FEE = 10**16
GENESIS_TOKENS = 10**14


@dataclass
class Testbed:
    """A deployed (but not yet benchmarked) cross-chain environment."""

    config: ExperimentConfig
    env: Environment = field(init=False)
    #: Lifecycle tracer (a no-op NULL_TRACER unless ``config.tracing``).
    tracer: Tracer | NullTracer = field(init=False)
    network: Network = field(init=False)
    rng: RngRegistry = field(init=False)
    #: The resolved topology (``config.topology`` or the legacy pair).
    topology: TopologySpec = field(init=False)
    #: Chains in topology order.
    chains: list[Chain] = field(init=False, default_factory=list)
    #: Relayers grouped per topology edge; ``relayers`` is the flat view.
    edge_relayers: list[list[Relayer]] = field(init=False, default_factory=list)
    relayers: list[Relayer] = field(init=False, default_factory=list)
    #: One :class:`~repro.relayer.fleet.Fleet` per topology edge, seating
    #: that edge's relayers under the configured coordination policy.
    fleets: list[Fleet] = field(init=False, default_factory=list)
    #: Workload sender wallets per route (route 0 == legacy user_wallets).
    route_wallets: list[list[Wallet]] = field(init=False, default_factory=list)
    #: Engine mode: each route's sender slot block (rank r owns block[r]).
    route_blocks: list[range] = field(init=False, default_factory=list)
    #: Final-receiver wallet per route.
    receivers: list[Wallet] = field(init=False, default_factory=list)
    #: Adversarial wallets, funded only when the workload engine asks for
    #: spam floods / gas griefing (see :mod:`repro.workload.adversarial`).
    spam_wallet: Optional[Wallet] = field(init=False, default=None)
    grief_wallet: Optional[Wallet] = field(init=False, default=None)
    path: Optional[RelayPath] = field(init=False, default=None)
    #: Established channels per topology edge (one per relayer under the
    #: ``channel`` policy, else one); populated by :meth:`bootstrap`.
    edge_paths: list[list[RelayPath]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        config = self.config
        calibration = config.resolved_calibration
        topology = config.topology or TopologySpec.pair()
        self.topology = topology
        self.env = Environment(tiebreak=config.tiebreak)
        # Pure observation: the tracer only records (never schedules, never
        # draws), so traced and untraced runs evolve identically.
        self.tracer = Tracer(self.env) if config.tracing else NULL_TRACER
        self.rng = RngRegistry(config.seed)
        self.network = Network(
            self.env,
            self.rng,
            default_rtt=config.network_rtt,
            default_jitter=config.network_rtt * 0.05,
        )
        machines = [
            self.network.add_host(f"machine-{i}")
            for i in range(config.num_machines)
        ]
        # One validator of each chain per machine (paper §III-C).
        val_hosts = [machines[i % len(machines)] for i in range(config.num_validators)]
        proof_mode = config.resolved_proof_mode
        for chain_id in topology.chain_ids:
            self.chains.append(
                Chain(
                    self.env, self.network, chain_id, val_hosts, self.rng,
                    calibration=calibration, proof_mode=proof_mode,
                    tracer=self.tracer,
                )
            )
        for i, j in topology.edges:
            self.chains[i].app.register_counterparty(
                self.chains[j].counterparty_info()
            )
            self.chains[j].app.register_counterparty(
                self.chains[i].counterparty_info()
            )

        # Full nodes on every machine hosting a relayer or the CLI.
        fleet_config = config.relayer
        fleet_count = config.num_relayers
        total_relayers = fleet_count * len(topology.edges)
        client_machines = machines[: max(1, total_relayers)]
        for machine in client_machines:
            for chain in self.chains:
                chain.add_node(machine)

        # Relayers: instance k (global, across edges) on machine k, each
        # with its own keys on the two chains of its edge, seated in its
        # edge's fleet under the configured coordination policy.
        for edge_pos, (i, j) in enumerate(topology.edges):
            chain_i, chain_j = self.chains[i], self.chains[j]
            fleet = Fleet(self.env, edge_pos, fleet_config, fleet_count, self.rng)
            edge_group: list[Relayer] = []
            for local in range(fleet_count):
                k = edge_pos * fleet_count + local
                machine = machines[k % len(machines)]
                wallet_a = Wallet.named(f"relayer{k}-{config.seed}-a")
                wallet_b = Wallet.named(f"relayer{k}-{config.seed}-b")
                chain_i.app.genesis_account(wallet_a, {FEE_DENOM: GENESIS_FEE})
                chain_j.app.genesis_account(wallet_b, {FEE_DENOM: GENESIS_FEE})
                relayer = Relayer(
                    self.env,
                    name=f"hermes-{k}",
                    host=machine,
                    node_a=chain_i.node(machine),
                    node_b=chain_j.node(machine),
                    wallet_a=wallet_a,
                    wallet_b=wallet_b,
                    member=fleet.members[local],
                    clear_interval=config.clear_interval,
                    pull_concurrency=config.pull_concurrency,
                    tracer=self.tracer,
                )
                edge_group.append(relayer)
                self.relayers.append(relayer)
            self.fleets.append(fleet)
            self.edge_relayers.append(edge_group)

        # Workload accounts (paper §III-D: many accounts, 100 msgs each),
        # one pool per route, funded on the route's source chain.  The
        # generated-workload engine replaces the pool with a reserved slot
        # block: no address is computed (the driver binds a slot when its
        # sender first submits) and balances land directly in the bank's
        # array columns, so a million senders cost 32 bytes each at genesis.
        single_route = len(topology.routes) == 1
        engine_spec = config.workload
        for r, route in enumerate(topology.routes):
            source = self.chains[route[0]]
            if engine_spec is not None:
                self.route_blocks.append(
                    source.app.genesis_population(
                        engine_spec.population,
                        {FEE_DENOM: GENESIS_FEE, TRANSFER_DENOM: GENESIS_TOKENS},
                    )
                )
                self.route_wallets.append([])
                if engine_spec.spam_rate > 0:
                    self.spam_wallet = Wallet.named(f"spammer-{config.seed}")
                    source.app.genesis_account(
                        self.spam_wallet,
                        {FEE_DENOM: GENESIS_FEE, TRANSFER_DENOM: GENESIS_TOKENS},
                    )
                if engine_spec.griefing_rate > 0:
                    self.grief_wallet = Wallet.named(f"griefer-{config.seed}")
                    source.app.genesis_account(
                        self.grief_wallet,
                        {FEE_DENOM: GENESIS_FEE, TRANSFER_DENOM: GENESIS_TOKENS},
                    )
                continue
            wallets: list[Wallet] = []
            for i in range(config.num_accounts):
                name = (
                    f"user{i}-{config.seed}"
                    if single_route
                    else f"user{r}.{i}-{config.seed}"
                )
                wallet = Wallet.named(name)
                source.app.genesis_account(
                    wallet, {FEE_DENOM: GENESIS_FEE, TRANSFER_DENOM: GENESIS_TOKENS}
                )
                wallets.append(wallet)
            self.route_wallets.append(wallets)
        for r, route in enumerate(topology.routes):
            name = (
                f"receiver-{config.seed}"
                if single_route
                else f"receiver{r}-{config.seed}"
            )
            receiver = Wallet.named(name)
            self.chains[route[-1]].app.genesis_account(
                receiver, {FEE_DENOM: GENESIS_FEE}
            )
            self.receivers.append(receiver)

    # -- legacy two-chain views ----------------------------------------

    @property
    def chain_a(self) -> Chain:
        return self.chains[0]

    @property
    def chain_b(self) -> Chain:
        return self.chains[1]

    @property
    def user_wallets(self) -> list[Wallet]:
        """Route 0's sender wallets (the legacy single-route pool)."""
        return self.route_wallets[0]

    @property
    def receiver(self) -> Wallet:
        """Route 0's final receiver."""
        return self.receivers[0]

    @property
    def paths(self) -> list[RelayPath]:
        """Edge 0's established channels."""
        return self.edge_paths[0] if self.edge_paths else []

    # ------------------------------------------------------------------

    @property
    def cli_host(self) -> str:
        """The machine the workload CLI runs on (machine 0, with relayer 0)."""
        return "machine-0"

    @property
    def cli_node(self) -> ChainNode:
        return self.chain_a.node(self.cli_host)

    def path_end(self, path: RelayPath, chain_id: str) -> PathEnd:
        """The end of ``path`` that lives on ``chain_id``."""
        if path.a.chain_id == chain_id:
            return path.a
        if path.b.chain_id != chain_id:
            raise ValueError(f"path has no end on {chain_id!r}")
        return path.b

    def route_hop_paths(self, r: int) -> list[list[RelayPath]]:
        """The established channels of each hop of route ``r``, in order."""
        route = self.topology.routes[r]
        return [
            self.edge_paths[edge] for edge in self.topology.route_edges(route)
        ]

    def start_chains(self) -> None:
        for chain in self.chains:
            chain.start()

    def bootstrap(self) -> Generator[Event, Any, RelayPath]:
        """Start chains and establish every relay path (Setup module run).

        Each edge's first relayer runs the handshake.  With
        ``num_relayers == 0`` (chain-only experiments) a bootstrap key
        pair on the CLI machine runs it instead, so the channels exist
        but no relaying process is started.  Under the ``channel`` policy
        the edge opens one channel per relayer on its connection and
        relayer *i* relays channel *i*; otherwise they share one.
        Returns edge 0's first path (the legacy return value).
        """
        self.start_chains()
        from repro.ibc.channel import ChannelOrder

        config = self.config
        ordering = (
            ChannelOrder.ORDERED
            if config.channel_ordering == "ordered"
            else ChannelOrder.UNORDERED
        )
        per_relayer = config.relayer.policy == "channel"
        channels = config.num_relayers if per_relayer else 1
        for edge_pos, (i, j) in enumerate(self.topology.edges):
            relayers = self.edge_relayers[edge_pos]
            if relayers:
                opener = relayers[0]
                driver = HandshakeDriver(opener.endpoint_a, opener.endpoint_b)
            else:
                driver = self._bootstrap_driver(edge_pos, i, j)
            path = yield from driver.establish(ordering=ordering)
            paths = [path]
            for _ in range(channels - 1):
                extra = yield from driver.open_extra_channel(path, ordering)
                paths.append(extra)
            for local, relayer in enumerate(relayers):
                relayer.use_path(paths[local % len(paths)])
            self.edge_paths.append(paths)
        self.path = self.edge_paths[0][0]
        return self.path

    def _bootstrap_driver(self, edge_pos: int, i: int, j: int) -> HandshakeDriver:
        """A handshake driver on fresh bootstrap keys for an edge with no
        relayer: chain endpoints on the CLI machine, nothing else."""
        suffix = "" if edge_pos == 0 else str(edge_pos)
        name = f"bootstrap{suffix}"
        log = RelayerLog(self.env, name)
        retries = self.config.relayer.rpc_retry_attempts
        machine = self.cli_host
        endpoints = []
        for chain, side in ((self.chains[i], "a"), (self.chains[j], "b")):
            wallet = Wallet.named(f"{name}-{self.config.seed}-{side}")
            chain.app.genesis_account(wallet, {FEE_DENOM: GENESIS_FEE})
            endpoints.append(
                ChainEndpoint(
                    self.env, chain.node(machine), wallet, machine, log,
                    rpc_retry_attempts=retries,
                )
            )
        return HandshakeDriver(*endpoints)

    def start_relayers(self) -> None:
        for relayer in self.relayers:
            relayer.start()
        for fleet in self.fleets:
            fleet.start()

    def shutdown(self) -> None:
        """Teardown: stop every fleet and relayer, then halt every chain."""
        for fleet in self.fleets:
            fleet.stop()
        for relayer in self.relayers:
            relayer.stop()
        for chain in self.chains:
            chain.shutdown()
