"""The relayer application: endpoints + supervisor + workers (Fig. 4)."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.cosmos.accounts import Wallet
from repro.relayer.config import RelayerConfig
from repro.relayer.endpoint import ChainEndpoint
from repro.relayer.handshake import HandshakeDriver
from repro.relayer.logging import RelayerLog
from repro.relayer.supervisor import Supervisor
from repro.relayer.worker import DirectionWorker, RelayPath
from repro.sim.core import Environment, Event
from repro.tendermint.node import ChainNode
from repro.trace import NULL_TRACER


class Relayer:
    """One Hermes-style relayer instance on one machine.

    The relayer talks to machine-local full nodes of both chains (the
    paper's production-style deployment) and relays both directions of one
    channel.  Multiple instances may be created for the same path — by
    default they do not coordinate, reproducing the paper's multi-relayer
    redundancy; a :class:`repro.relayer.fleet.FleetMember` seat opts the
    instance into its fleet's coordination policy.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        host: str,
        node_a: ChainNode,
        node_b: ChainNode,
        wallet_a: Wallet,
        wallet_b: Wallet,
        config: Optional[RelayerConfig] = None,
        tracer=NULL_TRACER,
        member=None,
    ):
        self.env = env
        self.name = name
        self.host = host
        self.config = config or RelayerConfig(name=name)
        self.member = member
        if member is not None:
            member.relayer = self
        self.log = RelayerLog(env, name)
        self.tracer = tracer
        self.heights: dict[str, int] = {}
        self.endpoint_a = ChainEndpoint(
            env, node_a, wallet_a, host, self.config, self.log, tracer=tracer
        )
        self.endpoint_b = ChainEndpoint(
            env, node_b, wallet_b, host, self.config, self.log, tracer=tracer
        )
        self.node_a = node_a
        self.node_b = node_b
        self.supervisor = Supervisor(
            env, self.log, self.heights, host, config, tracer=tracer
        )
        self.workers: list[DirectionWorker] = []
        self.path: Optional[RelayPath] = None

    # ------------------------------------------------------------------

    def establish_path(
        self, ordering: Optional["ChannelOrder"] = None
    ) -> Generator[Event, Any, RelayPath]:
        """Create clients, connection and channel (``hermes create channel``)."""
        from repro.ibc.channel import ChannelOrder

        driver = HandshakeDriver(self.endpoint_a, self.endpoint_b)
        path = yield from driver.establish(
            ordering=ordering or ChannelOrder.UNORDERED
        )
        self.use_path(path)
        return path

    def use_path(self, path: RelayPath) -> None:
        """Adopt an already-established path (second relayer on a channel)."""
        self.path = path
        self.workers = []
        self.add_path(path)

    def add_path(self, path: RelayPath) -> None:
        """Relay an additional channel (multi-channel deployments)."""
        if self.path is None:
            self.path = path
        worker_ab = DirectionWorker(
            env=self.env,
            src=self.endpoint_a,
            dst=self.endpoint_b,
            src_end=path.a,
            dst_end=path.b,
            config=self.config,
            log=self.log,
            heights=self.heights,
            tracer=self.tracer,
            member=self.member,
        )
        worker_ba = DirectionWorker(
            env=self.env,
            src=self.endpoint_b,
            dst=self.endpoint_a,
            src_end=path.b,
            dst_end=path.a,
            config=self.config,
            log=self.log,
            heights=self.heights,
            tracer=self.tracer,
            member=self.member,
        )
        self.workers.extend([worker_ab, worker_ba])
        self.supervisor.route(worker_ab)
        self.supervisor.route(worker_ba)

    def start(self) -> None:
        """Subscribe to both chains and start the worker pipelines."""
        if self.path is None:
            raise RuntimeError("establish_path()/use_path() must run first")
        self.supervisor.attach(self.node_a)
        self.supervisor.attach(self.node_b)
        self.supervisor.start()
        for worker in self.workers:
            worker.start()

    def stop(self) -> None:
        """Teardown: close subscriptions and halt every worker pipeline."""
        self.supervisor.stop()
        for worker in self.workers:
            worker.stop()

    # ------------------------------------------------------------------
    # Introspection for the analysis pipeline
    # ------------------------------------------------------------------

    @property
    def worker_ab(self) -> DirectionWorker:
        return self.workers[0]

    @property
    def worker_ba(self) -> DirectionWorker:
        return self.workers[1]
