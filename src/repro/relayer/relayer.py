"""The relayer application: endpoints + supervisor + workers (Fig. 4)."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.cosmos.accounts import Wallet
from repro.relayer.endpoint import ChainEndpoint
from repro.relayer.fleet import FleetMember
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
    channel.  Every instance sits in a :class:`~repro.relayer.fleet.Fleet`
    seat, whose coordination policy decides which packets it relays; in a
    ``none`` fleet of two or more, instances on one path race each other,
    reproducing the paper's multi-relayer redundancy.

    Its fault-riding settings (query retries, resubscription) are the
    seat's :class:`~repro.relayer.fleet.FleetConfig`; the experiment
    gives the clear interval (Hermes's packet-clearing cadence in blocks;
    0 disables clearing, as in the paper's §V) and the pull concurrency.
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
        member: FleetMember,
        *,
        clear_interval: int,
        pull_concurrency: int,
        tracer=NULL_TRACER,
    ):
        self.env = env
        self.name = name
        self.host = host
        self.clear_interval = clear_interval
        self.pull_concurrency = pull_concurrency
        self.member = member
        member.relayer = self
        self.log = RelayerLog(env, name)
        self.tracer = tracer
        self.heights: dict[str, int] = {}
        fleet_config = member.fleet.config
        retries = fleet_config.rpc_retry_attempts
        self.endpoint_a = ChainEndpoint(
            env, node_a, wallet_a, host, self.log, tracer=tracer,
            rpc_retry_attempts=retries,
        )
        self.endpoint_b = ChainEndpoint(
            env, node_b, wallet_b, host, self.log, tracer=tracer,
            rpc_retry_attempts=retries,
        )
        self.node_a = node_a
        self.node_b = node_b
        self.supervisor = Supervisor(
            env, self.log, self.heights, host,
            fleet_config.resubscribe_on_disconnect, tracer=tracer,
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
        """Relay ``path``'s channel in both directions (a path another
        instance established, or this instance's own)."""
        self.path = path
        self.workers = [
            DirectionWorker(
                env=self.env,
                src=src,
                dst=dst,
                src_end=src_end,
                dst_end=dst_end,
                clear_interval=self.clear_interval,
                pull_concurrency=self.pull_concurrency,
                log=self.log,
                heights=self.heights,
                member=self.member,
                tracer=self.tracer,
            )
            for src, dst, src_end, dst_end in (
                (self.endpoint_a, self.endpoint_b, path.a, path.b),
                (self.endpoint_b, self.endpoint_a, path.b, path.a),
            )
        ]
        for worker in self.workers:
            self.supervisor.route(worker)

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
