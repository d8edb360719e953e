"""The fault injector: drives a :class:`FaultSchedule` against a testbed.

One sim process per fault waits for its activation time, applies the
fault to every affected component, and (for windowed faults) restores
the component at the window's end.  The injector records every window it
opened in :attr:`FaultInjector.windows`, which the experiment framework
folds into the report.

Determinism: activation/restoration are pure sim-time waits; the only
randomness — brown-out drop decisions — draws from a per-fault *keyed*
stream (``faults/brownout/<host>/<index>``), so adding or removing one
fault never shifts another's draws, and same-instant requests cannot
swap drop decisions under a different event-heap tie-break.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.faults.schedule import (
    Fault,
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
    RpcBrownout,
    WsDisconnect,
)
from repro.sim.core import Environment, ProcessGroup
from repro.sim.network import LinkSpec, Network
from repro.sim.records import dataclass
from repro.sim.rng import RngRegistry
from repro.tendermint.node import Chain


@dataclass(slots=True)
class FaultWindow:
    """One applied fault occurrence, for reporting."""

    kind: str
    target: str
    start: float
    end: Optional[float] = None


class FaultInjector:
    """Applies a schedule to a set of chains sharing one network.

    A fault naming a host the network does not have is rejected here,
    before any fault is armed.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        chains: list[Chain],
        rng: RngRegistry,
        schedule: FaultSchedule,
    ):
        for fault in schedule.faults:
            targets = (
                (fault.a, fault.b)
                if isinstance(fault, LinkDegradation)
                else (fault.host,)
            )
            unknown = [host for host in targets if host not in network.hosts]
            if unknown:
                raise SimulationError(
                    f"fault {fault!r} names unknown host(s) {unknown} "
                    f"(known: {sorted(network.hosts)})"
                )
        self.env = env
        self.network = network
        self.chains = chains
        self.rng = rng
        self.schedule = schedule
        #: Every window this injector opened, in activation order.
        self.windows: list[FaultWindow] = []
        self._started = False
        #: One armed process per scheduled fault, retained so a teardown
        #: can cancel faults that have not fired yet.
        self.processes = ProcessGroup(env)

    def start(self) -> None:
        """Arm the schedule; fault times count from the current sim time."""
        if self._started:
            return
        self._started = True
        base = self.env.now
        for index, fault in enumerate(self.schedule.faults):
            self.processes.spawn(
                self._run(fault, index, base), name=f"fault/{index}"
            )

    # ------------------------------------------------------------------

    def _nodes_on(self, host: str):
        """Full nodes on ``host``, across chains, in chain declaration
        order (a machine typically hosts one node per chain)."""
        return [
            chain.nodes[host] for chain in self.chains if host in chain.nodes
        ]

    def _run(self, fault: Fault, index: int, base: float):
        yield self.env.timeout(max(0.0, base + fault.at - self.env.now))
        if isinstance(fault, NodeCrash):
            yield from self._run_crash(fault)
        elif isinstance(fault, RpcBrownout):
            yield from self._run_brownout(fault, index)
        elif isinstance(fault, WsDisconnect):
            self._run_disconnect(fault)
        elif isinstance(fault, LinkDegradation):
            yield from self._run_link(fault)

    def _run_crash(self, fault: NodeCrash):
        window = FaultWindow(fault.kind, fault.host, start=self.env.now)
        self.windows.append(window)
        silenced: list[tuple[Chain, str]] = []
        for node in self._nodes_on(fault.host):
            node.set_crashed(True)
        for chain in self.chains:
            for name, host in sorted(chain.validator_hosts.items()):
                if host == fault.host:
                    chain.engine.set_silent(name, True)
                    silenced.append((chain, name))
        yield self.env.timeout(fault.duration)
        # Restart: the node recovers its (never lost) state and rejoins.
        for node in self._nodes_on(fault.host):
            node.set_crashed(False)
        for chain, name in silenced:
            chain.engine.set_silent(name, False)
        window.end = self.env.now

    def _run_brownout(self, fault: RpcBrownout, index: int):
        window = FaultWindow(fault.kind, fault.host, start=self.env.now)
        self.windows.append(window)
        until = self.env.now + fault.duration
        stream = self.rng.keyed(f"faults/brownout/{fault.host}/{index}")
        for node in self._nodes_on(fault.host):
            node.rpc.set_brownout(fault.drop_probability, until, stream)
        yield self.env.timeout(fault.duration)
        window.end = self.env.now

    def _run_disconnect(self, fault: WsDisconnect) -> None:
        window = FaultWindow(fault.kind, fault.host, start=self.env.now)
        window.end = self.env.now  # instantaneous: the reset has no width
        self.windows.append(window)
        for node in self._nodes_on(fault.host):
            node.websocket.disconnect_all("fault injection")

    def _run_link(self, fault: LinkDegradation):
        target = f"{fault.a}<->{fault.b}"
        window = FaultWindow(fault.kind, target, start=self.env.now)
        self.windows.append(window)
        previous = self.network.link_override(fault.a, fault.b)
        self.network.set_link(
            fault.a, fault.b, LinkSpec(latency=fault.latency, jitter=fault.jitter)
        )
        yield self.env.timeout(fault.duration)
        if previous is None:
            self.network.clear_link(fault.a, fault.b)
        else:
            self.network.set_link(fault.a, fault.b, previous)
        window.end = self.env.now
