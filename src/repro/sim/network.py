"""Simulated network: hosts, links and latency-delayed message delivery.

The paper's testbed is five machines on a LAN with an *enforced* 200 ms
round-trip latency between any pair (``tc netem``-style).  We model that as a
full mesh with a uniform one-way delay of ``rtt / 2`` plus optional jitter.
Processes co-located on the same host communicate with zero network delay,
mirroring the paper's production-style deployment where the relayer talks to
validators through local endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.records import record
from repro.sim.resources import Store
from repro.sim.rng import KeyedStream, RngRegistry


@record
class LinkSpec:
    """One-way delivery characteristics between a pair of hosts."""

    latency: float  # seconds, one-way
    jitter: float = 0.0  # uniform +/- seconds added to each delivery
    loss: float = 0.0  # probability a message is silently dropped


#: What a host sees when it talks to itself: local endpoints, no delay.
LOCAL_LINK = LinkSpec(latency=0.0)


@dataclass(slots=True)
class Host:
    """A machine in the testbed.  Components attach mailboxes to it."""

    name: str
    mailboxes: dict[str, Store] = field(default_factory=dict)

    def mailbox(self, env: Environment, service: str) -> Store:
        """Return (creating on demand) the inbound queue for ``service``."""
        box = self.mailboxes.get(service)
        if box is None:
            box = Store(env)
            self.mailboxes[service] = box
        return box


class Network:
    """A mesh of hosts with per-pair one-way delays.

    ``default_rtt`` applies to any pair without an explicit link; hosts
    deliver to themselves with zero delay (local endpoints).
    """

    __slots__ = (
        "env",
        "_jitter_rng",
        "_loss_rng",
        "_pair_rngs",
        "default",
        "hosts",
        "_links",
        "delivered",
        "dropped",
    )

    def __init__(
        self,
        env: Environment,
        rng: RngRegistry,
        default_rtt: float = 0.0,
        default_jitter: float = 0.0,
    ):
        self.env = env
        # Jitter and loss are keyed (order-independent) draws: delivery is a
        # shared facility sampled by whichever process happens to send, so a
        # sequential stream would hand out draws in event-heap tie order — a
        # scheduling race.  Keying by (link direction, send time) makes each
        # sample a pure function of simulation state.  Loss keeps its own
        # stream so a loss decision never correlates with the jitter value.
        self._jitter_rng = rng.keyed("network/jitter")
        self._loss_rng = rng.keyed("network/loss")
        self._pair_rngs: dict[tuple[str, str], tuple[KeyedStream, KeyedStream]] = {}
        self.default = LinkSpec(latency=default_rtt / 2.0, jitter=default_jitter)
        self.hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], LinkSpec] = {}
        #: Total messages delivered / dropped, for probes.
        self.delivered = 0
        self.dropped = 0

    # -- topology -----------------------------------------------------------

    def add_host(self, name: str) -> Host:
        if name in self.hosts:
            raise SimulationError(f"duplicate host {name!r}")
        host = Host(name)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise SimulationError(f"unknown host {name!r}") from None

    def set_link(self, a: str, b: str, spec: LinkSpec) -> None:
        """Override the link between ``a`` and ``b`` (both directions)."""
        self._links[(a, b)] = spec
        self._links[(b, a)] = spec

    def link(self, src: str, dst: str) -> LinkSpec:
        if src == dst:
            return LOCAL_LINK
        return self._links.get((src, dst), self.default)

    def link_override(self, a: str, b: str) -> Optional[LinkSpec]:
        """The explicit override for ``(a, b)``, or ``None`` if the pair
        falls back to the default link (used by fault injection to save and
        restore link state)."""
        return self._links.get((a, b))

    def clear_link(self, a: str, b: str) -> None:
        """Remove any explicit override for ``a``/``b`` (both directions)."""
        self._links.pop((a, b), None)
        self._links.pop((b, a), None)

    # -- delivery -----------------------------------------------------------

    def _pair(self, src: str, dst: str) -> tuple[KeyedStream, KeyedStream]:
        """(jitter, loss) keyed streams for the directed link src -> dst."""
        entry = self._pair_rngs.get((src, dst))
        if entry is None:
            entry = (
                self._jitter_rng.derive(f"{src}->{dst}"),
                self._loss_rng.derive(f"{src}->{dst}"),
            )
            self._pair_rngs[(src, dst)] = entry
        return entry

    def delay(self, src: str, dst: str) -> float:
        """Sample the one-way delay for a message from ``src`` to ``dst``.

        The sample is a pure function of (link direction, current time):
        repeating the call at the same instant returns the same delay, and
        concurrent senders on other links cannot perturb it.
        """
        spec = self.link(src, dst)
        if spec.jitter:
            jitter = self._pair(src, dst)[0].uniform(
                self.env.now, -spec.jitter, spec.jitter
            )
            return max(0.0, spec.latency + jitter)
        return spec.latency

    def send(
        self,
        src: str,
        dst: str,
        service: str,
        payload: Any,
        on_delivery: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Deliver ``payload`` into ``dst``'s ``service`` mailbox after the
        link delay.  ``on_delivery`` (if given) runs instead of the mailbox.
        """
        spec = self.link(src, dst)
        if spec.jitter:
            jitter = self._pair(src, dst)[0].uniform(
                self.env.now, -spec.jitter, spec.jitter
            )
            delay = max(0.0, spec.latency + jitter)
        else:
            delay = spec.latency
        if spec.loss and self._pair(src, dst)[1].u01(self.env.now) < spec.loss:
            self.dropped += 1
            return
        dst_host = self.host(dst)

        def deliver() -> None:
            self.delivered += 1
            if on_delivery is not None:
                on_delivery(payload)
            else:
                dst_host.mailbox(self.env, service).put(payload)

        self.env.schedule_callback(delay, deliver)
