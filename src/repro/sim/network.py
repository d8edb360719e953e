"""Simulated network: named hosts and the one-way delay between them.

The paper's testbed is five machines on a LAN with an *enforced* 200 ms
round-trip latency between any pair (``tc netem``-style).  We model that as a
full mesh with a uniform one-way delay of ``rtt / 2`` plus optional jitter.
Processes co-located on the same host communicate with zero network delay,
mirroring the paper's production-style deployment where the relayer talks to
validators through local endpoints.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.records import record
from repro.sim.rng import KeyedStream, RngRegistry


@record
class LinkSpec:
    """One-way delivery characteristics between a pair of hosts."""

    latency: float  # seconds, one-way
    jitter: float = 0.0  # uniform +/- seconds added to each delivery


#: What a host sees when it talks to itself: local endpoints, no delay.
LOCAL_LINK = LinkSpec(latency=0.0)


class Network:
    """A mesh of named hosts with per-pair one-way delays.

    ``default_rtt`` applies to any pair without an explicit link; hosts
    deliver to themselves with zero delay (local endpoints).
    """

    __slots__ = (
        "env",
        "_jitter_rng",
        "_pair_rngs",
        "default",
        "hosts",
        "_links",
    )

    def __init__(
        self,
        env: Environment,
        rng: RngRegistry,
        default_rtt: float = 0.0,
        default_jitter: float = 0.0,
    ):
        self.env = env
        # Jitter is a keyed (order-independent) draw: delay is a shared
        # facility sampled by whichever process happens to send, so a
        # sequential stream would hand out draws in event-heap tie order — a
        # scheduling race.  Keying by (link direction, send time) makes each
        # sample a pure function of simulation state.
        self._jitter_rng = rng.keyed("network/jitter")
        self._pair_rngs: dict[tuple[str, str], KeyedStream] = {}
        self.default = LinkSpec(latency=default_rtt / 2.0, jitter=default_jitter)
        #: Every machine's name.
        self.hosts: set[str] = set()
        self._links: dict[tuple[str, str], LinkSpec] = {}

    # -- topology -----------------------------------------------------------

    def add_host(self, name: str) -> str:
        if name in self.hosts:
            raise SimulationError(f"duplicate host {name!r}")
        self.hosts.add(name)
        return name

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

    # -- delay ------------------------------------------------------------

    def _pair(self, src: str, dst: str) -> KeyedStream:
        """The keyed jitter stream for the directed link src -> dst."""
        stream = self._pair_rngs.get((src, dst))
        if stream is None:
            stream = self._jitter_rng.derive(f"{src}->{dst}")
            self._pair_rngs[(src, dst)] = stream
        return stream

    def delay(self, src: str, dst: str) -> float:
        """Sample the one-way delay for a message from ``src`` to ``dst``.

        The sample is a pure function of (link direction, current time):
        repeating the call at the same instant returns the same delay, and
        concurrent senders on other links cannot perturb it.
        """
        spec = self.link(src, dst)
        if spec.jitter:
            jitter = self._pair(src, dst).uniform(
                self.env.now, -spec.jitter, spec.jitter
            )
            return max(0.0, spec.latency + jitter)
        return spec.latency
