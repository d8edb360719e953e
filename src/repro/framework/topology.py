"""Topology specifications: the chain/connection graph of an experiment.

The paper's testbed is the two-chain, one-connection pair; the IBC
overview paper defines the general case — an arbitrary graph of chains
joined by connections, each carrying one or more channels.  A
:class:`TopologySpec` names that graph for the framework:

* ``chain_ids`` — the chains, in deterministic construction order;
* ``edges`` — IBC connections as ``(i, j)`` chain-index pairs (``i < j``);
* ``routes`` — transfer paths as chain-index sequences.  A two-element
  route is the paper's direct A→B transfer; longer routes are hub-routed
  multi-hop transfers (A→hub→B, packet-forward style), one escrow/mint
  leg per edge traversed.

Presets cover the shapes the experiment sweeps use: the legacy
:meth:`pair`, :meth:`hub_and_spoke`, :meth:`line` and :meth:`mesh`.
Every preset — and every explicit spec — is pure data, so it serializes
into the experiment wire format (``to_dict``/``from_dict``) and two runs
built from equal specs deploy byte-identical testbeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import WorkloadError, from_wire, to_wire


@dataclass(frozen=True)
class TopologySpec:
    """A chain/connection graph plus the transfer routes laid over it."""

    #: Preset name (``pair`` / ``hub_and_spoke`` / ``line`` / ``mesh`` /
    #: ``custom``) — informational, carried through reports.  Declared
    #: first because it leads the wire form; keyword-only so positional
    #: construction still starts at ``chain_ids``.
    name: str = field(default="custom", kw_only=True)
    #: Chain ids in construction order; index positions name the vertices.
    chain_ids: tuple[str, ...]
    #: Connections as ``(i, j)`` index pairs, normalized to ``i < j``.
    edges: tuple[tuple[int, int], ...]
    #: Transfer routes as chain-index paths (``len >= 2``); consecutive
    #: entries must be joined by an edge.  Route 0 is the primary route —
    #: the one the report's headline window metrics are anchored on.
    routes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.chain_ids) < 2:
            raise WorkloadError("topology needs at least two chains")
        if len(set(self.chain_ids)) != len(self.chain_ids):
            raise WorkloadError("topology chain ids must be unique")
        if not self.edges:
            raise WorkloadError("topology needs at least one edge")
        n = len(self.chain_ids)
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            i, j = edge
            if not (0 <= i < j < n):
                raise WorkloadError(
                    f"edge {edge} is not a normalized (i < j) chain-index pair"
                )
            if edge in seen:
                raise WorkloadError(f"duplicate edge {edge}")
            seen.add(edge)
        if not self.routes:
            raise WorkloadError("topology needs at least one route")
        for route in self.routes:
            if len(route) < 2:
                raise WorkloadError(f"route {route} needs at least two chains")
            if len(set(route)) != len(route):
                raise WorkloadError(f"route {route} revisits a chain")
            for hop in zip(route, route[1:]):
                if tuple(sorted(hop)) not in seen:
                    raise WorkloadError(
                        f"route {route} hop {hop} has no edge"
                    )

    # -- presets -------------------------------------------------------

    @classmethod
    def pair(cls) -> "TopologySpec":
        """The paper's testbed: two chains, one connection, one route."""
        return cls(
            chain_ids=("ibc-0", "ibc-1"),
            edges=((0, 1),),
            routes=((0, 1),),
            name="pair",
        )

    @classmethod
    def hub_and_spoke(cls, spokes: int) -> "TopologySpec":
        """Chain 0 is the hub; every transfer is spoke→hub→next spoke.

        With ``spokes == 1`` this degenerates to a pair with the single
        route reversed (spoke sends to the hub directly).
        """
        if spokes < 1:
            raise WorkloadError("hub_and_spoke needs at least one spoke")
        chain_ids = tuple(f"ibc-{i}" for i in range(spokes + 1))
        edges = tuple((0, s) for s in range(1, spokes + 1))
        if spokes == 1:
            routes: tuple[tuple[int, ...], ...] = ((1, 0),)
        else:
            routes = tuple(
                (s, 0, (s % spokes) + 1) for s in range(1, spokes + 1)
            )
        return cls(
            chain_ids=chain_ids, edges=edges, routes=routes,
            name="hub_and_spoke",
        )

    @classmethod
    def line(cls, chains: int) -> "TopologySpec":
        """A chain of ``chains`` chains; one end-to-end multi-hop route."""
        if chains < 2:
            raise WorkloadError("line needs at least two chains")
        return cls(
            chain_ids=tuple(f"ibc-{i}" for i in range(chains)),
            edges=tuple((i, i + 1) for i in range(chains - 1)),
            routes=(tuple(range(chains)),),
            name="line",
        )

    @classmethod
    def mesh(cls, chains: int) -> "TopologySpec":
        """Full mesh: every pair connected, one direct route per ordered
        pair (the all-to-all traffic matrix)."""
        if chains < 2:
            raise WorkloadError("mesh needs at least two chains")
        edges = tuple(
            (i, j) for i in range(chains) for j in range(i + 1, chains)
        )
        routes = tuple(
            (i, j) for i in range(chains) for j in range(chains) if i != j
        )
        return cls(
            chain_ids=tuple(f"ibc-{i}" for i in range(chains)),
            edges=edges, routes=routes, name="mesh",
        )

    # -- views ---------------------------------------------------------

    @property
    def max_hops(self) -> int:
        return max(len(route) - 1 for route in self.routes)

    def edge_index(self, i: int, j: int) -> int:
        """Position of the (unordered) edge between chains ``i`` and ``j``."""
        key = (i, j) if i < j else (j, i)
        try:
            return self.edges.index(key)
        except ValueError:
            raise WorkloadError(f"no edge between chains {i} and {j}") from None

    def route_edges(self, route: tuple[int, ...]) -> list[int]:
        """Edge indices traversed by ``route``, hop by hop."""
        return [self.route_edges_hop(route, h) for h in range(len(route) - 1)]

    def route_edges_hop(self, route: tuple[int, ...], hop: int) -> int:
        return self.edge_index(route[hop], route[hop + 1])

    # -- wire format ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return to_wire(self)

    @classmethod
    def from_dict(cls, data: Any) -> "TopologySpec":
        return from_wire(cls, data, "topology section", defaults=True)
