"""Discrete-event simulation substrate.

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Timeout`, :class:`Process`,
  :class:`Interrupt`, :class:`AllOf`, :class:`AnyOf` — the kernel.
* :class:`Resource`, :class:`Store` — queued servers and buffers.
* :class:`Network`, :class:`LinkSpec` — latency simulation.
* :class:`RngRegistry` — deterministic named random streams.
* :class:`SummaryStats` in :mod:`repro.sim.monitor` — distribution summaries.
"""

from repro.sim.core import (
    TIEBREAKS,
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    ProcessGroup,
    TieBreak,
    Timeout,
)
from repro.sim.monitor import (
    SummaryStats,
    percentile,
)
from repro.sim.network import LinkSpec, Network
from repro.sim.resources import EMPTY, Request, Resource, Store
from repro.sim.rng import KeyedStream, RngRegistry, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "EMPTY",
    "Environment",
    "Event",
    "Interrupt",
    "KeyedStream",
    "LinkSpec",
    "Network",
    "Process",
    "ProcessGroup",
    "Request",
    "Resource",
    "TIEBREAKS",
    "TieBreak",
    "RngRegistry",
    "Store",
    "SummaryStats",
    "Timeout",
    "derive_seed",
    "percentile",
]
