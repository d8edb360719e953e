"""Deterministic fault injection for robustness experiments.

The paper's §V failure study covers exactly one fault — the WebSocket
16 MB frame limit.  This package generalises it: a :class:`FaultSchedule`
describes *when* faults open and close (in sim seconds relative to the
schedule's start), and a :class:`FaultInjector` drives them against a
running testbed.  All randomness (brown-out drop decisions) comes from
dedicated :class:`~repro.sim.rng.RngRegistry` streams, so a run with a
fault schedule is just as byte-reproducible as one without
(``tests/test_determinism_golden.py``).

Fault kinds:

* :class:`NodeCrash` — a machine's full node goes down: RPC refuses with
  :class:`~repro.errors.NodeUnavailableError`, WebSocket subscriptions are
  severed, and any validators hosted there stop participating in
  consensus until the restart.
* :class:`RpcBrownout` — the node stays up but silently drops a fraction
  of requests; clients observe genuine
  :class:`~repro.errors.RpcTimeoutError` with realistic timing.
* :class:`WsDisconnect` — WebSocket connections reset mid-stream
  (distinct from the §V frame-limit latch, which stays connected).
* :class:`LinkDegradation` — a temporary
  :class:`~repro.sim.network.LinkSpec` override (latency/jitter)
  between two hosts.
"""

from repro.faults.injector import FaultInjector, FaultWindow
from repro.faults.schedule import (
    FAULT_KINDS,
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
    RpcBrownout,
    WsDisconnect,
    fault_from_dict,
    fault_to_dict,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSchedule",
    "FaultWindow",
    "LinkDegradation",
    "NodeCrash",
    "RpcBrownout",
    "WsDisconnect",
    "fault_from_dict",
    "fault_to_dict",
]
