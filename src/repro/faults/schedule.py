"""Fault schedules: declarative, deterministic fault timelines.

Every fault names its target(s) and an activation time ``at`` in sim
seconds *relative to the schedule's start* (the experiment framework
starts schedules at the measurement-window start, so faults land inside
the measured region regardless of bootstrap length).  Specs are frozen
dataclasses: hashable, with stable ``repr`` — benchmark memoization and
report serialization both rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union, get_args

from repro.errors import SimulationError, from_wire, to_wire


@dataclass(frozen=True)
class NodeCrash:
    """Take ``host``'s full node down at ``at`` for ``duration`` seconds.

    While down: the RPC server refuses every request with
    ``NodeUnavailableError``, all WebSocket subscriptions are severed, and
    validators hosted on the machine stop proposing/voting (they resume,
    without state loss, at restart — a fail-recover crash, not Byzantine).
    """

    kind = "node_crash"

    host: str
    at: float
    duration: float


@dataclass(frozen=True)
class RpcBrownout:
    """Silently drop ``drop_probability`` of ``host``'s RPC requests
    between ``at`` and ``at + duration``.  Clients see timeouts, not
    refusals — the degraded-but-alive node of an I/O-saturated machine."""

    kind = "rpc_brownout"

    host: str
    at: float
    duration: float
    drop_probability: float = 0.5


@dataclass(frozen=True)
class WsDisconnect:
    """Reset every WebSocket subscription on ``host`` at ``at``.

    A connection-level reset: subscribers get a ``SubscriptionClosed``
    sentinel and must subscribe anew.  Unlike :class:`NodeCrash` the node
    keeps serving RPC, so an immediate resubscribe succeeds.
    """

    kind = "ws_disconnect"

    host: str
    at: float


@dataclass(frozen=True)
class LinkDegradation:
    """Override the ``a``–``b`` link with the given characteristics
    between ``at`` and ``at + duration``; the previous link (explicit or
    default) is restored afterwards."""

    kind = "link_degradation"

    a: str
    b: str
    at: float
    duration: float
    latency: float
    jitter: float = 0.0


Fault = Union[NodeCrash, RpcBrownout, WsDisconnect, LinkDegradation]

#: Wire-format discriminator tags — each fault class's ``kind``, the
#: ``"kind"`` key of a serialized fault dict.
FAULT_KINDS: dict[str, type] = {cls.kind: cls for cls in get_args(Fault)}


def fault_to_dict(fault: Fault) -> dict[str, Any]:
    """Serialize one fault spec to its tagged wire dict."""
    return to_wire(fault)


def fault_from_dict(data: Any) -> Fault:
    """Load one fault spec from its tagged wire dict, rejecting unknown
    kinds and unknown keys."""
    return from_wire(Fault, data, "fault spec", defaults=True)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered collection of faults, validated at construction."""

    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple):
            # Accept any iterable but store a tuple (hashable, stable repr).
            object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if fault.at < 0.0:
                raise SimulationError(
                    f"fault activation time must be >= 0, got {fault.at!r}"
                )
            duration = getattr(fault, "duration", 0.0)
            if duration < 0.0:
                raise SimulationError(
                    f"fault duration must be >= 0, got {duration!r}"
                )
            if isinstance(fault, RpcBrownout) and not (
                0.0 <= fault.drop_probability <= 1.0
            ):
                raise SimulationError(
                    "brownout drop_probability must be in [0, 1], got "
                    f"{fault.drop_probability!r}"
                )

    def __bool__(self) -> bool:
        return bool(self.faults)

    def to_dict(self) -> dict[str, Any]:
        """Wire form: a dict with one ``"faults"`` list of tagged specs."""
        return to_wire(self)

    @classmethod
    def from_dict(cls, data: Any) -> "FaultSchedule":
        """Exact inverse of :meth:`to_dict`; rejects unknown keys."""
        return from_wire(cls, data, "fault schedule", defaults=True)

    @property
    def horizon(self) -> float:
        """Sim seconds (from schedule start) until the last fault clears."""
        end = 0.0
        for fault in self.faults:
            end = max(end, fault.at + getattr(fault, "duration", 0.0))
        return end
