"""Zero-wall-clock structured tracing for the simulated IBC stack.

The tracer records *spans* (named intervals with a start and end) and
*events* (named instants) as the simulation runs.  Every timestamp is the
simulated clock (``env.now``) — the tracer never reads a wall clock, never
draws randomness and never interacts with the event heap, so enabling it
cannot perturb a run: a traced experiment produces byte-identical
non-trace report sections to an untraced one.

Records that belong to one cross-chain packet carry a *packet key*, the
``(source_chain, source_channel, sequence)`` triple that identifies an
IBC packet across every chain and relayer.  The chain component matters
once a topology has more than one connection: every spoke's first packet
is ``("channel-0", 1)`` on its own chain, so the channel/sequence pair
alone collides.  The aggregator
(:func:`repro.framework.metrics.collect_trace_metrics`) joins the records
on that key into per-packet lifecycles and the latency decomposition the
paper reports (69 % of transfer time in serial data pulls).

Two recording styles:

* :meth:`Tracer.record_span` — a retrospective span whose start time the
  caller sampled earlier; used where begin and end are visible in one
  scope (RPC service, data pulls, block execution).
* :meth:`Tracer.open_span` / :meth:`Tracer.close_span` — a genuinely
  in-flight span that closes in a different scope (a workload submission
  that confirms blocks later).  A span that never closes drops its
  packets from the trace section, which the ``replay`` pins of the
  traced scenarios (``line3``, ``hub4``) hold fixed.

A disabled run uses the module-level :data:`NULL_TRACER`, whose methods
are no-ops, so instrumentation sites need no conditionals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


def packet_key(
    source_chain: str, source_channel: str, sequence: int
) -> tuple[str, str, int]:
    """Canonical packet identity: *source* chain, channel and sequence."""
    return (str(source_chain), str(source_channel), int(sequence))


def format_key(key: tuple[str, str, int]) -> str:
    return f"{key[0]}/{key[1]}/{key[2]}"


def json_safe(value: Any) -> Any:
    """Coerce an attribute value to something JSON-serializable."""
    if isinstance(value, bytes):
        return value.hex().upper()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass
class Span:
    """A named interval on one track, optionally tied to a packet."""

    span_id: int
    name: str
    track: str
    start: float
    end: Optional[float] = None
    key: Optional[tuple[str, str, int]] = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start


@dataclass(frozen=True)
class TraceEvent:
    """A named instant on one track, optionally tied to a packet."""

    name: str
    track: str
    time: float
    key: Optional[tuple[str, str, int]] = None
    attrs: tuple[tuple[str, Any], ...] = ()

    def attr(self, key: str, default: Any = None) -> Any:
        for k, v in self.attrs:
            if k == key:
                return v
        return default


class Tracer:
    """Collects spans and events stamped with simulated time only."""

    enabled = True

    def __init__(self, env):
        self.env = env
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self._next_span_id = 1

    # -- recording -----------------------------------------------------

    def open_span(
        self,
        name: str,
        track: str,
        key: Optional[tuple[str, str, int]] = None,
        **attrs: Any,
    ) -> Span:
        """Start a span now; pair with :meth:`close_span`."""
        span = Span(
            span_id=self._next_span_id,
            name=name,
            track=track,
            start=self.env.now,
            key=key,
            attrs={k: json_safe(v) for k, v in attrs.items()},
        )
        self._next_span_id += 1
        self.spans.append(span)
        return span

    def close_span(self, span: Span, **attrs: Any) -> Span:
        """End an open span now, merging any late-bound attributes."""
        span.end = self.env.now
        for k, v in attrs.items():
            span.attrs[k] = json_safe(v)
        return span

    def record_span(
        self,
        name: str,
        track: str,
        start: float,
        end: Optional[float] = None,
        key: Optional[tuple[str, str, int]] = None,
        **attrs: Any,
    ) -> Span:
        """Record a completed span whose start was sampled earlier."""
        span = self.open_span(name, track, key, **attrs)
        span.start = start
        span.end = self.env.now if end is None else end
        return span

    def event(
        self,
        name: str,
        track: str,
        key: Optional[tuple[str, str, int]] = None,
        **attrs: Any,
    ) -> TraceEvent:
        """Record a point-in-time event at the current simulated instant."""
        record = TraceEvent(
            name=name,
            track=track,
            time=self.env.now,
            key=key,
            attrs=tuple((k, json_safe(v)) for k, v in attrs.items()),
        )
        self.events.append(record)
        return record

    # -- views ---------------------------------------------------------

    def packet_events(self, name: Optional[str] = None) -> list[TraceEvent]:
        """Events carrying a packet key, optionally filtered by name."""
        return [
            e
            for e in self.events
            if e.key is not None and (name is None or e.name == name)
        ]

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    @property
    def open_spans(self) -> list[Span]:
        return [s for s in self.spans if not s.closed]


_NULL_SPAN = Span(span_id=0, name="<null>", track="<null>", start=0.0, end=0.0)


class NullTracer:
    """Tracing disabled: every method is a no-op.

    Instrumentation sites call the same API either way; the null tracer
    keeps the disabled path allocation-free and branch-free.
    """

    enabled = False

    def open_span(self, name, track, key=None, **attrs):
        return _NULL_SPAN

    def close_span(self, span, **attrs):
        return _NULL_SPAN

    def record_span(self, name, track, start, end=None, key=None, **attrs):
        return _NULL_SPAN

    def event(self, name, track, key=None, **attrs):
        return None

    def packet_events(self, name=None):
        return []

    def spans_named(self, name):
        return []

    @property
    def open_spans(self):
        return []


#: Shared do-nothing tracer for untraced runs.
NULL_TRACER = NullTracer()
