"""repro.trace — per-packet lifecycle tracing for the simulated stack.

A zero-wall-clock span/event tracer threaded through workload, chains,
RPC/WebSocket and relayers; every record is stamped with simulated time
and keyed (where applicable) by ``(source_channel, sequence)`` packet
identity.  :mod:`repro.trace.export` renders a run as Chrome/Perfetto
``trace_event`` JSON; the latency-decomposition aggregator lives in
:func:`repro.framework.metrics.collect_trace_metrics`; the ASCII
waterfall in :func:`repro.analysis.render_packet_waterfall`.
"""

from repro.trace.export import trace_event_document, write_perfetto
from repro.trace.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    format_key,
    json_safe,
    packet_key,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceEvent",
    "Tracer",
    "format_key",
    "json_safe",
    "packet_key",
    "trace_event_document",
    "write_perfetto",
]
