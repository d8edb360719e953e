"""Chrome/Perfetto ``trace_event`` export of a traced run.

Produces the JSON object format both ``chrome://tracing`` and
https://ui.perfetto.dev accept: a ``traceEvents`` list of complete
(``"ph": "X"``) and instant (``"ph": "i"``) events plus thread-name
metadata.  Simulated seconds become microseconds (the format's native
unit); each tracer *track* (a component such as ``ibc-0/consensus`` or
``hermes-0/worker``) maps to one thread row, assigned in sorted-track
order so the export is deterministic for a given run.
"""

from __future__ import annotations

import json
from typing import Any

from repro.trace.tracer import Tracer, format_key

#: Simulated seconds -> trace_event microseconds.
MICROSECONDS = 1_000_000.0


def _us(seconds: float) -> int:
    """Seconds as integer microseconds (the format's native unit)."""
    return round(seconds * MICROSECONDS)


def _args(record) -> dict[str, Any]:
    args = dict(record.attrs)
    if record.key is not None:
        args["packet"] = format_key(record.key)
    return args


def trace_event_document(tracer: Tracer) -> dict[str, Any]:
    """Render a tracer's records as a ``trace_event`` JSON document."""
    tracks = sorted(
        {s.track for s in tracer.spans} | {e.track for e in tracer.events}
    )
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    trace_events: list[dict[str, Any]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tids[track],
            "args": {"name": track},
        }
        for track in tracks
    ]

    rows: list[tuple[float, int, int, dict[str, Any]]] = []
    for span in tracer.spans:
        if not span.closed:
            continue  # an interrupted lifecycle never completed; skip
        rows.append(
            (
                span.start,
                tids[span.track],
                span.span_id,
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": _us(span.start),
                    "dur": max(0, _us(span.end) - _us(span.start)),
                    "pid": 0,
                    "tid": tids[span.track],
                    "args": _args(span),
                },
            )
        )
    for index, event in enumerate(tracer.events):
        rows.append(
            (
                event.time,
                tids[event.track],
                index,
                {
                    "name": event.name,
                    "ph": "i",
                    "s": "t",
                    "ts": _us(event.time),
                    "pid": 0,
                    "tid": tids[event.track],
                    "args": _args(event),
                },
            )
        )
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    trace_events.extend(row[3] for row in rows)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_perfetto(tracer: Tracer, path: str) -> int:
    """Write the export to ``path``; returns the event count."""
    document = trace_event_document(tracer)
    with open(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return len(document["traceEvents"])
