"""Rendering helpers for the Fig. 12 step-breakdown timeline and the
per-packet trace decomposition (``ExperimentConfig.tracing``)."""

from __future__ import annotations

from repro.framework.metrics import TRACE_STAGES, TraceReport
from repro.framework.processor import TransferTimelineReport
from repro.sim.monitor import ordered_sum
from repro.trace import format_key


def render_step_table(report: TransferTimelineReport) -> str:
    """Human-readable table of the 13 steps' start/end times."""
    lines = [
        f"{'step':>4}  {'name':<22}  {'start':>8}  {'end':>8}  {'count':>7}"
    ]
    origin = report.origin_time
    for timeline in report.steps:
        if not timeline.points:
            continue
        lines.append(
            f"{timeline.step:>4}  {timeline.name:<22}  "
            f"{timeline.started_at - origin:>8.1f}  "
            f"{timeline.finished_at - origin:>8.1f}  "
            f"{timeline.total:>7}"
        )
    lines.append(
        f"total {report.total_seconds:.1f}s | phases: "
        + ", ".join(
            f"{phase}={seconds:.1f}s ({report.phase_fraction(phase) * 100:.1f}%)"
            for phase, seconds in report.phase_seconds.items()
        )
        + f" | data pulls {report.data_pull_seconds:.1f}s "
        f"({report.data_pull_fraction * 100:.1f}%)"
    )
    return "\n".join(lines)


def render_trace_table(trace: TraceReport) -> str:
    """The per-packet latency decomposition, one row per lifecycle stage.

    ``share`` is each stage's fraction of the summed per-packet end-to-end
    latency (the stages partition it, so the column sums to 100 %); the
    footer reports the paper's headline ratio — data-pull seconds over the
    batch's wall time.
    """
    lines = [f"{'stage':<8}  {'seconds':>10}  {'share':>7}  {'per packet':>10}"]
    total = ordered_sum(trace.stage_seconds[stage] for stage in TRACE_STAGES)
    for stage in TRACE_STAGES:
        seconds = trace.stage_seconds[stage]
        share = seconds / total if total > 0 else 0.0
        per_packet = seconds / trace.completed if trace.completed else 0.0
        lines.append(
            f"{stage:<8}  {seconds:>10.1f}  {share * 100:>6.1f}%  "
            f"{per_packet:>9.2f}s"
        )
    lines.append(
        f"{trace.completed}/{trace.traced} lifecycles complete "
        f"({trace.partial} partial, {trace.timed_out} timed out) | "
        f"data pulls {trace.pull_seconds:.1f}s of {trace.wall_seconds:.1f}s "
        f"wall ({trace.data_pull_share * 100:.1f}%)"
    )
    return "\n".join(lines)


#: One glyph per lifecycle stage in the waterfall bars.
_STAGE_GLYPHS = dict(zip(TRACE_STAGES, "=#.rA"))


def render_packet_waterfall(
    trace: TraceReport, width: int = 64, limit: int = 24
) -> str:
    """ASCII waterfall: one bar per packet, one glyph per stage.

    Columns map linearly from the first submission to the last ack; each
    packet's bar shows where its stages start and end, which makes the
    serial pull queue (a staircase of ``.`` runs) visible at a glance.
    """
    packets = [p for p in trace.packets if p.complete]
    if not packets:
        return "(no complete packet lifecycles to render)"
    origin = trace.origin_time
    span = max(trace.wall_seconds, 1e-9)
    lines = [
        "  ".join(
            f"{glyph}={stage}" for stage, glyph in _STAGE_GLYPHS.items()
        )
    ]
    for packet in packets[:limit]:
        bar = [" "] * width
        bounds = packet.boundaries()
        for i, stage in enumerate(TRACE_STAGES):
            lo = int((bounds[i] - origin) / span * (width - 1))
            hi = int((bounds[i + 1] - origin) / span * (width - 1))
            for column in range(lo, max(lo, hi) + 1):
                bar[column] = _STAGE_GLYPHS[stage]
        lines.append(
            f"{format_key(packet.key):>16}  |{''.join(bar)}| "
            f"{packet.total_seconds:>6.1f}s"
        )
    if len(packets) > limit:
        lines.append(f"... and {len(packets) - limit} more packet(s)")
    return "\n".join(lines)
