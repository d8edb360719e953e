"""Analysis helpers: distribution summaries, errors and text renderers."""

from repro.analysis.stats import (
    format_table,
    relative_error,
    summarize,
)
from repro.analysis.timeline import (
    render_packet_waterfall,
    render_step_table,
    render_trace_table,
)

__all__ = [
    "format_table",
    "relative_error",
    "render_packet_waterfall",
    "render_step_table",
    "render_trace_table",
    "summarize",
]
