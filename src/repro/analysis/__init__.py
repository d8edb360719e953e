"""Analysis helpers: the accuracy measure and text renderers."""

from repro.analysis.stats import relative_error
from repro.analysis.timeline import (
    render_packet_waterfall,
    render_step_table,
    render_trace_table,
)

__all__ = [
    "relative_error",
    "render_packet_waterfall",
    "render_step_table",
    "render_trace_table",
]
