"""Dynamic allocation sanitizer: the ``alloc`` check.

Per-event allocation is measured, not inferred from source patterns: run
a scenario under :mod:`tracemalloc` and report how many traced
allocations are still live at the end of the run, normalised per
simulated event, with the top allocating call sites.  The harness
(:mod:`repro.lint.check`) diffs the normalised figure
against the scenario's ``alloc`` pin in ``SCENARIO_PINS.json`` so an
allocation regression — a dropped ``__slots__``, a new per-event
closure, an unbounded cache on a hot path — fails tier-1.

Methodology
-----------

``tracemalloc`` traces every allocation made *after* it starts, so the
measurement covers exactly one scenario execution: testbed construction,
the simulated run, and the report build.  The live set at the final
snapshot is deterministic because a run leaves no cyclic garbage behind
(``run()`` pauses the collector on that premise and the ``stall`` check
enforces it); the ``gc.collect()`` before the snapshot is a backstop
that finds nothing.  Two consequences worth knowing when reading a
report:

* The metric counts *retained* blocks (live at snapshot time), not
  cumulative allocations — per-event garbage that was already freed is
  visible only through the ``peak_kb`` figure.
* Warm ``functools.lru_cache`` memos from earlier runs in the same
  process mean *fewer* new allocations, never more, so a budget pinned
  from a cold process is an upper bound and the check cannot false-fail
  from cache warmth.

The pin gates only ``blocks_per_event`` (with the relative tolerance
recorded in the pin file); event counts and top sites are informational.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass, field
from typing import Optional

from repro.lint.reporters import short_path

#: How many call sites a report spells out.
TOP_SITES = 10


@dataclass(frozen=True)
class AllocSite:
    """One call site's share of the live allocations."""

    path: str
    line: int
    count: int
    size_kb: float

    def __str__(self) -> str:
        return f"{self.path}:{self.line}  blocks={self.count}  kb={self.size_kb:.1f}"


@dataclass
class AlloccheckResult:
    """Outcome of one scenario's allocation measurement."""

    scenario: str
    events: int
    total_blocks: int
    total_kb: float
    peak_kb: float
    blocks_per_event: float
    top_sites: list[AllocSite] = field(default_factory=list)
    #: blocks/event the pin it was diffed against allows (None: not diffed).
    limit: Optional[float] = None
    violations: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        header = (
            f"alloccheck[{self.scenario}]: {self.events} events, "
            f"{self.total_blocks} live blocks ({self.total_kb:.0f} kB, "
            f"peak {self.peak_kb:.0f} kB) -> "
            f"{self.blocks_per_event:.2f} blocks/event"
        )
        lines = [header]
        if not self.clean:
            lines.append(f"  REGRESSION — {len(self.violations)} violation(s):")
            lines += [f"    {v}" for v in self.violations]
            lines.append(
                "    a regression means per-event allocation grew past the "
                "pinned budget (see DESIGN.md §6: how to read an alloccheck "
                "report); re-pin with `python -m repro check alloc "
                "--write-pins` only after auditing the growth"
            )
        elif self.limit is not None:
            lines.append(
                f"  OK — within budget ({self.limit:.2f} blocks/event allowed)"
            )
        lines.append("  top call sites by live blocks:")
        lines += [f"    {site}" for site in self.top_sites]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure(scenario: str, config) -> AlloccheckResult:
    """Run one experiment under tracemalloc and collect allocation stats."""
    from repro.framework.runner import _ExperimentEngine

    gc.collect()
    tracemalloc.start()
    try:
        engine = _ExperimentEngine(config)
        engine.run()
        events = engine.testbed.env.events_processed
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    stats = snapshot.statistics("lineno")
    total_blocks = sum(s.count for s in stats)
    total_kb = sum(s.size for s in stats) / 1024.0
    ranked = sorted(
        stats,
        key=lambda s: (
            -s.count,
            -s.size,
            s.traceback[0].filename,
            s.traceback[0].lineno,
        ),
    )
    top = [
        AllocSite(
            path=short_path(s.traceback[0].filename),
            line=s.traceback[0].lineno,
            count=s.count,
            size_kb=s.size / 1024.0,
        )
        for s in ranked[:TOP_SITES]
    ]
    return AlloccheckResult(
        scenario=scenario,
        events=events,
        total_blocks=total_blocks,
        total_kb=total_kb,
        peak_kb=peak / 1024.0,
        blocks_per_event=(total_blocks / events) if events else float("inf"),
        top_sites=top,
    )
