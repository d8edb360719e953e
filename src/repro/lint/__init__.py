"""repro.lint — determinism analysis, static and dynamic.

The reproduction's numbers are only credible if the discrete-event
simulation replays identically for a given seed, and never silently
stalls or drops an error.  This package enforces that with four dynamic
checks behind one harness and a small static rule set kept for the code
the dynamic checks never execute (about a quarter of the simulation's
statements lie on paths no pinned scenario runs — DESIGN.md §6, *Rule
yield*, has the audit every rule here survived):

=======  ==============================================================
Rule     What it forbids
=======  ==============================================================
D001     wall-clock reads (``time.time``, ``datetime.now``, ...)
D002     RNG construction outside ``sim/rng.py``'s RngRegistry streams
D003     iteration over sets / raw ``dict.keys()`` in ordered positions
D004     float equality comparisons on simulated timestamps
R002     swallowed RPC errors (bare/broad ``except`` around RPC calls)
D006     module-global entropy transitively reachable from a simulation
         process generator (whole-program: symbol table + call graph
         over every linted module)
R003     discarded ``env.timeout(...)`` / ``env.process(...)`` results:
         a forgotten ``yield``, a handle nobody can interrupt
=======  ==============================================================

The whole-program phase also emits a machine-readable RNG stream-name
inventory (``--stream-inventory FILE``).  The dynamic checks rerun the
named scenarios of :mod:`repro.lint.scenarios` through
:mod:`repro.lint.check` (``python -m repro check [replay|sched|alloc|stall
...] [--scenario NAME ...]``) against the pins in
``SCENARIO_PINS.json``: ``replay`` holds each scenario's event count
and report hash fixed, :mod:`repro.lint.schedcheck` reverses the
event-heap tie-break and treats any artifact divergence as a scheduling
race, :mod:`repro.lint.alloccheck` measures per-event allocations
against a pinned budget, and :mod:`repro.lint.stallcheck` monitors a
run's wait graph, tears the testbed down, and reports deadlocks,
livelocks, leaks and store-backlog regressions.

Run the static rules with ``python -m repro.lint [paths]`` (or
``python -m repro lint``).  Findings can be waived inline with
``# repro-lint: disable=<RULE>`` or per-file with
``# repro-lint: disable-file=<RULE>``.
"""

from repro.lint.config import LintConfig
from repro.lint.driver import lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.program import (
    PROGRAM_REGISTRY,
    ProgramIndex,
    all_program_rules,
    build_stream_inventory,
)
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import REGISTRY, all_rules

__all__ = [
    "Finding",
    "LintConfig",
    "PROGRAM_REGISTRY",
    "ProgramIndex",
    "REGISTRY",
    "all_program_rules",
    "all_rules",
    "build_stream_inventory",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]
