"""repro.lint — determinism, performance & liveness analysis.

The reproduction's numbers are only credible if the discrete-event
simulation replays identically for a given seed, runs fast enough to
sweep, and never silently stalls.  This package enforces all three with
a per-module rule set, a whole-program analysis layer (symbol table +
import graph + call graph over every linted module), and four dynamic
checks behind one harness:

=======  ==============================================================
Rule     What it forbids
=======  ==============================================================
D001     wall-clock reads (``time.time``, ``datetime.now``, ...)
D002     RNG construction outside ``sim/rng.py``'s RngRegistry streams
D003     iteration over sets / raw ``dict.keys()`` in ordered positions
D004     float equality comparisons on simulated timestamps
R001     sim resource ``request()`` without a matching ``release()``
R002     swallowed RPC errors (bare/broad ``except`` around RPC calls)
D005     one RNG stream name claimed by multiple modules; opaque
         dynamically-built stream names (whole-program)
D006     module-global entropy transitively reachable from a simulation
         process generator (whole-program)
R003     discarded ``env.process(...)`` / ``env.timeout(...)`` handles
         (whole-program)
P001     hot classes without ``__slots__`` (whole-program)
P002     constant containers/closures rebuilt in hot loops
P003     repeated attribute-chain reads in one hot loop
P004     eager string formatting handed to loggers in hot code
P005     list-literal membership tests in hot code
W001     unguarded blocking waits in uninterruptible service loops
W002     resources acquired in opposite orders (circular wait)
W003     loops that can iterate without a real wait (livelock)
W004     containers produced to from hot code but never consumed
W005     granted requests held across a ``yield`` outside try/finally
=======  ==============================================================

The whole-program phase also emits a machine-readable RNG stream-name
inventory (``--stream-inventory FILE``).  The dynamic tiers rerun the
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

Run the static tiers with ``python -m repro.lint [paths]`` (or
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
