"""Whole-program analysis layer (lint Tier A).

The per-module rules (D001-D004, R001-R002) see one file at a time; this
package builds a project-wide view — a symbol table, an import graph and
a call graph — so rules can reason *across* modules:

=======  ==============================================================
Rule     What it catches
=======  ==============================================================
D005     the same RNG stream name claimed by distinct modules (silent
         stream sharing), plus opaque dynamically-built stream names
         that defeat the static stream inventory
D006     module-global ``random.*`` / wall-clock calls in functions
         *transitively* reachable from a simulation process generator
R003     ``env.process(...)`` / ``env.timeout(...)`` results discarded,
         so the event can never be awaited, interrupted or cancelled
P001-P005  the performance tier (:mod:`repro.lint.program.performance`):
         allocation and lookup anti-patterns in *hot* code, i.e. code
         reachable from spawned process generators or the DES kernel
W001-W005  the liveness tier (:mod:`repro.lint.program.liveness`):
         unguarded blocking waits, lock-order cycles, zero-delay
         livelock loops, consumer-less queues and slot leaks on the
         fault path — the static half of ``check stall``
=======  ==============================================================

As a side effect of D005's analysis the layer produces a machine-readable
stream-name inventory (:func:`build_stream_inventory`) enumerating every
statically visible RNG stream the program can create.
"""

from repro.lint.program.index import (
    FunctionInfo,
    ModuleInfo,
    ProgramIndex,
    StreamCall,
    module_name_for,
)
from repro.lint.program.rules import (
    PROGRAM_REGISTRY,
    ProgramRule,
    all_program_rules,
    build_stream_inventory,
    register_program,
)

# Tiers P and W register their rules on import (registration order =
# doc order).
from repro.lint.program import performance as _performance  # noqa: E402,F401
from repro.lint.program import liveness as _liveness  # noqa: E402,F401

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "PROGRAM_REGISTRY",
    "ProgramIndex",
    "ProgramRule",
    "StreamCall",
    "all_program_rules",
    "build_stream_inventory",
    "module_name_for",
    "register_program",
]
