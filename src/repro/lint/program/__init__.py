"""Whole-program analysis layer.

The per-module rules (D001-D004, R002) see one file at a time; this
package builds a project-wide view — a symbol table and a call graph —
so rules can reason *across* modules:

=======  ==============================================================
Rule     What it catches
=======  ==============================================================
D006     module-global ``random.*`` / wall-clock calls in functions
         *transitively* reachable from a simulation process generator
         — including through a helper that is itself exempt from
         D001/D002 (``parallel/hostclock.py``) or carries a waiver
R003     ``env.timeout(...)`` / ``env.process(...)`` results discarded:
         the wait never happens (a forgotten ``yield``), the process can
         never be awaited or interrupted
=======  ==============================================================

The layer also produces a machine-readable stream-name inventory
(:func:`build_stream_inventory`) enumerating every statically visible
RNG stream the program can create.
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
