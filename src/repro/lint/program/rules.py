"""Cross-module rules D006/R003 and the stream inventory, over the program index."""

from __future__ import annotations

import ast
from typing import Any, Iterable, Type

from repro.lint.findings import Finding
from repro.lint.program.index import ProgramIndex, calls_in
from repro.lint.rules.determinism import _GLOBAL_RANDOM_FUNCS, _WALL_CLOCK_CALLS

#: rule id -> rule instance, in registration (= documentation) order.
PROGRAM_REGISTRY: "dict[str, ProgramRule]" = {}


def register_program(rule_cls: "Type[ProgramRule]") -> "Type[ProgramRule]":
    """Class decorator: instantiate and index a whole-program rule."""
    rule = rule_cls()
    if not rule.rule_id:
        raise ValueError(f"rule {rule_cls.__name__} has no rule_id")
    if rule.rule_id in PROGRAM_REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    PROGRAM_REGISTRY[rule.rule_id] = rule
    return rule_cls


def all_program_rules() -> "list[ProgramRule]":
    return list(PROGRAM_REGISTRY.values())


class ProgramRule:
    """One cross-module check over the :class:`ProgramIndex`."""

    rule_id: str = ""
    description: str = ""

    def check(self, index: ProgramIndex) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, path: str, line: int, col: int, message: str) -> Finding:
        return Finding(
            path=path, line=line, col=col, rule_id=self.rule_id, message=message
        )


# ----------------------------------------------------------------------
# The RNG stream inventory
# ----------------------------------------------------------------------


def build_stream_inventory(index: ProgramIndex) -> dict[str, Any]:
    """Machine-readable inventory of every statically visible stream.

    Keys are normalized stream names (f-string placeholders collapsed to
    ``{}``); opaque sites are listed under ``"<opaque>"`` so the artifact
    records that the static inventory is incomplete.
    """
    streams: dict[str, list[dict[str, Any]]] = {}
    for call in index.stream_calls:
        key = call.name if call.name is not None else "<opaque>"
        streams.setdefault(key, []).append(
            {
                "path": call.path,
                "line": call.line,
                "module": call.module,
                "function": call.function,
                "method": call.method,
                "kind": call.kind,
            }
        )
    for sites in streams.values():
        sites.sort(key=lambda s: (s["path"], s["line"]))
    return {
        "stream_count": len(streams),
        "site_count": len(index.stream_calls),
        "streams": {k: streams[k] for k in sorted(streams)},
    }


# ----------------------------------------------------------------------
# D006 — transitive rogue entropy in process-reachable code
# ----------------------------------------------------------------------

_ROGUE_CALLS = _GLOBAL_RANDOM_FUNCS | _WALL_CLOCK_CALLS


@register_program
class TransitiveEntropyRule(ProgramRule):
    """D001/D002 flag direct offenders file-by-file; this rule walks the
    call graph so entropy smuggled through helper layers is still pinned
    to the simulation process that consumes it."""

    rule_id = "D006"
    description = (
        "module-global random.* / wall-clock call in a function "
        "transitively reachable from a simulation process generator"
    )

    def check(self, index: ProgramIndex) -> Iterable[Finding]:
        chains = index.reachable_from_roots()
        for fqn in sorted(chains):
            fn = index.functions.get(fqn)
            if fn is None:
                continue
            info = index.modules[fn.module]
            for call in calls_in(fn.node):
                resolved = info.ctx.resolve(call.func)
                if resolved not in _ROGUE_CALLS:
                    continue
                chain = " -> ".join(chains[fqn])
                yield self.finding(
                    info.ctx.path,
                    call.lineno,
                    call.col_offset + 1,
                    f"{resolved}() runs inside simulation processes "
                    f"(reachable via {chain}) without a registry stream; "
                    "draw from RngRegistry / the simulation clock instead",
                )


# ----------------------------------------------------------------------
# R003 — discarded process / timeout handles
# ----------------------------------------------------------------------


@register_program
class DroppedProcessRule(ProgramRule):
    """A discarded ``env.timeout(...)`` is a forgotten ``yield``: the
    event is scheduled and the process does not wait for it.  A discarded
    ``env.process(...)`` handle can never be joined or interrupted (clean
    shutdown needs it; ``check stall`` sees those that outlive a run)."""

    rule_id = "R003"
    description = (
        "env.process(...) / env.timeout(...) result discarded; keep the "
        "handle (e.g. in a sim.ProcessGroup) so the event can be awaited "
        "or interrupted"
    )

    def check(self, index: ProgramIndex) -> Iterable[Finding]:
        for path in sorted(index.by_path):
            info = index.by_path[path]
            for stmt in ast.walk(info.ctx.tree):
                if not isinstance(stmt, ast.Expr):
                    continue
                call = stmt.value
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("process", "timeout")
                ):
                    continue
                if not _receiver_is_env(func.value):
                    continue
                yield self.finding(
                    info.ctx.path,
                    call.lineno,
                    call.col_offset + 1,
                    f"result of {_receiver_text(func)}.{func.attr}(...) is "
                    "discarded, so the event can never be awaited or "
                    "interrupted; retain the handle (sim.ProcessGroup)",
                )


def _receiver_is_env(node: ast.AST) -> bool:
    """The receiver chain's final identifier is ``env`` (``env``,
    ``self.env``, ``chain.env``, ...)."""
    if isinstance(node, ast.Name):
        return node.id == "env"
    if isinstance(node, ast.Attribute):
        return node.attr == "env"
    return False


def _receiver_text(func: ast.Attribute) -> str:
    parts: list[str] = []
    node: ast.AST = func.value
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return ".".join(parts) or "env"
