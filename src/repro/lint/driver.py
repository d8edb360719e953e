"""The analysis driver: file discovery, parsing and rule execution.

Linting runs in two phases.  Phase one parses each module and runs the
per-module rules.  Phase two builds a :class:`~repro.lint.program.ProgramIndex`
over *every* parsed module and runs the whole-program rules (D006, R003),
which need the cross-module symbol table and call graph.  Both phases
share the same suppression and exemption filtering — and the same
parsed-AST cache: every module is ``ast.parse``\\ d exactly once per
(content, path) and the resulting :class:`ModuleContext` is handed to
both phases, and reused across repeated ``lint_paths`` calls in one
process (the tier-1 lint gates run the driver several times over
overlapping trees).
"""

from __future__ import annotations

import ast
import json
import os
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.findings import PARSE_ERROR_RULE, Finding
from repro.lint.program import ProgramIndex, all_program_rules, build_stream_inventory
from repro.lint.rules import all_rules
from repro.lint.rules.base import ModuleContext


def iter_python_files(
    paths: Sequence[str], exclude_dirs: Sequence[str] = ()
) -> Iterator[str]:
    """Expand files/directories into a de-duplicated, globally sorted list.

    Sorting happens across *all* arguments (not per argument), so finding
    output — and the program index — is stable regardless of CLI argument
    order or overlap.  ``exclude_dirs`` prunes directory names during
    directory expansion only; explicitly named files are always analyzed.
    """
    known: set[str] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                relative = candidate.relative_to(path)
                if any(part in exclude_dirs for part in relative.parts[:-1]):
                    continue
                known.add(os.path.normpath(str(candidate)))
        else:
            known.add(os.path.normpath(str(path)))
    return iter(sorted(known))


def _parse_module(
    source: str, path: str
) -> "tuple[Optional[ModuleContext], Optional[Finding]]":
    posix_path = path.replace(os.sep, "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1),
            rule_id=PARSE_ERROR_RULE,
            message=f"cannot parse module: {exc.msg}",
        )
    return (
        ModuleContext(path=path, posix_path=posix_path, source=source, tree=tree),
        None,
    )


class _AstCache:
    """Stat-validated cache of parsed modules, shared by both lint phases.

    Keyed by the path spelling the driver sees (already normalized by
    :func:`iter_python_files`) and validated against ``(mtime_ns, size)``,
    so an edited file re-parses while repeated gate runs over an unchanged
    tree parse each module once per process instead of once per call.
    """

    def __init__(self) -> None:
        self._entries: dict[
            str, tuple[tuple[int, int], Optional[ModuleContext], Optional[Finding]]
        ] = {}

    def load(
        self, filename: str
    ) -> "tuple[Optional[ModuleContext], Optional[Finding]]":
        try:
            stat = os.stat(filename)
            stat_key = (stat.st_mtime_ns, stat.st_size)
            cached = self._entries.get(filename)
            if cached is not None and cached[0] == stat_key:
                return cached[1], cached[2]
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            # Unreadable files are reported fresh each run, never cached.
            return None, Finding(
                path=filename,
                line=1,
                col=1,
                rule_id=PARSE_ERROR_RULE,
                message=f"cannot read file: {exc}",
            )
        ctx, parse_error = _parse_module(source, filename)
        self._entries[filename] = (stat_key, ctx, parse_error)
        return ctx, parse_error

    def clear(self) -> None:
        self._entries.clear()


#: Process-wide cache instance (tests may :meth:`~_AstCache.clear` it).
AST_CACHE = _AstCache()


def _module_findings(ctx: ModuleContext, config: LintConfig) -> list[Finding]:
    """Run the per-module rules over one parsed module."""
    findings: list[Finding] = []
    for rule in all_rules():
        if not config.rule_enabled(rule.rule_id):
            continue
        if config.rule_exempt(rule.rule_id, ctx.posix_path):
            continue
        for finding in rule.check(ctx):
            if ctx.suppressions.is_suppressed(finding.line, finding.rule_id):
                continue
            findings.append(finding)
    return findings


def _program_findings(
    contexts: Sequence[ModuleContext], config: LintConfig
) -> list[Finding]:
    """Build the program index and run the whole-program rules."""
    rules = [
        rule for rule in all_program_rules() if config.rule_enabled(rule.rule_id)
    ]
    wants_inventory = config.stream_inventory_path is not None
    if not rules and not wants_inventory:
        return []
    index = ProgramIndex.build(contexts)
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check(index):
            info = index.by_path.get(finding.path)
            posix_path = (
                info.ctx.posix_path
                if info
                else finding.path.replace(os.sep, "/")
            )
            if config.rule_exempt(finding.rule_id, posix_path):
                continue
            if info and info.ctx.suppressions.is_suppressed(
                finding.line, finding.rule_id
            ):
                continue
            findings.append(finding)
    if wants_inventory:
        inventory = build_stream_inventory(index)
        with open(config.stream_inventory_path, "w", encoding="utf-8") as handle:
            json.dump(inventory, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return findings


def lint_source(
    source: str,
    path: str = "<memory>",
    config: Optional[LintConfig] = None,
) -> list[Finding]:
    """Lint one module given as text (the unit-test entry point).

    The whole-program rules run over a single-module index, so R003 and
    a D006 spawn chain inside one module fire here too; cross-module
    reachability (D006) needs :func:`lint_paths`.
    """
    config = config or LintConfig()
    ctx, parse_error = _parse_module(source, path)
    if parse_error is not None:
        return [parse_error]
    assert ctx is not None
    findings = _module_findings(ctx, config)
    findings.extend(_program_findings([ctx], config))
    return sorted(findings)


def lint_paths(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    config = config or LintConfig()
    findings: list[Finding] = []
    contexts: list[ModuleContext] = []
    for filename in iter_python_files(paths, config.exclude_dirs):
        ctx, parse_error = AST_CACHE.load(filename)
        if parse_error is not None:
            findings.append(parse_error)
            continue
        assert ctx is not None
        contexts.append(ctx)
        findings.extend(_module_findings(ctx, config))
    findings.extend(_program_findings(contexts, config))
    return sorted(findings)
