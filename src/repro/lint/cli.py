"""``python -m repro.lint`` — run the determinism analyzer from the shell.

Exit status: 0 when no findings, 1 when any finding survives suppression
and exemption filtering, 2 on usage errors *and* analyzer crashes — so CI
can tell "the tree is dirty" (1) from "the analyzer itself broke" (2).
The dynamic gates are ``python -m repro check`` (:mod:`repro.lint.check`).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fnmatch import fnmatchcase
from typing import Optional

from repro.lint.config import LintConfig
from repro.lint.driver import lint_paths
from repro.lint.program import PROGRAM_REGISTRY
from repro.lint.reporters import REPORTERS
from repro.lint.rules import REGISTRY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism and simulation-correctness analyzer "
            "for the repro codebase."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="GLOB",
        help=(
            "rule-id or glob to run (repeatable, comma-separable; default: "
            "all); e.g. '--select D002,D006' or '--select D*' for the "
            "determinism tier"
        ),
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="GLOB",
        help=(
            "rule-id glob to skip after selection (repeatable, "
            "comma-separable); e.g. '--ignore D00[34]'"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--stream-inventory",
        metavar="FILE",
        default=None,
        help=(
            "write the RNG stream-name inventory (JSON) produced by the "
            "whole-program phase to FILE"
        ),
    )
    return parser


def _parse_globs(
    parser: argparse.ArgumentParser, values: Optional[list[str]], flag: str
) -> tuple[str, ...]:
    """Flatten repeatable comma-separable glob flags and typo-check them."""
    if not values:
        return ()
    globs = tuple(
        g.strip() for chunk in values for g in chunk.split(",") if g.strip()
    )
    known = list(REGISTRY) + list(PROGRAM_REGISTRY)
    for pattern in globs:
        if not any(fnmatchcase(rule_id, pattern) for rule_id in known):
            parser.error(f"{flag} glob {pattern!r} matches no registered rule")
    return globs


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule in REGISTRY.items():
            print(f"{rule_id}  {rule.description}")
        for rule_id, rule in PROGRAM_REGISTRY.items():
            print(f"{rule_id}  [whole-program] {rule.description}")
        return 0

    config = LintConfig(
        select_globs=_parse_globs(parser, args.select, "--select"),
        ignore_globs=_parse_globs(parser, args.ignore, "--ignore"),
        stream_inventory_path=args.stream_inventory,
    )

    try:
        findings = lint_paths(args.paths, config)
        report = REPORTERS[args.format](findings)
    except Exception:
        traceback.print_exc()
        print("analyzer crashed (findings, if any, are incomplete)", file=sys.stderr)
        return 2
    print(report)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
