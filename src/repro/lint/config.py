"""Analyzer configuration: rule selection and per-rule path exemptions."""

from __future__ import annotations

from dataclasses import field
from fnmatch import fnmatchcase
from typing import Mapping, Optional

from repro.sim.records import dataclass

#: Files that are structurally allowed to violate a rule.  Matched as
#: posix-path suffixes so the config is independent of the checkout root.
DEFAULT_EXEMPT_PATHS: Mapping[str, tuple[str, ...]] = {
    # parallel/hostclock.py is the one blessed host wall-clock reader:
    # the parallel executor measures host-side cost there, and nothing
    # host-timed ever feeds back into simulation state.
    "D001": ("parallel/hostclock.py",),
    # sim/rng.py is the one blessed constructor of random.Random instances:
    # every other module must go through its RngRegistry named streams.
    "D002": ("sim/rng.py",),
}

#: Directory names skipped while expanding directory arguments.  The lint
#: fixtures are deliberate rule violations; they are still analyzable by
#: passing their directory (or files) explicitly.
DEFAULT_EXCLUDE_DIRS: tuple[str, ...] = ("lint_fixtures",)


@dataclass(frozen=True)
class LintConfig:
    """What to check and where exceptions are allowed."""

    #: Rule-id glob patterns (``fnmatch`` style: ``D*``, ``D00?``, or an
    #: exact id); empty means every registered rule (both the per-module
    #: and the whole-program registry), otherwise only rules matching at
    #: least one pattern run (CLI ``--select``).
    select_globs: tuple[str, ...] = ()
    #: Rule-id glob patterns removed *after* selection (CLI ``--ignore``).
    ignore_globs: tuple[str, ...] = ()
    #: rule id -> posix path suffixes exempt from that rule.
    exempt_paths: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_EXEMPT_PATHS)
    )
    #: Directory names pruned while expanding directory arguments.
    exclude_dirs: tuple[str, ...] = DEFAULT_EXCLUDE_DIRS
    #: When set, ``lint_paths`` writes the RNG stream-name inventory
    #: artifact (JSON) here as a side effect of the whole-program phase.
    stream_inventory_path: Optional[str] = None

    def rule_enabled(self, rule_id: str) -> bool:
        if self.select_globs and not any(
            fnmatchcase(rule_id, pattern) for pattern in self.select_globs
        ):
            return False
        return not any(
            fnmatchcase(rule_id, pattern) for pattern in self.ignore_globs
        )

    def rule_exempt(self, rule_id: str, posix_path: str) -> bool:
        """True when ``posix_path`` is structurally exempt from the rule."""
        for suffix in self.exempt_paths.get(rule_id, ()):
            if posix_path.endswith(suffix):
                return True
        return False

