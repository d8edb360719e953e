"""Tier-1 gate: the analyzer must be clean over the whole repository.

Running this inside the normal pytest run makes ``repro.lint`` a standing
determinism gate with no extra CI plumbing: any future wall-clock read,
rogue RNG, set-order dependence, timestamp equality, swallowed RPC error,
transitive entropy path or dropped process/timeout handle — in the source
tree, the test suite or the examples — fails the suite.
"""

from pathlib import Path

import repro
from repro.lint import lint_paths

SRC_ROOT = Path(repro.__file__).parent
REPO_ROOT = Path(__file__).parent.parent


def _assert_clean(paths):
    findings = lint_paths([str(p) for p in paths])
    rendered = "\n".join(f.format() for f in findings)
    assert not findings, f"repro.lint found violations:\n{rendered}"


def test_source_tree_exists():
    assert (SRC_ROOT / "sim" / "rng.py").is_file()


def test_lint_clean_over_src_repro():
    _assert_clean([SRC_ROOT])


def test_lint_clean_over_whole_repo():
    """src/, tests/ and examples/ analyzed together, all rules.

    One combined run (not three) so the whole-program rules see stream
    names and call graphs across the tree boundaries too.  The deliberate
    violations under ``tests/lint_fixtures/`` are pruned by the default
    ``exclude_dirs``; the lint tests pass them explicitly.
    """
    for sub in ("tests", "examples"):
        assert (REPO_ROOT / sub).is_dir(), f"missing {sub}/ directory"
    _assert_clean(
        [
            SRC_ROOT,
            REPO_ROOT / "tests",
            REPO_ROOT / "examples",
        ]
    )


def test_parallel_package_is_gated():
    """repro.parallel sits under every rule like the rest of src."""
    parallel = SRC_ROOT / "parallel"
    assert parallel.is_dir()
    _assert_clean([parallel])


def test_trace_package_is_gated():
    """repro.trace sits under every rule like the rest of src."""
    trace = SRC_ROOT / "trace"
    assert trace.is_dir()
    _assert_clean([trace])


def test_hostclock_is_the_only_wall_clock_exemption():
    """Host wall-clock reads are allowed in exactly one module: the
    executor's hostclock chokepoint.  Widening this list needs a reason."""
    from repro.lint.config import DEFAULT_EXEMPT_PATHS

    assert DEFAULT_EXEMPT_PATHS["D001"] == ("parallel/hostclock.py",)


def test_registry_is_the_audited_survivors():
    """The clean-tree gates above run every registered rule; this pins
    the registry to the seven rules the yield audit kept (DESIGN.md §6,
    *Rule yield*) so a silently dropped rule can't hollow them out — and
    a new one arrives with its own audit row."""
    from repro.lint.program import PROGRAM_REGISTRY
    from repro.lint.rules import REGISTRY

    assert set(REGISTRY) == {"D001", "D002", "D003", "D004", "R002"}
    assert set(PROGRAM_REGISTRY) == {"D006", "R003"}
