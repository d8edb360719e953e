"""Kernel benchmark accounting — deterministic and pinned.

The ``accounting`` section of ``BENCH_kernel.json`` must be a pure
function of the kernel (the microbench's event count); only the
``timing`` section may vary between hosts and runs.  The test re-derives
the figure and diffs it against the committed artifact, so a kernel
change that silently alters the benchmark workload fails tier-1 until
the artifact is regenerated (``pytest benchmarks/bench_kernel.py``).
The scenarios' event counts and report hashes are pinned in
``SCENARIO_PINS.json`` and gated by ``tests/test_check.py``.
"""

import json
from pathlib import Path

from benchmarks.bench_kernel import (
    ARTIFACT,
    MICRO_PROCESSES,
    run_kernel_microbench,
)

REPO_ROOT = Path(__file__).parent.parent


def _artifact() -> dict:
    path = Path(ARTIFACT)
    assert path.is_file(), (
        "BENCH_kernel.json must be committed; regenerate with "
        "`pytest benchmarks/bench_kernel.py`"
    )
    return json.loads(path.read_text())


def test_artifact_lives_at_repo_root():
    assert Path(ARTIFACT) == REPO_ROOT / "BENCH_kernel.json"


def test_event_counts_match_committed_artifact():
    accounting = _artifact()["accounting"]
    events, _wall = run_kernel_microbench()
    assert events == accounting["microbench_events"]
    # Each pinger fires ~horizon events plus its spawn; the exact figure
    # is pinned by the artifact, the shape sanity-checked here.
    assert events > MICRO_PROCESSES
