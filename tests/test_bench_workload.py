"""Million-user workload benchmark accounting — deterministic and pinned.

Mirrors ``tests/test_bench_kernel.py``: the ``accounting`` section of
``BENCH_workload.json`` is a pure function of the simulation and is
re-derived here against the committed artifact: the 1 k scale in
process, then the full ramp — the 1 M-account scenario included — one
fresh interpreter per scale.
"""

import json
from pathlib import Path

from benchmarks.bench_workload import (
    ARTIFACT,
    MAX_BYTES_PER_ACCOUNT,
    SCALES,
    measure_scale,
    measure_scale_subprocess,
)

REPO_ROOT = Path(__file__).parent.parent


def _artifact() -> dict:
    path = Path(ARTIFACT)
    assert path.is_file(), (
        "BENCH_workload.json must be committed; regenerate with "
        "`pytest benchmarks/bench_workload.py`"
    )
    return json.loads(path.read_text())


def test_artifact_lives_at_repo_root():
    assert Path(ARTIFACT) == REPO_ROOT / "BENCH_workload.json"


def test_artifact_covers_the_full_ramp():
    document = _artifact()
    for section in ("accounting", "memory", "timing"):
        assert set(document[section]) == {str(scale) for scale in SCALES}


def test_small_scale_accounting_matches_committed_artifact():
    """Tier-1 gate: re-derive the 1 k scale and diff it against the
    artifact — a behaviour change that alters the generated workload
    fails here until the artifact is regenerated."""
    row = measure_scale(SCALES[0])
    assert row["accounting"] == _artifact()["accounting"][str(SCALES[0])]


def test_committed_memory_figures_back_the_scaling_claim():
    """The committed 1 M row carries the headline: the array-backed
    account state keeps marginal memory to a few hundred bytes per
    account, and the scenario really ran (committed transfers)."""
    document = _artifact()
    top = document["memory"][str(SCALES[-1])]
    assert 0 < top["bytes_per_account"] < MAX_BYTES_PER_ACCOUNT
    for scale in SCALES:
        accounting = document["accounting"][str(scale)]
        assert accounting["committed"] > 0
        assert accounting["accepted"] <= accounting["requested"]


def test_full_ramp_reproduces_committed_accounting():
    """Every scale, 1 M included, reproduces the committed deterministic
    accounting in a fresh interpreter and holds the memory ceiling."""
    document = _artifact()
    for scale in SCALES:
        row = measure_scale_subprocess(scale)
        assert row["accounting"] == document["accounting"][str(scale)], (
            f"scale {scale} accounting drifted"
        )
    assert row["memory"]["bytes_per_account"] < MAX_BYTES_PER_ACCOUNT
