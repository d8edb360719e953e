"""Million-user workload benchmark accounting — deterministic and pinned.

Mirrors ``tests/test_bench_kernel.py``: the ``accounting`` section of
``BENCH_workload.json`` is a pure function of the simulation and is
re-derived here against the committed artifact.  Tier-1 re-runs only the
1 k scale (fast); the full ramp re-check — including the 1 M-account
scenario — is marked ``slow`` and runs with ``pytest --runslow``.
"""

import json
from pathlib import Path

import pytest

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


@pytest.mark.slow
def test_full_ramp_reproduces_committed_accounting():
    """The slow re-check: every scale, 1 M included, reproduces the
    committed deterministic accounting in a fresh interpreter and holds
    the memory ceiling."""
    document = _artifact()
    for scale in SCALES:
        row = measure_scale_subprocess(scale)
        assert row["accounting"] == document["accounting"][str(scale)], (
            f"scale {scale} accounting drifted"
        )
    top = measure_scale_subprocess(SCALES[-1])
    assert top["memory"]["bytes_per_account"] < MAX_BYTES_PER_ACCOUNT
