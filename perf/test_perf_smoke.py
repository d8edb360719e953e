"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Not part of tier-1 (``testpaths`` is ``tests``).
"""

import dataclasses
import json

import pytest

from perf import manifest as manifest_module
from perf.layers import LAYERS, LayerMapError, check_layer_map, source_files
from perf.measure import measure
from perf.run import main
from perf.spans import SPAN_NAMES
from perf.workloads import BY_NAME


def test_relay_steady_one_rep_reports_every_metric(tmp_path, capsys):
    out = tmp_path / "relay_steady.json"
    status = main([
        "--workload", "relay_steady", "--reps", "1", "--trace", "1",
        "--out", str(out),
    ])
    assert status == 0
    result = json.loads(out.read_text())

    assert set(result["end_to_end"]) == {
        "wall_s", "setup_s", "events_per_s", "peak_rss_mb"
    }
    assert (result["reps"], result["failed_reps"]) == (3, 0)  # 1 + span + profiled
    per_layer = result["per_layer"]
    for layer in LAYERS:
        for key in ("self_s", "share", "calls"):
            assert f"{layer}.{key}" in per_layer
    for span in SPAN_NAMES:
        assert f"{span}.calls" in per_layer and f"{span}.incl_s" in per_layer
    assert per_layer["model.events"] == 22034
    assert per_layer["span.sim.step.calls"] == 22034
    assert sum(per_layer[f"{layer}.share"] for layer in LAYERS) == pytest.approx(1.0, abs=1e-6)
    assert per_layer["other.share"] < 0.05

    # The driver's line is last, and carries exactly the manifest's metrics.
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = manifest_module.specs(manifest_module.load(), "per_layer")
    assert set(line["metrics"]) == set(declared)
    assert line["correct"] is True and line["failed"] == 0


def test_wrong_outcome_check_fails_every_rep():
    wrong = dataclasses.replace(
        BY_NAME["relay_steady"], check=lambda document: ["deliberately wrong"]
    )
    result = measure(wrong, reps=1)
    assert result["failed_reps"] == result["reps"] == 1
    assert result["end_to_end"] is None


def test_unmapped_module_fails_the_layer_map():
    check_layer_map()
    with pytest.raises(LayerMapError, match="newpkg/engine.py"):
        check_layer_map(source_files() + ["newpkg/engine.py"])
    with pytest.raises(LayerMapError, match="tendermint/p2p.py"):
        check_layer_map(source_files() + ["tendermint/p2p.py"])
