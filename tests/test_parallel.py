"""The parallel executor: serial/parallel equivalence and the result cache.

The executor's contract is that *how* a sweep executes is unobservable in
its output: worker count, scheduling order and cache state may only change
wall-clock, never a byte of the merged report document.  These tests pin
that contract, plus the cache-key discipline that makes the disk cache
safe to share between runs.
"""

import json

import pytest

import repro
from repro.errors import ReproError
from repro.framework import ExperimentConfig
from repro.parallel import (
    PointResult,
    ResultCache,
    cache_key,
    execute_payload,
    run_points,
)


def six_points():
    """Six short runs along Fig. 8's input-rate axis, 20..120 tfps."""
    return [
        ExperimentConfig(
            input_rate=20.0 * (index + 1),
            measurement_blocks=2,
            drain_seconds=10.0,
            seed=1,
        )
        for index in range(6)
    ]


# -- serial / parallel equivalence ------------------------------------------


def test_six_point_sweep_workers_1_vs_4_byte_identical():
    """Satellite criterion: the merged report JSON from a six-point sweep
    is byte-identical whether one process or four computed it."""
    serial = run_points(six_points(), workers=1)
    parallel = run_points(six_points(), workers=4)
    assert serial.merged_json() == parallel.merged_json()
    # Both actually simulated every point.
    assert serial.points_run == parallel.points_run == 6
    assert serial.cache_hits == parallel.cache_hits == 0


def test_results_ordered_by_point_index():
    run = run_points(six_points(), workers=4)
    assert [result.index for result in run.results] == list(range(6))
    assert [result.config.input_rate for result in run.results] == [
        20.0, 40.0, 60.0, 80.0, 100.0, 120.0
    ]


def test_merged_document_reports_carry_schema_version():
    run = run_points(six_points()[:2], workers=1)
    for point in run.merged_document():
        assert point["schema_version"] == 7


# -- the result cache --------------------------------------------------------


def test_cache_hit_returns_identical_result_without_resimulating(tmp_path):
    """Satellite criterion: a warm cache serves every point byte-identically
    with zero simulations."""
    configs = six_points()
    cold = run_points(configs, workers=1, cache_dir=str(tmp_path))
    warm = run_points(configs, workers=1, cache_dir=str(tmp_path))
    assert cold.points_run == 6 and cold.cache_hits == 0
    assert warm.points_run == 0 and warm.cache_hits == 6
    assert all(result.cached for result in warm.results)
    assert warm.merged_json() == cold.merged_json()


def test_cache_serves_parallel_runs_too(tmp_path):
    configs = six_points()[:3]
    cold = run_points(configs, workers=1, cache_dir=str(tmp_path))
    warm = run_points(configs, workers=4, cache_dir=str(tmp_path))
    assert warm.points_run == 0 and warm.cache_hits == 3
    assert warm.merged_json() == cold.merged_json()


def test_cache_key_depends_on_config_and_version(monkeypatch):
    base = ExperimentConfig(input_rate=20, measurement_blocks=2)
    key_before = cache_key(base)
    assert key_before == cache_key(ExperimentConfig(input_rate=20,
                                                    measurement_blocks=2))
    assert key_before != cache_key(
        ExperimentConfig(input_rate=20, measurement_blocks=2, seed=2)
    )
    # Bumping the library version invalidates every cached document.
    monkeypatch.setattr(repro, "__version__", "999.0.0")
    assert cache_key(base) != key_before


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    config = ExperimentConfig(input_rate=20, measurement_blocks=2)
    cache = ResultCache(str(tmp_path))
    # Not JSON at all, JSON whose rpc section lost its shape (which used to
    # escape the loader as a TypeError), and a config echo that is
    # malformed, semantically invalid or wrongly typed (which used to be a
    # KeyError, a WorkloadError and a silent hit): all plain misses.
    pristine = run_points([config], workers=1).results[0].report_json
    broken = [
        {"rpc": []},
        {"config": {"topology": {}}},
        {"config": {"relayer": {"policy": "bogus"}}},
        {"config": {"seed": "x"}},
    ]
    texts = [json.dumps({**json.loads(pristine), **change}) for change in broken]
    for text in ["{not a report", *texts]:
        with open(cache.path_for(config), "w") as handle:
            handle.write(text)
        assert cache.load(config) is None
    # And the executor recomputes rather than failing.
    run = run_points([config], workers=1, cache_dir=str(tmp_path))
    assert run.points_run == 1 and run.cache_hits == 0


# -- executor plumbing -------------------------------------------------------


def test_worker_payload_round_trips_the_wire_format():
    config = ExperimentConfig(input_rate=20, measurement_blocks=2)
    index, report_json, wall_seconds = execute_payload(
        (7, json.dumps(config.to_dict()))
    )
    assert index == 7
    assert wall_seconds >= 0.0
    assert json.loads(report_json)["config"]["input_rate"] == 20


def test_point_result_report_accessor():
    run = run_points(six_points()[:1], workers=1)
    result = run.results[0]
    assert isinstance(result, PointResult)
    assert result.report().config == result.config
    assert not result.cached and result.wall_seconds > 0.0


def test_negative_workers_rejected():
    with pytest.raises(ReproError, match="workers"):
        run_points(six_points()[:1], workers=-1)