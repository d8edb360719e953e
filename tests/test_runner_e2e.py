"""End-to-end run_experiment tests (small configurations)."""

import json

import pytest

from repro.framework import ExperimentConfig, run_experiment


@pytest.fixture(scope="module")
def small_report():
    config = ExperimentConfig(
        input_rate=40, measurement_blocks=8, seed=23, drain_seconds=30.0
    )
    return run_experiment(config)


def test_window_counts_consistent(small_report):
    window = small_report.window
    assert window.sends >= window.receives >= window.acks
    assert window.requested >= window.sends
    assert window.end_height_a - window.start_height_a <= 9
    assert window.duration > 0


def test_throughput_definitions(small_report):
    window = small_report.window
    assert window.chain_throughput_tfps == pytest.approx(
        window.sends / window.duration
    )
    assert window.transfer_throughput_tfps == pytest.approx(
        window.acks / window.duration
    )


def test_report_serialises_to_json(small_report):
    payload = json.loads(small_report.to_json())
    assert payload["config"]["input_rate"] == 40
    assert payload["throughput"]["transfer_tfps"] > 0
    assert 0 <= payload["completion"]["completed"] <= 1
    assert payload["rpc"]["pull_fraction"] > 0


def test_report_write_produces_files(small_report, tmp_path):
    json_path, text_path = small_report.write(str(tmp_path), name="run1")
    payload = json.loads(open(json_path).read())
    assert payload["config"]["input_rate"] == 40
    assert "Cross-chain experiment report" in open(text_path).read()


def test_summary_is_readable(small_report):
    text = small_report.summary()
    assert "Cross-chain experiment report" in text
    assert "completed (acked)" in text
    assert "rpc pull fraction" in text


def test_block_intervals_respect_floor(small_report):
    assert all(i >= 5.0 for i in small_report.window.block_intervals_a)


def test_completion_curve_monotone(small_report):
    curve = small_report.completion_curve
    counts = [c for _t, c in curve]
    assert counts == sorted(counts)
    times = [t for t, _c in curve]
    assert times == sorted(times)


def test_same_seed_reproduces_exactly():
    config = dict(input_rate=20, measurement_blocks=4, seed=31)
    r1 = run_experiment(ExperimentConfig(**config))
    r2 = run_experiment(ExperimentConfig(**config))
    assert r1.window.sends == r2.window.sends
    assert r1.window.acks == r2.window.acks
    assert r1.window.duration == pytest.approx(r2.window.duration)
    assert r1.completion_curve == r2.completion_curve


def test_different_seed_differs():
    r1 = run_experiment(ExperimentConfig(input_rate=20, measurement_blocks=4, seed=31))
    r2 = run_experiment(ExperimentConfig(input_rate=20, measurement_blocks=4, seed=32))
    # Identical protocol outcomes but different timing traces (jitter).
    assert r1.window.block_intervals_a != r2.window.block_intervals_a


def test_run_to_completion_sets_latency():
    report = run_experiment(
        ExperimentConfig(
            total_transfers=300,
            submission_blocks=1,
            measurement_blocks=100,
            run_to_completion=True,
            seed=37,
        )
    )
    assert report.completion_latency is not None
    assert report.window.acks == 300
    assert report.completion_latency > 10.0


def test_rpc_accounting_has_pull_dominance(small_report):
    rpc = small_report.rpc
    assert rpc.total_busy_seconds > 0
    assert rpc.by_method.get("pull_packet_data", 0) > 0
    # At a steady medium rate pulls dominate RPC busy time (the paper's
    # bottleneck), though less extremely than in the Fig. 12 megabatch.
    assert rpc.pull_fraction > 0.3


def test_timeout_error_when_experiment_cannot_finish():
    config = ExperimentConfig(
        input_rate=20,
        measurement_blocks=50,
        seed=23,
        max_sim_seconds=30.0,  # far too short for 50 blocks
    )
    with pytest.raises(TimeoutError):
        run_experiment(config)


def _process_memos() -> dict:
    """Every ``functools.lru_cache`` memo defined by a loaded repro module."""
    import sys

    return {
        f"{name}.{attr}": value
        for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        for attr, value in vars(module).items()
        if callable(value) and hasattr(value, "cache_info")
    }


def _memo_sizes() -> dict:
    return {name: memo.cache_info().currsize for name, memo in _process_memos().items()}


def test_back_to_back_runs_share_no_memo_entries(monkeypatch):
    """A pool worker runs experiments back to back in one process.  Every
    process-global memo is bounded, and the reset hook ``run_experiment``
    calls first leaves none of them holding an entry from the previous
    run — in particular no packet-level memo (ack codec, payload codec)."""
    from repro.framework import runner

    sizes_after_reset = []
    reset = runner._reset_run_caches
    monkeypatch.setattr(
        runner,
        "_reset_run_caches",
        lambda: (reset(), sizes_after_reset.append(_memo_sizes())),
    )
    config = dict(input_rate=20, measurement_blocks=2)
    first = run_experiment(ExperimentConfig(seed=41, **config))
    assert first.window.receives > 0  # each receive writes an ack

    memos = _process_memos()
    assert all(memo.cache_info().maxsize is not None for memo in memos.values())
    sizes = _memo_sizes()
    for name in (
        "repro.ibc.packet._ack_encode",
        "repro.ibc.packet._ack_commitment",
        "repro.ibc.transfer._ftpd_encode",
        "repro.ibc.transfer._ftpd_decode",
    ):
        assert sizes[name] > 0, name

    run_experiment(ExperimentConfig(seed=42, **config))
    assert sizes_after_reset[1] == dict.fromkeys(memos, 0)
