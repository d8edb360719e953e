"""Tests for the evaluation framework: config, workload, metrics, processor."""

import pytest

from repro.errors import SchemaError, WorkloadError
from repro.framework import (
    CompletionStatus,
    CrossChainEventConnector,
    CrossChainEventProcessor,
    ExperimentConfig,
)
from repro.framework.config import AUTO_STUB_THRESHOLD
from repro.framework.processor import STEP_EVENTS
from repro.relayer.logging import RelayerLog
from repro.sim import Environment


# -- config -------------------------------------------------------------------


def test_accounts_derived_from_rate():
    config = ExperimentConfig(input_rate=140, block_interval=5.0, msgs_per_tx=100)
    assert config.transfers_per_block == 700
    assert config.num_accounts == 7


def test_accounts_round_up():
    config = ExperimentConfig(input_rate=101, block_interval=5.0, msgs_per_tx=100)
    assert config.transfers_per_block == 505
    assert config.num_accounts == 6


def test_fixed_total_mode():
    config = ExperimentConfig(total_transfers=5000, submission_blocks=16)
    assert config.transfers_per_block == 313  # ceil(5000/16)
    assert config.expected_total_transfers == 5000


def test_invalid_configs_rejected():
    with pytest.raises(WorkloadError):
        ExperimentConfig(input_rate=-1)
    with pytest.raises(WorkloadError):
        ExperimentConfig(submission_blocks=0)
    with pytest.raises(WorkloadError):
        ExperimentConfig(total_transfers=0)


@pytest.mark.parametrize(
    "setting",
    [
        {"pull_concurrency": 0},
        {"pull_concurrency": -2},
        {"clear_interval": -3},
        {"pull_concurrency": 0, "clear_interval": -3},
    ],
)
def test_relayer_settings_out_of_range_are_refused(setting):
    """No pull concurrency below 1 and no negative clear interval: the
    relayer would run them as something else while the report said them."""
    with pytest.raises(WorkloadError, match="|".join(setting)):
        ExperimentConfig(**setting)
    with pytest.raises(SchemaError, match="|".join(setting)):
        ExperimentConfig.from_dict(setting)
    edge = ExperimentConfig(pull_concurrency=1, clear_interval=0)
    assert (edge.pull_concurrency, edge.clear_interval) == (1, 0)


def test_auto_proof_mode_threshold():
    small = ExperimentConfig(total_transfers=500)
    big = ExperimentConfig(total_transfers=50_000)
    assert small.resolved_proof_mode == "merkle"
    assert big.resolved_proof_mode == "stub"
    # The threshold is inclusive on the merkle side.
    edge = ExperimentConfig(total_transfers=AUTO_STUB_THRESHOLD)
    assert edge.resolved_proof_mode == "merkle"


def test_calibration_override_flows_through():
    config = ExperimentConfig(msgs_per_tx=50, block_interval=7.0)
    resolved = config.resolved_calibration
    assert resolved.max_msgs_per_tx == 50
    assert resolved.min_block_interval == 7.0


# -- workload schedules ------------------------------------------------------------


def _schedules(config):
    """Expose WorkloadDriver._schedules without a full testbed."""
    from repro.framework.workload import WorkloadDriver

    class _FakeDriver:
        pass

    class _FakeTestbed:
        pass

    driver = _FakeDriver()
    driver.config = config
    driver._clis = [object()] * config.num_accounts
    driver.testbed = _FakeTestbed()
    driver.testbed.route_wallets = [[object()] * config.num_accounts]
    driver._route_schedule = WorkloadDriver._route_schedule.__get__(driver)
    return WorkloadDriver._schedules(driver)


def test_continuous_schedule_is_open_ended():
    schedules = _schedules(ExperimentConfig(input_rate=100))
    assert schedules == [None] * 5


def test_fixed_total_schedule_sums_exactly():
    config = ExperimentConfig(total_transfers=5000, submission_blocks=16)
    schedules = _schedules(config)
    assert sum(sum(s) for s in schedules) == 5000
    for schedule in schedules:
        assert len(schedule) == 16
        assert all(0 <= c <= 100 for c in schedule)


def test_fixed_total_one_block():
    config = ExperimentConfig(total_transfers=5000, submission_blocks=1)
    schedules = _schedules(config)
    assert len(schedules) == 50
    assert all(s == [100] for s in schedules)


def test_fixed_total_uneven_split():
    config = ExperimentConfig(total_transfers=1001, submission_blocks=3)
    schedules = _schedules(config)
    assert sum(sum(s) for s in schedules) == 1001


# -- completion status ----------------------------------------------------------------


def test_completion_categories():
    status = CompletionStatus(
        requested=1000, committed=900, received=700, acknowledged=600, timed_out=50
    )
    assert status.completed == 600
    assert status.partially_completed == 100  # 700 - 600
    assert status.only_initiated == 150  # 900 - 700 - 50 (timeouts never received)
    assert status.not_committed == 100
    fractions = status.as_fractions()
    assert fractions["completed"] == pytest.approx(0.6)
    # The five categories partition the requested transfers.
    assert sum(
        fractions[k]
        for k in ("completed", "partially_completed", "only_initiated", "not_committed", "timed_out")
    ) == pytest.approx(1.0)


def test_completion_all_done():
    status = CompletionStatus(
        requested=100, committed=100, received=100, acknowledged=100, timed_out=0
    )
    assert status.as_fractions()["completed"] == 1.0
    assert status.not_committed == 0


# -- event processor ----------------------------------------------------------------


def make_log_with_steps() -> CrossChainEventConnector:
    env = Environment()
    log = RelayerLog(env, "proc-test")
    # Simulate a 200-transfer run moving through all 13 steps.
    times = {event: 10.0 * i for i, (_s, _n, event) in enumerate(STEP_EVENTS)}
    for _step, _name, event in STEP_EVENTS:
        env._now = times[event]  # direct clock control for the test
        log.info(event, count=120)
        env._now = times[event] + 5.0
        kwargs = {"count": 80}
        if event == "transfer_data_pull":
            kwargs["duration"] = 42.0
        log.info(event, **kwargs)
    connector = CrossChainEventConnector()
    connector.attach(log)
    return connector


def test_step_timelines_accumulate_counts():
    processor = CrossChainEventProcessor(make_log_with_steps())
    timelines = processor.step_timelines()
    for step in range(1, 14):
        assert timelines[step].total == 200
    assert timelines[1].started_at == 0.0
    assert timelines[13].finished_at == 125.0


def test_failed_confirmations_do_not_count():
    env = Environment()
    log = RelayerLog(env, "fail-test")
    log.info("ack_confirmation", count=50, code=0)
    log.info("ack_confirmation", count=50, code=1)  # failed tx
    connector = CrossChainEventConnector()
    connector.attach(log)
    processor = CrossChainEventProcessor(connector)
    assert processor.step_timelines()[13].total == 50


def test_transfer_timeline_phases_ordered():
    processor = CrossChainEventProcessor(make_log_with_steps())
    report = processor.transfer_timeline()
    assert report.total_seconds == 125.0
    assert report.phase_seconds["transfer"] > 0
    assert report.phase_seconds["receive"] > 0
    assert report.phase_seconds["acknowledge"] > 0
    assert sum(report.phase_seconds.values()) == pytest.approx(125.0)
    assert report.data_pull_seconds == 42.0


def test_completion_curve_and_latency():
    processor = CrossChainEventProcessor(make_log_with_steps())
    curve = processor.completion_curve(start_time=0.0)
    assert curve[-1][1] == 200
    assert processor.completion_latency(0.0, target=200) == 125.0
    assert processor.completion_latency(0.0, target=120) == 120.0
    assert processor.completion_latency(0.0, target=500) is None


def test_error_summary_counts():
    env = Environment()
    log = RelayerLog(env, "err-test")
    log.error("packet_messages_redundant")
    log.error("packet_messages_redundant")
    log.error("failed_to_collect_events")
    connector = CrossChainEventConnector()
    connector.attach(log)
    processor = CrossChainEventProcessor(connector)
    assert processor.error_summary() == {
        "packet_messages_redundant": 2,
        "failed_to_collect_events": 1,
    }


def test_merged_records_sorted():
    env = Environment()
    log1 = RelayerLog(env, "r1")
    log2 = RelayerLog(env, "r2")
    env._now = 5.0
    log1.info("a")
    env._now = 2.0
    log2.info("b")
    connector = CrossChainEventConnector()
    connector.attach(log1)
    connector.attach(log2)
    merged = connector.merged_records()
    assert [r.event for r in merged] == ["b", "a"]
