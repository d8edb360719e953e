"""Tests for the Fig. 12 timeline rendering and step bookkeeping."""

import pytest

from repro.analysis import render_step_table
from repro.framework.processor import (
    PHASE_OF_STEP,
    STEP_EVENTS,
    StepTimeline,
    TransferTimelineReport,
)


def test_thirteen_steps_defined_in_order():
    numbers = [step for step, _name, _event in STEP_EVENTS]
    assert numbers == list(range(1, 14))
    # Names follow the paper's per-phase breakdown.
    names = [name for _s, name, _e in STEP_EVENTS]
    assert names[0] == "transfer broadcast"
    assert names[3] == "transfer data pull"
    assert names[8] == "recv data pull"
    assert names[12] == "ack confirmation"


def test_phase_assignment_matches_paper():
    transfer_steps = [s for s, p in PHASE_OF_STEP.items() if p == "transfer"]
    receive_steps = [s for s, p in PHASE_OF_STEP.items() if p == "receive"]
    ack_steps = [s for s, p in PHASE_OF_STEP.items() if p == "acknowledge"]
    # 4 + 5 + 4 = 13, exactly as the paper counts them.
    assert sorted(transfer_steps) == [1, 2, 3, 4]
    assert sorted(receive_steps) == [5, 6, 7, 8, 9]
    assert sorted(ack_steps) == [10, 11, 12, 13]


def test_step_timeline_queries():
    timeline = StepTimeline(
        step=4,
        name="transfer data pull",
        points=[(16.0, 1000), (75.0, 2500), (126.0, 5000)],
    )
    assert timeline.started_at == 16.0
    assert timeline.finished_at == 126.0
    assert timeline.total == 5000
    # The paper's example: 50% complete at 75 seconds.
    assert timeline.completed_by(75.0) == 2500
    assert timeline.completed_by(10.0) == 0
    assert timeline.completed_by(999.0) == 5000


def test_empty_timeline_properties():
    timeline = StepTimeline(step=1, name="x", points=[])
    assert timeline.started_at is None
    assert timeline.finished_at is None
    assert timeline.total == 0


def make_report() -> TransferTimelineReport:
    timelines = {
        step: StepTimeline(
            step=step,
            name=name,
            points=[(float(step * 10), 100), (float(step * 10 + 5), 200)],
        )
        for step, name, _event in STEP_EVENTS
    }
    return TransferTimelineReport(
        origin_time=10.0,
        steps=list(timelines.values()),
        phase_seconds={"transfer": 35.0, "receive": 50.0, "acknowledge": 45.0},
        total_seconds=130.0,
        data_pull_seconds=90.0,
    )


def test_report_fractions():
    report = make_report()
    assert report.phase_fraction("transfer") == pytest.approx(35 / 130)
    assert report.data_pull_fraction == pytest.approx(90 / 130)
    assert report.phase_fraction("nonexistent") == 0.0


def test_zero_total_fractions_are_zero():
    report = make_report()
    report.total_seconds = 0.0
    assert report.phase_fraction("transfer") == 0.0
    assert report.data_pull_fraction == 0.0


def test_render_step_table():
    text = render_step_table(make_report())
    lines = text.splitlines()
    assert "transfer data pull" in text
    assert "ack confirmation" in text
    # All 13 step rows plus header and the totals line.
    assert len(lines) == 1 + 13 + 1
    assert "data pulls 90.0s" in lines[-1]
    # Times rendered relative to the origin: step 1 starts at 10-10 = 0.
    assert "0.0" in lines[1]
    # Step 13 ends at 135 - 10 = 125.
    assert "125.0" in lines[13]
