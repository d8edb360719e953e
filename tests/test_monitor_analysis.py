"""Tests for distribution summaries and the analysis helpers."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import relative_error
from repro.sim.monitor import SummaryStats, percentile


def test_percentile_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert math.isnan(percentile([], 50))
    assert percentile([7.0], 99) == 7.0


def test_summary_stats():
    stats = SummaryStats.from_values([5, 1, 3, 2, 4])
    assert stats.count == 5
    assert stats.median == 3
    assert stats.minimum == 1 and stats.maximum == 5
    assert stats.mean == 3
    assert stats.p25 == 2 and stats.p75 == 4


def test_summary_stats_empty():
    stats = SummaryStats.from_values([])
    assert stats.count == 0
    assert math.isnan(stats.median)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
# Three equal values whose sum rounds up: the unclamped mean exceeded max.
@example(values=[349525.4510914801] * 3)
def test_summary_orderings_hold(values):
    """Property: min <= p25 <= median <= p75 <= max, mean within range."""
    stats = SummaryStats.from_values(values)
    assert stats.minimum <= stats.p25 <= stats.median <= stats.p75 <= stats.maximum
    assert stats.minimum <= stats.mean <= stats.maximum
    assert stats.stdev >= 0


# -- analysis helpers -------------------------------------------------------------


def test_summarize_distribution():
    dist = SummaryStats.from_values([10, 20, 30, 40])
    assert dist.count == 4
    assert dist.median == 25
    assert dist.spread() == pytest.approx(dist.p75 - dist.p25)


def test_relative_error():
    assert relative_error(110, 100) == pytest.approx(0.1)
    assert relative_error(0, 0) == 0.0
    assert relative_error(1, 0) == float("inf")
    assert relative_error(90, 100) == pytest.approx(0.1)
