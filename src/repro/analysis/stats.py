"""Accuracy of a measured figure against the paper's."""

from __future__ import annotations


def relative_error(measured: float, expected: float) -> float:
    """|measured - expected| / expected (0 when both are 0)."""
    if expected == 0:
        return 0.0 if measured == 0 else float("inf")
    return abs(measured - expected) / abs(expected)
