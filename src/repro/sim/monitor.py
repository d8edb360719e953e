"""Distribution summaries of repeated measurements.

The paper presents Fig. 6 as violins (median + quartiles over 20 runs):
:class:`SummaryStats` holds those numbers for one violin, and report
sections embed it.
"""

from __future__ import annotations

import math
from dataclasses import field
from typing import Iterable

from repro.sim.records import dataclass


@dataclass(slots=True)
class SummaryStats:
    """Distribution summary — the data behind one violin in Fig. 6.

    Report sections embed it (``wire`` metadata: the JSON key where it
    differs from the attribute, see :mod:`repro.errors`).
    """

    count: int
    mean: float
    stdev: float
    minimum: float = field(metadata={"wire": "min"})
    p25: float
    median: float
    p75: float
    maximum: float = field(metadata={"wire": "max"})

    def spread(self) -> float:
        """Interquartile range, the paper's variance indicator."""
        return self.p75 - self.p25

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "SummaryStats":
        vals = sorted(values)
        n = len(vals)
        if n == 0:
            nan = float("nan")
            return cls(0, nan, nan, nan, nan, nan, nan, nan)
        # Summation rounding can push the mean a few ulps outside the
        # observed range (e.g. three equal values); clamp it back so the
        # min <= mean <= max invariant holds exactly.
        mean = min(max(ordered_sum(vals) / n, vals[0]), vals[-1])
        var = ordered_sum((v - mean) ** 2 for v in vals) / n if n > 1 else 0.0
        return cls(
            count=n,
            mean=mean,
            stdev=math.sqrt(var),
            minimum=vals[0],
            p25=percentile(vals, 25.0),
            median=percentile(vals, 50.0),
            p75=percentile(vals, 75.0),
            maximum=vals[-1],
        )


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    if not sorted_values:
        return float("nan")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (pct / 100.0) * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return sorted_values[low]
    frac = rank - low
    return sorted_values[low] * (1 - frac) + sorted_values[high] * frac


def ordered_sum(values: Iterable[float]) -> float:
    """``sum(values)``, added strictly left to right.

    From CPython 3.12, ``sum()`` compensates float rounding (Neumaier
    summation), so the same floats can total a different last bit than
    on 3.10 and 3.11.  Every float total a report carries is taken here,
    so its bytes do not depend on the interpreter.
    """
    total = 0
    for value in values:
        total += value
    return total

