"""Parameter sweeps: repeated experiments and distribution summaries.

The paper presents most results as distributions over 20 executions per
configuration (the violins of Fig. 6, the error bands of Fig. 8).  This
module provides the corresponding harness: run a configuration across
seeds, extract a metric from each report, and summarise.

Every sweep executes through the parallel executor
(:func:`repro.parallel.run_points`): ``workers=N`` fans the individual
(configuration, seed) points across worker processes and ``cache_dir``
reuses completed points across invocations.  Both knobs affect only
wall-clock — the executor merges results in point order, so sweep
outcomes are byte-for-byte independent of worker count and cache state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

from repro.framework.config import ExperimentConfig
from repro.framework.report import ExperimentReport
from repro.sim.monitor import SummaryStats

#: A metric extractor: report -> value.
Metric = Callable[[ExperimentReport], float]

#: Common extractors, by name.
METRICS: dict[str, Metric] = {
    "chain_tfps": lambda r: r.window.chain_throughput_tfps,
    "transfer_tfps": lambda r: r.window.transfer_throughput_tfps,
    "completed_fraction": lambda r: r.window.completion.as_fractions()["completed"],
    "block_interval": lambda r: (
        r.window.block_interval_mean if r.window.block_intervals_a else float("nan")
    ),
    "completion_latency": lambda r: (
        r.completion_latency if r.completion_latency is not None else float("nan")
    ),
    "pull_fraction": lambda r: r.rpc.pull_fraction,
}


@dataclass(frozen=True)
class SweepPoint:
    """One configuration's repeated-run outcome."""

    config: ExperimentConfig
    values: tuple[float, ...]
    summary: SummaryStats


def _execute(
    configs: Sequence[ExperimentConfig],
    workers: int,
    cache_dir: Optional[str],
) -> list[ExperimentReport]:
    from repro.parallel import run_points

    return run_points(configs, workers=workers, cache_dir=cache_dir).reports()


def run_seeded(
    config: ExperimentConfig,
    metric: Metric | str,
    seeds: Sequence[int],
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> SweepPoint:
    """Run ``config`` once per seed and summarise the metric."""
    extract = METRICS[metric] if isinstance(metric, str) else metric
    reports = _execute(
        [replace(config, seed=seed) for seed in seeds], workers, cache_dir
    )
    values = [extract(report) for report in reports]
    return SweepPoint(
        config=config,
        values=tuple(values),
        summary=SummaryStats.from_values(values),
    )


def sweep(
    base: ExperimentConfig,
    parameter: str,
    values: Iterable,
    metric: Metric | str,
    seeds: Sequence[int] = (1,),
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> dict:
    """Vary one config field over ``values``; returns value -> SweepPoint.

    This is the shape of every throughput figure in the paper: a parameter
    on the x-axis (input rate), a metric distribution on the y-axis.  The
    whole (value x seed) grid is submitted to the executor as one flat
    point list, so ``workers=N`` parallelises across parameter values
    *and* seeds at once.
    """
    extract = METRICS[metric] if isinstance(metric, str) else metric
    value_list = list(values)
    grid = [
        replace(base, **{parameter: value}, seed=seed)
        for value in value_list
        for seed in seeds
    ]
    reports = _execute(grid, workers, cache_dir)

    points = {}
    per_value = len(seeds)
    for position, value in enumerate(value_list):
        config = replace(base, **{parameter: value})
        chunk = reports[position * per_value : (position + 1) * per_value]
        metric_values = [extract(report) for report in chunk]
        points[value] = SweepPoint(
            config=config,
            values=tuple(metric_values),
            summary=SummaryStats.from_values(metric_values),
        )
    return points
