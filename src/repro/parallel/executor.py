"""The parallel sweep executor: fan points out, merge results back.

Execution model
---------------

Every sweep point is serialized to its config wire JSON and executed by
:func:`repro.parallel.worker.execute_payload` — in this process when
``workers <= 1`` (or when only one point misses the cache), otherwise in
a ``spawn``-context :mod:`multiprocessing` pool.  Results stream back in
completion order, are cached to disk immediately (so an interrupted
sweep resumes from its finished points) and are merged **ordered by
point index**, which makes the merged document independent of worker
scheduling: serial and parallel runs of the same points are
byte-identical.

``spawn`` rather than ``fork``: workers rebuild the interpreter from
scratch, so no parent state (loaded modules, RNG positions, open
handles) can leak into a worker and perturb determinism — each point's
bytes depend only on its config wire JSON, same as the serial path.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.framework.config import ExperimentConfig
from repro.framework.report import ExperimentReport
from repro.parallel import hostclock
from repro.parallel.cache import ResultCache
from repro.parallel.worker import execute_payload
from repro.sim.records import dataclass


@dataclass(frozen=True)
class PointResult:
    """One sweep point's outcome, in wire form."""

    index: int
    config: ExperimentConfig
    report_json: str
    #: Host seconds spent computing the point (0.0 on a cache hit).
    wall_seconds: float
    cached: bool

    def report(self) -> ExperimentReport:
        return ExperimentReport.from_json(self.report_json)


@dataclass
class SweepRun:
    """A completed sweep: per-point results plus execution accounting.

    ``results`` is ordered by point index regardless of which worker
    finished first; ``points_run`` and ``cache_hits`` count how each
    point was served.
    """

    results: list[PointResult]
    workers: int
    wall_seconds: float
    points_run: int = 0
    cache_hits: int = 0

    def reports(self) -> list[ExperimentReport]:
        return [result.report() for result in self.results]

    def merged_document(self) -> list[dict]:
        """The merged wire document: report dicts ordered by point index."""
        return [json.loads(result.report_json) for result in self.results]

    def merged_json(self, indent: int = 2) -> str:
        """Canonical merged JSON — the byte-comparison artifact.

        Serial and parallel executions of the same point list produce
        identical text here; the equivalence tests diff exactly this.
        """
        return json.dumps(self.merged_document(), indent=indent)


def _ensure_child_import_path() -> None:
    """Make ``import repro`` work in spawn children.

    The repo is usually driven with ``PYTHONPATH=src`` rather than an
    installed package; a spawned interpreter only inherits the
    *environment*, not the parent's ``sys.path`` mutations, so the
    package's parent directory is prepended to ``PYTHONPATH`` here
    before the pool starts.
    """
    import repro

    parent = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH")
    parts = existing.split(os.pathsep) if existing else []
    if parent not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([parent] + parts)


def run_points(
    configs: Sequence[ExperimentConfig],
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> SweepRun:
    """Execute every config, possibly in parallel; merge deterministically.

    ``workers`` is the number of worker *processes*; ``<= 1`` runs
    serially in this process through the exact same worker function.
    With ``cache_dir`` set, previously completed points load from disk
    without re-simulating, and each newly computed point is persisted
    the moment it finishes.
    """
    if workers < 0:
        raise ReproError(f"workers must be >= 0, got {workers}")
    started = hostclock.now()
    cache = ResultCache(cache_dir) if cache_dir else None
    run = SweepRun(results=[], workers=max(1, workers), wall_seconds=0.0)
    by_index: dict[int, PointResult] = {}

    def finish(result: PointResult) -> None:
        by_index[result.index] = result
        if result.cached:
            run.cache_hits += 1
        else:
            run.points_run += 1
            if cache is not None:
                cache.store(result.config, result.report_json)

    payloads: list[tuple[int, str]] = []
    for index, config in enumerate(configs):
        cached_json = cache.load(config) if cache is not None else None
        if cached_json is not None:
            finish(
                PointResult(
                    index=index,
                    config=config,
                    report_json=cached_json,
                    wall_seconds=0.0,
                    cached=True,
                )
            )
        else:
            payloads.append((index, json.dumps(config.to_dict())))

    pool_size = min(workers, len(payloads))
    if pool_size > 1:
        _ensure_child_import_path()
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=pool_size) as pool:
            outcomes = pool.imap_unordered(execute_payload, payloads)
            for index, report_json, wall_seconds in outcomes:
                finish(
                    PointResult(
                        index=index,
                        config=configs[index],
                        report_json=report_json,
                        wall_seconds=wall_seconds,
                        cached=False,
                    )
                )
    else:
        for payload in payloads:
            index, report_json, wall_seconds = execute_payload(payload)
            finish(
                PointResult(
                    index=index,
                    config=configs[index],
                    report_json=report_json,
                    wall_seconds=wall_seconds,
                    cached=False,
                )
            )

    run.results = [by_index[index] for index in sorted(by_index)]
    run.wall_seconds = hostclock.elapsed_since(started)
    return run
