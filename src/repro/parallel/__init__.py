"""Parallel experiment execution: process fan-out with serial bytes.

The executor (:func:`run_points`) fans sweep points across worker
processes and merges their reports **ordered by point index**, so the
merged document is byte-identical to a serial run of the same points —
parallelism changes wall-clock, never results.  Completed points are
cached on disk (:class:`ResultCache`) keyed by a content hash of the
config, the package version and the report schema, making interrupted
sweeps resumable and repeat runs instant.

Built entirely on the serializable experiment API: configs cross the
process boundary as :meth:`~repro.framework.ExperimentConfig.to_dict`
wire JSON and reports come back as
:meth:`~repro.framework.ExperimentReport.to_json` documents.

The sweep front end sits one level up: ``repro.sweep(...,
workers=N, cache_dir=...)`` (and :func:`repro.framework.sweep.run_seeded`)
fans a parameter grid out through :func:`run_points`.
"""

from repro.parallel.cache import ResultCache, cache_key
from repro.parallel.executor import PointResult, SweepRun, run_points
from repro.parallel.worker import execute_payload

__all__ = [
    "PointResult",
    "ResultCache",
    "SweepRun",
    "cache_key",
    "execute_payload",
    "run_points",
]
