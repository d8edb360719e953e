"""On-disk result cache for completed sweep points.

Each completed point is one file whose name is a content hash of
everything that determines the result: the full config wire dict (seed
included), the package version and the report schema version.  Hitting
the cache therefore *is* the determinism guarantee — a hit returns the
byte-identical report JSON the simulation would have produced, and any
change to the config, the code version or the wire schema changes the
key and forces a fresh run.

Writes are atomic (temp file + ``os.replace``) and happen as each point
completes, so a killed sweep resumes from the finished points instead
of starting over.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from repro.errors import SchemaError
from repro.framework.config import ExperimentConfig
from repro.framework.report import ExperimentReport


def cache_key(config: ExperimentConfig) -> str:
    """Content hash identifying one point's result.

    Hashes the canonical (sorted-keys) JSON of the config wire dict
    together with ``repro.__version__`` and the report schema version —
    the three inputs that fully determine the report bytes.
    """
    import repro

    material = json.dumps(
        {
            "config": config.to_dict(),
            "version": repro.__version__,
            "schema_version": ExperimentReport.SCHEMA_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of ``<content-hash>.json`` report documents."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def path_for(self, config: ExperimentConfig) -> str:
        return os.path.join(self.directory, f"{cache_key(config)}.json")

    def load(self, config: ExperimentConfig) -> Optional[str]:
        """The cached report JSON for ``config``, or None on a miss.

        A cached document the loader rejects (:class:`SchemaError`: e.g. a
        truncated write from a pre-atomic-rename crash of a foreign tool)
        is treated as a miss and re-run rather than poisoning the sweep.
        Any other exception is a loader bug and propagates.
        """
        try:
            with open(self.path_for(config), "r") as handle:
                text = handle.read()
        except OSError:
            return None
        try:
            ExperimentReport.from_json(text)
        except SchemaError:
            return None
        return text

    def store(self, config: ExperimentConfig, report_json: str) -> str:
        """Atomically persist one completed point; returns the path."""
        path = self.path_for(config)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "w") as handle:
            handle.write(report_json)
        os.replace(tmp_path, path)
        return path
