"""``BENCHMARK.json`` — the one place metric units, directions and bounds live."""

from __future__ import annotations

import json
from typing import Any

from perf import REPO_ROOT

MANIFEST_PATH = REPO_ROOT / "BENCHMARK.json"


def load() -> dict[str, Any]:
    with open(MANIFEST_PATH) as handle:
        return json.load(handle)


def specs(manifest: dict[str, Any], section: str) -> dict[str, dict[str, Any]]:
    """The ``end_to_end`` or ``per_layer`` metric specs, keyed by name."""
    return {spec["name"]: spec for spec in manifest[section]}


def contract_metrics(
    manifest: dict[str, Any], section: str, values: dict[str, float]
) -> dict[str, dict[str, Any]]:
    """``values`` in the driver's ``{"name": {"value", "unit"}}`` form.

    Raises when the measured names and the manifest's disagree: a metric
    added to one and not the other would make every driver run fail.
    """
    declared = specs(manifest, section)
    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise ValueError(
            f"BENCHMARK.json {section} mismatch: not measured {missing}, "
            f"not declared {extra}"
        )
    return {
        name: {"value": values[name], "unit": declared[name]["unit"]}
        for name in declared
    }
