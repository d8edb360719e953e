"""Execution reports — the tool's output artifact.

One :class:`ExperimentReport` per run: the configuration echo, window
metrics, completion status, the 13-step timeline, error counts and RPC
accounting.  ``summary()`` renders a human-readable report.

The JSON form (``to_dict``/``to_json``) is a **versioned wire format**:
``schema_version`` names the schema, and :meth:`from_dict`/:meth:`from_json`
load a document back into a report whose re-serialization is byte-identical
to the original.  This is what lets the parallel executor cache completed
sweep points on disk and ship results across process boundaries without
any loss (`repro.parallel`).  Two in-memory structures are deliberately
*not* part of the wire format: per-transfer submission records
(``workload.submissions``) and the optional host-side ``journal`` text.

This module only orders the document.  Every section's shape (its
dataclass fields) and summary lines live with the class that collects it
(:mod:`repro.framework.config`, :mod:`~repro.framework.metrics`,
:mod:`~repro.framework.processor`, :mod:`~repro.framework.workload`), and
one codec (:func:`repro.errors.to_wire` / :func:`~repro.errors.from_wire`)
writes and reads them all; ``_SECTIONS`` below is the one table the dump,
the load and the text summary walk.
"""

from __future__ import annotations

import json
from dataclasses import field
from typing import Any, Optional, get_type_hints

from repro.errors import SchemaError, from_wire, to_wire
from repro.framework.config import ExperimentConfig
from repro.framework.metrics import (
    FaultReport,
    FleetRow,
    FrameReport,
    GasMetrics,
    PopulationReport,
    RpcBusyMetrics,
    TraceReport,
    WindowMetrics,
)
from repro.framework.processor import TransferTimelineReport
from repro.framework.workload import WorkloadStats
from repro.sim.records import dataclass


def _latency_lines(latency: float) -> list[str]:
    return [
        f"completion latency: {latency:.1f} s until every requested "
        f"transfer settled"
    ]


def _error_lines(errors: dict[str, int]) -> list[str]:
    if not errors:
        return []
    rendered = ", ".join(f"{k}={v}" for k, v in sorted(errors.items()))
    return [f"errors            : {rendered}"]


def _fleet_lines(rows: list[FleetRow]) -> list[str]:
    return [line for row in rows for line in row.summary_lines()]


#: The report document after ``schema_version``, in dump order.  Per wire
#: key: the report attribute it carries (None: restated from the window by
#: :meth:`WindowMetrics.derived_sections`) and its owner — the section
#: class defining its shape and summary lines, or, for a plain value or a
#: list, the function rendering its summary lines (None when it has none).
#: Every value is loaded against its attribute's annotation.
_SECTIONS = (
    ("config", "config", ExperimentConfig),
    ("throughput", None, None),
    ("submission", "workload", WorkloadStats),
    ("completion", None, None),
    ("counts", None, None),
    ("window", "window", WindowMetrics),
    ("block_interval_mean", None, None),
    ("completion_latency", "completion_latency", _latency_lines),
    ("completion_curve", "completion_curve", None),
    ("errors", "errors", _error_lines),
    ("gas", "gas", GasMetrics),
    ("rpc", "rpc", RpcBusyMetrics),
    ("timeline", "timeline", TransferTimelineReport),
    ("faults", "faults", FaultReport),
    ("fleet", "fleet", _fleet_lines),
    ("trace", "trace", TraceReport),
    ("population", "population", PopulationReport),
    ("frames", "frames", FrameReport),
    ("sim_end_time", "sim_end_time", None),
)


@dataclass
class ExperimentReport:
    """One experiment's full outcome (see module docstring)."""

    #: Version of the JSON wire schema ``to_dict`` emits.  Bump whenever a
    #: key is added, removed or changes meaning.  ``from_dict`` reads this
    #: version only (the parallel cache keys on it, so an older cached
    #: point is a miss, not a load).
    SCHEMA_VERSION = 7

    config: ExperimentConfig
    window: WindowMetrics
    workload: WorkloadStats
    timeline: Optional[TransferTimelineReport]
    gas: GasMetrics
    rpc: RpcBusyMetrics
    errors: dict[str, int] = field(default_factory=dict)
    completion_curve: list[tuple[float, int]] = field(default_factory=list)
    #: Time from workload start until all requested transfers completed
    #: (only set when run_to_completion was requested and reached).
    completion_latency: Optional[float] = None
    #: Fault-injection accounting (None when no schedule was active; the
    #: key is always present in ``to_dict`` for schema stability).
    faults: Optional[FaultReport] = None
    #: Per-edge relayer-fleet accounting rows
    #: (:func:`repro.framework.metrics.collect_fleet_metrics`).  None for
    #: chain-only runs (key always present for schema stability).
    fleet: Optional[list[FleetRow]] = None
    #: Per-packet latency decomposition (None unless ``config.tracing``;
    #: the key is always present in ``to_dict`` for schema stability).
    trace: Optional[TraceReport] = None
    #: Generated-workload accounting — per-percentile sender activity,
    #: adversarial counters, mempool admission/eviction
    #: (:func:`repro.framework.metrics.collect_population_metrics`); None
    #: unless the run used the workload engine.
    population: Optional[PopulationReport] = None
    #: §V WebSocket frame accounting
    #: (:func:`repro.framework.metrics.collect_frame_metrics`).
    frames: Optional[FrameReport] = None
    sim_end_time: float = 0.0
    #: Canonical journal text (``render_journal``), captured only when
    #: ``run_experiment(..., capture_journal=True)`` asked for it.  A
    #: host-side determinism artifact — never serialized.
    journal: Optional[str] = None
    #: The live tracer with the raw span/event records (set when the run
    #: was traced) — host-side only, never serialized, like the journal.
    tracer: Optional[Any] = None

    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        derived = self.window.derived_sections()
        document: dict[str, Any] = {"schema_version": self.SCHEMA_VERSION}
        for key, attribute, _owner in _SECTIONS:
            document[key] = (
                derived[key]
                if attribute is None
                else to_wire(getattr(self, attribute))
            )
        return document

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    # -- wire-format loaders -------------------------------------------

    @classmethod
    def from_dict(cls, data: Any) -> "ExperimentReport":
        """Load a report document of the current ``SCHEMA_VERSION``.

        A loaded report re-serializes byte-identically: the raw sections
        (``config``, ``window``, ``timeline.steps``, ...) are restored and
        every derived section is recomputed from them.  Unknown, missing or
        wrongly-typed keys — at the top level or inside any section — and
        any other schema version raise :class:`SchemaError`.
        """
        if not isinstance(data, dict):
            raise SchemaError(
                f"report document must be a dict, got {type(data).__name__}"
            )
        version = data.get("schema_version")
        if version != cls.SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported report schema_version {version!r} "
                f"(this library reads version {cls.SCHEMA_VERSION})"
            )
        expected = ["schema_version"] + [key for key, _, _ in _SECTIONS]
        unknown = sorted(set(data) - set(expected))
        if unknown:
            raise SchemaError(
                f"unknown key(s) {', '.join(unknown)} in report document "
                f"(known keys: {', '.join(expected)})"
            )
        missing = sorted(set(expected) - set(data))
        if missing:
            raise SchemaError(
                f"report document is missing key(s): {', '.join(missing)}"
            )
        hints = get_type_hints(cls)
        loaded: dict[str, Any] = {}
        for key, attribute, _owner in _SECTIONS:
            if attribute == "config":
                # The one partial document: absent keys take defaults.
                loaded[attribute] = ExperimentConfig.from_dict(data[key])
            elif attribute is not None:
                loaded[attribute] = from_wire(
                    hints[attribute], data[key], f"{key} section"
                )
        report = cls(**loaded)
        for key, section in report.window.derived_sections().items():
            if data[key] != section:
                raise SchemaError(
                    f"{key} section does not restate the document's own "
                    f"window section (expected {section!r})"
                )
        return report

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        """Load a report from :meth:`to_json` output (see :meth:`from_dict`)."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SchemaError(f"report document is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def write(self, directory: str, name: str = "experiment") -> "tuple[str, str]":
        """Write the execution report files the tool produces: a JSON data
        file and a human-readable summary.  Returns both paths."""
        import os

        os.makedirs(directory, exist_ok=True)
        json_path = os.path.join(directory, f"{name}.json")
        text_path = os.path.join(directory, f"{name}.txt")
        with open(json_path, "w") as handle:
            handle.write(self.to_json())
        with open(text_path, "w") as handle:
            handle.write(self.summary() + "\n")
        return json_path, text_path

    # ------------------------------------------------------------------

    def summary(self) -> str:
        lines = ["=== Cross-chain experiment report ==="]
        for _key, attribute, owner in _SECTIONS:
            value = None if attribute is None else getattr(self, attribute)
            if value is None or owner is None:
                continue
            render = owner.summary_lines if isinstance(owner, type) else owner
            lines += render(value)
        return "\n".join(lines)
