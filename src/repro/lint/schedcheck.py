"""Dynamic scheduler-race sanitizer (lint Tier B).

The static rules can prove a *pattern* is risky; they cannot prove the
absence of a scheduling race.  This module provides the dynamic
complement: run a scenario twice with the :class:`~repro.sim.core.Environment`
heap's same-time/same-priority tie-break reversed (``fifo`` vs ``lifo``)
and diff the artifacts.  The seq-number tie-break makes *any* event order
reproducible, including orders that silently depend on it — reversing the
tie-break is the cheapest way to make such hidden order dependencies
visible, the same trick thread sanitizers play with scheduler
perturbation.

Divergence semantics
--------------------

* **report** — the experiment report JSON must match *byte for byte*.
  Any difference (a timestamp, a count, a gas total) means simulation
  state evolved differently, i.e. a real race.
* **journal** — structured log records must match as a sorted multiset.
  Two events at the same instant may legitimately be *logged* in either
  order (their relative order is exactly what the tie-break decides), so
  same-time interleaving is presentation, not state.  A record that
  changes content or timestamp, appears, or disappears is a race.

A divergence is always a bug in the *simulation*, never in the checker:
some component let the heap's tie order leak into state — typically by
drawing from a shared sequential RNG stream inside concurrently-running
processes (fix: a :class:`~repro.sim.rng.KeyedStream`), or by iterating
an unordered container.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

#: How many individual differences to spell out per artifact.
MAX_DETAILS = 8


@dataclass(frozen=True)
class RunArtifacts:
    """What one run of a scenario produced, in comparable form."""

    report: str  #: canonical report JSON text
    journal: str  #: newline-separated structured log records


@dataclass(frozen=True)
class Divergence:
    """One observed fifo-vs-lifo difference."""

    kind: str  #: ``"report"`` or ``"journal"``
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class SchedcheckResult:
    """Outcome of one scenario's tie-break reversal probe."""

    scenario: str
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.clean:
            return (
                f"schedcheck[{self.scenario}]: OK — fifo and lifo tie-break "
                "runs produced identical artifacts"
            )
        lines = [
            f"schedcheck[{self.scenario}]: RACE — {len(self.divergences)} "
            "divergence(s) between fifo and lifo tie-break runs:"
        ]
        lines += [f"  {d}" for d in self.divergences]
        lines.append(
            "  a divergence means event-heap tie order leaked into simulation "
            "state (see DESIGN.md §6: how to read a schedcheck divergence)"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _json_diff_paths(a: object, b: object, path: str = "$") -> Iterable[str]:
    """Dotted paths where two parsed JSON documents differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}"
            if key not in a:
                yield f"{sub}: only in lifo run"
            elif key not in b:
                yield f"{sub}: only in fifo run"
            else:
                yield from _json_diff_paths(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path}: length {len(a)} != {len(b)}"
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from _json_diff_paths(x, y, f"{path}[{i}]")
    elif a != b:
        yield f"{path}: {a!r} != {b!r}"


def compare_runs(
    scenario: str, fifo: RunArtifacts, lifo: RunArtifacts
) -> SchedcheckResult:
    """Diff two tie-break runs of one scenario into a result."""
    result = SchedcheckResult(scenario)

    if fifo.report != lifo.report:
        try:
            paths = list(
                _json_diff_paths(json.loads(fifo.report), json.loads(lifo.report))
            )
        except ValueError:
            paths = ["report text differs (not JSON-parseable)"]
        shown = paths[:MAX_DETAILS]
        if len(paths) > len(shown):
            shown.append(f"... and {len(paths) - len(shown)} more")
        result.divergences += [Divergence("report", p) for p in shown]

    fifo_records = sorted(fifo.journal.splitlines())
    lifo_records = sorted(lifo.journal.splitlines())
    if fifo_records != lifo_records:
        only_fifo = _multiset_minus(fifo_records, lifo_records)
        only_lifo = _multiset_minus(lifo_records, fifo_records)
        details = [f"only in fifo run: {r}" for r in only_fifo[:MAX_DETAILS]]
        details += [f"only in lifo run: {r}" for r in only_lifo[:MAX_DETAILS]]
        extra = (len(only_fifo) + len(only_lifo)) - len(details)
        if extra > 0:
            details.append(f"... and {extra} more")
        if not details:  # same multiset sizes but impossible branch guard
            details = ["journal record multisets differ"]
        result.divergences += [Divergence("journal", d) for d in details]

    return result


def _multiset_minus(a: list[str], b: list[str]) -> list[str]:
    """Sorted multiset difference a - b."""
    counts: dict[str, int] = {}
    for record in b:
        counts[record] = counts.get(record, 0) + 1
    out = []
    for record in a:
        remaining = counts.get(record, 0)
        if remaining:
            counts[record] = remaining - 1
        else:
            out.append(record)
    return out


def check(
    scenario: str, run: Callable[[str], RunArtifacts]
) -> SchedcheckResult:
    """Run ``run`` under both tie-break policies and diff the artifacts.

    ``run`` receives the tie-break policy name (``"fifo"``/``"lifo"``) and
    returns the artifacts of one complete scenario execution.
    """
    return compare_runs(scenario, run("fifo"), run("lifo"))


# ---------------------------------------------------------------------------
# Experiment-backed runs
# ---------------------------------------------------------------------------


def experiment_artifacts(config) -> RunArtifacts:
    """Run one :class:`~repro.framework.ExperimentConfig` and collect its
    report JSON plus the concatenated relayer/driver journals."""
    from repro.framework import run_experiment

    report = run_experiment(config, capture_journal=True)
    document = report.to_dict()
    # The report echoes its config, which includes the tie-break policy —
    # the one input this checker *deliberately* varies.  Mask that echo so
    # the diff only sees simulation state, not the knob itself.
    document["config"]["tiebreak"] = "<varied-by-schedcheck>"
    report_text = json.dumps(document, indent=2)
    return RunArtifacts(report=report_text, journal=report.journal or "")


def check_config(scenario: str, config) -> SchedcheckResult:
    """Run ``config`` under both tie-break policies and diff the artifacts."""
    return check(
        scenario,
        lambda tiebreak: experiment_artifacts(replace(config, tiebreak=tiebreak)),
    )
