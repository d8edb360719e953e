"""``python -m repro check`` — every dynamic gate over every named scenario.

One harness loops over the ``(check, scenario)`` matrix of
:mod:`repro.lint.scenarios`, builds each scenario's config at its pinned
seed, hands it to the check, and diffs what the check measured against
that scenario's entry in the one pin file, ``SCENARIO_PINS.json`` at the
repo root::

    {"tolerance": 0.25,
     "scenarios": {"golden": {"seed": 7,
                              "events": 2013, "report_sha256": "d773…",
                              "alloc": {"blocks_per_event": 19.85},
                              "stall": {"events": 2034,
                                        "high_water": {"<site>": 0}}}}}

The checks:

* ``replay`` — the run's kernel event count and the SHA-256 of its report
  JSON equal the pinned ones: the simulator's outputs held fixed.
* ``sched`` — :mod:`repro.lint.schedcheck`: fifo and lifo tie-break runs
  produce identical artifacts (nothing to pin).
* ``alloc`` — :mod:`repro.lint.alloccheck`: live blocks per event within
  ``pinned * (1 + tolerance)``.  A banded measurement, not a replay,
  which is why ``--write-pins`` re-pins only the checks it is given.
* ``stall`` — :mod:`repro.lint.stallcheck`: no deadlock, livelock,
  teardown residue or cyclic garbage (a hard zero, nothing pinned); the
  monitored run's event count equals the pinned one; each store's
  high-water mark within ``pinned * (1 + tolerance) + 2``; a pinned
  store site the run never created is a stale pin.

A scenario or pin key the registry does not know, or a gated check with
no pin, is an error — never a silent pass.

``paper`` runs on its own and only when named (``check paper
[--scenario ROW ...]``): the rows of :mod:`repro.lint.paper`, each held
to its declared expectation and to its line in EXPERIMENTS.md's
generated block, which ``--write-pins`` re-renders.

Exit status: 0 when every cell is clean, 1 when any cell reports a
violation, 2 on usage errors, an unusable pin file *and* crashes — so CI
can tell "the tree regressed" (1) from "the gate itself broke" (2).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from dataclasses import field
from pathlib import Path
from typing import Optional, Sequence

from repro.lint import alloccheck, paper, schedcheck, stallcheck
from repro.lint.scenarios import (
    CHECKS,
    SCENARIOS,
    PinError,
    SelectionError,
    lookup,
    matrix,
)
from repro.sim.records import dataclass

#: The pin file (src-layout: this file is ``<root>/src/repro/lint/check.py``).
DEFAULT_PINS_PATH = Path(__file__).resolve().parents[3] / "SCENARIO_PINS.json"

#: Seed a scenario is first pinned at; a pinned scenario keeps its own.
DEFAULT_SEED = 7

#: Relative headroom on banded pins, written into a new pin file, so
#: identical code re-measured under slightly different GC/cache
#: conditions stays clean.
DEFAULT_TOLERANCE = 0.25

#: Absolute slack on store high-water marks, so tiny pinned values (1-2
#: items) don't false-fail.
STALL_SLACK = 2

#: Stores whose creation site is *not* pinned fail only past this floor —
#: a brand-new queue is fine until it grows suspiciously deep.
UNBUDGETED_FLOOR = 256

#: Pin key of a scenario entry -> the check that must gate the scenario.
_PIN_KEYS = {
    "events": "replay",
    "report_sha256": "replay",
    "alloc": "alloc",
    "stall": "stall",
}


def _well_formed(key: str, value: object) -> bool:
    """Whether ``value`` has the shape the comparer of pin ``key`` reads."""
    if key == "events":
        return isinstance(value, int)
    if key == "report_sha256":
        return isinstance(value, str)
    if not isinstance(value, dict):
        return False
    if key == "alloc":
        return isinstance(value.get("blocks_per_event"), (int, float))
    marks = value.get("high_water")
    return (
        isinstance(value.get("events"), int)
        and isinstance(marks, dict)
        and all(isinstance(depth, int) for depth in marks.values())
    )


@dataclass
class ReplayResult:
    """Outcome of one scenario's replay against its pinned outputs."""

    scenario: str
    events: int
    report_sha256: str
    violations: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        header = (
            f"replay[{self.scenario}]: {self.events} events, "
            f"report sha256 {self.report_sha256}"
        )
        if self.clean:
            return header
        lines = [header, f"  MOVED — {len(self.violations)} violation(s):"]
        lines += [f"    {v}" for v in self.violations]
        lines.append(
            "    the simulation no longer reproduces its pinned output; "
            "re-pin with `python -m repro check replay --write-pins` only "
            "when the change was meant to move results"
        )
        return "\n".join(lines)


def budget_limit(pinned: float, tolerance: float, slack: float = 0) -> float:
    """The most a banded measurement may read against its pin; a
    measurement exactly at the limit is still within budget."""
    return pinned * (1.0 + tolerance) + slack


# ---------------------------------------------------------------------------
# The checks: how each runs, what --write-pins stores for its result, and
# the comparer that appends pin violations to the result.
# ---------------------------------------------------------------------------


def _replay(name: str, config) -> ReplayResult:
    from repro.framework.runner import _ExperimentEngine, _reset_run_caches

    # run_experiment() plus the event count its report does not carry.
    _reset_run_caches()
    engine = _ExperimentEngine(config)
    text = engine.run().to_json()
    return ReplayResult(
        scenario=name,
        events=engine.testbed.env.events_processed,
        report_sha256=hashlib.sha256(text.encode()).hexdigest(),
    )


def _compare_replay(result: ReplayResult, pin: dict, tolerance: float) -> None:
    for key in ("events", "report_sha256"):
        measured = getattr(result, key)
        if measured != pin[key]:
            result.violations.append(f"{key} {measured} != pinned {pin[key]}")


def compare_alloc(
    result: alloccheck.AlloccheckResult, pin: dict, tolerance: float
) -> None:
    """Diff a measurement against the ``alloc`` pin ``{"blocks_per_event"}``."""
    pinned = float(pin["alloc"]["blocks_per_event"])
    result.limit = budget_limit(pinned, tolerance)
    if result.blocks_per_event > result.limit:
        result.violations.append(
            f"blocks/event {result.blocks_per_event:.2f} exceeds budget "
            f"{pinned:.2f} (+{100 * tolerance:.0f}% tolerance = "
            f"{result.limit:.2f})"
        )


def compare_stall(
    result: stallcheck.StallcheckResult, pin: dict, tolerance: float
) -> None:
    """Diff a monitored run against the ``stall`` pin ``{"events",
    "high_water": {site: depth}}``."""
    pinned = pin["stall"]
    if result.events != pinned["events"]:
        result.violations.append(
            f"events {result.events} != pinned {pinned['events']}"
        )
    marks = pinned["high_water"]
    for site, depth in sorted(result.high_water.items()):
        if site in marks:
            limit = budget_limit(marks[site], tolerance, STALL_SLACK)
            if depth > limit:
                result.violations.append(
                    f"store backlog regression at {site}: high-water {depth} "
                    f"exceeds pinned {marks[site]} "
                    f"(+{100 * tolerance:.0f}% +{STALL_SLACK} = {int(limit)})"
                )
        elif depth > UNBUDGETED_FLOOR:
            result.violations.append(
                f"unbudgeted store at {site} reached high-water {depth} "
                f"(> floor {UNBUDGETED_FLOOR}); pin it with --write-pins "
                "after auditing"
            )
    for site in sorted(set(marks) - set(result.high_water)):
        result.violations.append(
            f"stale pin: no store was created at {site} in this run"
        )


_RUN = {
    "replay": _replay,
    "sched": schedcheck.check_config,
    "alloc": alloccheck.measure,
    "stall": stallcheck.run_monitored,
}
_PIN = {
    "replay": lambda r: {"events": r.events, "report_sha256": r.report_sha256},
    "sched": lambda r: {},
    "alloc": lambda r: {"alloc": {"blocks_per_event": round(r.blocks_per_event, 2)}},
    "stall": lambda r: {"stall": {"events": r.events, "high_water": r.high_water}},
}
_COMPARE = {
    "replay": _compare_replay,
    "alloc": compare_alloc,
    "stall": compare_stall,
}


# ---------------------------------------------------------------------------
# The pin file and the harness
# ---------------------------------------------------------------------------


def load_pins(path: Path) -> dict:
    """Read and validate the pin file against the scenario registry."""
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise PinError(f"{path}: cannot read pin file: {exc}") from None
    if (
        not isinstance(document, dict)
        or set(document) != {"tolerance", "scenarios"}
        or not isinstance(document.get("tolerance"), (int, float))
        or not isinstance(document.get("scenarios"), dict)
    ):
        raise PinError(
            f"{path}: expected {{'tolerance': number, 'scenarios': {{...}}}}"
        )
    for name, entry in document["scenarios"].items():
        if name not in SCENARIOS:
            raise PinError(
                f"{path}: pins unknown scenario {name!r} "
                f"(known: {', '.join(SCENARIOS)})"
            )
        if not isinstance(entry, dict) or not isinstance(entry.get("seed"), int):
            raise PinError(f"{path}: scenario {name!r} pins no integer 'seed'")
        gated = {k for k, c in _PIN_KEYS.items() if c in SCENARIOS[name].checks}
        for key in sorted(entry.keys() - {"seed"}):
            if key not in gated:
                raise PinError(
                    f"{path}: scenario {name!r} has pin key {key!r}, which no "
                    f"check gating it reads (allowed: seed, {', '.join(sorted(gated))})"
                )
            if not _well_formed(key, entry[key]):
                raise PinError(
                    f"{path}: scenario {name!r} has a malformed {key!r} pin"
                )
    return document


def run(
    checks: Sequence[str] = (),
    names: Sequence[str] = (),
    *,
    pins_path: Optional[str] = None,
    write_pins: bool = False,
) -> list:
    """Run the selected matrix cells (default: all) against the pin file
    and return one result per cell, each with ``clean`` and ``summary()``.

    With ``write_pins`` the selected cells are re-pinned from this run's
    measurements instead of diffed; every other pin is left as it was.
    The checks to re-pin must be named, so the ``alloc`` measurement is
    never re-pinned in passing.  ``paper`` runs alone, its ``names``
    being paper rows and ``pins_path`` the document of its block.
    """
    if "paper" in checks:
        if len(set(checks)) > 1:
            raise SelectionError(
                "`paper` runs on its own: `check paper [--scenario ROW ...]`"
            )
        return paper.run(names, path=pins_path, write=write_pins)
    if write_pins and not checks:
        raise SelectionError(
            "--write-pins needs the checks to re-pin named, e.g. "
            "`check replay stall --write-pins`"
        )
    cells = matrix(checks, names)
    path = Path(pins_path) if pins_path is not None else DEFAULT_PINS_PATH
    if write_pins and not path.exists():
        document = {"tolerance": DEFAULT_TOLERANCE, "scenarios": {}}
    else:
        document = load_pins(path)
    tolerance = float(document["tolerance"])
    pins = document["scenarios"]
    results = []
    for check, name in cells:
        if write_pins:
            pins.setdefault(name, {"seed": DEFAULT_SEED})
        elif any(
            key not in pins.get(name, ())
            for key, gate in _PIN_KEYS.items()
            if gate == check
        ):
            raise PinError(
                f"{path}: scenario {name!r} is gated by {check!r} but has no "
                f"pin for it; pin it with `python -m repro check {check} "
                f"--scenario {name} --write-pins`"
            )
        result = _RUN[check](name, lookup(name).build(pins[name]["seed"]))
        if write_pins:
            pins[name].update(_PIN[check](result))
        elif check in _COMPARE:
            _COMPARE[check](result, pins[name], tolerance)
        results.append(result)
    if write_pins:
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description=(
            "Run the dynamic gates (replay, sched, alloc, stall) over the "
            "named scenarios and diff them against SCENARIO_PINS.json; or, "
            "on its own, `paper`: every paper claim against its declared "
            "expectation and its line in EXPERIMENTS.md."
        ),
    )
    parser.add_argument(
        "checks",
        nargs="*",
        metavar="CHECK",
        help=(
            f"checks to run: {', '.join(CHECKS)} (default: all of them), "
            "or paper alone"
        ),
    )
    parser.add_argument(
        "--scenario",
        action="extend",
        nargs="+",
        default=[],
        metavar="NAME",
        help=(
            f"scenarios to run: {', '.join(SCENARIOS)} (default: all); "
            f"with paper, rows: {', '.join(paper.PAPER_TARGETS)}"
        ),
    )
    parser.add_argument(
        "--write-pins",
        action="store_true",
        help=(
            "re-pin the selected cells in SCENARIO_PINS.json (paper: their "
            "lines in EXPERIMENTS.md) from this run's measurements instead "
            "of diffing against them (the checks to re-pin must be named)"
        ),
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        results = run(args.checks, args.scenario, write_pins=args.write_pins)
    except SelectionError as exc:
        parser.error(str(exc))
    except PinError as exc:
        print(f"check: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("check crashed (not a violation)", file=sys.stderr)
        return 2
    for result in results:
        print(result.summary())
    if args.write_pins:
        path = paper.DEFAULT_PATH if "paper" in args.checks else DEFAULT_PINS_PATH
        print(f"pinned {len(results)} cell(s) to {path}")
    return 0 if all(result.clean for result in results) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via repro.__main__
    sys.exit(main())
