"""Allocation sanitizer: the measurement and the pin-diff semantics.

The enforcement point — golden measured under tracemalloc and diffed
against the committed ``SCENARIO_PINS.json`` — is the ``alloc`` cell of
the matrix gate in ``tests/test_check.py``; ``test_alloccheck_gate_golden``
checks that cell's report carries the pinned limit.
"""

import json
from pathlib import Path

import pytest

from repro.lint import check, scenarios
from repro.lint.alloccheck import AlloccheckResult, AllocSite, measure
from repro.lint.check import DEFAULT_PINS_PATH, PinError, compare_alloc

REPO_ROOT = Path(__file__).parent.parent


def _diffed(blocks_per_event: float, pinned: float = 9.0) -> AlloccheckResult:
    result = AlloccheckResult(
        scenario="golden",
        events=2000,
        total_blocks=int(blocks_per_event * 2000),
        total_kb=1000.0,
        peak_kb=1200.0,
        blocks_per_event=blocks_per_event,
        top_sites=[AllocSite(path="repro/x.py", line=1, count=5, size_kb=1.0)],
    )
    compare_alloc(result, {"alloc": {"blocks_per_event": pinned}}, 0.25)
    return result


def _pins(tmp_path, entry: dict, name: str = "golden") -> str:
    path = tmp_path / "pins.json"
    path.write_text(
        json.dumps({"tolerance": 0.25, "scenarios": {name: {"seed": 7, **entry}}})
    )
    return str(path)


# ----------------------------------------------------------------------
# Pin diff semantics (no experiment run needed)
# ----------------------------------------------------------------------


def test_within_budget_is_clean():
    result = _diffed(10.0)
    assert result.clean
    assert "OK" in result.summary()


def test_over_budget_is_a_violation():
    result = _diffed(12.0)
    assert not result.clean
    assert "REGRESSION" in result.summary()
    assert "exceeds budget" in result.violations[0]


def test_budget_boundary_is_inclusive():
    """Exactly at budget * (1 + tolerance) still passes."""
    assert _diffed(11.25).clean


def test_scenario_mismatch_is_a_violation(tmp_path):
    """An ``alloc`` pin under a scenario the registry does not gate by
    ``alloc`` is rejected, not ignored."""
    path = _pins(tmp_path, {"alloc": {"blocks_per_event": 9.0}}, name="hub4")
    with pytest.raises(PinError, match="'hub4' has pin key 'alloc'"):
        check.run(["stall"], ["hub4"], pins_path=path)


def test_unusable_budget_is_a_violation(tmp_path):
    path = _pins(tmp_path, {"alloc": {}})
    with pytest.raises(PinError, match="'golden' has a malformed 'alloc' pin"):
        check.run(["alloc"], ["golden"], pins_path=path)


def test_budget_document_roundtrip():
    """A measurement re-pinned at its own (rounded) figure is clean."""
    assert _diffed(10.004, pinned=round(10.004, 2)).clean


def test_unknown_scenario_raises():
    """``alloc`` gates golden only; asking for another scenario's cell
    is an error, not an empty pass."""
    with pytest.raises(ValueError, match="gated by"):
        check.run(["alloc"], ["hub4"])


# ----------------------------------------------------------------------
# Measurement + the harness path
# ----------------------------------------------------------------------


def test_default_budget_path_is_repo_root():
    assert DEFAULT_PINS_PATH == REPO_ROOT / "SCENARIO_PINS.json"


def test_write_budget_pins_a_diffable_file(tmp_path):
    path = tmp_path / "pins.json"
    (pinned,) = check.run(
        ["alloc"], ["golden"], pins_path=str(path), write_pins=True
    )
    document = json.loads(path.read_text())
    assert document["scenarios"]["golden"]["alloc"] == {
        "blocks_per_event": round(pinned.blocks_per_event, 2)
    }

    (checked,) = check.run(["alloc"], ["golden"], pins_path=str(path))
    assert checked.clean, checked.summary()


def test_alloccheck_gate_golden():
    """The committed pin is loaded and reported: 19.85 blocks/event at
    25 % tolerance.  If this fails after an intentional change (new
    feature allocating per-event state), audit the top call sites in the
    failure summary, then re-pin with ``check alloc --write-pins``."""
    (result,) = check.run(["alloc"], ["golden"])
    assert result.clean, result.summary()
    pins = json.loads(DEFAULT_PINS_PATH.read_text())
    pinned = pins["scenarios"]["golden"]["alloc"]["blocks_per_event"]
    assert result.limit == pinned * (1 + pins["tolerance"])
    assert "within budget" in result.summary()


def test_measure_reports_sites_and_normalises():
    result = measure("golden", scenarios.lookup("golden").build(7))
    assert result.total_blocks > 0
    assert result.blocks_per_event == result.total_blocks / result.events
    assert len(result.top_sites) > 0
    # Sites are ranked by live-block count, descending.
    counts = [site.count for site in result.top_sites]
    assert counts == sorted(counts, reverse=True)
    # Paths are shortened to the in-repo tail.
    assert any(site.path.startswith("repro/") for site in result.top_sites)
