"""The ``repro check`` harness: the registry matrix gate and the pin file.

``test_matrix_cell_is_clean`` is THE enforcement point for every dynamic
gate: each ``(check, scenario)`` cell of :mod:`repro.lint.scenarios` runs
against the committed ``SCENARIO_PINS.json``, so a moved report byte, a
scheduling race, an allocation regression, a deadlock, a leaked waiter or
an unbounded queue anywhere in the stack fails the ordinary pytest run.
The pin-file tests make sure a pin the harness cannot use is an error
naming the scenario, never a silent pass.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.lint import check, scenarios
from repro.lint.check import DEFAULT_PINS_PATH, PinError
from repro.lint.check import main as check_cli


@pytest.mark.parametrize("check_name, scenario", scenarios.matrix())
def test_matrix_cell_is_clean(check_name, scenario):
    (result,) = check.run([check_name], [scenario])
    assert result.clean, result.summary()


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------


def test_matrix_shape():
    cells = scenarios.matrix()
    per_check = {
        name: sum(1 for check_name, _ in cells if check_name == name)
        for name in scenarios.CHECKS
    }
    assert per_check == {"replay": 8, "sched": 7, "alloc": 1, "stall": 7}
    assert set(scenarios.CHECKS) == set(check._RUN)
    assert scenarios.matrix(["stall"], ["hub4"]) == [("stall", "hub4")]
    # A selection narrows the matrix; it never adds an ungated cell.
    assert scenarios.matrix(["replay", "alloc"], ["golden", "fig12"]) == [
        ("replay", "golden"), ("replay", "fig12"), ("alloc", "golden"),
    ]


def test_unknown_names_and_empty_selections_raise():
    with pytest.raises(ValueError, match="unknown check 'nope'.*replay"):
        scenarios.matrix(["nope"])
    with pytest.raises(ValueError, match="unknown scenario 'nope'.*golden"):
        scenarios.matrix([], ["nope"])
    with pytest.raises(ValueError, match="gated by"):
        scenarios.matrix(["stall"], ["fig12"])
    # alloc is a measurement: it is never re-pinned in passing.
    with pytest.raises(ValueError, match="needs the checks to re-pin named"):
        check.run(write_pins=True)


# ----------------------------------------------------------------------
# The pin file
# ----------------------------------------------------------------------


@pytest.fixture
def pins(tmp_path):
    """A scratch copy of the committed pin file: (path, edit)."""
    path = tmp_path / "pins.json"
    shutil.copy(DEFAULT_PINS_PATH, path)

    def edit(mutate):
        document = json.loads(path.read_text())
        mutate(document)
        path.write_text(json.dumps(document))

    return str(path), edit


def test_unknown_scenario_key_is_an_error(pins):
    path, edit = pins
    edit(lambda d: d["scenarios"].update({"golden-typo": {"seed": 7}}))
    with pytest.raises(PinError, match="unknown scenario 'golden-typo'"):
        check.run(["replay"], ["golden"], pins_path=path)


def test_unknown_check_key_is_an_error(pins):
    path, edit = pins
    edit(lambda d: d["scenarios"]["line3"].update({"sched": {}}))
    with pytest.raises(PinError, match="'line3' has pin key 'sched'"):
        check.run(["replay"], ["golden"], pins_path=path)


@pytest.mark.parametrize(
    "check_name, key", [("replay", "report_sha256"), ("stall", "stall")]
)
def test_missing_pin_for_a_gated_check_is_an_error(pins, check_name, key):
    """``skewed`` ran unpinned for a release because a missing entry fell
    back to the unbudgeted floor; now the cell refuses to run."""
    path, edit = pins
    edit(lambda d: d["scenarios"]["skewed"].pop(key))
    with pytest.raises(PinError, match=f"'skewed' is gated by '{check_name}'"):
        check.run([check_name], ["skewed"], pins_path=path)


def test_unreadable_pin_file_is_an_error(tmp_path):
    with pytest.raises(PinError, match="cannot read pin file"):
        check.run(["replay"], ["golden"], pins_path=str(tmp_path / "absent.json"))


def test_flipped_report_sha_fails_replay(pins, monkeypatch, capsys):
    path, edit = pins

    def flip(document):
        entry = document["scenarios"]["golden"]
        sha = entry["report_sha256"]
        entry["report_sha256"] = ("0" if sha[0] != "0" else "1") + sha[1:]

    edit(flip)
    (result,) = check.run(["replay"], ["golden"], pins_path=path)
    assert not result.clean
    assert "replay[golden]" in result.summary()
    assert "report_sha256" in result.violations[0]

    monkeypatch.setattr(check, "DEFAULT_PINS_PATH", Path(path))
    assert check_cli(["replay", "--scenario", "golden"]) == 1
    assert "MOVED" in capsys.readouterr().out


def test_repinning_the_deterministic_pins_is_a_no_op(pins):
    """Pins are carried, not re-measured: writing the golden replay and
    stall cells over the committed file leaves it byte-identical."""
    path, _edit = pins
    check.run(["replay", "stall"], ["golden"], pins_path=path, write_pins=True)
    with open(path) as handle:
        assert handle.read() == DEFAULT_PINS_PATH.read_text()


# ----------------------------------------------------------------------
# The CLI
# ----------------------------------------------------------------------


def test_cli_runs_exactly_the_selected_cell(capsys):
    assert check_cli(["stall", "--scenario", "hub4"]) == 0
    out = capsys.readouterr().out
    assert out.count("check[") == 1
    assert out.startswith("stallcheck[hub4]")


def test_cli_reports_an_unusable_pin_file_as_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(check, "DEFAULT_PINS_PATH", tmp_path / "absent.json")
    assert check_cli(["replay", "--scenario", "golden"]) == 2
    assert "cannot read pin file" in capsys.readouterr().err
