"""``repro check paper``: the ``PAPER_TARGETS`` scoreboard and its block.

Every row runs in CI's ``paper`` job (minutes, serial).  Tier-1 holds
the table to EXPERIMENTS.md's generated block — one committed line per
row, nothing else — and evaluates the rows that finish in seconds: the
Fig. 12 run (two rows share it), the fleet grid plus its leader crash,
fault recovery and both ablations.
"""

import json
import shutil
from dataclasses import replace

import pytest

from repro.lint import paper
from repro.lint.check import DEFAULT_PINS_PATH
from repro.lint.check import main as check_cli

CHEAP = (
    "fig12",
    "fig12-steps",
    "fig9-fleet",
    "fault-recovery",
    "ablation-parallel-rpc",
    "ablation-clear-interval",
)


@pytest.fixture
def block(tmp_path, monkeypatch):
    """A scratch copy of EXPERIMENTS.md the CLI reads and writes."""
    path = tmp_path / "EXPERIMENTS.md"
    shutil.copy(paper.DEFAULT_PATH, path)
    monkeypatch.setattr(paper, "DEFAULT_PATH", path)
    return path


# ----------------------------------------------------------------------
# The table and the generated block
# ----------------------------------------------------------------------


def test_every_row_has_a_paper_value_and_a_committed_line():
    committed = paper.read_block(paper.DEFAULT_PATH)
    # Exactly the table's rows, in table order.
    assert list(committed) == list(paper.PAPER_TARGETS)
    for name, target in paper.PAPER_TARGETS.items():
        assert target.name == name
        assert target.paper.strip(), name
        assert committed[name].startswith(f"| `{name}` | {target.paper} | ")
        assert committed[name].endswith(f" | {target.expect} |")


def test_the_three_known_deviations_are_declared():
    assert [
        name
        for name, target in paper.PAPER_TARGETS.items()
        if target.expect == paper.DEVIATES
    ] == ["fig10-committed", "fig11-committed", "fig12-steps"]


def test_the_committed_block_is_what_the_renderer_writes(block):
    before = block.read_text()
    paper.write_block(block, paper.read_block(block))
    assert block.read_text() == before


def test_fig12_rows_run_the_registry_config_at_its_pinned_seed():
    pins = json.loads(DEFAULT_PINS_PATH.read_text())
    assert pins["scenarios"]["fig12"]["seed"] == paper.FIG12_SEED
    for name in ("fig12", "fig12-steps"):
        assert paper.PAPER_TARGETS[name].configs == {"fig12": paper.FIG12}
    assert paper.PAPER_TARGETS["fig13"].configs[1] == paper.FIG12


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cheap_reports():
    targets = paper.select(CHEAP)
    return {
        target.name: reports
        for target, reports in zip(targets, paper.row_reports(targets))
    }


@pytest.mark.parametrize("name", CHEAP)
def test_cheap_row_meets_its_declaration_and_its_line(cheap_reports, name):
    result = paper.evaluate(paper.PAPER_TARGETS[name], cheap_reports[name])
    assert result.clean, result.summary()
    assert result.line == paper.read_block(paper.DEFAULT_PATH)[name]


@pytest.mark.parametrize(
    "name, violation",
    [
        ("fig12", "outcome holds, declared deviates: the claim now holds"),
        ("fig12-steps", "outcome deviates, declared holds: the claim no longer holds"),
    ],
)
def test_a_flipped_expectation_is_a_violation(cheap_reports, name, violation):
    target = paper.PAPER_TARGETS[name]
    flipped = paper.DEVIATES if target.expect == paper.HOLDS else paper.HOLDS
    result = paper.evaluate(replace(target, expect=flipped), cheap_reports[name])
    assert result.violations == [violation]


def test_a_moved_line_fails_until_re_rendered(block, capsys):
    pristine = block.read_text()
    line = paper.read_block(block)["fault-recovery"]
    block.write_text(pristine.replace(line, line.replace("100 %", "99 %", 1)))
    assert check_cli(["paper", "--scenario", "fault-recovery"]) == 1
    assert "measured line moved" in capsys.readouterr().out
    assert check_cli(["paper", "--scenario", "fault-recovery", "--write-pins"]) == 0
    assert block.read_text() == pristine


def test_a_row_without_a_line_is_an_error(block, capsys):
    line = paper.read_block(block)["gas"]
    block.write_text(block.read_text().replace(line + "\n", ""))
    assert check_cli(["paper", "--scenario", "gas"]) == 2
    assert "no generated line for gas" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["paper", "stall"], ["paper", "--scenario", "nope"]],
)
def test_paper_runs_alone_and_only_known_rows(argv):
    with pytest.raises(SystemExit) as exc:
        check_cli(argv)
    assert exc.value.code == 2
