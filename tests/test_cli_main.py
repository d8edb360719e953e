"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import json

import pytest

from repro.__main__ import FIELD_DEFAULTS, build_parser, config_from_args, main
from repro.framework import ExperimentConfig


def parse(argv):
    return build_parser().parse_args(argv)


def test_no_flags_is_the_default_config():
    assert config_from_args(parse([])) == ExperimentConfig()


def test_config_flags_carry_no_default_of_their_own():
    """Each config-backed flag stores into its field and leaves the default
    to it: a literal default here would be a second definition."""
    config_actions = [
        action for action in build_parser()._actions
        if action.dest in FIELD_DEFAULTS
    ]
    assert len(config_actions) == 15
    for action in config_actions:
        assert action.default is argparse.SUPPRESS, action.option_strings


def test_trace_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as usage:
        main(["trace", "--total", "20"])
    assert usage.value.code == 2
    assert "unrecognized arguments: trace" in capsys.readouterr().err


def test_perfetto_turns_tracing_on(tmp_path):
    assert not config_from_args(parse([])).tracing
    path = str(tmp_path / "trace.json")
    assert config_from_args(parse(["--perfetto", path])).tracing


def test_defaults_map_to_paper_deployment():
    config = config_from_args(parse([]))
    assert config.input_rate == 100
    assert config.measurement_blocks == 50
    assert config.network_rtt == 0.2
    assert config.num_relayers == 1
    assert config.msgs_per_tx == 100
    assert config.num_validators == 5
    assert config.block_interval == 5.0


def test_chain_only_disables_relayers():
    config = config_from_args(parse(["--chain-only", "--relayers", "2"]))
    assert config.chain_only and config.num_relayers == 0


def test_chain_only_flag_is_the_chain_only_config(capsys):
    """The CLI adds nothing to ``--chain-only``: the config's own rule
    deploys no relayer, so the report has no fleet."""
    assert config_from_args(parse(["--chain-only"])) == ExperimentConfig(
        chain_only=True
    )
    assert main(["--chain-only", "--rate", "250", "--blocks", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["fleet"] is None


def test_fixed_total_flags():
    config = config_from_args(
        parse(["--total", "5000", "--spread", "16", "--to-completion"])
    )
    assert config.total_transfers == 5000
    assert config.submission_blocks == 16
    assert config.run_to_completion


def test_extension_flags():
    config = config_from_args(
        parse(["--relayers", "2", "--fleet-policy", "shard"])
    )
    assert config.relayer.policy == "shard"
    config = config_from_args(
        parse(["--relayers", "2", "--fleet-policy", "leader"])
    )
    assert config.relayer.policy == "leader"
    config = config_from_args(
        parse(["--relayers", "2", "--fleet-policy", "channel"])
    )
    assert config.relayer.policy == "channel"
    # One spelling per option: the old shard shorthand and the old
    # per-relayer channel count are usage errors.
    for removed in (["--coordinate"], ["--channels", "2"]):
        with pytest.raises(SystemExit) as usage:
            parse(["--relayers", "2", *removed])
        assert usage.value.code == 2


def test_main_runs_and_prints_summary(capsys):
    assert main(["--rate", "20", "--blocks", "3", "--seed", "41"]) == 0
    out = capsys.readouterr().out
    assert "Cross-chain experiment report" in out


def test_main_json_output(capsys):
    assert main(["--rate", "20", "--blocks", "3", "--seed", "41", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["input_rate"] == 20


def test_main_writes_report_files(tmp_path, capsys):
    assert (
        main(
            [
                "--rate", "20", "--blocks", "3", "--seed", "41",
                "--out", str(tmp_path),
            ]
        )
        == 0
    )
    assert (tmp_path / "experiment.json").exists()
    assert (tmp_path / "experiment.txt").exists()

