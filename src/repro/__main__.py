"""Command-line interface: run one cross-chain experiment and report.

Mirrors the paper's tool: the seven configurable parameters plus the
workload-shaping options, producing an execution report.

Examples::

    # Fig. 8's peak point
    python -m repro --rate 140 --blocks 50

    # Fig. 12's megabatch
    python -m repro --total 5000 --spread 1 --to-completion

    # Two uncoordinated relayers (Fig. 9)
    python -m repro --rate 160 --blocks 50 --relayers 2

    # Two relayers, each on its own channel (§IV-A)
    python -m repro --rate 160 --blocks 50 --relayers 2 --fleet-policy channel

    # Chain-only inclusion throughput (Fig. 6 / Table I)
    python -m repro --rate 3000 --blocks 15 --chain-only

    # Write report files
    python -m repro --rate 100 --blocks 20 --out results/

    # Static determinism analysis (see repro.lint)
    python -m repro lint src/repro --format json

    # Per-packet latency decomposition, also for ui.perfetto.dev (see repro.trace)
    python -m repro --total 200 --msgs-per-tx 1 --to-completion --perfetto trace.json

    # Dynamic gates over the named scenarios (see repro.lint.check)
    python -m repro check stall --scenario hub4
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.analysis import render_packet_waterfall, render_trace_table
from repro.framework import ExperimentConfig, FleetConfig, run_experiment
from repro.relayer.fleet import POLICY_NAMES
from repro.trace import write_perfetto

#: Every ExperimentConfig field and its default: a config-backed flag
#: stores into its field and leaves the default to it.
FIELD_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


class _FieldDefaultsFormatter(argparse.HelpFormatter):
    """Help quotes a config-backed flag's numeric default from its field."""

    def _get_help_string(self, action):
        default = FIELD_DEFAULTS.get(action.dest)
        if type(default) not in (int, float):
            return action.help
        return f"{action.help} (default {default:g})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Run a simulated IBC cross-chain performance experiment "
            "(reproduction of the DSN 2023 IBC performance study)."
        ),
        formatter_class=_FieldDefaultsFormatter,
        argument_default=argparse.SUPPRESS,  # a flag not given stays unset
    )
    # The tool's seven parameters.
    parser.add_argument(
        "--rate", dest="input_rate", type=float,
        help="input rate in transfers per second",
    )
    parser.add_argument(
        "--blocks", dest="measurement_blocks", type=int,
        help="measurement window in source-chain blocks",
    )
    parser.add_argument(
        "--rtt", dest="network_rtt", type=float,
        help="inter-machine round-trip latency in seconds",
    )
    parser.add_argument(
        "--relayers", dest="num_relayers", type=int,
        help="relayer instances per edge, coordinated by --fleet-policy",
    )
    parser.add_argument(
        "--msgs-per-tx", type=int,
        help="transfer messages per transaction, up to the Hermes maximum",
    )
    parser.add_argument(
        "--validators", dest="num_validators", type=int,
        help="validators per chain",
    )
    parser.add_argument(
        "--block-interval", type=float,
        help="minimum block interval in seconds",
    )
    # Workload shaping.
    parser.add_argument(
        "--total", dest="total_transfers", type=int,
        help="fixed-total mode: submit exactly this many transfers",
    )
    parser.add_argument(
        "--spread", dest="submission_blocks", type=int,
        help="spread a fixed total over this many blocks",
    )
    parser.add_argument(
        "--to-completion", dest="run_to_completion", action="store_true",
        help="run until every transfer settles (latency experiments)",
    )
    parser.add_argument(
        "--chain-only", action="store_true",
        help="measure inclusion only; deploy no relayer (Fig. 6 / Table I)",
    )
    parser.add_argument(
        "--clear-interval", type=int,
        help="relayer packet-clearing interval in blocks, 0 = off",
    )
    parser.add_argument(
        "--fleet-policy", dest="relayer", type=str, choices=POLICY_NAMES,
        help=(
            "EXTENSION: how the relayers coordinate — 'none' (paper "
            "baseline), 'shard' (static sequence partition), 'leader' "
            "(leader election with failover) or 'channel' (one channel "
            "per relayer)"
        ),
    )
    parser.add_argument(
        "--tracing", action="store_true",
        help="record per-packet lifecycle traces and print their latency table",
    )
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument(
        "--waterfall", type=int, default=24, metavar="N",
        help="packet rows in the traced waterfall (0 disables, default 24)",
    )
    parser.add_argument(
        "--perfetto", type=str, default=None, metavar="PATH",
        help="write a Chrome/Perfetto trace_event JSON file (implies --tracing)",
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="directory to write the report files into",
    )
    parser.add_argument(
        "--json", action="store_true", default=False,
        help="print the JSON report to stdout",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    given = {name: v for name, v in vars(args).items() if name in FIELD_DEFAULTS}
    if "relayer" in given:
        given["relayer"] = FleetConfig(policy=given["relayer"])
    if args.perfetto:
        given["tracing"] = True
    return ExperimentConfig(**given)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Subcommand: the determinism & simulation-correctness analyzer.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "check":
        # Subcommand: the dynamic gates over the scenario registry.
        from repro.lint.check import main as check_main

        return check_main(argv[1:])
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    report = run_experiment(config)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
        if report.trace is not None:
            print("\n" + render_trace_table(report.trace))
            if args.waterfall > 0:
                waterfall = render_packet_waterfall(report.trace, limit=args.waterfall)
                print("\n" + waterfall)
    if args.perfetto:
        count = write_perfetto(report.tracer, args.perfetto)
        print(
            f"\n{count} trace events written to {args.perfetto} "
            "(load at ui.perfetto.dev)",
            file=sys.stderr,
        )
    if args.out:
        json_path, text_path = report.write(args.out)
        print(f"\nreport written to {json_path} and {text_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
