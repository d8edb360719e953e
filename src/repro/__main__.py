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

    # Per-packet lifecycle tracing (see repro.trace)
    python -m repro trace --total 200 --perfetto trace.json

    # Dynamic gates over the named scenarios (see repro.lint.check)
    python -m repro check stall --scenario hub4
"""

from __future__ import annotations

import argparse
import sys

from repro.framework import ExperimentConfig, FleetConfig, run_experiment
from repro.relayer.fleet import POLICY_NAMES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Run a simulated IBC cross-chain performance experiment "
            "(reproduction of the DSN 2023 IBC performance study)."
        ),
    )
    # The tool's seven parameters.
    parser.add_argument(
        "--rate", type=float, default=100.0,
        help="input rate in transfers per second (default 100)",
    )
    parser.add_argument(
        "--blocks", type=int, default=50,
        help="measurement window in source-chain blocks (default 50)",
    )
    parser.add_argument(
        "--rtt", type=float, default=0.2,
        help="inter-machine round-trip latency in seconds (default 0.2)",
    )
    parser.add_argument(
        "--relayers", type=int, default=1,
        help="number of uncoordinated relayer instances (default 1)",
    )
    parser.add_argument(
        "--msgs-per-tx", type=int, default=100,
        help="transfer messages per transaction (default 100, Hermes max)",
    )
    parser.add_argument(
        "--validators", type=int, default=5,
        help="validators per chain (default 5)",
    )
    parser.add_argument(
        "--block-interval", type=float, default=5.0,
        help="minimum block interval in seconds (default 5)",
    )
    # Workload shaping.
    parser.add_argument(
        "--total", type=int, default=None,
        help="fixed-total mode: submit exactly this many transfers",
    )
    parser.add_argument(
        "--spread", type=int, default=1,
        help="spread a fixed total over this many blocks (default 1)",
    )
    parser.add_argument(
        "--to-completion", action="store_true",
        help="run until every transfer settles (latency experiments)",
    )
    parser.add_argument(
        "--chain-only", action="store_true",
        help="measure inclusion only; do not relay (Fig. 6 / Table I)",
    )
    parser.add_argument(
        "--clear-interval", type=int, default=0,
        help="relayer packet-clearing interval in blocks (0 = off)",
    )
    parser.add_argument(
        "--fleet-policy", type=str, default="none", choices=POLICY_NAMES,
        help=(
            "EXTENSION: how the relayers coordinate — 'none' (paper "
            "baseline), 'shard' (static sequence partition), 'leader' "
            "(leader election with failover) or 'channel' (one channel "
            "per relayer)"
        ),
    )
    parser.add_argument(
        "--tracing", action="store_true",
        help="record per-packet lifecycle traces (adds a 'trace' report section)",
    )
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    parser.add_argument(
        "--out", type=str, default=None,
        help="directory to write the report files into",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the JSON report to stdout"
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        input_rate=args.rate,
        measurement_blocks=args.blocks,
        network_rtt=args.rtt,
        num_relayers=0 if args.chain_only else args.relayers,
        msgs_per_tx=args.msgs_per_tx,
        num_validators=args.validators,
        block_interval=args.block_interval,
        total_transfers=args.total,
        submission_blocks=args.spread,
        run_to_completion=args.to_completion,
        chain_only=args.chain_only,
        clear_interval=args.clear_interval,
        relayer=FleetConfig(policy=args.fleet_policy),
        tracing=args.tracing,
        seed=args.seed,
    )


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
    if argv and argv[0] == "trace":
        # Subcommand: per-packet lifecycle tracing (see repro.trace).
        from repro.trace.cli import main as trace_main

        return trace_main(argv[1:])
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    report = run_experiment(config)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    if args.out:
        json_path, text_path = report.write(args.out)
        print(f"\nreport written to {json_path} and {text_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
