"""``python -m repro trace`` — run one traced experiment and report.

Runs a fixed-total, run-to-completion experiment with per-packet
lifecycle tracing enabled, then prints the latency decomposition
(:func:`repro.analysis.render_trace_table`) and a per-packet waterfall.
The default scenario is the conformance batch the test harness pins:
200 single-message transfers submitted in one block at the paper's
calibration, whose data-pull share lands in the paper's 60-80 % band.

Examples::

    # The conformance scenario, table + waterfall
    python -m repro trace

    # Fig. 12's megabatch shape, exported for ui.perfetto.dev
    python -m repro trace --total 5000 --msgs-per-tx 100 --perfetto out.json

    # Machine-readable decomposition only
    python -m repro trace --json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import to_wire
from repro.framework import ExperimentConfig, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Run one traced experiment and print its per-packet latency "
            "decomposition."
        ),
    )
    parser.add_argument(
        "--total", type=int, default=200,
        help="transfers to submit (fixed-total mode, default 200)",
    )
    parser.add_argument(
        "--msgs-per-tx", type=int, default=1,
        help="transfer messages per transaction (default 1)",
    )
    parser.add_argument(
        "--spread", type=int, default=1,
        help="spread the total over this many blocks (default 1)",
    )
    parser.add_argument(
        "--relayers", type=int, default=1,
        help="number of uncoordinated relayer instances (default 1)",
    )
    parser.add_argument(
        "--rtt", type=float, default=0.2,
        help="inter-machine round-trip latency in seconds (default 0.2)",
    )
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    parser.add_argument(
        "--waterfall", type=int, default=24,
        help="packet rows in the ASCII waterfall (0 disables, default 24)",
    )
    parser.add_argument(
        "--perfetto", type=str, default=None, metavar="PATH",
        help="write a Chrome/Perfetto trace_event JSON file",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the report's trace section as JSON instead of tables",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(
        total_transfers=args.total,
        msgs_per_tx=args.msgs_per_tx,
        submission_blocks=args.spread,
        num_relayers=args.relayers,
        network_rtt=args.rtt,
        run_to_completion=True,
        tracing=True,
        seed=args.seed,
    )
    report = run_experiment(config)
    trace = report.trace
    assert trace is not None  # tracing=True guarantees the section
    if args.json:
        print(json.dumps(to_wire(trace), indent=2))
    else:
        from repro.analysis import render_packet_waterfall, render_trace_table

        print(render_trace_table(trace))
        if args.waterfall > 0:
            print()
            print(render_packet_waterfall(trace, limit=args.waterfall))
    if args.perfetto:
        from repro.trace.export import write_perfetto

        count = write_perfetto(report.tracer, args.perfetto)
        print(
            f"\n{count} trace events written to {args.perfetto} "
            f"(load at ui.perfetto.dev)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
