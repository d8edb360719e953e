"""The benchmark's command line.

``python -m perf.run``
    all five workloads, each in its own fresh subprocess, one after
    another (never more than one busy process), traced; prints a summary
    and writes the combined result (``--out``, default
    ``perf/out/benchmark.json``).

``python -m perf.run --workload NAME --seed N --seconds S --trace 0|1``
    one workload in this process — the form ``BENCHMARK.json`` names.  The
    last line of standard output is the driver's JSON object: the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.

``python -m perf.run --compare A.json B.json``
    judge result set B against A (see :mod:`perf.compare`).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

from perf import OUT_DIR, REPO_ROOT
from perf import manifest as manifest_module
from perf.compare import compare
from perf.measure import fingerprint, measure
from perf.workloads import BY_NAME


def _kind(name: str) -> str:
    """Which clock or counter a per-layer metric reads."""
    if name.endswith(".calls") or name == "model.events":
        return "exact count"
    return "sim" if name.startswith("model.") else "host"


def render(result: dict[str, Any], manifest: dict[str, Any]) -> list[str]:
    """Every metric of one workload result by name, with its unit."""
    lines = [
        f"== {result['workload']} (seed {result['seed']}): {result['reps']} reps, "
        f"{result['failed_reps']} failed"
        + (", NOISY: wall_s IQR > 10 % of its median" if result["noisy"] else "")
        + " =="
    ]
    lines += [f"  FAILED {failure}" for failure in result["failures"]]
    if result["end_to_end"]:
        lines.append("  end to end (host seconds calibrated to the reference kernel, "
                     "untraced reps):")
        for name, spec in manifest_module.specs(manifest, "end_to_end").items():
            row = result["end_to_end"][name]
            lines.append(
                f"    {name:<38}{row['median']:>16.4f} {spec['unit']:<6}"
                f" q1 {row['q1']:.4f} q3 {row['q3']:.4f} n={row['n']}"
                f"  ({spec['better']} is better, bound {spec['bound']:.0%})"
            )
        raw = result["raw_wall_s"]
        lines.append(
            f"    {'raw wall_s (uncalibrated, not gated)':<38}{raw['median']:>16.4f} s     "
            f" q1 {raw['q1']:.4f} q3 {raw['q3']:.4f} n={raw['n']}"
        )
    for name, row in result["paper_reference"].items():
        lines.append(
            f"  paper reference {name}: sim {row['sim']:.4g} vs paper "
            f"{row['paper']:.4g} ({row['relative_error']:+.1%})"
        )
    if result["per_layer"]:
        lines.append("  per layer (traced reps):")
        for name, spec in manifest_module.specs(manifest, "per_layer").items():
            value = result["per_layer"][name]
            shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
            lines.append(f"    {name:<38}{shown} {spec['unit']:<6} [{_kind(name)}]")
    lines.append(f"  model.report_sha256 {result['report_sha256']}")
    return lines


def run_one(args: argparse.Namespace, manifest: dict[str, Any]) -> int:
    """One workload in this process; prints the driver's JSON line last."""
    seconds = args.seconds
    if seconds is None and args.reps is None:
        seconds = manifest["run_seconds"]
    result = measure(
        BY_NAME[args.workload],
        args.seed,
        seconds=seconds,
        reps=args.reps,
        trace=bool(args.trace),
    )
    print("\n".join(render(result, manifest)))
    if args.out is not None:
        _write_json(Path(args.out), result)
    if args.trace:
        section, values = "per_layer", result["per_layer"]
    else:
        section = "end_to_end"
        values = result["end_to_end"] and {
            name: row["median"] for name, row in result["end_to_end"].items()
        }
    if not values:
        print("no rep succeeded: nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed_reps"] == 0,
        "attempted": result["reps"],
        "failed": result["failed_reps"],
        "metrics": manifest_module.contract_metrics(manifest, section, values),
    }))
    return 0


def run_all(args: argparse.Namespace, manifest: dict[str, Any]) -> int:
    """Every workload, one fresh subprocess at a time; the combined result."""
    budget = (
        ["--reps", str(args.reps)]
        if args.reps is not None
        else ["--seconds", str(args.seconds or manifest["run_seconds"])]
    )
    results: dict[str, Any] = {}
    for spec in manifest["workloads"]:
        name = spec["name"]
        part = OUT_DIR / f"{name}.json"
        part.unlink(missing_ok=True)
        subprocess.run(
            [sys.executable, "-m", "perf.run", "--workload", name,
             "--seed", str(args.seed), "--trace", "1", "--out", str(part), *budget],
            cwd=REPO_ROOT,
        )
        if part.exists():
            with open(part) as handle:
                results[name] = json.load(handle)
    out = Path(args.out) if args.out is not None else OUT_DIR / "benchmark.json"
    _write_json(out, {
        "host": fingerprint(args.seed),
        "workloads": results,
        # This benchmark measures; a gain is claimed by a later change,
        # against this one, by the rule in perf/README.md.
        "claim": None,
    })
    complete = [
        results[spec["name"]]
        for spec in manifest["workloads"]
        if results.get(spec["name"], {}).get("per_layer")
    ]
    print()
    print(f"{'workload':<18}{'wall_s':>9}{'setup_s':>9}{'events/s':>10}"
          f"{'rss MB':>8}{'reps':>5}{'failed':>7}  leading layers")
    for result in complete:
        e2e = {k: v["median"] for k, v in result["end_to_end"].items()}
        shares = sorted(
            ((value, name[: -len(".share")])
             for name, value in result["per_layer"].items()
             if name.endswith(".share")),
            reverse=True,
        )
        leading = ", ".join(f"{name} {value:.0%}" for value, name in shares[:3])
        print(f"{result['workload']:<18}{e2e['wall_s']:>9.3f}{e2e['setup_s']:>9.3f}"
              f"{e2e['events_per_s']:>10.0f}{e2e['peak_rss_mb']:>8.1f}"
              f"{result['reps']:>5}{result['failed_reps']:>7}  {leading}"
              + ("  NOISY" if result["noisy"] else ""))
    print(f"wrote {out}")
    ok = len(complete) == len(manifest["workloads"]) and all(
        result["failed_reps"] == 0 for result in complete
    )
    return 0 if ok else 1


def _write_json(path: Path, document: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.run", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="varies the inputs: every transfer moves 1 + SEED "
                             "tokens (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="host seconds of untraced reps per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--reps", type=int,
                        help="measure exactly this many untraced reps instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 adds the traced reps and "
                             "reports the per-layer metrics")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result documents and exit")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.reps is not None:
        parser.error("give at most one of --seconds and --reps")
    if args.compare:
        documents = []
        for path in args.compare:
            with open(path) as handle:
                documents.append(json.load(handle))
        lines, passed = compare(*documents)
        print("\n".join(lines))
        return 0 if passed else 1
    manifest = manifest_module.load()
    if args.workload is not None:
        return run_one(args, manifest)
    return run_all(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
