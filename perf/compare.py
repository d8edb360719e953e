"""``python -m perf.run --compare A.json B.json`` — judge B against A.

For every (workload, end-to-end metric) pair: both medians, the relative
difference and PASS/FAIL against the metric's bound from
``BENCHMARK.json``.  Then every sim-side ``model.*`` value and exact
``.calls`` count that differs: a host-only change must leave them all
identical, and the same commit measured twice must show none.
"""

from __future__ import annotations

from typing import Any

from perf import manifest as manifest_module


def _worse_by(baseline: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is, as a share of ``baseline``."""
    change = (candidate - baseline) / baseline
    return change if better == "lower" else -change


def _exact_values(result: dict[str, Any]) -> dict[str, Any]:
    values = dict(result["model"])
    values["report_sha256"] = result["report_sha256"]
    for name, value in (result["per_layer"] or {}).items():
        if name.endswith(".calls"):
            values[name] = value
    return values


def compare(
    baseline: dict[str, Any], candidate: dict[str, Any]
) -> tuple[list[str], bool]:
    """Report lines and whether every pair passed."""
    manifest = manifest_module.load()
    specs = manifest_module.specs(manifest, "end_to_end")
    lines = [
        f"{'workload':<18}{'metric':<14}{'A median':>14}{'B median':>14}"
        f"{'B vs A':>9}{'bound':>7}  verdict"
    ]
    passed = True
    differing: list[str] = []
    for workload in (spec["name"] for spec in manifest["workloads"]):
        a = baseline["workloads"].get(workload)
        b = candidate["workloads"].get(workload)
        if a is None or b is None or not a["end_to_end"] or not b["end_to_end"]:
            lines.append(f"{workload:<18}missing from a result set{'':>33}  FAIL")
            passed = False
            continue
        noisy = " (noisy)" if a["noisy"] or b["noisy"] else ""
        for name, spec in specs.items():
            a_median = a["end_to_end"][name]["median"]
            b_median = b["end_to_end"][name]["median"]
            worse = _worse_by(a_median, b_median, spec["better"])
            ok = worse <= spec["bound"]
            passed = passed and ok
            lines.append(
                f"{workload:<18}{name:<14}{a_median:>14.4f}{b_median:>14.4f}"
                f"{(b_median - a_median) / a_median:>+9.1%}{spec['bound']:>7.0%}"
                f"  {'PASS' if ok else 'FAIL'}{noisy}"
            )
        ok = b["failed_reps"] <= a["failed_reps"]
        passed = passed and ok
        lines.append(
            f"{workload:<18}{'failed_reps':<14}{a['failed_reps']:>14}"
            f"{b['failed_reps']:>14}{'':>9}{'0':>7}  {'PASS' if ok else 'FAIL'}"
        )
        a_exact, b_exact = _exact_values(a), _exact_values(b)
        for name in sorted(set(a_exact) | set(b_exact)):
            if a_exact.get(name) != b_exact.get(name):
                differing.append(
                    f"  {workload} {name}: {a_exact.get(name)} -> {b_exact.get(name)}"
                )
    if differing:
        lines.append(f"{len(differing)} sim-side values or call counts differ:")
        lines.extend(differing)
    else:
        lines.append("sim-side values and call counts: all identical")
    lines.append("PASS" if passed else "FAIL")
    return lines, passed
