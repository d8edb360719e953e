"""Measuring one workload: warm-up, untraced reps, then the traced reps.

Host time is what the simulator costs to run; sim time is what the
modelled testnet would take.  The DES is deterministic, so every sim-side
number and call count repeats exactly and only host seconds carry noise.
Every host second reported is calibrated against the reference kernel
(:mod:`perf.reference`); the raw median is kept beside it.  End-to-end
metrics come from the untraced reps alone.
"""

from __future__ import annotations

import cProfile
import contextlib
import dataclasses
import gc
import hashlib
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from perf import OUT_DIR, SRC_ROOT
from perf.layers import check_layer_map, ledger
from perf.reference import HostSpeed
from perf.spans import SpanRecorder
from perf.workloads import WORKLOADS, Workload
from repro.framework.runner import _ExperimentEngine, _reset_run_caches
from repro.parallel import hostclock

#: A rep that runs longer than this (host seconds) counts as failed.
REP_TIMEOUT_S = 120
#: Fresh interpreters timed for the import part of ``setup_s``, probing the
#: host after every :data:`IMPORT_GROUP` of them.
IMPORT_SAMPLES = 9
IMPORT_GROUP = 3
#: A time-limited run still measures at least this many reps.
MIN_REPS = 3
#: Raw ``wall_s`` interquartile range above this share of its median marks
#: the run noisy (a contended host, not a regression).
NOISY_IQR_SHARE = 0.10


@dataclass(frozen=True)
class Rep:
    """Host timings and the outcome of one experiment."""

    setup_s: float
    run_s: float
    serialize_s: float
    cpu_s: float
    events: int
    sha256: str
    #: Host slowness the timings were divided by (1.0 = still raw).
    host_factor: float = 1.0

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.serialize_s

    def calibrated(self, host_factor: float) -> "Rep":
        return dataclasses.replace(
            self,
            setup_s=self.setup_s / host_factor,
            run_s=self.run_s / host_factor,
            serialize_s=self.serialize_s / host_factor,
            cpu_s=self.cpu_s / host_factor,
            host_factor=host_factor,
        )


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_rep(
    workload: Workload, seed: int, profile=None
) -> tuple[Rep, dict[str, Any]]:
    """One experiment: engine construction (testbed + genesis), the event
    loop with its report, and serialisation — what ``run_experiment`` does
    for a user.  ``profile`` is enabled for exactly the timed region.
    Returns the raw timings and the report document (``to_dict``)."""
    config = workload.config(seed)
    _reset_run_caches()
    if profile is not None:
        profile.enable()
    cpu_start = _cpu_seconds()
    start = hostclock.now()
    engine = _ExperimentEngine(config)
    built = hostclock.now()
    report = engine.run()
    ran = hostclock.now()
    text = report.to_json()
    done = hostclock.now()
    cpu_s = _cpu_seconds() - cpu_start
    if profile is not None:
        profile.disable()
    rep = Rep(
        setup_s=built - start,
        run_s=ran - built,
        serialize_s=done - ran,
        cpu_s=cpu_s,
        events=engine.testbed.env.events_processed,
        sha256=hashlib.sha256(text.encode()).hexdigest(),
    )
    return rep, report.to_dict()


def _collect_garbage() -> None:
    # A finished engine is cyclic garbage (250 MB at 1M accounts); left to
    # the generational collector it makes the next rep run 1.5x slower.
    gc.collect()


@contextlib.contextmanager
def _rep_timeout() -> Iterator[None]:
    def expired(_signum, _frame):
        raise TimeoutError(f"rep exceeded {REP_TIMEOUT_S} host seconds")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(REP_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def import_seconds(speed: HostSpeed) -> list[float]:
    """Calibrated host seconds for a fresh interpreter to start and import
    the program, one subprocess at a time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_ROOT)] + [p for p in (env.get("PYTHONPATH"),) if p]
    )
    timings: list[float] = []
    while len(timings) < IMPORT_SAMPLES:
        group = []
        for _ in range(IMPORT_GROUP):
            start = hostclock.now()
            subprocess.run(
                [sys.executable, "-c", "import repro.framework"], env=env, check=True
            )
            group.append(hostclock.elapsed_since(start))
        factor = speed.factor()
        timings += [seconds / factor for seconds in group]
    return timings


def fingerprint(seed: int) -> dict[str, Any]:
    """The machine and seeds a result belongs to."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "seed": seed,
        "sim_seeds": {w.name: w.build().seed for w in WORKLOADS},
    }


def summarize(values: list[float]) -> dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, n=4) with the count."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def model_counters(document: dict[str, Any], events: int) -> dict[str, float]:
    """Sim-side counters of the modelled components, read from the report.
    They repeat exactly; a host-only optimisation must leave every one
    identical."""
    fleet = document["fleet"] or []
    delivered = sum(row["delivered"] for row in fleet)
    attempts = sum(row["recv_attempts"] for row in fleet)
    faults = document["faults"] or {}
    frames = document["frames"]
    timeline = document["timeline"] or {}
    return {
        "model.rpc.busy_sim_s": document["rpc"]["total_busy_seconds"],
        "model.rpc.pull_fraction": document["rpc"]["pull_fraction"],
        "model.ws.max_frame_bytes": frames["max_frame_bytes"],
        "model.ws.frame_failures": frames["failures"],
        "model.relayer.recv_attempts": attempts,
        "model.relayer.useful_ratio": delivered / attempts if attempts else 0.0,
        "model.relayer.redundant_errors": sum(
            row["redundant_errors"] for row in fleet
        ),
        "model.faults.rpc_retries": faults.get("rpc_retries", 0),
        "model.faults.resubscribes": faults.get("resubscribes", 0),
        "model.mempool.deferred": document["submission"]["deferred"],
        "model.chain.block_interval_s": document["block_interval_mean"],
        "model.chain.tfps": document["throughput"]["chain_tfps"],
        "model.transfer.tfps": document["throughput"]["transfer_tfps"],
        "model.transfer.completion_latency_s": (
            document["completion_latency"] or 0.0
        ),
        "model.transfer.pull_share": timeline.get("data_pull_fraction", 0.0),
        "model.sim_end_s": document["sim_end_time"],
        "model.events": events,
    }


class _Run:
    """Reps after the warm-up: each is checked the same way and counted."""

    def __init__(
        self, workload: Workload, seed: int, reference: str, speed: HostSpeed
    ):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.speed = speed
        self.attempted = 0
        self.failures: list[str] = []

    def rep(self, label: str, profile=None) -> Optional[Rep]:
        """One checked, calibrated rep; None (and a recorded failure) if it
        raised, timed out, broke determinism or violated the outcome check."""
        self.attempted += 1
        try:
            with _rep_timeout():
                rep, document = run_rep(self.workload, self.seed, profile)
        except Exception as exc:  # the benchmark reports a failed rep and goes on
            if profile is not None:
                profile.disable()
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            _collect_garbage()
            self.speed.factor()
            return None
        problems = self.workload.check(document)
        if rep.sha256 != self.reference:
            problems.append("report differs from the warm-up rep's (same inputs)")
        del document
        _collect_garbage()
        host_factor = self.speed.factor()
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            return None
        return rep.calibrated(host_factor)


def measure(
    workload: Workload,
    seed: int = 0,
    *,
    seconds: Optional[float] = None,
    reps: Optional[int] = None,
    trace: bool = False,
) -> dict[str, Any]:
    """Run one workload in this process and return its result document.

    Untraced reps run for ``seconds`` of host time (at least
    :data:`MIN_REPS`), or exactly ``reps`` times when given.  With
    ``trace`` two more reps follow: one under the boundary-span wrappers,
    one under ``cProfile`` for the layer ledger.
    """
    if (seconds is None) == (reps is None):
        raise ValueError("give exactly one of seconds and reps")
    layer_map = check_layer_map()
    speed = HostSpeed()
    imports = import_seconds(speed)

    warmup, document = run_rep(workload, seed)
    counters = model_counters(document, warmup.events)
    del document
    _collect_garbage()
    speed.factor()

    run = _Run(workload, seed, warmup.sha256, speed)
    good: list[Rep] = []
    started = hostclock.now()

    def more_reps() -> bool:
        if reps is not None:
            return run.attempted < reps
        return (
            run.attempted < MIN_REPS
            or hostclock.elapsed_since(started) < seconds
        )

    while more_reps():
        rep = run.rep(f"rep {run.attempted + 1}")
        if rep is not None:
            good.append(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result: dict[str, Any] = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "host": fingerprint(seed),
        "report_sha256": warmup.sha256,
        "model": counters,
        "paper_reference": {
            name: {
                "paper": paper,
                "sim": counters[name],
                "relative_error": (counters[name] - paper) / paper,
            }
            for name, paper in workload.paper
        },
        "end_to_end": None,
        "raw_wall_s": None,
        "noisy": False,
        "per_layer": None,
    }
    if good:
        import_s = statistics.median(imports)
        raw_walls = summarize([rep.wall_s * rep.host_factor for rep in good])
        result["end_to_end"] = {
            "wall_s": summarize([rep.wall_s for rep in good]),
            "setup_s": summarize([import_s + rep.setup_s for rep in good]),
            "events_per_s": summarize([rep.events / rep.run_s for rep in good]),
            "peak_rss_mb": summarize([peak_rss_mb]),
        }
        result["raw_wall_s"] = raw_walls
        result["noisy"] = (
            raw_walls["q3"] - raw_walls["q1"] > NOISY_IQR_SHARE * raw_walls["median"]
        )
        if trace:
            result["per_layer"] = _traced(run, layer_map, import_s, good, counters)
    result["reps"] = run.attempted
    result["failed_reps"] = len(run.failures)
    result["failures"] = run.failures
    return result


def _traced(
    run: _Run,
    layer_map: dict[str, str],
    import_s: float,
    good: list[Rep],
    counters: dict[str, float],
) -> Optional[dict[str, float]]:
    """The per-layer metrics: a span rep, then a profiled rep."""
    with SpanRecorder() as recorder:
        spanned = run.rep("span rep")
    profile = cProfile.Profile()
    profiled = run.rep("profiled rep", profile)
    if spanned is None or profiled is None:
        return None
    recorder.dump(OUT_DIR / f"{run.workload.name}.spans.json")
    metrics: dict[str, float] = {}
    for layer, row in ledger(profile, layer_map).items():
        metrics[f"{layer}.self_s"] = row["self_s"] / profiled.host_factor
        metrics[f"{layer}.share"] = row["share"]
        metrics[f"{layer}.calls"] = row["calls"]
    spans = recorder.totals()
    report_s = spans["span.framework.build_report"]["incl_s"] / spanned.host_factor
    metrics.update({
        "phase.import_s": import_s,
        "phase.setup_s": spanned.setup_s,
        "phase.loop_s": spanned.run_s - report_s,
        "phase.report_s": report_s,
        "phase.serialize_s": spanned.serialize_s,
    })
    for name, row in spans.items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.incl_s"] = row["incl_s"] / spanned.host_factor
    metrics.update(counters)
    metrics["host.cpu_over_wall"] = sum(rep.cpu_s for rep in good) / sum(
        rep.wall_s for rep in good
    )
    metrics["host.reference_factor"] = statistics.median(
        rep.host_factor for rep in good
    )
    metrics["trace.overhead_ratio"] = profiled.wall_s / statistics.median(
        rep.wall_s for rep in good
    )
    return metrics
