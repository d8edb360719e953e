"""The workload engine's decision core: distributions, determinism, spec.

Statistical properties are pinned in bands wide enough to be stable under
the fixed seeds used here but tight enough to catch a broken sampler (a
Zipf exponent that stopped biting, an MMPP that degenerated to Poisson).
Determinism properties are exact: every draw is keyed by its arrival
index, so draw order, construction order and scheduler tie-breaks must
not matter — byte-identical or bust.
"""

import math
from array import array
from itertools import islice

import pytest

from repro.errors import SchemaError, WorkloadError
from repro.sim.rng import RngRegistry
from repro.workload import (
    ARRIVAL_PROCESSES,
    DEFAULT_PAYLOAD_MIX,
    BurstyArrivals,
    DiurnalArrivals,
    PayloadMix,
    Population,
    UniformArrivals,
    WorkloadEngine,
    WorkloadSpec,
    build_arrivals,
)


# ----------------------------------------------------------------------
# WorkloadSpec: validation and wire format
# ----------------------------------------------------------------------


def test_spec_defaults_are_valid():
    spec = WorkloadSpec()
    assert spec.population == 1000
    assert spec.arrival in ARRIVAL_PROCESSES
    assert spec.payload_mix == DEFAULT_PAYLOAD_MIX


@pytest.mark.parametrize(
    "kwargs",
    [
        {"population": 0},
        {"zipf_s": 0.0},
        {"arrival": "poison"},
        {"diurnal_depth": 1.5},
        {"diurnal_period": 0.0},
        {"burst_intensity": 0.5},
        {"burst_on_seconds": 0.0},
        {"payload_mix": ()},
        {"payload_mix": ((0, 1.0),)},
        {"payload_mix": ((101, 1.0),)},
        {"payload_mix": ((5, -1.0),)},
        {"spam_rate": -1.0},
        {"spam_burst": 0},
        {"griefing_rate": -0.1},
    ],
)
def test_spec_rejects_invalid_values(kwargs):
    with pytest.raises(WorkloadError):
        WorkloadSpec(**kwargs)


def test_spec_round_trips_through_wire_format():
    spec = WorkloadSpec(
        population=5000,
        zipf_s=1.3,
        arrival="bursty",
        payload_mix=((1, 0.5), (100, 0.5)),
        spam_rate=0.25,
    )
    assert WorkloadSpec.from_dict(spec.to_dict()) == spec


def test_spec_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="popluation"):
        WorkloadSpec.from_dict({"popluation": 10})


def test_mean_payload_and_tx_rate():
    spec = WorkloadSpec(payload_mix=((1, 1.0), (100, 1.0)))
    assert spec.mean_payload() == pytest.approx(50.5)
    # input_rate stays transfers (messages) per second: the tx arrival
    # rate scales down by the mean payload so throughput is comparable
    # across payload mixes.
    assert spec.tx_rate(101.0) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Zipf population: rank-frequency law
# ----------------------------------------------------------------------


def test_zipf_rank_frequency_slope_in_band():
    """Sampled rank frequencies follow the configured power law: the
    log-log regression slope over the top ranks sits on -zipf_s."""
    population = Population(2000, 1.1, seed=3)
    stream = RngRegistry(3).keyed("zipf-test")
    counts: dict[int, int] = {}
    draws = 100_000
    for i in range(draws):
        rank = population.sample_rank(stream.u01(float(i)))
        counts[rank] = counts.get(rank, 0) + 1

    xs = [math.log(rank + 1) for rank in range(20)]
    ys = [math.log(counts[rank]) for rank in range(20)]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    ) / sum((x - mean_x) ** 2 for x in xs)
    assert -1.25 < slope < -0.95, f"zipf slope {slope} drifted off -1.1"
    # The head really dominates: rank 0 alone draws >10% of the traffic.
    assert counts[0] / draws > 0.10


@pytest.mark.parametrize(
    "size, zipf_s", [(1, 1.0), (7, 0.0), (2000, 1.1), (50_000, 0.8), (300, 2.5)]
)
def test_zipf_cumulative_table_is_the_explicit_left_fold(size, zipf_s):
    """The table is built with ``itertools.accumulate``; every partial sum
    must be bit-identical to the loop it replaced (sampling is an exact
    ``bisect`` over it, so one differing ulp can move a draw)."""
    expected = array("d")
    total = 0.0
    for rank in range(1, size + 1):
        total += rank**-zipf_s
        expected.append(total)
    assert Population(size, zipf_s, seed=0)._cumulative == expected


def test_population_addresses_match_wallet_naming():
    """A sender has a *name*, not an address: the address is whatever
    ``Wallet.named`` makes of it, the same ``user{i}-{seed}`` convention
    (and so the same keys) as the fixed-pool setup path."""
    from repro import framework

    population = Population(3, 1.1, seed=9)
    assert population.sender_name(1) == "user1-9"
    config = framework.ExperimentConfig(input_rate=60, seed=9)
    pool = framework.Testbed(config).user_wallets
    assert [wallet.name for wallet in pool] == [
        population.sender_name(rank) for rank in range(3)
    ]


def test_payload_mix_mean_and_sampling():
    mix = PayloadMix(((1, 0.5), (100, 0.5)))
    assert mix.mean == pytest.approx(50.5)
    stream = RngRegistry(4).keyed("mix")
    sizes = {mix.sample(stream, i) for i in range(200)}
    assert sizes == {1, 100}


# ----------------------------------------------------------------------
# Arrival processes: dispersion bands
# ----------------------------------------------------------------------


def _inter_arrival_cv(times: list) -> float:
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean = sum(gaps) / len(gaps)
    var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    return math.sqrt(var) / mean


def test_uniform_arrivals_are_poisson():
    """Homogeneous Poisson: inter-arrival CV ~ 1, empirical rate on spec."""
    arrivals = UniformArrivals(RngRegistry(5).keyed("u"), rate=5.0)
    times = list(islice(arrivals.times(), 20_000))
    assert 0.9 < _inter_arrival_cv(times) < 1.1
    assert len(times) / times[-1] == pytest.approx(5.0, rel=0.05)


def test_bursty_arrivals_are_overdispersed():
    """The MMPP is the point of the bursty process: inter-arrival CV well
    above the Poisson value of 1, while the long-run rate stays on spec."""
    arrivals = BurstyArrivals(
        RngRegistry(5).keyed("burst"),
        rate=5.0,
        intensity=8.0,
        on_seconds=20.0,
        off_seconds=120.0,
    )
    times = list(islice(arrivals.times(), 20_000))
    assert _inter_arrival_cv(times) > 1.3
    assert len(times) / times[-1] == pytest.approx(5.0, rel=0.2)
    # Rate scaling: the on/off rates average back to the requested rate.
    cycle = 20.0 + 120.0
    mean_rate = (
        arrivals.rate_on * 20.0 + arrivals.rate_off * 120.0
    ) / cycle
    assert mean_rate == pytest.approx(5.0)


def test_diurnal_arrivals_modulate_with_phase():
    """Thinning really shapes the intensity: the peak half-cycle carries a
    multiple of the trough's arrivals, and the overall rate stays on spec."""
    arrivals = DiurnalArrivals(
        RngRegistry(5).keyed("d"), rate=10.0, depth=0.8, period=100.0
    )
    times = []
    for t in arrivals.times():
        if t > 2000.0:
            break
        times.append(t)
    phase = [math.sin(2.0 * math.pi * t / 100.0) for t in times]
    peak = sum(1 for p in phase if p > 0.5)
    trough = sum(1 for p in phase if p < -0.5)
    assert peak / max(1, trough) > 2.5
    assert len(times) / 2000.0 == pytest.approx(10.0, rel=0.1)


def test_build_arrivals_dispatches_on_spec():
    stream = RngRegistry(6).keyed("build")
    assert isinstance(
        build_arrivals(WorkloadSpec(arrival="uniform"), 5.0, stream),
        UniformArrivals,
    )
    assert isinstance(
        build_arrivals(WorkloadSpec(arrival="diurnal"), 5.0, stream),
        DiurnalArrivals,
    )
    assert isinstance(
        build_arrivals(WorkloadSpec(arrival="bursty"), 5.0, stream),
        BurstyArrivals,
    )


# ----------------------------------------------------------------------
# Determinism: keyed draws are order-independent and reproducible
# ----------------------------------------------------------------------


def _times(seed: int, arrival: str, n: int = 500) -> list:
    spec = WorkloadSpec(arrival=arrival)
    engine = WorkloadEngine(
        # Deliberately the driver's stream name: the engine under test
        # must draw exactly what an experiment run would.
        spec, 20.0, RngRegistry(seed).keyed("workload"), seed
    )
    return list(islice(engine.arrivals.times(), n))


@pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
def test_arrival_times_byte_identical_across_constructions(arrival):
    assert _times(7, arrival) == _times(7, arrival)


@pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
def test_arrival_times_differ_across_seeds(arrival):
    assert _times(7, arrival) != _times(8, arrival)


def test_engine_draws_are_order_independent():
    """Sender and payload draws are keyed by arrival index: querying them
    in reverse order yields the same values — the property that makes the
    engine immune to scheduler tie-break reversal (schedcheck 'skewed')."""
    spec = WorkloadSpec(population=500, zipf_s=1.2)

    def build() -> WorkloadEngine:
        return WorkloadEngine(spec, 20.0, RngRegistry(7).keyed("workload"), 7)

    forward = build()
    backward = build()
    indices = list(range(200))
    senders_fwd = [forward.draw_sender(i) for i in indices]
    payloads_fwd = [forward.draw_payload(i) for i in indices]
    senders_bwd = [backward.draw_sender(i) for i in reversed(indices)]
    payloads_bwd = [backward.draw_payload(i) for i in reversed(indices)]
    assert senders_fwd == list(reversed(senders_bwd))
    assert payloads_fwd == list(reversed(payloads_bwd))


def test_engine_activity_summary_percentiles():
    spec = WorkloadSpec(population=100)
    engine = WorkloadEngine(spec, 20.0, RngRegistry(9).keyed("workload"), 9)
    for _ in range(10):
        engine.record_start(0)
    for rank in range(1, 11):
        engine.record_start(rank)
    engine.deferred = 3
    summary = engine.activity_summary()
    assert summary["population"] == 100
    assert summary["senders_active"] == 11
    assert summary["submissions"] == 20
    assert summary["activity_max"] == 10
    assert summary["activity_p50"] == 1
    assert summary["top1_share"] == pytest.approx(0.5)
    assert summary["deferred"] == 3


def test_empty_activity_summary_is_all_zero():
    engine = WorkloadEngine(
        WorkloadSpec(population=10), 20.0, RngRegistry(1).keyed("w"), 1
    )
    summary = engine.activity_summary()
    assert summary["senders_active"] == 0
    assert summary["submissions"] == 0
    assert summary["top1_share"] == 0.0


# ----------------------------------------------------------------------
# Config integration: engine-mode restrictions
# ----------------------------------------------------------------------


def test_config_workload_section_round_trips():
    from repro.framework import ExperimentConfig

    config = ExperimentConfig(
        input_rate=20,
        workload=WorkloadSpec(population=200, arrival="bursty"),
    )
    wire = config.to_dict()
    assert wire["workload"]["population"] == 200
    assert ExperimentConfig.from_dict(wire) == config


def test_config_without_workload_serializes_null_section():
    from repro.framework import ExperimentConfig

    wire = ExperimentConfig().to_dict()
    assert wire["workload"] is None
    assert ExperimentConfig.from_dict(wire).workload is None


def test_workload_rejects_fixed_total():
    from repro.framework import ExperimentConfig

    with pytest.raises(WorkloadError, match="total_transfers"):
        ExperimentConfig(
            total_transfers=100, workload=WorkloadSpec(population=10)
        )


def test_workload_rejects_custom_topology():
    from repro.framework import ExperimentConfig, TopologySpec

    with pytest.raises(WorkloadError, match="two-chain"):
        ExperimentConfig(
            topology=TopologySpec.line(3), workload=WorkloadSpec(population=10)
        )


def test_workload_rejects_multiple_channels():
    from repro.framework import ExperimentConfig, FleetConfig

    with pytest.raises(WorkloadError, match="single channel"):
        ExperimentConfig(
            num_relayers=2,
            relayer=FleetConfig(policy="channel"),
            workload=WorkloadSpec(population=10),
        )


def test_workload_section_unknown_key_rejected():
    from repro.framework import ExperimentConfig

    wire = ExperimentConfig(workload=WorkloadSpec()).to_dict()
    wire["workload"]["zipf_z"] = 1.0
    with pytest.raises(SchemaError, match="zipf_z"):
        ExperimentConfig.from_dict(wire)


# ----------------------------------------------------------------------
# The million-account claim, measured
# ----------------------------------------------------------------------

#: Ceiling on a 1 M population's marginal memory.  By construction it is
#: 40 B/account: four int64 column slots (auth number and sequence, two
#: bank denoms) + the 8-byte cumulative weight; no address until named.
MAX_BYTES_PER_ACCOUNT = 100

_MILLION_ACCOUNT_RUN = """
from repro.framework import ExperimentConfig, WorkloadSpec, run_experiment
def peak_kb():  # VmHWM, not ru_maxrss: that one starts at the parent's RSS
    status = open("/proc/self/status").read()
    return int(status.split("VmHWM:")[1].split()[0])
baseline_kb = peak_kb()
report = run_experiment(ExperimentConfig(
    input_rate=20, measurement_blocks=3, seed=7,
    workload=WorkloadSpec(population=1_000_000)))
print(report.workload.committed_transfers, (peak_kb() - baseline_kb) * 1024 / 1e6)
"""


def test_million_accounts_commit_transfers_within_the_memory_ceiling():
    """Run in a fresh interpreter, because a peak never goes down: the
    high-water mark is this run's own, and the run really commits."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    completed = subprocess.run(
        [sys.executable, "-c", _MILLION_ACCOUNT_RUN],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    committed, bytes_per_account = completed.stdout.split()
    assert int(committed) > 0
    assert 0 < float(bytes_per_account) < MAX_BYTES_PER_ACCOUNT
