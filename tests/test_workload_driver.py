"""Engine-mode experiments end to end: frame latches, adversarial splits.

These run full (small) experiments through :func:`run_experiment` with a
``workload`` config section, pinning the behaviours the workload engine
was built to produce organically:

* a mixed-payload workload whose event volume trips the §V WebSocket
  frame limit (calibrated down so a fast test can reach it — the staged
  16 MB case is the ``sec5-websocket`` row of ``python -m repro check
  paper``);
* gas-griefing transactions that *commit with a failure code*, counted
  in the report as ``failed`` — distinct from ``unconfirmed`` (never
  seen again) and from CheckTx rejections;
* spam floods absorbed by mempool admission control.
"""

import pytest

from repro import DEFAULT_CALIBRATION
from repro.framework import ExperimentConfig, WorkloadSpec, run_experiment


def test_engine_mode_runs_and_reports_population():
    report = run_experiment(
        ExperimentConfig(
            input_rate=20,
            measurement_blocks=3,
            seed=7,
            workload=WorkloadSpec(population=50),
        )
    )
    population = report.population
    assert population is not None
    assert population.population == 50
    assert 0 < population.senders_active <= 50
    assert population.submissions > 0
    assert population.activity_max >= population.activity_p50
    # Zipf skew: the busiest 1% of senders carry a visible share.
    assert population.top1_share > 0.0
    # Arrivals to busy senders are dropped, not queued (§IV-A).  The
    # population section counts deferred *arrivals*; the submission
    # stats count the *messages* those arrivals would have carried.
    assert population.deferred > 0
    assert report.workload.deferred_transfers >= population.deferred
    assert report.workload.requested_transfers > 0
    assert report.workload.committed_transfers > 0


def test_legacy_mode_reports_no_population_section():
    report = run_experiment(
        ExperimentConfig(input_rate=20, measurement_blocks=2, seed=7)
    )
    assert report.population is None
    # The frames section is always present: §V accounting applies to
    # every run, workload-generated or not.
    assert report.frames is not None
    assert report.frames.latched == 0
    assert report.frames.delivered > 0


def test_mixed_payload_workload_latches_frame_limit():
    """Satellite regression: a heavy-payload workload organically pushes
    a block's event frame past the (calibrated-down) limit; the
    subscription latches and the report's frames section records it with
    the same semantics the pinned bench scenario uses."""
    config = ExperimentConfig(
        input_rate=40,
        measurement_blocks=3,
        seed=7,
        workload=WorkloadSpec(
            population=80, payload_mix=((20, 1.0),)
        ),
        calibration=DEFAULT_CALIBRATION.with_overrides(
            websocket_max_frame_bytes=4_000
        ),
    )
    report = run_experiment(config)
    frames = report.frames
    assert frames is not None
    assert frames.limit_bytes == 4_000
    assert frames.max_frame_bytes > frames.limit_bytes
    assert frames.latched >= 1
    assert frames.failures >= frames.latched
    # The report's human summary names the latch.
    assert "frame limit" in report.summary()


def test_same_workload_below_limit_does_not_latch():
    """Control for the latch test: the identical workload under the real
    16 MB default never trips."""
    report = run_experiment(
        ExperimentConfig(
            input_rate=40,
            measurement_blocks=3,
            seed=7,
            workload=WorkloadSpec(population=80, payload_mix=((20, 1.0),)),
        )
    )
    assert report.frames.latched == 0
    assert report.frames.max_frame_bytes > 4_000  # same traffic shape


def test_griefing_failures_counted_distinct_from_unconfirmed():
    """Satellite fix: under-gassed griefing transactions confirm with a
    non-zero code and land in ``failed`` — previously they would have
    been folded into the never-confirmed bucket."""
    report = run_experiment(
        ExperimentConfig(
            input_rate=10,
            measurement_blocks=3,
            seed=11,
            drain_seconds=30.0,
            workload=WorkloadSpec(population=30, griefing_rate=0.3),
        )
    )
    stats = report.workload
    assert report.population.griefing.submitted > 0
    assert report.population.griefing.failed > 0
    # Each failed griefing tx carries 100 messages.
    assert stats.failed_transfers >= 100
    assert stats.failed_transfers % 100 == 0
    # The failure is visible in the error journal under its own event,
    # not as a confirmation timeout.
    assert report.errors.get("tx_execution_failed", 0) > 0
    # The split is additive within accepted submissions.
    assert (
        stats.committed_transfers
        + stats.failed_transfers
        + stats.unconfirmed_transfers
        <= stats.accepted_transfers
        + stats.failed_transfers  # griefing txs are accepted too
    )


def test_failed_split_round_trips_on_the_wire():
    report = run_experiment(
        ExperimentConfig(
            input_rate=10,
            measurement_blocks=2,
            seed=11,
            workload=WorkloadSpec(population=20, griefing_rate=0.3),
        )
    )
    from repro.framework import ExperimentReport

    document = report.to_dict()
    submission = document["submission"]
    assert submission["failed"] == report.workload.failed_transfers
    assert submission["unconfirmed"] == report.workload.unconfirmed_transfers
    assert submission["deferred"] == report.workload.deferred_transfers
    clone = ExperimentReport.from_dict(document)
    assert clone.workload.failed_transfers == report.workload.failed_transfers


def test_spam_flood_is_absorbed_by_admission_control():
    """Replayed stale-sequence transactions bounce off CheckTx: at most
    one spam tx ever commits, the rest are rejections, and the mempool's
    admission counters account for the flood."""
    report = run_experiment(
        ExperimentConfig(
            input_rate=10,
            measurement_blocks=3,
            seed=13,
            workload=WorkloadSpec(population=20, spam_rate=0.5, spam_burst=6),
        )
    )
    spam = report.population.spam
    assert spam.submitted > 0
    # Everything after the first broadcast is a rejection.
    assert spam.rejected >= spam.submitted - 1
    mempool = report.population.mempool
    assert mempool.rejected >= spam.rejected
    assert mempool.admitted > 0
    # The honest traffic still gets through.
    assert report.workload.committed_transfers > 0


def test_engine_mode_is_deterministic():
    config = ExperimentConfig(
        input_rate=20,
        measurement_blocks=3,
        seed=7,
        workload=WorkloadSpec(
            population=50, arrival="bursty", spam_rate=0.3, griefing_rate=0.1
        ),
    )
    first = run_experiment(config).to_json()
    second = run_experiment(config).to_json()
    assert first == second


@pytest.mark.parametrize("arrival", ["uniform", "diurnal", "bursty"])
def test_every_arrival_process_drives_an_experiment(arrival):
    report = run_experiment(
        ExperimentConfig(
            input_rate=20,
            measurement_blocks=2,
            seed=7,
            workload=WorkloadSpec(population=30, arrival=arrival),
        )
    )
    assert report.population.submissions > 0
    assert report.workload.committed_transfers > 0
