"""Fault recovery — relayer survives a mid-run crash of its own full node.

Not a paper figure: this exercises the robustness extension
(:mod:`repro.faults` + the relayer's retry/resubscribe/clear machinery).
The workload submits a fixed batch of transfers, then the machine hosting
the relayer's full node crashes for 30 s while the chains keep committing
on the surviving 4/5 quorum.  Every send_packet event committed during
the outage is lost with the WebSocket subscription:

* with recovery enabled (RPC retries + resubscribe-on-disconnect +
  periodic clearing) the relayer detects the height gap after
  resubscribing and clears the missed packets — >=95 % of transfers
  complete;
* with recovery disabled (Hermes 1.0.0 defaults: no retries, no
  resubscribe, ``clear_interval=0``) the run stalls — packets committed
  during or after the outage are never relayed.
"""

from benchmarks.conftest import run_batch, run_cached
from repro.analysis import format_table
from repro.faults import FaultSchedule, NodeCrash
from repro.framework import ExperimentConfig, FleetConfig

#: The relayer (hermes-0) and its full nodes live on machine-0; crash it
#: for 30 s starting 5 s into the measurement window, while the fixed
#: workload is still being submitted and most packets are unrelayed.
CRASH = FaultSchedule((NodeCrash("machine-0", at=5.0, duration=30.0),))

TRANSFERS = 600
SUBMISSION_BLOCKS = 3


def fault_config(recovery: bool) -> ExperimentConfig:
    if recovery:
        return ExperimentConfig(
            input_rate=0.0,
            total_transfers=TRANSFERS,
            submission_blocks=SUBMISSION_BLOCKS,
            measurement_blocks=12,
            faults=CRASH,
            relayer=FleetConfig(
                rpc_retry_attempts=6, resubscribe_on_disconnect=True
            ),
            clear_interval=2,
            run_to_completion=True,
            seed=3,
        )
    return ExperimentConfig(
        input_rate=0.0,
        total_transfers=TRANSFERS,
        submission_blocks=SUBMISSION_BLOCKS,
        measurement_blocks=12,
        faults=CRASH,
        relayer=FleetConfig(
            rpc_retry_attempts=0, resubscribe_on_disconnect=False
        ),
        clear_interval=0,
        drain_seconds=120.0,
        seed=3,
    )


def run_pair():
    run_batch([fault_config(recovery=True), fault_config(recovery=False)])
    return {
        "recovery": run_cached(fault_config(recovery=True)),
        "no recovery": run_cached(fault_config(recovery=False)),
    }


def test_fault_recovery_completion(benchmark):
    out = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    rows = []
    for label, report in out.items():
        status = report.window.completion
        faults = report.faults
        rows.append(
            (
                label,
                status.requested,
                f"{status.as_fractions()['completed'] * 100:.1f}%",
                faults.rpc_retries if faults else 0,
                faults.resubscribes if faults else 0,
                faults.height_gaps if faults else 0,
            )
        )
    print("\nFault recovery — 30 s node crash under the relayer")
    print(
        format_table(
            ["scenario", "requested", "completed", "retries", "resubs", "gaps"],
            rows,
        )
    )

    enabled = out["recovery"]
    disabled = out["no recovery"]
    assert enabled.window.completion.requested == TRANSFERS

    # The crash really happened and severed the subscriptions.
    for report in out.values():
        assert report.faults is not None
        assert [w.kind for w in report.faults.windows] == ["node_crash"]
        assert report.faults.ws_disconnects >= 1

    # Recovery: resubscribed, detected the gap, and completed the batch.
    assert enabled.faults.resubscribes >= 1
    assert enabled.faults.height_gaps >= 1
    done = enabled.window.completion.as_fractions()["completed"]
    assert done >= 0.95, f"only {done:.1%} completed with recovery enabled"

    # No recovery: the relayer never rejoins; the run stalls well short.
    stalled = disabled.window.completion.as_fractions()["completed"]
    assert stalled < 0.5, f"{stalled:.1%} completed without recovery"
    assert done > stalled
