#!/usr/bin/env python3
"""Ops runbook: diagnosing and recovering stuck IBC transfers.

Reproduces the paper's §V "WebSocket space limit" incident at a small
scale: a block with too many IBC events overflows the node's WebSocket
frame limit, Hermes logs ``Failed to collect events``, and — with packet
clearing disabled — every packet in that block is stranded: committed on
the source chain, never received, never timed out.

The runbook then shows the two recovery paths an operator has:
  1. enable packet clearing (``clear_interval > 0``), or
  2. trigger a one-shot clear scan (``hermes clear packets``).

Run:  python examples/websocket_failure_runbook.py
"""

from repro import calibration as cal
from repro.framework import ExperimentConfig, Testbed, WorkloadDriver

#: Shrunken frame limit so a 1 500-transfer block overflows quickly.
FRAME_LIMIT_BYTES = 300_000


def main() -> None:
    config = ExperimentConfig(
        total_transfers=1500,
        submission_blocks=1,
        measurement_blocks=10_000,
        timeout_blocks=100,
        clear_interval=0,  # the paper's pathological configuration
        seed=21,
        calibration=cal.DEFAULT_CALIBRATION.with_overrides(
            websocket_max_frame_bytes=FRAME_LIMIT_BYTES
        ),
    )
    testbed = Testbed(config)
    env = testbed.env

    def scenario():
        path = yield from testbed.bootstrap()
        testbed.start_relayers()
        relayer = testbed.relayers[0]

        print("== Incident: submitting 1 500 transfers in one block ...")
        driver = WorkloadDriver(testbed)
        driver.start()
        yield driver.finished
        yield env.timeout(60.0)

        pending = testbed.chain_a.app.ibc.pending_commitments(
            "transfer", path.a.channel_id
        )
        ws_errors = relayer.log.count("failed_to_collect_events")
        print(f"   t={env.now:7.1f}s  'Failed to collect events' x{ws_errors}")
        print(f"   t={env.now:7.1f}s  {len(pending)} packets STUCK "
              f"(committed on source, unseen by the relayer)")

        print("== Waiting 120 s: do they recover on their own? ...")
        yield env.timeout(120.0)
        pending = testbed.chain_a.app.ibc.pending_commitments(
            "transfer", path.a.channel_id
        )
        print(f"   t={env.now:7.1f}s  still stuck: {len(pending)} "
              f"(clear_interval=0 means nothing ever re-scans)")

        print("== Recovery: packet clear scans (hermes clear packets) ...")
        worker = relayer.workers[0]  # the a->b direction
        for attempt in range(1, 6):
            clear = env.process(worker.clear_once(), name="manual-clear")
            yield clear
            yield env.timeout(60.0)  # let the submitted txs commit
            pending = testbed.chain_a.app.ibc.pending_commitments(
                "transfer", path.a.channel_id
            )
            print(
                f"   t={env.now:7.1f}s  clear pass {attempt}: "
                f"{len(pending)} packets still pending"
            )
            if not pending:
                break
        else:
            raise RuntimeError("clearing did not recover the packets")
        print(f"   t={env.now:7.1f}s  all packets completed after clearing")
        print(
            "   (two passes were needed: the recv leg's ack events ALSO\n"
            "    overflowed the frame limit, so the ack leg required its own\n"
            "    clear scan — exactly why Hermes clears both directions)"
        )
        print(
            "\nRunbook summary: set clear_interval > 0 in production, and "
            "watch for\n'Failed to collect events' — it means an entire "
            "block's packets need manual clearing."
        )

    main_proc = env.process(scenario(), name="runbook")
    while not main_proc.triggered:
        env.step()
    if not main_proc.ok:
        raise main_proc.value


if __name__ == "__main__":
    main()
