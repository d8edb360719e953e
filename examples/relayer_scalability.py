#!/usr/bin/env python3
"""Why adding a second relayer to a channel makes things WORSE.

An operator worried about relaying capacity might deploy a second Hermes
instance for the same channel.  The paper's Fig. 9 shows this *reduces*
throughput (by up to 33 %): relayers cannot coordinate, both deliver every
packet, and the loser's transactions fail on chain with ``packet messages
are redundant`` — wasting fees and polluting the event index every later
query must scan.

This example measures one vs two relayers at a moderately high input rate
and prints the redundancy errors and wasted fees.

Run:  python examples/relayer_scalability.py
"""

from repro.framework import ExperimentConfig

# The public entrypoint is repro.run_experiment(config); this example digs
# into post-run chain state (fee pools), so it drives the internal engine,
# which keeps the testbed around after the run.
from repro.framework.runner import _ExperimentEngine

RATE = 140  # requests per second, near the single-relayer peak
BLOCKS = 30


def run(num_relayers: int):
    config = ExperimentConfig(
        input_rate=RATE,
        measurement_blocks=BLOCKS,
        num_relayers=num_relayers,
        seed=13,
    )
    engine = _ExperimentEngine(config)
    report = engine.run()
    # Fees collected on the destination chain include those burned by the
    # losing relayer's failed (redundant) transactions.
    fee_pool_b = engine.testbed.chain_b.app.fee_pool.collected
    return report, fee_pool_b


def main() -> None:
    print(f"Input rate {RATE} transfers/s over {BLOCKS} blocks, 200 ms RTT\n")
    one, fees_one = run(1)
    two, fees_two = run(2)

    tfps_one = one.window.transfer_throughput_tfps
    tfps_two = two.window.transfer_throughput_tfps
    redundant = two.errors.get("packet_messages_redundant", 0)

    print(f"one relayer : {tfps_one:6.1f} TFPS completed")
    print(f"two relayers: {tfps_two:6.1f} TFPS completed "
          f"({(1 - tfps_two / tfps_one) * 100:.0f}% lower)")
    print(f"redundant-delivery errors with two relayers: {redundant} failed txs")
    print(f"fees burned on destination chain: {fees_one:,.0f} (1R) vs "
          f"{fees_two:,.0f} (2R)")
    print(
        "\nTakeaway (paper §IV-A): uncoordinated relayers duplicate work; the\n"
        "loser's transactions still pay fees and still get indexed, slowing\n"
        "every subsequent query of those blocks.  ICS-18 says nothing about\n"
        "relayer coordination — the `ext-scaling` row of\n"
        "`python -m repro check paper` measures the multi-channel and\n"
        "coordinated-relayer alternatives."
    )


if __name__ == "__main__":
    main()
