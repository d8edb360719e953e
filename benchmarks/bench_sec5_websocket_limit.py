"""§V "WebSocket space limit" — the 16 MB frame failure experiment.

Paper: the authors *generate a block containing 1 000 cross-chain
transactions with 100 IBC transfers each* (100 000 transfers).  Its event
payload exceeds Tendermint's 16 MB WebSocket frame, Hermes logs ``Failed
to collect events``, and with ``clear_interval = 0`` the affected packets
get stuck: 2.5 % completed, 15.7 % timed out, **81.8 % stuck** — neither
relayed nor timed out even 4x past their timeout.  Single transfers
submitted after the failure commit but are never delivered either.

We stage the block the same way (transactions injected into the mempool in
one burst, exactly as the paper's crafted block).  The block gas cap
splits the burst: the giant first block (>16 MB of events) strands its
packets, while the tail block relays normally — reproducing the paper's
mixed outcome.
"""

import pytest

from repro import calibration as cal
from repro.cosmos.accounts import Wallet
from repro.cosmos.app import FEE_DENOM, TRANSFER_DENOM
from repro.cosmos.tx import TxFactory
from repro.framework import ExperimentConfig, Testbed
from repro.framework.metrics import scan_window
from repro.ibc.msgs import MsgTransfer
from repro.ibc.packet import Height

N_TXS = 1000
MSGS_PER_TX = 100
TIMEOUT_BLOCKS = 30


def build_run():
    config = ExperimentConfig(
        input_rate=1,  # the workload driver is unused; txs are staged
        measurement_blocks=10_000,
        timeout_blocks=TIMEOUT_BLOCKS,
        clear_interval=0,
        seed=9,
        proof_mode="stub",
    )
    testbed = Testbed(config)
    env = testbed.env
    chain_a, chain_b = testbed.chain_a, testbed.chain_b
    outcome = {}

    # Stage 1 000 funded accounts up front.
    factories = []
    for i in range(N_TXS):
        wallet = Wallet.named(f"ws-user-{i}")
        chain_a.app.genesis_account(
            wallet, {FEE_DENOM: 10**15, TRANSFER_DENOM: 10**9}
        )
        factories.append(TxFactory(wallet, chain_a.cal))

    def flow():
        path = yield from testbed.bootstrap()
        testbed.start_relayers()
        start_height = chain_a.engine.height
        # Inject the paper's crafted burst directly into the mempool.
        timeout_height = Height(0, chain_b.engine.height + TIMEOUT_BLOCKS)
        for factory in factories:
            msgs = [
                MsgTransfer(
                    source_port="transfer",
                    source_channel=path.a.channel_id,
                    denom=TRANSFER_DENOM,
                    amount=1,
                    sender=factory.wallet.address,
                    receiver=testbed.receiver.address,
                    timeout_height=timeout_height,
                    signer=factory.wallet.address,
                )
                for _ in range(MSGS_PER_TX)
            ]
            gas = int((50_000 + MSGS_PER_TX * 36_692) * 1.3)
            tx = factory.build(msgs, gas_limit=gas)
            chain_a.mempool.add(tx, now=env.now, gossip_delay=0.05)
        # Run until 4x the timeout offset passed on the destination.
        target = chain_b.engine.height + 4 * TIMEOUT_BLOCKS
        while chain_b.engine.height < target:
            yield env.timeout(5.0)

        counts, _blocks = scan_window(
            chain_a,
            ("send_packet", "acknowledge_packet", "timeout_packet"),
            [("transfer", path.a.channel_id)],
            after_height=start_height,
        )
        outcome["sends"] = counts["send_packet"]
        outcome["acks"] = counts["acknowledge_packet"]
        outcome["timeouts"] = counts["timeout_packet"]
        outcome["pending"] = len(
            chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id)
        )
        outcome["ws_errors"] = testbed.relayers[0].log.count(
            "failed_to_collect_events"
        )
        outcome["giant_block_events"] = max(
            chain_a.indexer.events_at(h).get("send_packet", 0)
            for h in range(start_height + 1, chain_a.block_store.latest_height + 1)
        )
        # The paper's follow-up: a transfer submitted after the failure is
        # committed but never delivered.
        from repro.relayer.cli import WorkloadCli

        late_cli = WorkloadCli(
            env,
            testbed.cli_node,
            testbed.user_wallets[0],
            testbed.cli_host,
            testbed.relayers[0].log,
            source_channel=path.a.channel_id,
            receiver=testbed.receiver.address,
        )
        submission = yield from late_cli.ft_transfer(
            count=1, amount=1, timeout_blocks=10_000
        )
        outcome["late_committed"] = yield from late_cli.wait_confirmation(submission)
        yield env.timeout(120.0)
        outcome["late_pending"] = len(
            chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id)
        )

    main = env.process(flow(), name="sec5")
    while not main.triggered:
        env.step()
    if not main.ok:
        raise main.value
    return outcome


def test_websocket_frame_limit_strands_packets(benchmark):
    outcome = benchmark.pedantic(build_run, rounds=1, iterations=1)

    sends = outcome["sends"]
    settled = outcome["acks"] + outcome["timeouts"]
    stuck = sends - settled
    stuck_pct = 100.0 * stuck / max(1, sends)
    print(
        f"\n§V websocket limit: sends={sends} "
        f"completed={outcome['acks']} ({100 * outcome['acks'] / sends:.1f}%, paper 2.5%) "
        f"timed_out={outcome['timeouts']} ({100 * outcome['timeouts'] / sends:.1f}%, paper 15.7%) "
        f"stuck={stuck} ({stuck_pct:.1f}%, paper 81.8%) "
        f"ws_errors={outcome['ws_errors']} "
        f"giant_block={outcome['giant_block_events']} transfer events"
    )

    # The staged burst produced a block whose events exceed the 16 MB frame.
    calibration = cal.DEFAULT_CALIBRATION
    assert (
        outcome["giant_block_events"] * calibration.event_bytes["send_packet"]
        > calibration.websocket_max_frame_bytes
    )
    assert outcome["ws_errors"] >= 1
    # Most packets are stuck: committed on the source, never completed,
    # never timed out (paper: 81.8 %).
    assert sends >= 95_000
    assert stuck_pct >= 60.0
    # A minority settled (the tail block that fit under the limit).
    assert settled < 0.4 * sends
    # Transfers submitted after the failure commit but are not delivered.
    assert outcome["late_committed"]
    assert outcome["late_pending"] >= stuck + 1
