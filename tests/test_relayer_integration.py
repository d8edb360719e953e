"""End-to-end relayer tests on the simulated testbed (conftest harness)."""

import pytest

from repro import calibration as cal
from repro.cosmos.app import TRANSFER_DENOM
from repro.cosmos.accounts import Wallet
from repro.cosmos.app import FEE_DENOM
from repro.ibc.channel import ChannelOrder
from repro.relayer import Relayer, RelayerConfig
from tests.conftest import solo_seat


def drive(harness, generator, limit=2000.0):
    return harness.run_process(generator, limit=limit)


def test_handshake_created_open_channel(bootstrapped):
    path = bootstrapped.path
    assert path.a.channel_id == "channel-0"
    chan_a = bootstrapped.chain_a.app.ibc.channels[("transfer", path.a.channel_id)]
    chan_b = bootstrapped.chain_b.app.ibc.channels[("transfer", path.b.channel_id)]
    assert chan_a.is_open and chan_b.is_open
    assert chan_a.counterparty.channel_id == path.b.channel_id


def test_single_transfer_completes_end_to_end(bootstrapped):
    h = bootstrapped
    cli = h.cli()

    def flow():
        submission = yield from cli.ft_transfer(count=5, amount=4)
        ok = yield from cli.wait_confirmation(submission)
        assert ok
        # Let the relayer run the recv + ack legs.
        yield h.env.timeout(60.0)

    drive(h, flow())
    path = h.path
    assert h.chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id) == []
    voucher_balances = h.chain_b.app.bank.balances(h.receiver.address)
    voucher = next(d for d in voucher_balances if d.startswith("ibc/"))
    assert voucher_balances[voucher] == 20


def test_single_transfer_latency_about_21_seconds(bootstrapped):
    """The paper: one cross-chain transfer (3 txs) takes ~21 s on average.

    We accept 10-35 s — three block inclusions plus relayer think time.
    """
    h = bootstrapped
    cli = h.cli()
    times = {}

    def flow():
        times["start"] = h.env.now
        submission = yield from cli.ft_transfer(count=1, amount=1)
        yield from cli.wait_confirmation(submission)
        path = h.path
        while h.chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id):
            yield h.env.timeout(0.5)
        times["end"] = h.env.now

    drive(h, flow())
    latency = times["end"] - times["start"]
    assert 10.0 <= latency <= 35.0


def test_all_thirteen_steps_logged(bootstrapped):
    h = bootstrapped
    cli = h.cli()

    def flow():
        submission = yield from cli.ft_transfer(count=3, amount=1)
        yield from cli.wait_confirmation(submission)
        yield h.env.timeout(60.0)

    drive(h, flow())
    from repro.framework.processor import STEP_EVENTS

    events = {r.event for r in h.relayer.log.records} | {
        r.event for r in cli.log.records
    }
    for _step, _name, event in STEP_EVENTS:
        assert event in events, f"missing step event {event}"


def test_relayer_relays_reverse_direction(bootstrapped):
    """Tokens can go B -> A over the same channel (the b->a worker)."""
    h = bootstrapped
    sender_b = Wallet.named("rev-sender")
    h.chain_b.app.genesis_account(
        sender_b, {FEE_DENOM: 10**15, TRANSFER_DENOM: 10**9}
    )
    from repro.relayer.cli import WorkloadCli

    cli_b = WorkloadCli(
        h.env,
        h.node_b,
        sender_b,
        "m0",
        h.relayer.log,
        source_channel=h.path.b.channel_id,
        receiver=h.user.address,
    )

    def flow():
        submission = yield from cli_b.ft_transfer(count=2, amount=9)
        ok = yield from cli_b.wait_confirmation(submission)
        assert ok
        yield h.env.timeout(60.0)

    drive(h, flow())
    balances = h.chain_a.app.bank.balances(h.user.address)
    voucher = next(d for d in balances if d.startswith("ibc/"))
    assert balances[voucher] == 18


def test_expired_packets_are_timed_out_by_relayer(harness):
    """A packet whose timeout passes before relaying triggers MsgTimeout
    and refunds the sender (Fig. 3)."""
    h = harness

    def flow():
        path = yield from h.relayer.establish_path()
        h.path = path
        # Suspend relaying by not starting the relayer yet; submit with a
        # short timeout so it expires while nobody relays.
        cli = h.cli()
        before = h.chain_a.app.bank.balance(h.user.address, TRANSFER_DENOM)
        submission = yield from cli.ft_transfer(
            count=2, amount=5, timeout_blocks=2
        )
        ok = yield from cli.wait_confirmation(submission)
        assert ok
        # Wait until well past the timeout height, then start the relayer:
        # its event log replay is gone, but packet clearing will find the
        # pending commitments and the timeout stage settles them.
        yield h.env.timeout(30.0)
        h.relayer.config.clear_interval = 2
        h.relayer.start()
        deadline = h.env.now + 300.0
        while h.chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id):
            assert h.env.now < deadline, "packets never settled"
            yield h.env.timeout(2.0)
        after = h.chain_a.app.bank.balance(h.user.address, TRANSFER_DENOM)
        assert after == before  # refunded

    h.run_process(flow(), limit=3000.0)
    assert h.relayer.log.count("timeout_build") >= 1


def test_ordered_expired_packets_are_timed_out_by_relayer(harness):
    """On an ORDERED channel the relayer proves non-receipt with the
    destination's receive counter, and the expired packets are refunded."""
    h = harness

    def flow():
        path = yield from h.relayer.establish_path(ordering=ChannelOrder.ORDERED)
        h.path = path
        cli = h.cli()
        before = h.chain_a.app.bank.balance(h.user.address, TRANSFER_DENOM)
        submission = yield from cli.ft_transfer(count=2, amount=5, timeout_blocks=2)
        assert (yield from cli.wait_confirmation(submission))
        yield h.env.timeout(30.0)
        h.relayer.config.clear_interval = 2
        h.relayer.start()
        deadline = h.env.now + 300.0
        while h.chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id):
            assert h.env.now < deadline, "packets never settled"
            yield h.env.timeout(2.0)
        after = h.chain_a.app.bank.balance(h.user.address, TRANSFER_DENOM)
        assert after == before  # refunded
        return path

    path = h.run_process(flow(), limit=3000.0)
    assert h.relayer.log.count("timeout_build") >= 1
    assert h.relayer.log.count("query_failed") == 0
    # Nothing reached B: its counter still expects the first sequence.
    assert h.chain_b.app.ibc.next_sequence_recv[("transfer", path.b.channel_id)] == 1
    assert not any(
        d.startswith("ibc/") for d in h.chain_b.app.bank.balances(h.receiver.address)
    )


def test_ordered_received_packet_is_never_timed_out_by_relayer(harness):
    """A packet B's receive counter has passed is received, so the relayer's
    timeout stage leaves it alone even once its timeout height is behind B."""
    h = harness

    def flow():
        path = yield from h.relayer.establish_path(ordering=ChannelOrder.ORDERED)
        h.path = path
        h.relayer.start()
        cli = h.cli()
        before = h.chain_a.app.bank.balance(h.user.address, TRANSFER_DENOM)
        submission = yield from cli.ft_transfer(count=1, amount=5, timeout_blocks=20)
        assert (yield from cli.wait_confirmation(submission))
        packet = h.chain_a.app.ibc.sent_packet("transfer", path.a.channel_id, 1)
        while h.chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id):
            yield h.env.timeout(2.0)
        while h.chain_b.height <= packet.timeout_height.revision_height:
            yield h.env.timeout(2.0)
        answer = yield from h.relayer.workers[0].dst.query(
            "prove_unreceived",
            port="transfer",
            channel=path.b.channel_id,
            sequence=packet.sequence,
        )
        assert answer["received"]
        yield from h.relayer.workers[0]._relay_timeouts([packet])
        yield h.env.timeout(30.0)
        after = h.chain_a.app.bank.balance(h.user.address, TRANSFER_DENOM)
        assert after == before - 5  # delivered, never refunded

    h.run_process(flow(), limit=3000.0)
    assert h.relayer.log.count("timeout_build") == 0
    voucher_balances = h.chain_b.app.bank.balances(h.receiver.address)
    assert voucher_balances[next(d for d in voucher_balances if d.startswith("ibc/"))] == 5


def test_packet_clearing_recovers_missed_packets(harness):
    """With clear_interval > 0, packets submitted while the relayer was
    down still complete."""
    h = harness

    def flow():
        path = yield from h.relayer.establish_path()
        h.path = path
        cli = h.cli()
        submission = yield from cli.ft_transfer(count=4, amount=2)
        ok = yield from cli.wait_confirmation(submission)
        assert ok
        yield h.env.timeout(20.0)  # events long gone, relayer not running
        h.relayer.config.clear_interval = 2
        h.relayer.start()
        deadline = h.env.now + 300.0
        while h.chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id):
            assert h.env.now < deadline
            yield h.env.timeout(2.0)

    h.run_process(flow(), limit=3000.0)
    assert h.relayer.log.count("packet_clear") >= 1
    voucher_balances = h.chain_b.app.bank.balances(h.receiver.address)
    assert any(d.startswith("ibc/") for d in voucher_balances)


def test_two_relayers_race_produces_redundant_errors(harness):
    """Two uncoordinated relayers on one channel: packets complete exactly
    once and the loser logs 'packet messages are redundant' (§IV-A)."""
    h = harness
    wallet_a2 = Wallet.named("second-relayer-a")
    wallet_b2 = Wallet.named("second-relayer-b")
    h.chain_a.app.genesis_account(wallet_a2, {FEE_DENOM: 10**15})
    h.chain_b.app.genesis_account(wallet_b2, {FEE_DENOM: 10**15})
    h.chain_a.add_node("m1")
    h.chain_b.add_node("m1")
    second = Relayer(
        h.env, "hermes-2", "m1",
        h.chain_a.node("m1"), h.chain_b.node("m1"),
        wallet_a2, wallet_b2, solo_seat(h.env),
    )

    def flow():
        path = yield from h.relayer.establish_path()
        h.path = path
        h.relayer.start()
        second.use_path(path)
        second.start()
        cli = h.cli()
        for _ in range(3):
            submission = yield from cli.ft_transfer(count=10, amount=1)
            yield from cli.wait_confirmation(submission)
        yield h.env.timeout(120.0)
        return path

    path = h.run_process(flow(), limit=3000.0)
    # All packets settled exactly once.
    assert h.chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id) == []
    voucher_balances = h.chain_b.app.bank.balances(h.receiver.address)
    voucher = next(d for d in voucher_balances if d.startswith("ibc/"))
    assert voucher_balances[voucher] == 30  # not double-credited
    redundant = sum(
        relayer.log.count("packet_messages_redundant")
        for relayer in (h.relayer, second)
    )
    assert redundant >= 1


def test_websocket_overflow_leaves_packets_stuck(harness):
    """§V: a block whose events exceed 16 MB latches the subscription; with
    clear_interval=0 its packets neither complete nor time out."""
    h = harness
    # Shrink the frame limit so a modest block overflows (keeps the test fast).
    for node in list(h.chain_a.nodes.values()) + list(h.chain_b.nodes.values()):
        node.websocket.cal = cal.DEFAULT_CALIBRATION.with_overrides(
            websocket_max_frame_bytes=10_000
        )

    def flow():
        path = yield from h.relayer.establish_path()
        h.path = path
        h.relayer.start()
        cli = h.cli()
        # 40 transfers x 400 B of send_packet events = 16 kB > 10 kB limit.
        submission = yield from cli.ft_transfer(count=40, amount=1)
        ok = yield from cli.wait_confirmation(submission)
        assert ok
        yield h.env.timeout(200.0)
        return path

    path = h.run_process(flow(), limit=3000.0)
    assert h.relayer.log.count("failed_to_collect_events") >= 1
    # Stuck: committed on A, never received on B, never timed out.
    pending = h.chain_a.app.ibc.pending_commitments("transfer", path.a.channel_id)
    assert len(pending) == 40
    assert h.chain_b.app.ibc.pending_commitments("transfer", path.b.channel_id) == []
    # The settlement poll's emptiness test agrees, per channel.
    assert h.chain_a.app.ibc.has_pending_commitments("transfer", path.a.channel_id)
    assert not h.chain_a.app.ibc.has_pending_commitments("transfer", "channel-99")
    assert not h.chain_b.app.ibc.has_pending_commitments("transfer", path.b.channel_id)
