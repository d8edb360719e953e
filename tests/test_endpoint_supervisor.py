"""Unit tests for the relayer's ChainEndpoint, Supervisor and CLI paths."""

import pytest

from repro.cosmos.accounts import Wallet
from repro.cosmos.app import FEE_DENOM
from repro.ibc.msgs import MsgUpdateClient
from repro.relayer.endpoint import ChainEndpoint
from repro.relayer.logging import RelayerLog


def make_endpoint(
    harness, name="ep-test", calibration=None, rpc_retry_attempts=0
) -> ChainEndpoint:
    """An endpoint on chain A; ``calibration`` overrides chain A's."""
    wallet = Wallet.named(name)
    harness.chain_a.app.genesis_account(wallet, {FEE_DENOM: 10**15})
    if calibration:
        harness.chain_a.cal = harness.chain_a.cal.with_overrides(**calibration)
    log = RelayerLog(harness.env, name)
    return ChainEndpoint(
        harness.env,
        harness.node_a,
        wallet,
        "m0",
        log,
        rpc_retry_attempts=rpc_retry_attempts,
    )


class DummyMsg:
    kind = "bank_send"

    def __init__(self, sender, recipient="sink", amount=1):
        from repro.cosmos.tx import MsgSend

        self._msg = MsgSend(
            sender=sender, recipient=recipient, denom=FEE_DENOM, amount=amount
        )

    def __getattr__(self, item):
        return getattr(self._msg, item)


def bank_msgs(endpoint, n):
    from repro.cosmos.tx import MsgSend

    sender = endpoint.factory.wallet.address
    return [
        MsgSend(sender=sender, recipient="sink", denom=FEE_DENOM, amount=1)
        for _ in range(n)
    ]


def test_submit_chunks_into_transactions(harness):
    h = harness
    endpoint = make_endpoint(h, "ep-chunk", {"max_msgs_per_tx": 10})

    def flow():
        submitted = yield from endpoint.submit_msgs(
            bank_msgs(endpoint, 25), label="recv"
        )
        return submitted

    submitted = h.run_process(flow())
    assert [s.payload_msgs for s in submitted] == [10, 10, 5]
    assert all(s.accepted for s in submitted)


def test_prepend_msg_added_to_each_chunk(harness):
    h = harness
    endpoint = make_endpoint(h, "ep-prepend", {"max_msgs_per_tx": 10})

    def flow():
        # Use a bank message as a stand-in prepend (routing-wise valid).
        from repro.cosmos.tx import MsgSend

        prepend = MsgSend(
            sender=endpoint.factory.wallet.address,
            recipient="sink",
            denom=FEE_DENOM,
            amount=1,
        )
        submitted = yield from endpoint.submit_msgs(
            bank_msgs(endpoint, 20), label="recv", prepend_msg=prepend
        )
        return submitted

    submitted = h.run_process(flow())
    assert [s.tx.msg_count for s in submitted] == [11, 11]
    assert [s.payload_msgs for s in submitted] == [10, 10]


def test_optimistic_sequences_let_multiple_txs_queue(harness):
    h = harness
    endpoint = make_endpoint(h, "ep-seq")

    def flow():
        submitted = yield from endpoint.submit_msgs(
            bank_msgs(endpoint, 250), label="recv"
        )
        return submitted

    submitted = h.run_process(flow())
    sequences = [s.tx.sequence for s in submitted]
    assert sequences == [0, 1, 2]
    assert all(s.accepted for s in submitted)


def test_sequence_mismatch_triggers_resync_and_retry(harness):
    h = harness
    endpoint = make_endpoint(h, "ep-resync")
    # Poison the local sequence: simulate a crashed/restarted relayer whose
    # disk state is ahead of the chain.
    endpoint.factory.resync_sequence(42)

    def flow():
        submitted = yield from endpoint.submit_msgs(
            bank_msgs(endpoint, 5), label="recv"
        )
        return submitted

    submitted = h.run_process(flow())
    assert endpoint.log.count("account_sequence_mismatch") >= 1
    assert submitted[-1].accepted


def test_confirmation_polling_finds_committed_tx(bootstrapped):
    h = bootstrapped
    endpoint = make_endpoint(h, "ep-confirm")

    def flow():
        submitted = yield from endpoint.submit_msgs(
            bank_msgs(endpoint, 3), label="recv"
        )
        confirmed = yield from endpoint.confirm_txs(submitted, "recv")
        return confirmed

    confirmed = h.run_process(flow())
    assert all(s.executed_ok for s in confirmed)
    assert all(s.confirm_time is not None for s in confirmed)
    assert endpoint.log.count("recv_confirmation") == 1


def test_confirmation_gives_up_after_window(harness):
    h = harness
    # Chains NOT started: nothing will ever commit.
    endpoint = make_endpoint(h, "ep-never")
    endpoint.confirm_timeout_seconds = 5.0

    def flow():
        submitted = yield from endpoint.submit_msgs(
            bank_msgs(endpoint, 1), label="recv"
        )
        confirmed = yield from endpoint.confirm_txs(submitted, "recv")
        return confirmed

    confirmed = h.run_process(flow(), limit=100.0)
    assert confirmed[0].confirmed is None
    assert endpoint.log.count("failed_tx_no_confirmation") >= 1


def test_unconfirmed_tx_logged_exactly_once(bootstrapped):
    """Regression: when confirmation polls themselves fail with RPC errors,
    ``failed_tx_no_confirmation`` must be recorded once per unconfirmed tx
    in the terminal sweep — not once per failed poll attempt."""
    h = bootstrapped
    endpoint = make_endpoint(h, "ep-once", {"max_msgs_per_tx": 10})
    endpoint.confirm_timeout_seconds = 5.0

    def flow():
        submitted = yield from endpoint.submit_msgs(
            bank_msgs(endpoint, 20), label="recv"
        )
        assert len(submitted) == 2 and all(s.accepted for s in submitted)
        # Every subsequent poll times out client-side, repeatedly, across
        # the whole 5 s window (the old bug logged on each attempt).
        endpoint.client.timeout = 0.0001
        confirmed = yield from endpoint.confirm_txs(submitted, "recv")
        return confirmed

    confirmed = h.run_process(flow())
    assert all(s.confirmed is None for s in confirmed)
    assert endpoint.log.count("failed_tx_no_confirmation") == 2


def test_supervisor_heights_track_notifications(bootstrapped):
    h = bootstrapped

    def flow():
        yield h.env.timeout(30.0)

    h.run_process(flow())
    heights = h.relayer.heights
    assert heights["chain-a"] >= h.chain_a.engine.height - 1
    assert heights["chain-b"] >= h.chain_b.engine.height - 1


def test_cli_broadcast_failure_restores_sequence(harness):
    """If the broadcast RPC itself fails, the CLI reuses the sequence."""
    h = harness
    cli_wallet = h.user
    from repro.relayer.cli import WorkloadCli

    cli = WorkloadCli(
        h.env,
        h.node_a,
        cli_wallet,
        "m0",
        RelayerLog(h.env, "cli-test"),
        source_channel="channel-0",
        receiver="whoever",
        rpc_timeout=0.0001,  # everything will time out client-side
    )

    def flow():
        submission = yield from cli.ft_transfer(count=1, amount=1)
        return submission

    submission = h.run_process(flow())
    assert submission.broadcast is None
    assert cli.factory.local_sequence == submission.tx.sequence  # restored
