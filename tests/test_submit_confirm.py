"""The one submit-and-confirm path: the relayer's legs, the handshake and
the workload's Hermes CLI all sign, broadcast and confirm through
``ChainEndpoint``.

Pinned here:

* the sequence rule, both branches: a broadcast the node did not accept
  gives its sequence back only if no later transaction was signed
  meanwhile;
* a CLI confirmation whose first polls time out is counted committed
  and logs no ``failed_tx_no_confirmation``;
* the CLI keeps no broadcast or ``/tx`` poll of its own.
"""

from __future__ import annotations

import ast

import pytest

from repro.errors import ChainError
from repro.framework.workload import WorkloadStats
from repro.relayer import WorkloadCli
from repro.relayer.logging import RelayerLog

from tests.test_endpoint_supervisor import bank_msgs, make_endpoint
from tests.test_tx_overlay import SRC, _calls_in_functions


def _lose_broadcasts_until(h, rng, until: float) -> None:
    """Node A silently drops every request until sim time ``until``; a
    broadcast sent meanwhile times out client-side (a lost broadcast)."""
    h.node_a.rpc.set_brownout(1.0, until=until, rng=rng.keyed("lost-broadcast"))


# -- the sequence rule --------------------------------------------------------


def test_lost_broadcast_gives_back_its_sequence(harness, rng):
    """The last transaction signed was lost: its sequence is the account's
    next, so the next transaction reuses it and pays no mismatch."""
    h = harness
    endpoint = make_endpoint(h, "ep-lost")
    _lose_broadcasts_until(h, rng, until=1.0)

    def flow():
        (lost,) = yield from endpoint.submit_msgs(bank_msgs(endpoint, 1), "recv")
        given_back = endpoint.factory.local_sequence
        (again,) = yield from endpoint.submit_msgs(bank_msgs(endpoint, 1), "recv")
        return lost, given_back, again

    lost, given_back, again = h.run_process(flow())
    assert lost.broadcast is None
    assert endpoint.log.count("broadcast_failed") == 1
    assert given_back == lost.tx.sequence
    assert again.accepted and again.tx.sequence == lost.tx.sequence
    assert endpoint.log.count("account_sequence_mismatch") == 0


def test_lost_broadcast_keeps_sequence_after_a_later_signing(harness, rng):
    """Another leg signed while the broadcast was in flight, so the lost
    sequence is no longer the account's next: the loss leaves the local
    sequence where the later signing left it."""
    h = harness
    endpoint = make_endpoint(h, "ep-kept")
    _lose_broadcasts_until(h, rng, until=1.0)
    outcomes = {}

    def leg(label, delay):
        yield h.env.timeout(delay)
        (entry,) = yield from endpoint.submit_msgs(bank_msgs(endpoint, 1), label)
        outcomes[label] = (entry, endpoint.factory.local_sequence)

    def flow():
        # The ack leg signs at t=2, after the brown-out, while the recv
        # leg's broadcast (signed at t=0) waits out its 10 s RPC timeout.
        # The node never saw the recv tx, so the ack leg's first signing
        # mismatches, re-syncs and retries with the lost sequence.
        ack = h.env.process(leg("ack", 2.0), name="ack-leg")
        yield from leg("recv", 0.0)
        yield ack

    h.run_process(flow())
    lost, after_loss = outcomes["recv"]
    later, _ = outcomes["ack"]
    assert lost.broadcast is None
    assert later.accepted and later.tx.sequence == lost.tx.sequence
    assert endpoint.log.count("account_sequence_mismatch") == 1
    # Giving the sequence back here would sign a duplicate of ``later``.
    assert after_loss == later.tx.sequence + 1


# -- the CLI's confirmation ---------------------------------------------------


def test_cli_poll_timeouts_then_confirmation_count_as_committed(bootstrapped):
    """Regression: the CLI's own poll loop logged ``failed_tx_no_confirmation``
    on every timed-out ``/tx`` poll and kept polling, so a transaction that
    later confirmed was also reported as never confirmed."""
    h = bootstrapped
    cli = h.cli()
    stats = WorkloadStats()
    client = cli.endpoint.client
    timeout = client.timeout

    def flow():
        submission = yield from cli.ft_transfer(count=2, amount=1)
        assert submission.accepted
        # The first polls time out client-side; then the node answers again.
        client.timeout = 0.0001
        h.env.schedule_callback(6.0, lambda: setattr(client, "timeout", timeout))
        committed = yield from cli.wait_confirmation(submission)
        stats.record(submission)
        return committed

    assert h.run_process(flow())
    assert client.timeouts >= 2
    stats.finalize_commits()
    assert stats.committed_transfers == 2
    assert stats.unconfirmed_transfers == 0
    assert h.relayer.log.count("failed_tx_no_confirmation") == 0


def _unbound_cli(h) -> WorkloadCli:
    """A CLI on chain A that needs no open channel."""
    return WorkloadCli(
        h.env,
        h.node_a,
        h.user,
        "m0",
        RelayerLog(h.env, "cli"),
        source_channel="channel-0",
        receiver=h.receiver.address,
    )


def test_cli_refuses_a_batch_over_one_transaction(harness):
    """One ft-transfer is one transaction: an oversized batch fails before
    anything is signed, rather than going out as several."""
    h = harness
    cli = _unbound_cli(h)

    def flow():
        yield from cli.ft_transfer(count=h.chain_a.cal.max_msgs_per_tx + 1)

    with pytest.raises(ChainError):
        h.run_process(flow())
    assert cli.factory.local_sequence == 0
    assert cli.log.count("transfer_broadcast") == 0


def test_cli_confirmation_window_is_its_own(harness):
    """One endpoint class, two construction-time windows: the CLI waits
    300 s, a relayer 120 s."""
    h = harness
    cli = _unbound_cli(h)
    relayer_side = make_endpoint(h, "ep-window")
    assert cli.endpoint.confirm_timeout_seconds == 300.0
    assert relayer_side.confirm_timeout_seconds == 120.0
    assert cli.endpoint.client.client_id == f"cli/{h.user.name}"
    assert cli.endpoint.confirm_poll_seconds == h.chain_a.cal.cli_confirm_poll_seconds
    assert relayer_side.confirm_poll_seconds == (
        h.chain_a.cal.relayer_confirm_poll_seconds
    )


# -- one path, statically -----------------------------------------------------


def _rpc_call_sites(method: str) -> set[str]:
    """``module:function`` of every ``*.call("<method>", ...)`` in src/repro."""
    sites = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for function, call in _calls_in_functions(tree):
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "call"
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value == method
            ):
                sites.add(f"{path.relative_to(SRC).as_posix()}:{function}")
    return sites


def test_broadcast_and_tx_poll_live_only_in_the_endpoint():
    endpoint = "repro/relayer/endpoint.py:ChainEndpoint"
    assert _rpc_call_sites("broadcast_tx_sync") == {
        f"{endpoint}._sign_and_broadcast",
        # The spam adversary replays one pre-signed tx on purpose.
        "repro/framework/workload.py:WorkloadDriver._spam_loop",
    }
    assert _rpc_call_sites("tx") == {f"{endpoint}.confirm_txs"}
    assert _rpc_call_sites("account") == {f"{endpoint}._sign_and_broadcast"}
