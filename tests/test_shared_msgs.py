"""Equal immutable messages are shared, not copied.

``WorkloadCli.build_transfer_msgs`` fills a ``--number-msgs`` transaction
with ``count`` references to one frozen ``MsgTransfer``, the way Hermes
repeats one message.  Each reference must still execute as a message of
its own: its own sequence, packet and commitment, the same transaction
hash and gas as separately built equal messages, and the same all-or-
nothing rollback.  The ICS-20 payload is encoded from the message's
fields, and must be the bytes its record would encode.
"""

from __future__ import annotations

from repro.cosmos.tx import TxFactory
from repro.ibc import keys
from repro.ibc.packet import Height
from repro.ibc.transfer import FungibleTokenPacketData
from repro.relayer import WorkloadCli

from tests.ibc_harness import IbcPair
from tests.test_journal_rollback import (
    assert_rolled_back,
    poison,
    snapshot,
    transfer_msg,
)

COUNT = 100


def test_cli_repeats_one_message(harness):
    cli = WorkloadCli(
        harness.env,
        harness.node_a,
        harness.user,
        "m0",
        harness.relayer.log,
        source_channel="channel-0",
        receiver=harness.receiver.address,
    )
    msgs = cli.build_transfer_msgs(COUNT, 3, 50, 7)
    assert len(msgs) == COUNT
    assert all(msg is msgs[0] for msg in msgs)
    msg = msgs[0]
    assert (msg.source_channel, msg.amount, msg.timeout_height) == (
        "channel-0", 3, Height(0, 57)
    )
    assert msg.sender == msg.signer == harness.user.address
    # A later call builds a new message rather than reuse the old one.
    assert cli.build_transfer_msgs(1, 3, 50, 7)[0] is not msg


def _execute(pair: IbcPair, msgs):
    tx = pair.user.build(msgs, gas_limit=10**9)
    (result,) = pair.a.make_block([tx])
    assert result.ok, result.log
    return tx, result


def test_shared_message_sends_one_packet_per_reference():
    pair = IbcPair()
    msg = transfer_msg(pair, pair.user, 10)
    _tx, result = _execute(pair, [msg] * COUNT)

    packets = [event.packet for event in result.events if event.type == "send_packet"]
    assert [packet.sequence for packet in packets] == list(range(1, COUNT + 1))
    assert len({id(packet) for packet in packets}) == COUNT
    # One commitment per sequence, each stored under its own path.  The
    # bytes repeat: ICS-04 commits to the timeout and the data, which the
    # equal messages share, not to the sequence.
    store = pair.a.app.store
    paths = {
        keys.packet_commitment_path("transfer", pair.chan_a, packet.sequence)
        for packet in packets
    }
    assert len(paths) == COUNT
    for packet in packets:
        key = ("transfer", pair.chan_a, packet.sequence)
        assert pair.a.ibc._commitments[key[:2]][packet.sequence] == packet.commitment()
        assert pair.a.ibc._sent_packets[key] is packet
        path = keys.packet_commitment_path("transfer", pair.chan_a, packet.sequence)
        assert store.get(path) == packet.commitment()
    assert pair.a.ibc.next_sequence_send[("transfer", pair.chan_a)] == COUNT + 1
    # The payload encoded from the message's fields is the record's encoding.
    payload = FungibleTokenPacketData(msg.denom, msg.amount, msg.sender, msg.receiver)
    assert {packet.data for packet in packets} == {payload.encode()}
    assert FungibleTokenPacketData.decode(packets[0].data) == payload


def test_shared_and_separate_messages_execute_alike():
    shared, separate = IbcPair(), IbcPair()
    msg = transfer_msg(shared, shared.user, 10)
    tx_shared, result_shared = _execute(shared, [msg] * COUNT)
    tx_separate, result_separate = _execute(
        separate, [transfer_msg(separate, separate.user, 10) for _ in range(COUNT)]
    )
    assert tx_shared.msgs[0] is tx_shared.msgs[-1]
    assert tx_separate.msgs[0] is not tx_separate.msgs[-1]
    assert tx_shared.hash == tx_separate.hash
    assert result_shared.gas_used == result_separate.gas_used
    assert result_shared.gas_wanted == result_separate.gas_wanted
    assert [event.packet for event in result_shared.events] == [
        event.packet for event in result_separate.events
    ]
    assert snapshot(shared.a) == snapshot(separate.a)
    assert shared.a.app_hash == separate.a.app_hash


def test_shared_messages_roll_back_together():
    pair = IbcPair()
    # One slot above the message limit, for the poisoned message.
    factory = TxFactory(pair.user.wallet, pair.a.app.cal, prepended_msgs=1)
    factory.resync_sequence(pair.a.app.account_sequence(pair.user.wallet.address))
    msg = transfer_msg(pair, pair.user, 10)
    assert_rolled_back(pair, pair.a, factory, [msg] * COUNT, poison(pair))
