"""Differential test of transaction atomicity: a tx whose last message
fails leaves every piece of journaled state exactly as it was before the tx.

Each case builds a multi-message transaction for one state-mutating handler
on the direct two-chain harness, appends a message that fails, and compares
the chain against a snapshot taken before the tx: every ``IbcModule``
mirror (sequences, commitments, sent packets, receipts, acks, connections,
channels), the bank's balance columns and supply, and the provable store's
pending data.  The fee denom is left out: fees are charged before message
execution and stay charged when it fails, as in the SDK.
"""

from __future__ import annotations

import pytest

from repro.cosmos.app import FEE_DENOM, TRANSFER_DENOM
from repro.ibc.channel import ChannelOrder
from repro.ibc.msgs import MsgChannelOpenInit, MsgConnectionOpenInit, MsgTransfer
from repro.ibc.packet import Height

from tests.ibc_harness import IbcPair

_FEE_SUFFIX = f"/{FEE_DENOM}".encode()


def snapshot(chain) -> dict:
    ibc, bank = chain.ibc, chain.bank
    # Non-zero balances by denom and slot: a failed tx may leave a column
    # created or grown (zero-filled) by a write it rolled back.
    balances = {
        denom: {i: v for i, v in enumerate(column) if v}
        for denom, column in bank._columns.items()
        if denom != FEE_DENOM
    }
    return {
        "next_sequence_send": dict(ibc.next_sequence_send),
        "next_sequence_recv": dict(ibc.next_sequence_recv),
        "next_sequence_ack": dict(ibc.next_sequence_ack),
        "commitments": {key: dict(seqs) for key, seqs in ibc._commitments.items()},
        "sent_packets": dict(ibc._sent_packets),
        "receipts": dict(ibc._receipts),
        "acks": dict(ibc._acks),
        "connections": dict(ibc.connections),
        "channels": dict(ibc.channels),
        "balances": {denom: held for denom, held in balances.items() if held},
        "supply": {
            denom: v for denom, v in bank._supply.items() if v and denom != FEE_DENOM
        },
        "store": {
            k: v
            for k, v in chain.app.store._data.items()
            if not k.endswith(_FEE_SUFFIX)
        },
    }


def transfer_msg(pair: IbcPair, sender, amount: int, denom: str = TRANSFER_DENOM):
    return MsgTransfer(
        source_port="transfer",
        source_channel=pair.chan_a,
        denom=denom,
        amount=amount,
        sender=sender.wallet.address,
        receiver=pair.receiver.address,
        timeout_height=Height(0, pair.b.height + 100),
        signer=sender.wallet.address,
    )


def assert_rolled_back(pair: IbcPair, chain, factory, msgs, failing) -> None:
    """Run ``msgs + [failing]`` as one tx on ``chain``; the tx must fail
    and leave the chain equal to its snapshot from before."""
    before = snapshot(chain)
    pair.exec_expect_fail(chain, factory, [*msgs, failing])
    assert snapshot(chain) == before
    # The messages before the failing one were valid: alone they commit,
    # so the rollback above undid real writes.
    pair.exec_ok(chain, factory, msgs)
    assert snapshot(chain) != before


def poison(pair: IbcPair):
    """A last message that fails: a transfer of more than anyone holds."""
    return transfer_msg(pair, pair.user, 10**30)


def test_transfer_native_escrow_rolls_back():
    pair = IbcPair()
    msgs = [transfer_msg(pair, pair.user, 10), transfer_msg(pair, pair.user, 20)]
    assert_rolled_back(pair, pair.a, pair.user, msgs, poison(pair))


def test_transfer_voucher_burn_rolls_back():
    pair = IbcPair()
    pair.relay_full_cycle(amount=100)
    back = pair.reverse()
    voucher = pair.voucher_denom()
    msgs = [
        transfer_msg(back, back.user, 10, voucher),
        transfer_msg(back, back.user, 20, voucher),
    ]
    failing = transfer_msg(back, back.user, 10**30, voucher)
    assert_rolled_back(back, back.a, back.user, msgs, failing)


@pytest.mark.parametrize("ordering", [ChannelOrder.UNORDERED, ChannelOrder.ORDERED])
def test_recv_rolls_back(ordering):
    pair = IbcPair(ordering=ordering)
    p1, p2 = pair.transfer(amount=10), pair.transfer(amount=20)
    # The last message re-delivers p1: the losing relayer's redundant recv.
    *msgs, failing = pair.recv_msgs([p1, p2, p1])
    assert_rolled_back(pair, pair.b, pair.relayer_b, msgs, failing)


def test_ack_on_ordered_channel_rolls_back():
    pair = IbcPair(ordering=ChannelOrder.ORDERED)
    p1, p2 = pair.transfer(amount=10), pair.transfer(amount=20)
    pair.relay_recv([p1, p2])
    *msgs, failing = pair.ack_msgs([p1, p2, p1])
    assert_rolled_back(pair, pair.a, pair.relayer_a, msgs, failing)


def test_timeout_rolls_back():
    pair = IbcPair()
    p1 = pair.transfer(amount=10, timeout_blocks=1)
    p2 = pair.transfer(amount=20, timeout_blocks=1)
    pair.b.make_block([])  # the destination passes both timeout heights
    *msgs, failing = pair.timeout_msgs([p1, p2, p1])
    assert_rolled_back(pair, pair.a, pair.relayer_a, msgs, failing)


def test_handshake_init_rolls_back():
    pair = IbcPair()
    msgs = [
        MsgConnectionOpenInit(
            client_id=pair.client_on_a, counterparty_client_id=pair.client_on_b
        ),
        MsgChannelOpenInit(
            port_id="transfer",
            connection_id=pair.conn_a,
            counterparty_port_id="transfer",
            ordering=ChannelOrder.UNORDERED,
            version="ics20-1",
        ),
    ]
    assert_rolled_back(pair, pair.a, pair.relayer_a, msgs, poison(pair))
