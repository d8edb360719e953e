"""Differential test of transaction atomicity: a tx whose last message
fails leaves every piece of journaled state exactly as it was before the tx.

Each case builds a multi-message transaction for one state-mutating handler
on the direct two-chain harness, appends a message that fails, and compares
the chain against a snapshot taken before the tx: every ``IbcModule``
mirror (sequences, commitments, sent packets, receipts, acks, connections,
channels), each light client's consensus heights and latest height, the
next client, connection and channel id, the bank's balance columns and
supply, and the provable store's pending data.  The fee denom is left out:
fees are charged before message execution and stay charged when it fails,
as in the SDK.  A light client's freeze is left out on purpose too: it
outlives the failed tx that carried the conflicting header.
"""

from __future__ import annotations

import pytest

from repro.cosmos.app import FEE_DENOM, TRANSFER_DENOM
from repro.ibc import keys
from repro.ibc.channel import ChannelEnd, ChannelOrder
from repro.ibc.client import make_signed_header
from repro.ibc.connection import ConnectionEnd
from repro.ibc.msgs import (
    MsgChannelOpenAck,
    MsgChannelOpenInit,
    MsgChannelOpenTry,
    MsgConnectionOpenAck,
    MsgConnectionOpenInit,
    MsgConnectionOpenTry,
    MsgCreateClient,
    MsgTransfer,
    MsgUpdateClient,
)
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
        "clients": {
            client_id: (sorted(client.consensus_states), client.latest_height)
            for client_id, client in ibc.clients.items()
        },
        "next_ids": next_ids(ibc),
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


def next_ids(ibc) -> tuple[str, str, str]:
    """The ids the next client, connection and channel creation take: ids
    are never freed, so each is numbered by the size of its table."""
    return (
        keys.client_id(len(ibc.clients)),
        keys.connection_id(len(ibc.connections)),
        keys.channel_id(len(ibc.channels)),
    )


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
    assert_created_next(chain, before)


def assert_created_next(chain, before) -> None:
    """Whatever the last tx created took the next unused id: the failed tx
    before it burnt none."""
    ibc = chain.ibc
    for table, created, first in (
        ("clients", set(ibc.clients), before["next_ids"][0]),
        ("connections", set(ibc.connections), before["next_ids"][1]),
        ("channels", {cid for _, cid in ibc.channels}, before["next_ids"][2]),
    ):
        old = {key[1] if isinstance(key, tuple) else key for key in before[table]}
        new = created - old
        assert new <= {first}, (table, sorted(new), first)


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


def test_update_client_rolls_back():
    """A failed tx's new header leaves neither a consensus state nor a new
    latest height in the light client, nor its store key."""
    pair = IbcPair()
    pair.b.make_block([])  # a height A's client of B has not seen
    header = pair.b.signed_header()
    client = pair.a.ibc.clients[pair.client_on_a]
    assert header.height not in client.consensus_states
    msgs = [MsgUpdateClient(client_id=pair.client_on_a, header=header)]
    assert_rolled_back(pair, pair.a, pair.relayer_a, msgs, poison(pair))
    assert client.latest_height == header.height


def create_client_msg(pair: IbcPair) -> MsgCreateClient:
    return MsgCreateClient(
        chain_id=pair.b.chain_id,
        trusting_period=14 * 24 * 3600.0,
        initial_header=pair.b.signed_header(),
        signer=pair.relayer_a.wallet.address,
    )


def test_create_client_rolls_back_and_frees_its_id():
    pair = IbcPair()
    msgs = [create_client_msg(pair)]
    assert_rolled_back(pair, pair.a, pair.relayer_a, msgs, poison(pair))
    assert keys.client_id(1) in pair.a.ibc.clients


def channel_init_msg(pair: IbcPair, version: str = "ics20-1") -> MsgChannelOpenInit:
    return MsgChannelOpenInit(
        port_id="transfer",
        connection_id=pair.conn_a,
        counterparty_port_id="transfer",
        ordering=ChannelOrder.UNORDERED,
        version=version,
    )


def test_failed_channel_init_frees_its_id():
    """A lone init the transfer app refuses (bad version) fails whole; the
    next good init takes the id it would have taken."""
    pair = IbcPair()
    a = pair.a
    before = snapshot(a)
    result = pair.exec_expect_fail(a, pair.relayer_a, [channel_init_msg(pair, "bogus")])
    assert "requires version" in result.log
    assert snapshot(a) == before
    pair.exec_ok(a, pair.relayer_a, [channel_init_msg(pair)])
    assert ("transfer", keys.channel_id(1)) in a.ibc.channels
    assert_created_next(a, before)


def test_failed_connection_init_frees_its_id():
    pair = IbcPair()
    init = MsgConnectionOpenInit(
        client_id=pair.client_on_a, counterparty_client_id=pair.client_on_b
    )
    assert_rolled_back(pair, pair.a, pair.relayer_a, [init], poison(pair))
    assert keys.connection_id(1) in pair.a.ibc.connections


def test_handshake_ends_are_values():
    pair = IbcPair()
    for end in (
        pair.a.ibc.connections[pair.conn_a],
        pair.a.ibc.channels[("transfer", pair.chan_a)],
    ):
        with pytest.raises(AttributeError):
            end.state = end.state


def _second_connection_at_try(pair: IbcPair) -> tuple[str, str, int]:
    """Open a second connection on the pair's clients up to TRYOPEN on B;
    returns A's end, B's end and the B height A's client has proven."""
    a, b = pair.a, pair.b
    pair.exec_ok(
        a,
        pair.relayer_a,
        [
            MsgConnectionOpenInit(
                client_id=pair.client_on_a, counterparty_client_id=pair.client_on_b
            )
        ],
    )
    conn_a = keys.connection_id(len(a.ibc.connections) - 1)
    header_a = pair.update_a_on_b()
    pair.exec_ok(
        b,
        pair.relayer_b,
        [
            MsgConnectionOpenTry(
                client_id=pair.client_on_b,
                counterparty_client_id=pair.client_on_a,
                counterparty_connection_id=conn_a,
                proof_init=a.ibc.prove_connection(conn_a),
                proof_height=header_a.height,
            )
        ],
    )
    conn_b = keys.connection_id(len(b.ibc.connections) - 1)
    return conn_a, conn_b, pair.update_b_on_a().height


def _second_channel_at_try(pair: IbcPair) -> tuple[str, str, int]:
    """The same for a second channel on the pair's connection."""
    a, b = pair.a, pair.b
    pair.exec_ok(a, pair.relayer_a, [channel_init_msg(pair)])
    chan_a = keys.channel_id(len(a.ibc.channels) - 1)
    header_a = pair.update_a_on_b()
    pair.exec_ok(
        b,
        pair.relayer_b,
        [
            MsgChannelOpenTry(
                port_id="transfer",
                connection_id=pair.conn_b,
                counterparty_port_id="transfer",
                counterparty_channel_id=chan_a,
                ordering=ChannelOrder.UNORDERED,
                version="ics20-1",
                proof_init=a.ibc.prove_channel("transfer", chan_a),
                proof_height=header_a.height,
            )
        ],
    )
    chan_b = keys.channel_id(len(b.ibc.channels) - 1)
    return chan_a, chan_b, pair.update_b_on_a().height


def _connection_ack(pair: IbcPair):
    conn_a, conn_b, height = _second_connection_at_try(pair)
    ack = MsgConnectionOpenAck(
        connection_id=conn_a,
        counterparty_connection_id=conn_b,
        proof_try=pair.b.ibc.prove_connection(conn_b),
        proof_height=height,
    )
    return ack, lambda ibc: ibc.connections[conn_a], lambda raw: ConnectionEnd.decode(
        conn_a, raw
    ), keys.connection_path(conn_a)


def _channel_ack(pair: IbcPair):
    chan_a, chan_b, height = _second_channel_at_try(pair)
    ack = MsgChannelOpenAck(
        port_id="transfer",
        channel_id=chan_a,
        counterparty_channel_id=chan_b,
        proof_try=pair.b.ibc.prove_channel("transfer", chan_b),
        proof_height=height,
    )
    return ack, lambda ibc: ibc.channels[("transfer", chan_a)], lambda raw: (
        ChannelEnd.decode("transfer", chan_a, raw)
    ), keys.channel_path("transfer", chan_a)


@pytest.mark.parametrize("open_ack", [_connection_ack, _channel_ack])
def test_open_ack_rolls_back_to_init(open_ack):
    """A valid ack followed by poison leaves A's end in INIT, in the
    handshake table and in the store alike; alone, the ack opens it."""
    pair = IbcPair()
    ack, end_of, decode, path = open_ack(pair)
    ibc, store = pair.a.ibc, pair.a.app.store
    before = snapshot(pair.a)
    pair.exec_expect_fail(pair.a, pair.relayer_a, [ack, poison(pair)])
    assert snapshot(pair.a) == before
    end = end_of(ibc)
    assert end.state.value == "INIT"
    assert decode(store.get(path)) == end
    pair.exec_ok(pair.a, pair.relayer_a, [ack])
    assert end_of(ibc).state.value == "OPEN"
    assert decode(store.get(path)) == end_of(ibc)


def test_conflicting_header_freezes_through_a_failed_tx():
    """A header that conflicts with a verified height fails its tx and
    freezes the client.  The freeze outlives the rollback (it is evidence,
    not transaction state); the new header before it in the same tx does
    not."""
    pair = IbcPair()
    a, b = pair.a, pair.b
    client = a.ibc.clients[pair.client_on_a]
    height = client.latest_height
    conflicting = make_signed_header(
        chain_id=b.chain_id,
        height=height,
        time=client.consensus_state(height).timestamp,
        root=b"\x42" * 32,
        validator_set=b.validators,
    )
    b.make_block([])
    fresh = b.signed_header()
    before = snapshot(a)
    result = pair.exec_expect_fail(
        a,
        pair.relayer_a,
        [
            MsgUpdateClient(client_id=pair.client_on_a, header=fresh),
            MsgUpdateClient(client_id=pair.client_on_a, header=conflicting),
        ],
    )
    assert "frozen: conflicting header" in result.log
    assert client.state.frozen
    assert snapshot(a) == before
    assert fresh.height not in client.consensus_states
    result = pair.exec_expect_fail(
        a, pair.relayer_a, [MsgUpdateClient(client_id=pair.client_on_a, header=fresh)]
    )
    assert "is frozen" in result.log
