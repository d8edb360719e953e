"""Tests for multi-hop denom behaviour through the full transfer app."""

import pytest

from repro.cosmos.app import TRANSFER_DENOM
from repro.cosmos.denom import DenomTrace
from repro.ibc.msgs import MsgChannelOpenAck, MsgChannelOpenInit, MsgChannelOpenTry, MsgChannelOpenConfirm, MsgTransfer, MsgUpdateClient
from repro.ibc.channel import ChannelOrder
from repro.ibc.packet import Height, Packet
from repro.ibc.msgs import MsgRecvPacket

from tests.ibc_harness import IbcPair


def open_second_channel(pair: IbcPair) -> tuple[str, str]:
    """Open channel-1 over the existing connection on both chains."""
    pair.exec_ok(
        pair.a,
        pair.relayer_a,
        [
            MsgChannelOpenInit(
                port_id="transfer",
                connection_id=pair.conn_a,
                counterparty_port_id="transfer",
                ordering=ChannelOrder.UNORDERED,
                version="ics20-1",
            )
        ],
    )
    chan_a2 = sorted(c for (_p, c) in pair.a.ibc.channels)[-1]
    header_a = pair.update_a_on_b()
    pair.exec_ok(
        pair.b,
        pair.relayer_b,
        [
            MsgChannelOpenTry(
                port_id="transfer",
                connection_id=pair.conn_b,
                counterparty_port_id="transfer",
                counterparty_channel_id=chan_a2,
                ordering=ChannelOrder.UNORDERED,
                version="ics20-1",
                proof_init=pair.a.ibc.prove_channel("transfer", chan_a2),
                proof_height=header_a.height,
            )
        ],
    )
    chan_b2 = sorted(c for (_p, c) in pair.b.ibc.channels)[-1]
    header_b = pair.update_b_on_a()
    pair.exec_ok(
        pair.a,
        pair.relayer_a,
        [
            MsgUpdateClient(client_id=pair.client_on_a, header=header_b),
            MsgChannelOpenAck(
                port_id="transfer",
                channel_id=chan_a2,
                counterparty_channel_id=chan_b2,
                proof_try=pair.b.ibc.prove_channel("transfer", chan_b2),
                proof_height=header_b.height,
            ),
        ],
    )
    header_a = pair.update_a_on_b()
    pair.exec_ok(
        pair.b,
        pair.relayer_b,
        [
            MsgChannelOpenConfirm(
                port_id="transfer",
                channel_id=chan_b2,
                proof_ack=pair.a.ibc.prove_channel("transfer", chan_a2),
                proof_height=header_a.height,
            )
        ],
    )
    return chan_a2, chan_b2


def transfer_on(pair, channel_a, channel_b, amount) -> Packet:
    msg = MsgTransfer(
        source_port="transfer",
        source_channel=channel_a,
        denom=TRANSFER_DENOM,
        amount=amount,
        sender=pair.user.wallet.address,
        receiver=pair.receiver.address,
        timeout_height=Height(0, pair.b.height + 100),
    )
    result = pair.exec_ok(pair.a, pair.user, [msg])
    packet = next(e.packet for e in result.events if e.type == "send_packet")
    assert (packet.source_channel, packet.destination_channel) == (
        channel_a,
        channel_b,
    )
    return packet


def test_same_token_via_two_channels_is_not_fungible():
    """The paper's §IV-A caveat, end to end: uatom sent over channel-0 and
    channel-1 arrives as two DIFFERENT voucher denominations."""
    pair = IbcPair()
    chan_a2, chan_b2 = open_second_channel(pair)

    p1 = transfer_on(pair, pair.chan_a, pair.chan_b, 10)
    pair.relay_recv([p1])

    p2 = transfer_on(pair, chan_a2, chan_b2, 20)
    header = pair.a.signed_header()
    pair.exec_ok(
        pair.b,
        pair.relayer_b,
        [
            MsgUpdateClient(client_id=pair.client_on_b, header=header),
            MsgRecvPacket(
                packet=p2,
                proof_commitment=pair.a.ibc.prove_commitment(
                    "transfer", chan_a2, p2.sequence
                ),
                proof_height=header.height,
            ),
        ],
    )

    balances = pair.b.bank.balances(pair.receiver.address)
    vouchers = sorted(d for d in balances if d.startswith("ibc/"))
    assert len(vouchers) == 2
    amounts = sorted(balances[v] for v in vouchers)
    assert amounts == [10, 20]

    # Each voucher resolves to its own trace.
    registry = pair.b.app.transfer.denoms
    traces = {registry.resolve(v).full_path() for v in vouchers}
    assert traces == {
        f"transfer/{pair.chan_b}/{TRANSFER_DENOM}",
        f"transfer/{chan_b2}/{TRANSFER_DENOM}",
    }


def test_voucher_returning_on_wrong_channel_does_not_unescrow():
    """A voucher minted via channel-0 sent back via channel-1 must NOT
    unlock channel-0's escrow: it travels onward as a two-hop voucher."""
    pair = IbcPair()
    chan_a2, chan_b2 = open_second_channel(pair)
    packet = pair.relay_full_cycle(amount=30)
    voucher = pair.voucher_denom()

    receiver_factory = pair.b.fund_wallet(pair.receiver, tokens=0)
    msg = MsgTransfer(
        source_port="transfer",
        source_channel=chan_b2,  # the WRONG way home
        denom=voucher,
        amount=30,
        sender=pair.receiver.address,
        receiver=pair.user.wallet.address,
        timeout_height=Height(0, pair.a.height + 100),
    )
    result = pair.exec_ok(pair.b, receiver_factory, [msg])
    back = next(e.packet for e in result.events if e.type == "send_packet")
    assert (back.source_channel, back.destination_channel) == (chan_b2, chan_a2)
    header_b = pair.b.signed_header()
    from repro.ibc.transfer import escrow_address

    escrow_before = pair.a.bank.balance(
        escrow_address("transfer", pair.chan_a), TRANSFER_DENOM
    )
    pair.exec_ok(
        pair.a,
        pair.relayer_a,
        [
            MsgUpdateClient(client_id=pair.client_on_a, header=header_b),
            MsgRecvPacket(
                packet=back,
                proof_commitment=pair.b.ibc.prove_commitment(
                    "transfer", chan_b2, back.sequence
                ),
                proof_height=header_b.height,
            ),
        ],
    )
    # channel-0's escrow untouched; A minted a two-hop voucher instead.
    assert (
        pair.a.bank.balance(
            escrow_address("transfer", pair.chan_a), TRANSFER_DENOM
        )
        == escrow_before
    )
    balances = pair.a.bank.balances(pair.user.wallet.address)
    two_hop = [d for d in balances if d.startswith("ibc/")]
    assert len(two_hop) == 1
    trace = pair.a.app.transfer.denoms.resolve(two_hop[0])
    assert len(trace.path) == 2  # transfer/chanA2 / transfer/chanB / uatom