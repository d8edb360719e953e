"""Multi-hop (hub-routed) transfers at the protocol level.

A three-chain line A — H — B built from two :class:`IbcPair` harnesses
sharing the hub chain.  The forward middleware inside the hub's transfer
app turns one user send on A into a chained ICS-20 transfer: recv on H,
onward send H→B in the same transaction, denom trace stacking one hop per
channel.  These tests pin the money movements hop by hop — including the
paper-relevant failure semantics: a second-hop failure refunds the hub's
fallback address and *never* touches the origin's escrow, while a bad
route fails the first hop into an error ack that refunds the origin.
"""

import pytest

from repro.cosmos.app import TRANSFER_DENOM
from repro.cosmos.bank import module_address
from repro.cosmos.denom import DenomTrace
from repro.ibc.packet import Packet
from repro.ibc.transfer import (
    ForwardRoute,
    encode_forward_receiver,
    escrow_address,
    parse_forward_receiver,
)
from repro.errors import PacketError

from .ibc_harness import DirectChain, IbcPair

FALLBACK = module_address("transfer/forward")


# -- receiver-field codec ----------------------------------------------------


def test_forward_receiver_roundtrip_one_hop():
    receiver = encode_forward_receiver(
        [("hubfallback", "transfer", "channel-3")], "final-addr"
    )
    route = parse_forward_receiver(receiver)
    assert route == ForwardRoute(
        fallback="hubfallback",
        port="transfer",
        channel="channel-3",
        next_receiver="final-addr",
    )


def test_forward_receiver_roundtrip_nested_hops():
    receiver = encode_forward_receiver(
        [("f1", "transfer", "channel-1"), ("f2", "transfer", "channel-2")],
        "final-addr",
    )
    outer = parse_forward_receiver(receiver)
    assert (outer.fallback, outer.channel) == ("f1", "channel-1")
    inner = parse_forward_receiver(outer.next_receiver)
    assert inner == ForwardRoute(
        fallback="f2",
        port="transfer",
        channel="channel-2",
        next_receiver="final-addr",
    )


def test_plain_address_is_not_a_route():
    assert parse_forward_receiver("cosmos1plainaddress") is None


@pytest.mark.parametrize(
    "receiver",
    [
        "|transfer/channel-0:final",  # empty fallback
        "fb|transfer/channel-0:",  # empty final receiver
        "fb|transfer:final",  # no port/channel separator
        "fb|transfer/channel-0",  # no next receiver
    ],
)
def test_malformed_forward_receiver_raises(receiver):
    with pytest.raises(PacketError):
        parse_forward_receiver(receiver)


# -- the three-chain line ----------------------------------------------------


class HubLine:
    """A — H — B with relaying helpers for both hops."""

    def __init__(self):
        self.a = DirectChain("line-a")
        self.hub = DirectChain("line-h")
        self.b = DirectChain("line-b")
        self.ah = IbcPair(chains=(self.a, self.hub))
        self.hb = IbcPair(chains=(self.hub, self.b))

    def forward_receiver(self) -> str:
        """Route A→H→B: one hop on the hub, then the final receiver on B."""
        return encode_forward_receiver(
            [(FALLBACK, "transfer", self.hb.chan_a)],
            self.hb.receiver.address,
        )

    @staticmethod
    def forwarded_packet(result, src_channel: str, dst_channel: str) -> Packet:
        """The onward packet emitted inside a hop's recv transaction."""
        packet = next(e.packet for e in result.events if e.type == "send_packet")
        assert (packet.source_channel, packet.destination_channel) == (
            src_channel,
            dst_channel,
        )
        return packet

    def stacked_voucher_on_b(self) -> str:
        """The denom B mints: both hops' channels stacked on the base."""
        return (
            DenomTrace.native(TRANSFER_DENOM)
            .prepend("transfer", self.ah.chan_b)
            .prepend("transfer", self.hb.chan_b)
            .ibc_denom()
        )

    def hub_voucher(self) -> str:
        """The denom the hub mints when receiving from A."""
        return (
            DenomTrace.native(TRANSFER_DENOM)
            .prepend("transfer", self.ah.chan_b)
            .ibc_denom()
        )


@pytest.fixture()
def line():
    return HubLine()


def test_hub_forward_delivers_with_stacked_trace(line):
    amount = 25
    packet1 = line.ah.transfer(amount=amount, receiver=line.forward_receiver())
    recv1 = line.ah.relay_recv([packet1])
    packet2 = line.forwarded_packet(recv1, line.hb.chan_a, line.hb.chan_b)
    line.hb.relay_recv([packet2])

    # Origin: native tokens escrowed on A's channel end.
    escrow_a = escrow_address("transfer", line.ah.chan_a)
    assert line.a.bank.balance(escrow_a, TRANSFER_DENOM) == amount
    # Hub: the voucher minted to the fallback was immediately re-escrowed
    # for the onward hop — fallback nets zero, escrow holds the amount.
    hub_voucher = line.hub_voucher()
    escrow_h = escrow_address("transfer", line.hb.chan_a)
    assert line.hub.bank.balance(FALLBACK, hub_voucher) == 0
    assert line.hub.bank.balance(escrow_h, hub_voucher) == amount
    # Destination: the final receiver holds the double-stacked voucher.
    assert (
        line.b.bank.balance(line.hb.receiver.address, line.stacked_voucher_on_b())
        == amount
    )

    # Both hops acknowledge cleanly; nothing is refunded.
    line.hb.relay_ack([packet2])
    line.ah.relay_ack([packet1])
    assert line.a.bank.balance(escrow_a, TRANSFER_DENOM) == amount


def test_voucher_round_trip_unwinds_to_origin(line):
    amount = 40
    user = line.ah.user.wallet.address
    start = line.a.bank.balance(user, TRANSFER_DENOM)

    # Out: A → H → B.
    packet1 = line.ah.transfer(amount=amount, receiver=line.forward_receiver())
    recv1 = line.ah.relay_recv([packet1])
    packet2 = line.forwarded_packet(recv1, line.hb.chan_a, line.hb.chan_b)
    line.hb.relay_recv([packet2])
    line.hb.relay_ack([packet2])
    line.ah.relay_ack([packet1])

    # Back: B → H → A, routed through the hub back to the original user.
    hbr = line.hb.reverse()
    ahr = line.ah.reverse()
    back_receiver = encode_forward_receiver(
        [(FALLBACK, "transfer", line.ah.chan_b)], user
    )
    packet3 = hbr.transfer(
        amount=amount,
        denom=line.stacked_voucher_on_b(),
        receiver=back_receiver,
    )
    recv3 = hbr.relay_recv([packet3])
    packet4 = line.forwarded_packet(recv3, line.ah.chan_b, line.ah.chan_a)
    ahr.relay_recv([packet4])
    ahr.relay_ack([packet4])
    hbr.relay_ack([packet3])

    # Everything unwound: user restored, both escrows empty, no vouchers.
    assert line.a.bank.balance(user, TRANSFER_DENOM) == start
    escrow_a = escrow_address("transfer", line.ah.chan_a)
    escrow_h = escrow_address("transfer", line.hb.chan_a)
    assert line.a.bank.balance(escrow_a, TRANSFER_DENOM) == 0
    assert line.hub.bank.balance(escrow_h, line.hub_voucher()) == 0
    assert (
        line.b.bank.balance(line.hb.receiver.address, line.stacked_voucher_on_b())
        == 0
    )


def test_second_hop_timeout_refunds_fallback_only(line):
    amount = 30
    packet1 = line.ah.transfer(amount=amount, receiver=line.forward_receiver())
    recv1 = line.ah.relay_recv([packet1])
    packet2 = line.forwarded_packet(recv1, line.hb.chan_a, line.hb.chan_b)

    # Let the onward packet expire on B instead of delivering it.
    expiry = packet2.timeout_height.revision_height
    while line.b.height <= expiry:
        line.b.make_block([])
    line.hb.exec_ok(
        line.hb.a, line.hb.relayer_a, line.hb.timeout_msgs([packet2])
    )

    # The hub refunded its *fallback* address from the onward escrow...
    hub_voucher = line.hub_voucher()
    escrow_h = escrow_address("transfer", line.hb.chan_a)
    assert line.hub.bank.balance(FALLBACK, hub_voucher) == amount
    assert line.hub.bank.balance(escrow_h, hub_voucher) == 0
    # ...while hop 1's success ack leaves the origin escrow untouched and
    # the final receiver never saw the funds.
    line.ah.relay_ack([packet1])
    escrow_a = escrow_address("transfer", line.ah.chan_a)
    assert line.a.bank.balance(escrow_a, TRANSFER_DENOM) == amount
    assert (
        line.b.bank.balance(line.hb.receiver.address, line.stacked_voucher_on_b())
        == 0
    )


def test_unopen_forward_channel_error_acks_and_refunds_origin(line):
    amount = 15
    user = line.ah.user.wallet.address
    start = line.a.bank.balance(user, TRANSFER_DENOM)
    bad_receiver = encode_forward_receiver(
        [(FALLBACK, "transfer", "channel-99")], line.hb.receiver.address
    )
    packet1 = line.ah.transfer(amount=amount, receiver=bad_receiver)
    recv1 = line.ah.relay_recv([packet1])
    # The hop failed before any balance change: no onward send, no mint.
    assert not any(e.type == "send_packet" for e in recv1.events)
    assert line.hub.bank.balance(FALLBACK, line.hub_voucher()) == 0

    # The error ack refunds the sender at the origin.
    line.ah.relay_ack([packet1])
    assert line.a.bank.balance(user, TRANSFER_DENOM) == start
    escrow_a = escrow_address("transfer", line.ah.chan_a)
    assert line.a.bank.balance(escrow_a, TRANSFER_DENOM) == 0
