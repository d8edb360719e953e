"""ICS-20 fungible token transfer — the application the paper benchmarks.

Semantics (ibc-go's transfer module):

* Sending a *native* token escrows it in a per-channel escrow account and
  the destination mints a voucher whose denom trace is prefixed with the
  receiving (port, channel).
* Sending a *voucher* back over the hop it came from burns it and the
  destination un-escrows the original token.
* A failed acknowledgement or a timeout refunds the sender (un-escrow or
  re-mint, matching how the tokens left).
* A receiver field of the form ``fallback|port/channel:final`` forwards
  the received tokens over another channel in the same transaction
  (packet-forward middleware style), stacking the denom trace — this is
  how hub-routed A→hub→B transfers are expressed.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Optional, Protocol

from repro.cosmos.bank import module_address
from repro.cosmos.denom import DenomRegistry, DenomTrace
from repro.errors import ChainError, IbcError, PacketError
from repro.ibc import keys
from repro.ibc.channel import ChannelEnd, ChannelState
from repro.ibc.module import Charge, ExecContext, IbcModule
from repro.ibc.msgs import MsgTransfer
from repro.ibc.packet import Acknowledgement, Height, Packet
from repro.sim.records import record
from repro.tendermint.abci import AbciEvent


class BankLike(Protocol):
    """What the transfer app needs from the bank module."""

    def send(self, sender: str, recipient: str, denom: str, amount: int) -> None: ...

    def mint(self, address: str, denom: str, amount: int) -> None: ...

    def burn(self, address: str, denom: str, amount: int) -> None: ...

    def balance(self, address: str, denom: str) -> int: ...


@record
class FungibleTokenPacketData:
    """The ICS-20 packet payload."""

    denom: str  # full trace path, e.g. "transfer/channel-0/uatom" or "uatom"
    amount: int
    sender: str
    receiver: str

    def encode(self) -> bytes:
        return _ftpd_encode(self.denom, self.amount, self.sender, self.receiver)

    @classmethod
    def decode(cls, raw: bytes) -> "FungibleTokenPacketData":
        return _ftpd_decode(raw)


#: Upper bound on the payload memo caches.  A run's working set is one
#: entry per distinct (denom, amount, sender, receiver) tuple — a few
#: thousand even for the heaviest workloads — so the bound only matters
#: for long-lived pool workers, where it stops unbounded cross-run growth.
_PAYLOAD_CACHE_SIZE = 1 << 15


@lru_cache(maxsize=_PAYLOAD_CACHE_SIZE)
def _ftpd_encode(denom: str, amount: int, sender: str, receiver: str) -> bytes:
    # Payloads repeat heavily (same sender/receiver/amount across a run),
    # so each distinct payload is serialised once.  Keyed by the four
    # fields, so ``send_transfers`` encodes straight from the message without
    # building a FungibleTokenPacketData first (DESIGN.md, "Frozen records").
    return json.dumps(
        {
            "denom": denom,
            "amount": str(amount),
            "sender": sender,
            "receiver": receiver,
        },
        sort_keys=True,
    ).encode()


@lru_cache(maxsize=_PAYLOAD_CACHE_SIZE)
def _ftpd_decode(raw: bytes) -> FungibleTokenPacketData:
    payload = json.loads(raw.decode())
    return FungibleTokenPacketData(
        denom=payload["denom"],
        amount=int(payload["amount"]),
        sender=payload["sender"],
        receiver=payload["receiver"],
    )


def reset_caches() -> None:
    """Drop the payload and escrow memo caches (per-run hygiene for pool
    workers)."""
    _ftpd_encode.cache_clear()
    _ftpd_decode.cache_clear()
    escrow_address.cache_clear()


@lru_cache(maxsize=1 << 10)
def escrow_address(port_id: str, channel_id: str) -> str:
    """The per-channel ICS-20 escrow account; one hash per (port, channel)."""
    return module_address(f"transfer/{port_id}/{channel_id}/escrow")


def receiver_chain_is_source(
    source_port: str, source_channel: str, trace: DenomTrace
) -> bool:
    """ibc-go's ``ReceiverChainIsSource``: the token is coming *home*.

    True when the denom's outermost hop is the packet's **source** end —
    the voucher was minted on the sending chain for a token that
    originated here, so receiving it un-escrows rather than mints.  The
    two ends of a channel generally have different channel ids, so
    comparing against the destination end (a symmetric-topology bug this
    check replaces) silently breaks on any asymmetric topology.
    """
    return not trace.is_native and trace.outermost_hop() == (
        source_port,
        source_channel,
    )


def sender_chain_is_source(
    source_port: str, source_channel: str, trace: DenomTrace
) -> bool:
    """ibc-go's ``SenderChainIsSource``: escrow (not burn) on send."""
    return trace.is_native or trace.outermost_hop() != (
        source_port,
        source_channel,
    )


# ---------------------------------------------------------------------------
# Packet forwarding (packet-forward-middleware style)
# ---------------------------------------------------------------------------

#: Separates the hop-local fallback address from the forward instruction.
FORWARD_MARKER = "|"


@record
class ForwardRoute:
    """One parsed forward instruction from a packet's receiver field."""

    fallback: str  #: hop-local address credited before (and refunded after) the forward
    port: str  #: source port of the onward hop
    channel: str  #: source channel of the onward hop
    next_receiver: str  #: final receiver, or a nested forward instruction


def encode_forward_receiver(
    hops: list[tuple[str, str, str]], final_receiver: str
) -> str:
    """Build the receiver field routing a transfer through ``hops``.

    Each hop is ``(fallback_address, port, channel)`` as interpreted *on
    the chain where that hop's packet is received*.  The innermost part
    is the final receiver on the last chain.
    """
    receiver = final_receiver
    for fallback, port, channel in reversed(hops):
        receiver = f"{fallback}{FORWARD_MARKER}{port}/{channel}:{receiver}"
    return receiver


def parse_forward_receiver(receiver: str) -> Optional[ForwardRoute]:
    """Parse a receiver field; None when it is a plain address.

    Raises :class:`PacketError` when the forward marker is present but
    the instruction is malformed, so the receive fails into a clean
    error acknowledgement (refund at the origin, no state mutated).
    """
    if FORWARD_MARKER not in receiver:
        return None
    fallback, _, rest = receiver.partition(FORWARD_MARKER)
    hop, sep, next_receiver = rest.partition(":")
    port, hop_sep, channel = hop.partition("/")
    if not (fallback and sep and hop_sep and port and channel and next_receiver):
        raise PacketError(f"malformed forward receiver {receiver!r}")
    return ForwardRoute(
        fallback=fallback, port=port, channel=channel, next_receiver=next_receiver
    )


#: The success acknowledgement every receive writes.
_SUCCESS_ACK = Acknowledgement(success=True, result="AQ==")


def _uncharged(msg: MsgTransfer, count: int = 1) -> None:
    """A forward hop's onward send is part of its receive's gas."""


class TransferApp:
    """The ICS-20 application bound to the ``transfer`` port."""

    #: Height margin (above the light client's view of the next chain)
    #: given to packets sent onward by the forward middleware.
    forward_timeout_blocks = 120

    def __init__(self, ibc: IbcModule, bank: BankLike):
        self.ibc = ibc
        self.bank = bank
        self.denoms = DenomRegistry()
        ibc.bind_port(keys.TRANSFER_PORT, self)

    # ------------------------------------------------------------------
    # Sending (MsgTransfer handler)
    # ------------------------------------------------------------------

    def send_transfers(
        self, run: Iterable[MsgTransfer], ctx: ExecContext, charge: Charge,
        events: list[AbciEvent],
    ) -> None:
        """The ``MsgTransfer`` handler, for a run: lock or burn each
        message's tokens and send its packet.

        The CLI repeats one frozen message ``--number-msgs`` times, so the
        run executes per *stretch* of one message object (the same object
        means the same fields): its gas is drawn in one ``charge`` loop,
        its tokens move in one bank move and its packets are sent by one
        :meth:`IbcModule.send_packets`.  Failures stay those of message by
        message execution.  The first message is charged, then its sender
        is checked against the transaction's signer (code 4, as a bank
        send), then the stretch runs as :meth:`_send_stretch` says.
        DESIGN.md, "Message runs"."""
        for _, stretch in groupby(run, id):
            msgs = list(stretch)
            msg = msgs[0]
            charge(msg)  # the first message's, before its checks
            if msg.sender != ctx.signer:
                raise ChainError("transfer sender must be the tx signer", code=4)
            self._send_stretch(msg, len(msgs), charge, events)

    def _send_stretch(
        self, msg: MsgTransfer, count: int, charge: Charge, events: list[AbciEvent]
    ) -> None:
        """Send ``count`` repeats of ``msg``, the first already charged,
        for whichever sender it names: the route's stretch, and a forward
        hop's onward send from its fallback address.

        The first message is checked (amount, trace, payload), moved and
        its channel checked, in that order.  The moves that would succeed
        one by one (the *affordable* prefix) go as one; the rest of the
        stretch is charged through its first unaffordable message, which
        then fails as a lone bank move, with the bank's own error."""
        ibc, bank = self.ibc, self.bank
        amount, sender, denom = msg.amount, msg.sender, msg.denom
        if amount <= 0:
            raise PacketError(f"transfer amount must be positive: {amount}")
        port, channel = msg.source_port, msg.source_channel
        trace = self.denoms.resolve(denom)
        # Escrow unless a voucher goes back over its own hop: burn that.
        escrow = (
            escrow_address(port, channel)
            if sender_chain_is_source(port, channel, trace)
            else None
        )
        data = _ftpd_encode(trace.full_path(), amount, sender, msg.receiver)
        affordable = min(count, bank.balance(sender, denom) // amount)
        if affordable:
            self._lock(sender, escrow, denom, affordable * amount)
            end = ibc.sending_channel(
                port, channel, msg.timeout_height, msg.timeout_timestamp
            )
            # The rest, through the first unaffordable message.
            charge(msg, min(affordable + 1, count) - 1)
        if affordable < count:
            # Less than ``amount`` is left: this move raises.
            self._lock(sender, escrow, denom, amount)
        ibc.send_packets(
            end, data, msg.timeout_height, msg.timeout_timestamp, count, events
        )

    def _lock(self, sender: str, escrow: Optional[str], denom: str, amount: int) -> None:
        """Escrow ``amount`` of the sender's tokens, or burn them when
        ``escrow`` is None."""
        if escrow is None:
            self.bank.burn(sender, denom, amount)
        else:
            self.bank.send(sender, escrow, denom, amount)

    # ------------------------------------------------------------------
    # IbcApplication callbacks
    # ------------------------------------------------------------------

    def on_chan_open(self, channel: ChannelEnd) -> None:
        if channel.version != keys.ICS20_VERSION:
            raise IbcError(
                f"transfer app requires version {keys.ICS20_VERSION!r}, "
                f"got {channel.version!r}"
            )

    def on_recv_packets(
        self, packet: Packet, count: int, ctx: ExecContext
    ) -> tuple[list[Acknowledgement], list[tuple[AbciEvent, ...]]]:
        """Receive a stretch of ``count`` packets that differ only in their
        sequence (``packet`` is the first): credit the receiver, or the
        fallback address of a forward and send the tokens onward.  Returns
        one ack per packet and, per packet, its onward ``send_packet``
        event (none when it does not forward or fails).

        The payload, the forward route and the denom trace are read once,
        in the order a lone packet reads them, and an error there fails
        every packet with the same ack.  Then the packets that would be
        paid one by one are paid in one bank move (:meth:`_credit`: a mint
        of their total, or the un-escrow of the affordable prefix), and a
        forward sends their onward packets as one stretch of one onward
        ``MsgTransfer``, so the next hop receives a stretch too.  The first
        packet that cannot be paid runs as a lone move: its ack carries the
        bank's own error, and every later packet gets the same ack.  The
        payment repeats until the stretch is paid or a move fails, because
        tokens that end in the escrow they left (a receiver that is the
        escrow, a forward back over the arrival channel) leave the escrow
        able to pay the next packets as well.
        """
        paid = 0
        sent: list[AbciEvent] = []
        try:
            data = FungibleTokenPacketData.decode(packet.data)
            route = parse_forward_receiver(data.receiver)
            if route is None:
                receiver = data.receiver
            else:
                # A bad onward hop fails before any balance moves, so the
                # origin refunds and nothing is left here.
                receiver = route.fallback
                timeout = self._forward_timeout(route)
            trace = DenomTrace.parse(data.denom)
            port, channel = packet.destination_port, packet.destination_channel
            if receiver_chain_is_source(
                packet.source_port, packet.source_channel, trace
            ):
                # Our own token coming home: un-escrow the original.
                home = trace.unwind()
                denom = (
                    home.base_denom if home.is_native else self.denoms.register(home)
                )
                escrow = escrow_address(port, channel)
            else:
                # Foreign token arriving: extend the trace, mint a voucher.
                denom = self.denoms.register(trace.prepend(port, channel))
                escrow = None
            onward = None
            if route is not None:
                onward = MsgTransfer(
                    source_port=route.port,
                    source_channel=route.channel,
                    denom=denom,
                    amount=data.amount,
                    sender=route.fallback,
                    receiver=route.next_receiver,
                    timeout_height=timeout,
                )
            while paid < count:
                credited = self._credit(
                    escrow, receiver, denom, data.amount, count - paid
                )
                if onward is not None:
                    self._send_stretch(onward, credited, _uncharged, sent)
                paid += credited
        except Exception as exc:  # noqa: BLE001 - the ack carries the error
            error = Acknowledgement(success=False, error=str(exc))
            acks = [_SUCCESS_ACK] * paid + [error] * (count - paid)
        else:
            acks = [_SUCCESS_ACK] * count
        return acks, [(event,) for event in sent] + [()] * (count - len(sent))

    def _forward_timeout(self, route: ForwardRoute) -> Height:
        """The timeout height of a forward's onward packets: a margin above
        the light client's view of the next chain.  Raises when the
        onward channel is not open."""
        end = self.ibc.channels.get((route.port, route.channel))
        if end is None or end.state is not ChannelState.OPEN:
            raise PacketError(
                f"forward channel {route.port}/{route.channel} is not open"
            )
        connection = self.ibc.connections[end.connection_id]
        client = self.ibc.clients[connection.client_id]
        return Height(0, client.latest_height + self.forward_timeout_blocks)

    def _credit(
        self, escrow: Optional[str], receiver: str, denom: str, amount: int, count: int
    ) -> int:
        """Pay ``receiver`` for the first ``n`` of ``count`` packets of
        ``amount`` in one bank move and return ``n``: all of them for a
        mint (``escrow`` None), the affordable prefix for an un-escrow.
        ``n`` is at least one, so a packet that cannot be paid fails here,
        as a lone move, with the bank's own error."""
        bank = self.bank
        if escrow is None:
            n = count if amount > 0 else 1
            bank.mint(receiver, denom, n * amount)
        else:
            affordable = bank.balance(escrow, denom) // amount if amount > 0 else 0
            n = max(1, min(count, affordable))
            bank.send(escrow, receiver, denom, n * amount)
        return n

    def on_acknowledgement(
        self, packet: Packet, ack: Acknowledgement, ctx: ExecContext
    ) -> None:
        if not ack.success:
            self._refund(packet)

    def on_timeout(self, packet: Packet, ctx: ExecContext) -> None:
        self._refund(packet)

    def _refund(self, packet: Packet) -> None:
        """Undo the send: un-escrow or re-mint to the original sender.

        For a forwarded packet the sender is the hub-local fallback
        address, so a second-hop failure refunds *here* and never touches
        the origin chain's escrow — hop 1 was already acknowledged.
        """
        data = FungibleTokenPacketData.decode(packet.data)
        trace = DenomTrace.parse(data.denom)
        local_denom = (
            trace.base_denom
            if trace.is_native
            else self.denoms.register(trace)
        )
        if sender_chain_is_source(
            packet.source_port, packet.source_channel, trace
        ):
            escrow = escrow_address(packet.source_port, packet.source_channel)
            self.bank.send(escrow, data.sender, local_denom, data.amount)
        else:
            # We burned a voucher on send: mint it back.
            self.bank.mint(data.sender, local_denom, data.amount)
