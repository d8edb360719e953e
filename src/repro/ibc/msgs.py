"""IBC message types carried inside blockchain transactions.

These are the messages the paper's packet life cycle is made of:
``MsgTransfer`` (submitted by users via the Hermes CLI), ``MsgRecvPacket``,
``MsgAcknowledgement`` and ``MsgTimeout`` (built and submitted by relayers),
plus ``MsgUpdateClient`` (header updates preceding packet messages) and the
handshake messages used during channel setup.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from repro.ibc.channel import ChannelOrder
from repro.ibc.client import SignedHeader
from repro.ibc.packet import Acknowledgement, Height, Packet
from repro.ibc.proofs import AbsenceProof, CommitmentProof
from repro.sim.records import record


class IbcMsg:
    """Marker base class for all IBC messages."""

    __slots__ = ()

    #: Message kind tag used for routing/gas accounting.
    kind = "ibc"


# -- client messages ----------------------------------------------------------


@record
class MsgCreateClient(IbcMsg):
    kind = "create_client"
    chain_id: str
    trusting_period: float
    initial_header: SignedHeader
    signer: str = ""


@record
class MsgUpdateClient(IbcMsg):
    kind = "update_client"
    client_id: str
    header: SignedHeader
    signer: str = ""


# -- connection handshake ------------------------------------------------------


@record
class MsgConnectionOpenInit(IbcMsg):
    kind = "connection_open_init"
    client_id: str
    counterparty_client_id: str
    signer: str = ""


@record
class MsgConnectionOpenTry(IbcMsg):
    kind = "connection_open_try"
    client_id: str
    counterparty_client_id: str
    counterparty_connection_id: str
    proof_init: Optional[CommitmentProof]
    proof_height: int
    signer: str = ""


@record
class MsgConnectionOpenAck(IbcMsg):
    kind = "connection_open_ack"
    connection_id: str
    counterparty_connection_id: str
    proof_try: Optional[CommitmentProof]
    proof_height: int
    signer: str = ""


@record
class MsgConnectionOpenConfirm(IbcMsg):
    kind = "connection_open_confirm"
    connection_id: str
    proof_ack: Optional[CommitmentProof]
    proof_height: int
    signer: str = ""


# -- channel handshake ----------------------------------------------------------


@record
class MsgChannelOpenInit(IbcMsg):
    kind = "channel_open_init"
    port_id: str
    connection_id: str
    counterparty_port_id: str
    ordering: ChannelOrder
    version: str
    signer: str = ""


@record
class MsgChannelOpenTry(IbcMsg):
    kind = "channel_open_try"
    port_id: str
    connection_id: str
    counterparty_port_id: str
    counterparty_channel_id: str
    ordering: ChannelOrder
    version: str
    proof_init: Optional[CommitmentProof]
    proof_height: int
    signer: str = ""


@record
class MsgChannelOpenAck(IbcMsg):
    kind = "channel_open_ack"
    port_id: str
    channel_id: str
    counterparty_channel_id: str
    proof_try: Optional[CommitmentProof]
    proof_height: int
    signer: str = ""


@record
class MsgChannelOpenConfirm(IbcMsg):
    kind = "channel_open_confirm"
    port_id: str
    channel_id: str
    proof_ack: Optional[CommitmentProof]
    proof_height: int
    signer: str = ""


# -- packet life cycle -----------------------------------------------------------


@record
class MsgTransfer(IbcMsg):
    """ICS-20 fungible token transfer request (the paper's workload unit)."""

    kind = "transfer"
    source_port: str
    source_channel: str
    denom: str
    amount: int
    sender: str
    receiver: str
    timeout_height: Height = field(default_factory=Height.zero)
    timeout_timestamp: float = 0.0
    signer: str = ""


@record
class MsgRecvPacket(IbcMsg):
    kind = "recv_packet"
    packet: Packet
    proof_commitment: Optional[CommitmentProof]
    proof_height: int
    signer: str = ""


@record
class MsgAcknowledgement(IbcMsg):
    kind = "acknowledgement"
    packet: Packet
    acknowledgement: Acknowledgement
    proof_acked: Optional[CommitmentProof]
    proof_height: int
    signer: str = ""


@record
class MsgTimeout(IbcMsg):
    kind = "timeout"
    packet: Packet
    #: Unordered channels: absence of the packet's receipt.  Ordered
    #: channels: membership of ``next_sequence_recv`` at the counterparty.
    proof_unreceived: Optional[AbsenceProof | CommitmentProof]
    proof_height: int
    next_sequence_recv: int = 0
    signer: str = ""
