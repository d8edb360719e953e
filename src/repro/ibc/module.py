"""The IBC module (handler/keeper) hosted by a chain's application.

This is ``IBC module_A`` / ``IBC module_B`` from the paper's Fig. 2: it
owns the chain's light clients, connections and channels, stores packet
commitments / receipts / acknowledgements under ICS-24 paths in the chain's
provable store, and routes packets to port-bound applications (ICS-20
transfer in our experiments).

Every handler returns the ABCI events it emitted; event byte sizes drive the
RPC and WebSocket cost models, which is how this module participates in the
paper's bottleneck findings.
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, Optional, Protocol

from repro.cosmos.journal import Journaled
from repro.errors import (
    ChannelError,
    ClientError,
    ConnectionError_,
    IbcError,
    PacketError,
    PacketTimeoutError,
    RedundantPacketError,
)
from repro.ibc import keys
from repro.ibc.channel import (
    ChannelCounterparty,
    ChannelEnd,
    ChannelOrder,
    ChannelState,
)
from repro.ibc.client import SignedHeader, TendermintLightClient
from repro.ibc.connection import (
    ConnectionCounterparty,
    ConnectionEnd,
    ConnectionState,
)
from repro.ibc.msgs import (
    MsgAcknowledgement,
    MsgChannelOpenAck,
    MsgChannelOpenConfirm,
    MsgChannelOpenInit,
    MsgChannelOpenTry,
    MsgConnectionOpenAck,
    MsgConnectionOpenConfirm,
    MsgConnectionOpenInit,
    MsgConnectionOpenTry,
    MsgCreateClient,
    MsgRecvPacket,
    MsgTimeout,
    MsgUpdateClient,
)
from repro.ibc.packet import Acknowledgement, Height, Packet
from repro.ibc.proofs import (
    PROOF_MODE_MERKLE,
    PROOF_MODE_STUB,
    AbsenceProof,
    CommitmentProof,
    StubMembershipProof,
    StubNonMembershipProof,
    verify_membership,
    verify_non_membership,
)
from repro.sim.records import dataclass
from repro.tendermint.abci import AbciEvent
from repro.tendermint.merkle import ProvableStore
from repro.tendermint.validator import ValidatorSet

#: Event byte sizes of the handshake and client events; packet events take
#: theirs from the chain's calibration (``Calibration.event_bytes``).
DEFAULT_EVENT_BYTES = {
    "create_client": 200,
    "update_client": 250,
    "channel_open_init": 150,
    "channel_open_try": 150,
    "channel_open_ack": 150,
    "channel_open_confirm": 150,
    "connection_open_init": 150,
    "connection_open_try": 150,
    "connection_open_ack": 150,
    "connection_open_confirm": 150,
}


@dataclass
class ExecContext:
    """Execution context passed to handlers by the host application."""

    height: int
    time: float
    signer: str = ""
    #: ``height`` as an IBC height, for destination-side timeout checks.
    here: Height = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.here = Height(0, self.height)


class IbcApplication(Protocol):
    """A module bound to a port (e.g. the ICS-20 transfer app)."""

    def on_chan_open(self, channel: ChannelEnd) -> None: ...

    def on_recv_packet(self, packet: Packet, ctx: ExecContext) -> Acknowledgement: ...

    def on_acknowledgement(
        self, packet: Packet, ack: Acknowledgement, ctx: ExecContext
    ) -> None: ...

    def on_timeout(self, packet: Packet, ctx: ExecContext) -> None: ...

    def drain_forward_events(self) -> list[AbciEvent]:
        """Events of onward sends the last ``on_recv_packet`` made
        (empty for an application that never forwards)."""
        ...


@dataclass
class CounterpartyChainInfo:
    """Public information about a counterparty chain needed to host its
    light client (chain id + validator set)."""

    chain_id: str
    validator_set: ValidatorSet


class IbcModule(Journaled):
    """Keeper of all IBC state for one chain."""

    def __init__(
        self,
        chain_id: str,
        store: ProvableStore,
        event_bytes: dict[str, int],
        proof_mode: str = PROOF_MODE_MERKLE,
    ):
        if proof_mode not in (PROOF_MODE_MERKLE, PROOF_MODE_STUB):
            raise IbcError(f"unknown proof mode {proof_mode!r}")
        self.chain_id = chain_id
        self.store = store
        self.proof_mode = proof_mode
        self.event_bytes = {**DEFAULT_EVENT_BYTES, **event_bytes}

        self.clients: dict[str, TendermintLightClient] = {}
        self.connections: dict[str, ConnectionEnd] = {}
        self.channels: dict[tuple[str, str], ChannelEnd] = {}
        self.apps: dict[str, IbcApplication] = {}

        self.next_sequence_send: dict[tuple[str, str], int] = {}
        self.next_sequence_recv: dict[tuple[str, str], int] = {}
        self.next_sequence_ack: dict[tuple[str, str], int] = {}

        # Fast-path mirrors of provable-store entries.  Commitments are keyed
        # by (port, channel), then sequence: one channel's read scans no other.
        self._commitments: dict[tuple[str, str], dict[int, bytes]] = {}
        self._receipts: dict[tuple[str, str, int], bool] = {}
        self._acks: dict[tuple[str, str, int], Acknowledgement] = {}
        # Archive of sent packets (what packet-clearing queries reconstruct
        # from the chain's tx history in the real system).
        self._sent_packets: dict[tuple[str, str, int], Packet] = {}

        self._client_index = 0
        self._connection_index = 0
        self._channel_index = 0

    # ------------------------------------------------------------------
    # Port binding
    # ------------------------------------------------------------------

    def bind_port(self, port_id: str, app: IbcApplication) -> None:
        keys.validate_identifier(port_id, "port")
        if port_id in self.apps:
            raise IbcError(f"port {port_id!r} already bound")
        self.apps[port_id] = app

    def app_for_port(self, port_id: str) -> IbcApplication:
        app = self.apps.get(port_id)
        if app is None:
            raise ChannelError(f"no application bound to port {port_id!r}")
        return app

    # ------------------------------------------------------------------
    # ICS-02: clients
    # ------------------------------------------------------------------

    def create_client(
        self,
        counterparty: CounterpartyChainInfo,
        initial_header: SignedHeader,
        now: float,
        trusting_period: float = 14 * 24 * 3600.0,
    ) -> tuple[str, list[AbciEvent]]:
        client_id = keys.client_id(self._client_index)
        self._client_index += 1
        client = TendermintLightClient(
            client_id=client_id,
            chain_id=counterparty.chain_id,
            validator_set=counterparty.validator_set,
            trusting_period=trusting_period,
        )
        client.update(initial_header, now=now)
        self.clients[client_id] = client
        self.store.set(keys.client_state_path(client_id), counterparty.chain_id.encode())
        return client_id, [self._event("create_client", client_id=client_id)]

    def update_client(self, msg: MsgUpdateClient, ctx: ExecContext) -> list[AbciEvent]:
        client = self._client(msg.client_id)
        state = client.update(msg.header, now=ctx.time)
        self.store.set(
            keys.consensus_state_path(msg.client_id, state.height), state.root
        )
        return [
            self._event(
                "update_client",
                client_id=msg.client_id,
                consensus_height=state.height,
            )
        ]

    def _client(self, client_id: str) -> TendermintLightClient:
        client = self.clients.get(client_id)
        if client is None:
            raise ClientError(f"unknown client {client_id!r}")
        return client

    def handle_create_client(
        self, msg: MsgCreateClient, ctx: ExecContext,
        counterparty: CounterpartyChainInfo,
    ) -> list[AbciEvent]:
        _, events = self.create_client(
            counterparty, msg.initial_header, now=ctx.time,
            trusting_period=msg.trusting_period,
        )
        return events

    # ------------------------------------------------------------------
    # ICS-03: connection handshake
    # ------------------------------------------------------------------

    def connection_open_init(
        self, msg: MsgConnectionOpenInit, ctx: ExecContext
    ) -> tuple[str, list[AbciEvent]]:
        self._client(msg.client_id)
        connection_id = keys.connection_id(self._connection_index)
        self._connection_index += 1
        end = ConnectionEnd(
            connection_id=connection_id,
            state=ConnectionState.INIT,
            client_id=msg.client_id,
            counterparty=ConnectionCounterparty(client_id=msg.counterparty_client_id),
        )
        self._store_connection(end)
        return connection_id, [
            self._event(
                "connection_open_init",
                connection_id=connection_id,
                client_id=msg.client_id,
            )
        ]

    def connection_open_try(
        self, msg: MsgConnectionOpenTry, ctx: ExecContext
    ) -> tuple[str, list[AbciEvent]]:
        self._client(msg.client_id)
        expected = ConnectionEnd(
            connection_id=msg.counterparty_connection_id,
            state=ConnectionState.INIT,
            client_id=msg.counterparty_client_id,
            counterparty=ConnectionCounterparty(client_id=msg.client_id),
        )
        self._verify_counterparty_commitment(
            client_id=msg.client_id,
            proof_height=msg.proof_height,
            key=keys.connection_path(msg.counterparty_connection_id),
            value=expected.encode(),
            proof=msg.proof_init,
        )
        connection_id = keys.connection_id(self._connection_index)
        self._connection_index += 1
        end = ConnectionEnd(
            connection_id=connection_id,
            state=ConnectionState.TRYOPEN,
            client_id=msg.client_id,
            counterparty=ConnectionCounterparty(
                client_id=msg.counterparty_client_id,
                connection_id=msg.counterparty_connection_id,
            ),
        )
        self._store_connection(end)
        return connection_id, [
            self._event(
                "connection_open_try",
                connection_id=connection_id,
                counterparty_connection_id=msg.counterparty_connection_id,
            )
        ]

    def connection_open_ack(
        self, msg: MsgConnectionOpenAck, ctx: ExecContext
    ) -> list[AbciEvent]:
        end = self._connection(msg.connection_id)
        end.expect_state(ConnectionState.INIT)
        expected = ConnectionEnd(
            connection_id=msg.counterparty_connection_id,
            state=ConnectionState.TRYOPEN,
            client_id=end.counterparty.client_id,
            counterparty=ConnectionCounterparty(
                client_id=end.client_id, connection_id=end.connection_id
            ),
        )
        self._verify_counterparty_commitment(
            client_id=end.client_id,
            proof_height=msg.proof_height,
            key=keys.connection_path(msg.counterparty_connection_id),
            value=expected.encode(),
            proof=msg.proof_try,
        )
        end.state = ConnectionState.OPEN
        end.counterparty = ConnectionCounterparty(
            client_id=end.counterparty.client_id,
            connection_id=msg.counterparty_connection_id,
        )
        self._store_connection(end)
        return [
            self._event("connection_open_ack", connection_id=msg.connection_id)
        ]

    def connection_open_confirm(
        self, msg: MsgConnectionOpenConfirm, ctx: ExecContext
    ) -> list[AbciEvent]:
        end = self._connection(msg.connection_id)
        end.expect_state(ConnectionState.TRYOPEN)
        expected = ConnectionEnd(
            connection_id=end.counterparty.connection_id,
            state=ConnectionState.OPEN,
            client_id=end.counterparty.client_id,
            counterparty=ConnectionCounterparty(
                client_id=end.client_id, connection_id=end.connection_id
            ),
        )
        self._verify_counterparty_commitment(
            client_id=end.client_id,
            proof_height=msg.proof_height,
            key=keys.connection_path(end.counterparty.connection_id),
            value=expected.encode(),
            proof=msg.proof_ack,
        )
        end.state = ConnectionState.OPEN
        self._store_connection(end)
        return [
            self._event("connection_open_confirm", connection_id=msg.connection_id)
        ]

    def _connection(self, connection_id: str) -> ConnectionEnd:
        end = self.connections.get(connection_id)
        if end is None:
            raise ConnectionError_(f"unknown connection {connection_id!r}")
        return end

    def _store_connection(self, end: ConnectionEnd) -> None:
        journal = self.journal
        if journal is not None and end.connection_id not in self.connections:
            journal.record_kv(self.connections, end.connection_id, None)
        self.connections[end.connection_id] = end
        self.store.set(keys.connection_path(end.connection_id), end.encode())

    # ------------------------------------------------------------------
    # ICS-04: channel handshake
    # ------------------------------------------------------------------

    def channel_open_init(
        self, msg: MsgChannelOpenInit, ctx: ExecContext
    ) -> tuple[str, list[AbciEvent]]:
        self.app_for_port(msg.port_id)
        connection = self._connection(msg.connection_id)
        connection.expect_state(ConnectionState.OPEN)
        channel_id = keys.channel_id(self._channel_index)
        self._channel_index += 1
        end = ChannelEnd(
            port_id=msg.port_id,
            channel_id=channel_id,
            state=ChannelState.INIT,
            ordering=msg.ordering,
            counterparty=ChannelCounterparty(port_id=msg.counterparty_port_id),
            connection_hops=(msg.connection_id,),
            version=msg.version,
        )
        self._store_channel(end)
        self._init_sequences(end)
        # The bound application validates the proposed channel (version
        # checks etc.) at INIT, as in ibc-go's OnChanOpenInit.
        self.app_for_port(msg.port_id).on_chan_open(end)
        return channel_id, [
            self._event(
                "channel_open_init", port_id=msg.port_id, channel_id=channel_id
            )
        ]

    def channel_open_try(
        self, msg: MsgChannelOpenTry, ctx: ExecContext
    ) -> tuple[str, list[AbciEvent]]:
        self.app_for_port(msg.port_id)
        connection = self._connection(msg.connection_id)
        connection.expect_state(ConnectionState.OPEN)
        expected = ChannelEnd(
            port_id=msg.counterparty_port_id,
            channel_id=msg.counterparty_channel_id,
            state=ChannelState.INIT,
            ordering=msg.ordering,
            counterparty=ChannelCounterparty(port_id=msg.port_id),
            connection_hops=(connection.counterparty.connection_id,),
            version=msg.version,
        )
        self._verify_counterparty_commitment(
            client_id=connection.client_id,
            proof_height=msg.proof_height,
            key=keys.channel_path(
                msg.counterparty_port_id, msg.counterparty_channel_id
            ),
            value=expected.encode(),
            proof=msg.proof_init,
        )
        channel_id = keys.channel_id(self._channel_index)
        self._channel_index += 1
        end = ChannelEnd(
            port_id=msg.port_id,
            channel_id=channel_id,
            state=ChannelState.TRYOPEN,
            ordering=msg.ordering,
            counterparty=ChannelCounterparty(
                port_id=msg.counterparty_port_id,
                channel_id=msg.counterparty_channel_id,
            ),
            connection_hops=(msg.connection_id,),
            version=msg.version,
        )
        self._store_channel(end)
        self._init_sequences(end)
        self.app_for_port(msg.port_id).on_chan_open(end)
        return channel_id, [
            self._event(
                "channel_open_try", port_id=msg.port_id, channel_id=channel_id
            )
        ]

    def channel_open_ack(
        self, msg: MsgChannelOpenAck, ctx: ExecContext
    ) -> list[AbciEvent]:
        end = self._channel(msg.port_id, msg.channel_id)
        end.expect_state(ChannelState.INIT)
        connection = self._connection(end.connection_id)
        expected = ChannelEnd(
            port_id=end.counterparty.port_id,
            channel_id=msg.counterparty_channel_id,
            state=ChannelState.TRYOPEN,
            ordering=end.ordering,
            counterparty=ChannelCounterparty(
                port_id=end.port_id, channel_id=end.channel_id
            ),
            connection_hops=(connection.counterparty.connection_id,),
            version=end.version,
        )
        self._verify_counterparty_commitment(
            client_id=connection.client_id,
            proof_height=msg.proof_height,
            key=keys.channel_path(
                end.counterparty.port_id, msg.counterparty_channel_id
            ),
            value=expected.encode(),
            proof=msg.proof_try,
        )
        end.state = ChannelState.OPEN
        end.counterparty = ChannelCounterparty(
            port_id=end.counterparty.port_id,
            channel_id=msg.counterparty_channel_id,
        )
        self._store_channel(end)
        self.app_for_port(msg.port_id).on_chan_open(end)
        return [
            self._event(
                "channel_open_ack", port_id=msg.port_id, channel_id=msg.channel_id
            )
        ]

    def channel_open_confirm(
        self, msg: MsgChannelOpenConfirm, ctx: ExecContext
    ) -> list[AbciEvent]:
        end = self._channel(msg.port_id, msg.channel_id)
        end.expect_state(ChannelState.TRYOPEN)
        connection = self._connection(end.connection_id)
        expected = ChannelEnd(
            port_id=end.counterparty.port_id,
            channel_id=end.counterparty.channel_id,
            state=ChannelState.OPEN,
            ordering=end.ordering,
            counterparty=ChannelCounterparty(
                port_id=end.port_id, channel_id=end.channel_id
            ),
            connection_hops=(connection.counterparty.connection_id,),
            version=end.version,
        )
        self._verify_counterparty_commitment(
            client_id=connection.client_id,
            proof_height=msg.proof_height,
            key=keys.channel_path(
                end.counterparty.port_id, end.counterparty.channel_id
            ),
            value=expected.encode(),
            proof=msg.proof_ack,
        )
        end.state = ChannelState.OPEN
        self._store_channel(end)
        self.app_for_port(msg.port_id).on_chan_open(end)
        return [
            self._event(
                "channel_open_confirm",
                port_id=msg.port_id,
                channel_id=msg.channel_id,
            )
        ]

    def _channel(self, port_id: str, channel_id: str) -> ChannelEnd:
        end = self.channels.get((port_id, channel_id))
        if end is None:
            raise ChannelError(f"unknown channel {port_id}/{channel_id}")
        return end

    def _store_channel(self, end: ChannelEnd) -> None:
        key = (end.port_id, end.channel_id)
        journal = self.journal
        if journal is not None and key not in self.channels:
            journal.record_kv(self.channels, key, None)
        self.channels[key] = end
        self.store.set(keys.channel_path(end.port_id, end.channel_id), end.encode())

    def _init_sequences(self, end: ChannelEnd) -> None:
        key = (end.port_id, end.channel_id)
        for sequences in (
            self.next_sequence_send, self.next_sequence_recv, self.next_sequence_ack
        ):
            if self.journal is not None:
                self.journal.record_kv(sequences, key, sequences.get(key))
            sequences[key] = 1
        if self.journal is not None:
            self.journal.record_kv(self._commitments, key, self._commitments.get(key))
        self._commitments[key] = {}
        if end.ordering == ChannelOrder.ORDERED:
            self._store_next_sequence_recv(key, 1)

    def _store_next_sequence_recv(
        self, key: tuple[str, str], sequence: int
    ) -> None:
        """Commit an ORDERED channel's receive counter (ICS-24
        ``nextSequenceRecv``), the value a counterparty timeout proves."""
        self.store.set(
            keys.next_sequence_recv_path(*key), sequence.to_bytes(8, "big")
        )

    # ------------------------------------------------------------------
    # ICS-04: packet life cycle
    # ------------------------------------------------------------------

    def send_packet(
        self,
        port_id: str,
        channel_id: str,
        data: bytes,
        timeout_height: Height,
        timeout_timestamp: float,
        ctx: ExecContext,
    ) -> tuple[Packet, list[AbciEvent]]:
        """SendPacket (Fig. 2 step 1): store commitment + timeout."""
        end = self._channel(port_id, channel_id)
        end.expect_state(ChannelState.OPEN)
        if timeout_height.is_zero and timeout_timestamp <= 0:
            raise PacketError("packet must have a timeout height or timestamp")
        key = (port_id, channel_id)
        sequence = self.next_sequence_send[key]
        journal = self.journal
        if journal is not None:
            journal.record_kv(self.next_sequence_send, key, sequence)
        self.next_sequence_send[key] = sequence + 1
        packet = Packet(
            sequence=sequence,
            source_port=port_id,
            source_channel=channel_id,
            destination_port=end.counterparty.port_id,
            destination_channel=end.counterparty.channel_id,
            data=data,
            timeout_height=timeout_height,
            timeout_timestamp=timeout_timestamp,
        )
        commitment = packet.commitment()
        commit_key = (port_id, channel_id, sequence)
        commitments = self._commitments[key]
        if journal is not None:
            journal.record_kv(commitments, sequence, None)
            journal.record_kv(self._sent_packets, commit_key, None)
        commitments[sequence] = commitment
        self._sent_packets[commit_key] = packet
        self.store.set(
            keys.packet_commitment_path(port_id, channel_id, sequence), commitment
        )
        return packet, [self._packet_event("send_packet", packet, self.chain_id)]

    def recv_packet(self, msg: MsgRecvPacket, ctx: ExecContext) -> list[AbciEvent]:
        """RecvPacket (Fig. 2 steps 3-5): verify, route, acknowledge."""
        packet = msg.packet
        end = self._channel(packet.destination_port, packet.destination_channel)
        end.expect_state(ChannelState.OPEN)
        if (
            end.counterparty.port_id != packet.source_port
            or end.counterparty.channel_id != packet.source_channel
        ):
            raise ChannelError(
                f"packet route {packet.source_port}/{packet.source_channel} does "
                f"not match channel counterparty {end.counterparty}"
            )
        # Timeout check from the destination's point of view.
        if packet.timed_out(ctx.here, ctx.time):
            raise PacketTimeoutError(
                f"packet {packet.sequence} timed out at receive "
                f"(height {ctx.height}, time {ctx.time:.2f})"
            )
        # Verify the commitment recorded by the sending chain.
        connection = self._connection(end.connection_id)
        self._verify_counterparty_commitment(
            client_id=connection.client_id,
            proof_height=msg.proof_height,
            key=keys.packet_commitment_path(
                packet.source_port, packet.source_channel, packet.sequence
            ),
            value=packet.commitment(),
            proof=msg.proof_commitment,
        )
        dest_key = (packet.destination_port, packet.destination_channel)
        if end.ordering == ChannelOrder.ORDERED:
            expected = self.next_sequence_recv[dest_key]
            if packet.sequence < expected:
                raise RedundantPacketError(
                    f"ordered packet {packet.sequence} already received "
                    f"(next expected {expected})"
                )
            if packet.sequence > expected:
                raise PacketError(
                    f"ordered channel expects sequence {expected}, "
                    f"got {packet.sequence}"
                )
            if self.journal is not None:
                self.journal.record_kv(self.next_sequence_recv, dest_key, expected)
            self.next_sequence_recv[dest_key] = expected + 1
            self._store_next_sequence_recv(dest_key, expected + 1)
        else:
            receipt_key = (
                packet.destination_port,
                packet.destination_channel,
                packet.sequence,
            )
            if receipt_key in self._receipts:
                raise RedundantPacketError(
                    f"unordered packet {packet.sequence} already received"
                )
            if self.journal is not None:
                self.journal.record_kv(self._receipts, receipt_key, None)
            self._receipts[receipt_key] = True
            self.store.set(
                keys.packet_receipt_path(
                    packet.destination_port,
                    packet.destination_channel,
                    packet.sequence,
                ),
                b"\x01",
            )
        # Route to the application (Fig. 2 step 4) and write the ack (step 5).
        app = self.app_for_port(packet.destination_port)
        src_chain = self._client(connection.client_id).state.chain_id
        ack = app.on_recv_packet(packet, ctx)
        events = [
            self._packet_event("recv_packet", packet, src_chain)
        ]
        # Applications that forward packets onward (packet-forward
        # middleware) queue the onward send events during the callback;
        # drain them here so they land after this hop's recv_packet and
        # before its write_acknowledgement, in the same transaction.
        events.extend(app.drain_forward_events())
        events.extend(self._write_acknowledgement(packet, ack, src_chain))
        return events

    def _write_acknowledgement(
        self, packet: Packet, ack: Acknowledgement, src_chain: str
    ) -> list[AbciEvent]:
        key = (packet.destination_port, packet.destination_channel, packet.sequence)
        if key in self._acks:
            raise RedundantPacketError(
                f"acknowledgement for packet {packet.sequence} already written"
            )
        if self.journal is not None:
            self.journal.record_kv(self._acks, key, None)
        self._acks[key] = ack
        self.store.set(
            keys.packet_acknowledgement_path(*key), ack.commitment()
        )
        return [self._packet_event("write_acknowledgement", packet, src_chain, ack)]

    def acknowledge_packet(
        self, msg: MsgAcknowledgement, ctx: ExecContext
    ) -> list[AbciEvent]:
        """AcknowledgePacket (Fig. 2 step 6): verify ack, clear commitment."""
        packet = msg.packet
        src_key = (packet.source_port, packet.source_channel, packet.sequence)
        commitments = self._commitments.get(src_key[:2], {})
        commitment = commitments.get(packet.sequence)
        if commitment is None:
            raise RedundantPacketError(
                f"no commitment for packet {packet.sequence}; already acknowledged"
            )
        if commitment != packet.commitment():
            raise PacketError(
                f"packet {packet.sequence} does not match stored commitment"
            )
        end = self._channel(packet.source_port, packet.source_channel)
        end.expect_state(ChannelState.OPEN)
        connection = self._connection(end.connection_id)
        self._verify_counterparty_commitment(
            client_id=connection.client_id,
            proof_height=msg.proof_height,
            key=keys.packet_acknowledgement_path(
                packet.destination_port,
                packet.destination_channel,
                packet.sequence,
            ),
            value=msg.acknowledgement.commitment(),
            proof=msg.proof_acked,
        )
        if end.ordering == ChannelOrder.ORDERED:
            ack_key = (packet.source_port, packet.source_channel)
            expected = self.next_sequence_ack[ack_key]
            if packet.sequence != expected:
                raise PacketError(
                    f"ordered channel expects ack sequence {expected}, "
                    f"got {packet.sequence}"
                )
            if self.journal is not None:
                self.journal.record_kv(self.next_sequence_ack, ack_key, expected)
            self.next_sequence_ack[ack_key] = expected + 1
        if self.journal is not None:
            self.journal.record_kv(commitments, packet.sequence, commitment)
        del commitments[packet.sequence]
        self.store.delete(keys.packet_commitment_path(*src_key))
        app = self.app_for_port(packet.source_port)
        app.on_acknowledgement(packet, msg.acknowledgement, ctx)
        return [
            self._packet_event("acknowledge_packet", packet, self.chain_id)
        ]

    def timeout_packet(self, msg: MsgTimeout, ctx: ExecContext) -> list[AbciEvent]:
        """OnPacketTimeout (Fig. 3): prove non-receipt, undo, clear."""
        packet = msg.packet
        src_key = (packet.source_port, packet.source_channel, packet.sequence)
        commitments = self._commitments.get(src_key[:2], {})
        commitment = commitments.get(packet.sequence)
        if commitment is None:
            raise RedundantPacketError(
                f"no commitment for packet {packet.sequence}; already settled"
            )
        if commitment != packet.commitment():
            raise PacketError(
                f"packet {packet.sequence} does not match stored commitment"
            )
        end = self._channel(packet.source_port, packet.source_channel)
        connection = self._connection(end.connection_id)
        client = self._client(connection.client_id)
        # The packet must actually be past its timeout at the proof height.
        proof_state = client.consensus_state(msg.proof_height)
        dest_height = Height(0, msg.proof_height)
        if not packet.timed_out(dest_height, proof_state.timestamp):
            raise PacketError(
                f"packet {packet.sequence} is not past its timeout at "
                f"destination height {msg.proof_height}"
            )
        if end.ordering == ChannelOrder.ORDERED:
            # The destination's proven receive counter must not have
            # passed the packet: a counter beyond it means "received".
            if msg.next_sequence_recv > packet.sequence:
                raise PacketError(
                    f"ordered packet {packet.sequence} was received "
                    f"(next_sequence_recv {msg.next_sequence_recv})"
                )
            self._verify_counterparty_commitment(
                client_id=connection.client_id,
                proof_height=msg.proof_height,
                key=keys.next_sequence_recv_path(
                    packet.destination_port, packet.destination_channel
                ),
                value=msg.next_sequence_recv.to_bytes(8, "big"),
                proof=msg.proof_unreceived,
            )
        else:
            self._verify_counterparty_absence(
                client_id=connection.client_id,
                proof_height=msg.proof_height,
                key=keys.packet_receipt_path(
                    packet.destination_port,
                    packet.destination_channel,
                    packet.sequence,
                ),
                proof=msg.proof_unreceived,
            )
        if self.journal is not None:
            self.journal.record_kv(commitments, packet.sequence, commitment)
        del commitments[packet.sequence]
        self.store.delete(keys.packet_commitment_path(*src_key))
        app = self.app_for_port(packet.source_port)
        app.on_timeout(packet, ctx)
        return [
            self._packet_event("timeout_packet", packet, self.chain_id)
        ]

    # ------------------------------------------------------------------
    # State queries (used by the RPC layer and the relayer)
    # ------------------------------------------------------------------

    def has_commitment(self, port_id: str, channel_id: str, sequence: int) -> bool:
        return sequence in self._commitments.get((port_id, channel_id), ())

    def has_receipt(self, port_id: str, channel_id: str, sequence: int) -> bool:
        return (port_id, channel_id, sequence) in self._receipts

    def acknowledgement_for(
        self, port_id: str, channel_id: str, sequence: int
    ) -> Optional[Acknowledgement]:
        return self._acks.get((port_id, channel_id, sequence))

    def sent_packet(
        self, port_id: str, channel_id: str, sequence: int
    ) -> Optional[Packet]:
        return self._sent_packets.get((port_id, channel_id, sequence))

    def pending_commitments(
        self, port_id: str, channel_id: str
    ) -> list[int]:
        """Sequences with live (unacknowledged, un-timed-out) commitments."""
        return sorted(self._commitments.get((port_id, channel_id), ()))

    def has_pending_commitments(self, port_id: str, channel_id: str) -> bool:
        """Whether any commitment on the channel is still live."""
        return bool(self._commitments.get((port_id, channel_id)))

    def prove_commitment(
        self, port_id: str, channel_id: str, sequence: int
    ) -> CommitmentProof:
        key = keys.packet_commitment_path(port_id, channel_id, sequence)
        return self._prove(key)

    def prove_acknowledgement(
        self, port_id: str, channel_id: str, sequence: int
    ) -> CommitmentProof:
        key = keys.packet_acknowledgement_path(port_id, channel_id, sequence)
        return self._prove(key)

    def prove_channel(self, port_id: str, channel_id: str) -> CommitmentProof:
        return self._prove(keys.channel_path(port_id, channel_id))

    def prove_connection(self, connection_id: str) -> CommitmentProof:
        return self._prove(keys.connection_path(connection_id))

    def prove_next_sequence_recv(
        self, port_id: str, channel_id: str
    ) -> CommitmentProof:
        """Proof of an ORDERED channel's receive counter (its timeout proof)."""
        return self._prove(keys.next_sequence_recv_path(port_id, channel_id))

    def prove_unreceived(
        self, port_id: str, channel_id: str, sequence: int
    ) -> AbsenceProof:
        key = keys.packet_receipt_path(port_id, channel_id, sequence)
        if self.proof_mode == PROOF_MODE_STUB:
            return StubNonMembershipProof(key=key, root_tag=self.store.root)
        return self.store.prove_absence(key)

    def _prove(self, key: bytes) -> CommitmentProof:
        if self.proof_mode == PROOF_MODE_STUB:
            value = self.store.get(key)
            if value is None:
                raise PacketError(f"cannot prove missing key {key!r}")
            return StubMembershipProof(key=key, value=value, root_tag=self.store.root)
        return self.store.prove(key)

    # ------------------------------------------------------------------
    # Proof verification against light clients
    # ------------------------------------------------------------------

    def _verify_counterparty_commitment(
        self,
        client_id: str,
        proof_height: int,
        key: bytes,
        value: bytes,
        proof: Optional[CommitmentProof],
    ) -> None:
        root, memo = self._client(client_id).fold_memo_at(proof_height)
        verify_membership(root, key, value, proof, memo)

    def _verify_counterparty_absence(
        self,
        client_id: str,
        proof_height: int,
        key: bytes,
        proof: Optional[AbsenceProof],
    ) -> None:
        client = self._client(client_id)
        root = client.root_at(proof_height)
        verify_non_membership(root, key, proof)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def _event(self, event_type: str, **attrs: Any) -> AbciEvent:
        return AbciEvent(
            type=event_type,
            attributes=tuple(attrs.items()),
            size_bytes=self.event_bytes.get(event_type, 200),
        )

    def _packet_event(
        self,
        event_type: str,
        packet: Packet,
        src_chain: str,
        ack: Optional[Acknowledgement] = None,
    ) -> AbciEvent:
        return AbciEvent(
            type=event_type,
            size_bytes=self.event_bytes[event_type],
            packet=packet,
            src_chain=src_chain,
            ack=ack,
        )
