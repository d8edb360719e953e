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

from dataclasses import field, replace
from itertools import groupby
from typing import Any, Callable, Iterable, Optional, Protocol, Sequence

from repro.cosmos.journal import Journal
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


class Charge(Protocol):
    """Bills gas just before a run route executes ``msg``: one message's,
    or, with ``count``, that of ``count`` repeats of it, drawn and checked
    against the limit one message at a time."""

    def __call__(self, msg: Any, count: int = 1) -> None: ...


class IbcApplication(Protocol):
    """A module bound to a port (e.g. the ICS-20 transfer app)."""

    def on_chan_open(self, channel: ChannelEnd) -> None: ...

    def on_recv_packets(
        self, packet: Packet, count: int, ctx: ExecContext
    ) -> tuple[list[Acknowledgement], list[Sequence[AbciEvent]]]:
        """Receive a stretch of ``count`` packets that differ only in their
        sequence, ``packet`` the first of them, and return one
        acknowledgement per packet and, per packet, the events of the
        sends it made onward (empty for an application that never
        forwards).  It never raises: an error becomes an error ack."""
        ...

    def on_acknowledgement(
        self, packet: Packet, ack: Acknowledgement, ctx: ExecContext
    ) -> None: ...

    def on_timeout(self, packet: Packet, ctx: ExecContext) -> None: ...


def _stretch_key(msg: Any) -> tuple:
    """What the packets of a recv or ack *stretch* share: every field but
    the sequence.  The payload and the timeouts count by identity, as
    ``Packet.commitment`` keeps them, so one stretch has one commitment."""
    packet = msg.packet
    return (
        id(packet.data),
        id(packet.timeout_height),
        id(packet.timeout_timestamp),
        packet.source_port,
        packet.source_channel,
        packet.destination_port,
        packet.destination_channel,
    )


@dataclass
class CounterpartyChainInfo:
    """Public information about a counterparty chain needed to host its
    light client (chain id + validator set)."""

    chain_id: str
    validator_set: ValidatorSet


class IbcModule:
    """Keeper of all IBC state for one chain.

    Every write to its typed state, and to its light clients', goes through
    ``journal`` (cosmos/journal.py).  Client, connection and channel ids
    are numbered by the size of their tables: ids are never freed, and a
    creation that a failed transaction rolls back frees its id with it.
    """

    def __init__(
        self,
        chain_id: str,
        store: ProvableStore,
        event_bytes: dict[str, int],
        journal: Journal,
        proof_mode: str = PROOF_MODE_MERKLE,
    ):
        if proof_mode not in (PROOF_MODE_MERKLE, PROOF_MODE_STUB):
            raise IbcError(f"unknown proof mode {proof_mode!r}")
        self.chain_id = chain_id
        self.journal = journal
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
        client_id = keys.client_id(len(self.clients))
        client = TendermintLightClient(
            client_id=client_id,
            chain_id=counterparty.chain_id,
            validator_set=counterparty.validator_set,
            trusting_period=trusting_period,
            journal=self.journal,
        )
        client.update(initial_header, now=now)
        self.journal.add(self.clients, client_id, client)
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

    # ------------------------------------------------------------------
    # ICS-03: connection handshake
    # ------------------------------------------------------------------

    def connection_open_init(
        self, msg: MsgConnectionOpenInit, ctx: ExecContext
    ) -> list[AbciEvent]:
        self._client(msg.client_id)
        connection_id = keys.connection_id(len(self.connections))
        end = ConnectionEnd(
            connection_id=connection_id,
            state=ConnectionState.INIT,
            client_id=msg.client_id,
            counterparty=ConnectionCounterparty(client_id=msg.counterparty_client_id),
        )
        self._store_connection(end, self.journal.add)
        return [
            self._event(
                "connection_open_init",
                connection_id=connection_id,
                client_id=msg.client_id,
            )
        ]

    def connection_open_try(
        self, msg: MsgConnectionOpenTry, ctx: ExecContext
    ) -> list[AbciEvent]:
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
        connection_id = keys.connection_id(len(self.connections))
        end = ConnectionEnd(
            connection_id=connection_id,
            state=ConnectionState.TRYOPEN,
            client_id=msg.client_id,
            counterparty=ConnectionCounterparty(
                client_id=msg.counterparty_client_id,
                connection_id=msg.counterparty_connection_id,
            ),
        )
        self._store_connection(end, self.journal.add)
        return [
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
        end = replace(
            end,
            state=ConnectionState.OPEN,
            counterparty=ConnectionCounterparty(
                client_id=end.counterparty.client_id,
                connection_id=msg.counterparty_connection_id,
            ),
        )
        self._store_connection(end, self.journal.put)
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
        end = replace(end, state=ConnectionState.OPEN)
        self._store_connection(end, self.journal.put)
        return [
            self._event("connection_open_confirm", connection_id=msg.connection_id)
        ]

    def _connection(self, connection_id: str) -> ConnectionEnd:
        end = self.connections.get(connection_id)
        if end is None:
            raise ConnectionError_(f"unknown connection {connection_id!r}")
        return end

    def _store_connection(self, end: ConnectionEnd, write: Callable) -> None:
        """Store ``end`` through ``write``: the journal's ``add`` for a new
        end, its ``put`` for one that replaces the stored end."""
        write(self.connections, end.connection_id, end)
        self.store.set(keys.connection_path(end.connection_id), end.encode())

    # ------------------------------------------------------------------
    # ICS-04: channel handshake
    # ------------------------------------------------------------------

    def channel_open_init(
        self, msg: MsgChannelOpenInit, ctx: ExecContext
    ) -> list[AbciEvent]:
        self.app_for_port(msg.port_id)
        connection = self._connection(msg.connection_id)
        connection.expect_state(ConnectionState.OPEN)
        channel_id = keys.channel_id(len(self.channels))
        end = ChannelEnd(
            port_id=msg.port_id,
            channel_id=channel_id,
            state=ChannelState.INIT,
            ordering=msg.ordering,
            counterparty=ChannelCounterparty(port_id=msg.counterparty_port_id),
            connection_hops=(msg.connection_id,),
            version=msg.version,
        )
        self._store_channel(end, self.journal.add)
        self._init_sequences(end)
        # The bound application validates the proposed channel (version
        # checks etc.) at INIT, as in ibc-go's OnChanOpenInit.
        self.app_for_port(msg.port_id).on_chan_open(end)
        return [
            self._event(
                "channel_open_init", port_id=msg.port_id, channel_id=channel_id
            )
        ]

    def channel_open_try(
        self, msg: MsgChannelOpenTry, ctx: ExecContext
    ) -> list[AbciEvent]:
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
        channel_id = keys.channel_id(len(self.channels))
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
        self._store_channel(end, self.journal.add)
        self._init_sequences(end)
        self.app_for_port(msg.port_id).on_chan_open(end)
        return [
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
        end = replace(
            end,
            state=ChannelState.OPEN,
            counterparty=ChannelCounterparty(
                port_id=end.counterparty.port_id,
                channel_id=msg.counterparty_channel_id,
            ),
        )
        self._store_channel(end, self.journal.put)
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
        end = replace(end, state=ChannelState.OPEN)
        self._store_channel(end, self.journal.put)
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

    def _store_channel(self, end: ChannelEnd, write: Callable) -> None:
        """Store ``end`` as :meth:`_store_connection` stores a connection."""
        write(self.channels, (end.port_id, end.channel_id), end)
        self.store.set(keys.channel_path(end.port_id, end.channel_id), end.encode())

    def _init_sequences(self, end: ChannelEnd) -> None:
        key = (end.port_id, end.channel_id)
        journal = self.journal
        for sequences in (
            self.next_sequence_send, self.next_sequence_recv, self.next_sequence_ack
        ):
            journal.add(sequences, key, 1)
        journal.add(self._commitments, key, {})
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

    def sending_channel(
        self,
        port_id: str,
        channel_id: str,
        timeout_height: Height,
        timeout_timestamp: float,
    ) -> ChannelEnd:
        """SendPacket's checks: the channel is OPEN and the packet expires."""
        end = self._channel(port_id, channel_id)
        end.expect_state(ChannelState.OPEN)
        if timeout_height.is_zero and timeout_timestamp <= 0:
            raise PacketError("packet must have a timeout height or timestamp")
        return end

    def send_packets(
        self,
        end: ChannelEnd,
        data: bytes,
        timeout_height: Height,
        timeout_timestamp: float,
        count: int,
        events: list[AbciEvent],
    ) -> None:
        """SendPacket (Fig. 2 step 1), ``count`` times, on an end that
        passed :meth:`sending_channel`: advance ``nextSequenceSend`` once
        by ``count``, then store each packet's commitment and timeout and
        append its event.  Every packet keeps its own sequence, commitment,
        sent-packet entry, store write and event."""
        port_id, channel_id = key = (end.port_id, end.channel_id)
        first = self.next_sequence_send[key]
        journal = self.journal
        journal.put(self.next_sequence_send, key, first + count)
        counterparty = end.counterparty
        dest_port, dest_channel = counterparty.port_id, counterparty.channel_id
        commitments, sent, store = self._commitments[key], self._sent_packets, self.store
        size, chain_id = self.event_bytes["send_packet"], self.chain_id
        for sequence in range(first, first + count):
            packet = Packet(
                sequence, port_id, channel_id, dest_port, dest_channel, data,
                timeout_height, timeout_timestamp,
            )
            commitment = packet.commitment()
            commit_key = (port_id, channel_id, sequence)
            journal.add(commitments, sequence, commitment)
            journal.add(sent, commit_key, packet)
            store.set(keys.packet_commitment_path(*commit_key), commitment)
            events.append(AbciEvent("send_packet", (), size, packet, chain_id))

    def _packet_route(self, key: tuple[str, str]) -> tuple:
        """What each packet message on channel ``key`` needs before its own
        checks: the OPEN end, the counterparty (port, channel), the light
        client and its chain id, the bound app, and whether it is ORDERED.
        A recv or ack run resolves it once per channel; neither changes it."""
        end = self._channel(*key)
        end.expect_state(ChannelState.OPEN)
        client = self._client(self._connection(end.connection_id).client_id)
        source = (end.counterparty.port_id, end.counterparty.channel_id)
        ordered = end.ordering is ChannelOrder.ORDERED
        app = self.app_for_port(key[0])
        return end, source, client, client.state.chain_id, app, ordered

    def recv_packets(
        self, run: Iterable[MsgRecvPacket], ctx: ExecContext, charge: Charge,
        events: list[AbciEvent],
    ) -> None:
        """RecvPacket (Fig. 2 steps 3-5) for a run: verify, route, acknowledge.

        The run goes by *stretch*: consecutive packets that differ only in
        their sequence (:func:`_stretch_key`), as Hermes relays the packets
        of one repeated transfer.  Each packet, in message order, is
        charged, then proven against its own commitment path, then gets its
        receipt (or, ORDERED, its ``nextSequenceRecv`` write) and the check
        that no ack is written for it yet.  What depends only on fields the
        stretch shares runs at its first packet: the channel's
        :meth:`_packet_route`, the route and timeout checks, the commitment,
        and the fold memo of the proof height.  Then the application takes
        the stretch in one ``on_recv_packets`` call, and each packet gets
        its ``recv_packet`` event, its onward events, its ack and its
        ``write_acknowledgement`` event, in the order a lone packet makes
        them; each ack object is committed once.  The callback can run
        after the stretch's checks because it cannot fail the transaction
        (its errors become error acks) and no check reads what it writes.
        DESIGN.md, "Message runs".
        """
        journal = self.journal
        receipts, acks, store = self._receipts, self._acks, self.store
        recv_size = self.event_bytes["recv_packet"]
        ack_size = self.event_bytes["write_acknowledgement"]
        routes: dict[tuple[str, str], tuple] = {}
        folds: dict[tuple[Any, int], tuple[bytes, dict]] = {}
        for _, stretch in groupby(run, _stretch_key):
            packets: list[Packet] = []
            for msg in stretch:
                charge(msg)
                packet = msg.packet
                if not packets:
                    head = packet
                    dest = (packet.destination_port, packet.destination_channel)
                    route = routes.get(dest)
                    if route is None:
                        route = routes[dest] = self._packet_route(dest)
                    end, source, client, src_chain, app, ordered = route
                    if (packet.source_port, packet.source_channel) != source:
                        raise ChannelError(
                            f"packet route {packet.source_port}/"
                            f"{packet.source_channel} does not match channel "
                            f"counterparty {end.counterparty}"
                        )
                    # Timeout check from the destination's point of view.
                    if packet.timed_out(ctx.here, ctx.time):
                        raise PacketTimeoutError(
                            f"packet {packet.sequence} timed out at receive "
                            f"(height {ctx.height}, time {ctx.time:.2f})"
                        )
                    commitment = packet.commitment()
                    proof_height = None
                if msg.proof_height != proof_height:
                    proof_height = msg.proof_height
                    fold = folds.get((client, proof_height))
                    if fold is None:
                        fold = folds[client, proof_height] = client.fold_memo_at(
                            proof_height
                        )
                    root, memo = fold
                # Verify the commitment recorded by the sending chain.
                sequence = packet.sequence
                verify_membership(
                    root,
                    keys.packet_commitment_path(*source, sequence),
                    commitment,
                    msg.proof_commitment,
                    memo,
                )
                receipt_key = (*dest, sequence)
                if ordered:
                    expected = self.next_sequence_recv[dest]
                    if sequence < expected:
                        raise RedundantPacketError(
                            f"ordered packet {sequence} already received "
                            f"(next expected {expected})"
                        )
                    if sequence > expected:
                        raise PacketError(
                            f"ordered channel expects sequence {expected}, "
                            f"got {sequence}"
                        )
                    journal.put(self.next_sequence_recv, dest, expected + 1)
                    self._store_next_sequence_recv(dest, expected + 1)
                else:
                    if receipt_key in receipts:
                        raise RedundantPacketError(
                            f"unordered packet {sequence} already received"
                        )
                    journal.add(receipts, receipt_key, True)
                    store.set(keys.packet_receipt_path(*receipt_key), b"\x01")
                if receipt_key in acks:
                    raise RedundantPacketError(
                        f"acknowledgement for packet {sequence} already written"
                    )
                packets.append(packet)
            # Route to the application (Fig. 2 step 4), write the acks (step
            # 5).  An application that forwards (packet-forward middleware)
            # returns each packet's onward send events, which land after
            # the packet's recv_packet and before its write_acknowledgement.
            written, onward = app.on_recv_packets(head, len(packets), ctx)
            ack = None
            for packet, sent, packet_ack in zip(packets, onward, written, strict=True):
                events.append(
                    AbciEvent("recv_packet", (), recv_size, packet, src_chain)
                )
                if sent:
                    events.extend(sent)
                if packet_ack is not ack:
                    ack = packet_ack
                    ack_commitment = ack.commitment()
                ack_key = (*dest, packet.sequence)
                journal.add(acks, ack_key, ack)
                store.set(keys.packet_acknowledgement_path(*ack_key), ack_commitment)
                events.append(
                    AbciEvent(
                        "write_acknowledgement", (), ack_size, packet, src_chain, ack
                    )
                )

    def acknowledge_packets(
        self, run: Iterable[MsgAcknowledgement], ctx: ExecContext, charge: Charge,
        events: list[AbciEvent],
    ) -> None:
        """AcknowledgePacket (Fig. 2 step 6) for a run: verify each ack,
        clear its commitment, and call the application's
        ``on_acknowledgement``, message by message: a refund that fails
        must fail after its own draw.  As in :meth:`recv_packets`, what a
        stretch shares is looked up at its first packet (the expected
        commitment, the channel's route, the fold memo), and each ack
        object is committed once.  The channel is resolved after the first
        packet's commitment checks, where a lone message looks it up, so an
        unknown channel still reads redundant."""
        journal, store = self.journal, self.store
        size = self.event_bytes["acknowledge_packet"]
        routes: dict[tuple[str, str], tuple] = {}
        folds: dict[tuple[Any, int], tuple[bytes, dict]] = {}
        for _, stretch in groupby(run, _stretch_key):
            route = None
            ack = None
            for msg in stretch:
                charge(msg)
                packet = msg.packet
                sequence = packet.sequence
                if route is None:
                    source = (packet.source_port, packet.source_channel)
                    commitments = self._commitments.get(source) or {}
                    expected = packet.commitment()
                commitment = commitments.get(sequence)
                if commitment is None:
                    raise RedundantPacketError(
                        f"no commitment for packet {sequence}; already acknowledged"
                    )
                if commitment != expected:
                    raise PacketError(
                        f"packet {sequence} does not match stored commitment"
                    )
                if route is None:
                    route = routes.get(source)
                    if route is None:
                        route = routes[source] = self._packet_route(source)
                    _end, _dest, client, _chain, app, ordered = route
                    dest = (packet.destination_port, packet.destination_channel)
                    proof_height = None
                if msg.proof_height != proof_height:
                    proof_height = msg.proof_height
                    fold = folds.get((client, proof_height))
                    if fold is None:
                        fold = folds[client, proof_height] = client.fold_memo_at(
                            proof_height
                        )
                    root, memo = fold
                if msg.acknowledgement is not ack:
                    ack = msg.acknowledgement
                    ack_commitment = ack.commitment()
                verify_membership(
                    root,
                    keys.packet_acknowledgement_path(*dest, sequence),
                    ack_commitment,
                    msg.proof_acked,
                    memo,
                )
                if ordered:
                    expected_ack = self.next_sequence_ack[source]
                    if sequence != expected_ack:
                        raise PacketError(
                            f"ordered channel expects ack sequence {expected_ack}, "
                            f"got {sequence}"
                        )
                    journal.put(self.next_sequence_ack, source, expected_ack + 1)
                journal.pop(commitments, sequence)
                store.delete(keys.packet_commitment_path(*source, sequence))
                app.on_acknowledgement(packet, ack, ctx)
                events.append(
                    AbciEvent("acknowledge_packet", (), size, packet, self.chain_id)
                )

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
        self.journal.pop(commitments, packet.sequence)
        self.store.delete(keys.packet_commitment_path(*src_key))
        app = self.app_for_port(packet.source_port)
        app.on_timeout(packet, ctx)
        size = self.event_bytes["timeout_packet"]
        return [AbciEvent("timeout_packet", (), size, packet, self.chain_id)]

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
