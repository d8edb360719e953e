"""A direct (non-simulated) two-chain harness for IBC protocol tests.

Blocks are produced synchronously by calling the ABCI hooks, which makes
protocol-level tests fast and lets them manipulate handshakes, proofs and
headers precisely.  The relayer role is played by the test itself.
"""

from __future__ import annotations

from typing import Optional

from repro.cosmos.accounts import Wallet
from repro.cosmos.app import FEE_DENOM, TRANSFER_DENOM, GaiaApp
from repro.cosmos.tx import Tx, TxFactory
from repro.ibc.channel import ChannelOrder
from repro.ibc.client import SignedHeader, make_signed_header
from repro.ibc.module import CounterpartyChainInfo, ExecContext
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
    MsgTransfer,
    MsgUpdateClient,
)
from repro.ibc.packet import Height, Packet
from repro.tendermint.abci import ResponseDeliverTx
from repro.tendermint.types import BlockID, Evidence, Header
from repro.tendermint.validator import ValidatorSet

BLOCK_INTERVAL = 5.0


class DirectChain:
    """One chain driven directly through its ABCI hooks."""

    def __init__(self, chain_id: str, proof_mode: str = "merkle"):
        self.chain_id = chain_id
        self.app = GaiaApp(chain_id, proof_mode=proof_mode)
        self.validators = ValidatorSet.with_names(
            [f"{chain_id}-dv{i}" for i in range(4)]
        )
        self.height = 0
        self.time = 0.0
        self.app_hash = self.app.commit()  # genesis state

    # ------------------------------------------------------------------

    def fund_wallet(self, wallet: Wallet, tokens: int = 10**12) -> TxFactory:
        self.app.genesis_account(
            wallet, {FEE_DENOM: 10**15, TRANSFER_DENOM: tokens}
        )
        return TxFactory(wallet, self.app.cal)

    def make_block(self, txs: list[Tx]) -> list[ResponseDeliverTx]:
        """Execute one block containing ``txs``; returns DeliverTx results."""
        self.height += 1
        self.time += BLOCK_INTERVAL
        header = Header(
            chain_id=self.chain_id,
            height=self.height,
            time=self.time,
            last_block_id=BlockID.nil(),
            last_commit_hash=b"",
            data_hash=b"",
            validators_hash=self.validators.hash(),
            next_validators_hash=self.validators.hash(),
            app_hash=self.app_hash,
            last_results_hash=b"",
            evidence_hash=b"",
            proposer_address="direct",
        )
        self.app.begin_block(header, [])
        results = [self.app.deliver_tx(tx) for tx in txs]
        self.app.end_block(self.height)
        self.app_hash = self.app.commit()
        return results

    def signed_header(self, absent: Optional[set[str]] = None) -> SignedHeader:
        return make_signed_header(
            chain_id=self.chain_id,
            height=self.height,
            time=self.time,
            root=self.app_hash,
            validator_set=self.validators,
            absent=absent,
        )

    @property
    def ibc(self):
        return self.app.ibc

    @property
    def bank(self):
        return self.app.bank

    def ctx(self) -> ExecContext:
        return ExecContext(height=self.height, time=self.time)


class IbcPair:
    """Two chains with an open transfer channel, plus relaying helpers.

    By default the pair builds its own two chains; pass ``chains`` to open
    a channel between pre-built :class:`DirectChain` instances instead —
    that is how multi-chain topologies share a hub between several pairs.
    """

    def __init__(
        self,
        proof_mode: str = "merkle",
        ordering=ChannelOrder.UNORDERED,
        chains: Optional[tuple[DirectChain, DirectChain]] = None,
    ):
        if chains is None:
            self.a = DirectChain("direct-a", proof_mode)
            self.b = DirectChain("direct-b", proof_mode)
        else:
            self.a, self.b = chains
        self.a.app.register_counterparty(
            CounterpartyChainInfo(self.b.chain_id, self.b.validators)
        )
        self.b.app.register_counterparty(
            CounterpartyChainInfo(self.a.chain_id, self.a.validators)
        )
        suffix = f"{self.a.chain_id}-{self.b.chain_id}"
        self.relayer_a = self.a.fund_wallet(Wallet.named(f"relayer-a-{suffix}"))
        self.relayer_b = self.b.fund_wallet(Wallet.named(f"relayer-b-{suffix}"))
        self.user = self.a.fund_wallet(Wallet.named(f"user-{suffix}"))
        self.receiver = Wallet.named(f"receiver-{suffix}")
        self.b.app.genesis_account(self.receiver, {FEE_DENOM: 10**12})
        self.a.make_block([])
        self.b.make_block([])
        self._handshake(ordering)

    # ------------------------------------------------------------------

    def exec_ok(self, chain: DirectChain, factory: TxFactory, msgs) -> ResponseDeliverTx:
        (result,) = chain.make_block([factory.build(msgs, gas_limit=10**9)])
        assert result.ok, result.log
        return result

    def exec_expect_fail(self, chain, factory, msgs) -> ResponseDeliverTx:
        (result,) = chain.make_block([factory.build(msgs, gas_limit=10**9)])
        assert not result.ok
        return result

    def update_a_on_b(self) -> SignedHeader:
        """Update B's client of A to A's current header; returns the header."""
        header = self.a.signed_header()
        self.exec_ok(
            self.b,
            self.relayer_b,
            [MsgUpdateClient(client_id=self.client_on_b, header=header)],
        )
        return header

    def update_b_on_a(self) -> SignedHeader:
        header = self.b.signed_header()
        self.exec_ok(
            self.a,
            self.relayer_a,
            [MsgUpdateClient(client_id=self.client_on_a, header=header)],
        )
        return header

    def _handshake(self, ordering) -> None:
        a, b = self.a, self.b
        self.client_on_a, _ = a.ibc.create_client(
            CounterpartyChainInfo(b.chain_id, b.validators),
            b.signed_header(),
            now=a.time,
        )
        self.client_on_b, _ = b.ibc.create_client(
            CounterpartyChainInfo(a.chain_id, a.validators),
            a.signed_header(),
            now=b.time,
        )
        # A shared chain may already hold connections/channels from other
        # pairs: snapshot so the handshake picks up only what it creates.
        conns_before_a = set(a.ibc.connections)
        conns_before_b = set(b.ibc.connections)
        chans_before_a = set(a.ibc.channels)
        chans_before_b = set(b.ibc.channels)
        # Connection handshake with real proofs.
        self.exec_ok(
            a,
            self.relayer_a,
            [
                MsgConnectionOpenInit(
                    client_id=self.client_on_a,
                    counterparty_client_id=self.client_on_b,
                )
            ],
        )
        (self.conn_a,) = set(a.ibc.connections) - conns_before_a
        header_a = self.update_a_on_b()
        self.exec_ok(
            b,
            self.relayer_b,
            [
                MsgConnectionOpenTry(
                    client_id=self.client_on_b,
                    counterparty_client_id=self.client_on_a,
                    counterparty_connection_id=self.conn_a,
                    proof_init=a.ibc.prove_connection(self.conn_a),
                    proof_height=header_a.height,
                )
            ],
        )
        (self.conn_b,) = set(b.ibc.connections) - conns_before_b
        header_b = self.update_b_on_a()
        self.exec_ok(
            a,
            self.relayer_a,
            [
                MsgConnectionOpenAck(
                    connection_id=self.conn_a,
                    counterparty_connection_id=self.conn_b,
                    proof_try=b.ibc.prove_connection(self.conn_b),
                    proof_height=header_b.height,
                )
            ],
        )
        header_a = self.update_a_on_b()
        self.exec_ok(
            b,
            self.relayer_b,
            [
                MsgConnectionOpenConfirm(
                    connection_id=self.conn_b,
                    proof_ack=a.ibc.prove_connection(self.conn_a),
                    proof_height=header_a.height,
                )
            ],
        )
        # Channel handshake.
        self.exec_ok(
            a,
            self.relayer_a,
            [
                MsgChannelOpenInit(
                    port_id="transfer",
                    connection_id=self.conn_a,
                    counterparty_port_id="transfer",
                    ordering=ordering,
                    version="ics20-1",
                )
            ],
        )
        ((_, self.chan_a),) = set(a.ibc.channels) - chans_before_a
        header_a = self.update_a_on_b()
        self.exec_ok(
            b,
            self.relayer_b,
            [
                MsgChannelOpenTry(
                    port_id="transfer",
                    connection_id=self.conn_b,
                    counterparty_port_id="transfer",
                    counterparty_channel_id=self.chan_a,
                    ordering=ordering,
                    version="ics20-1",
                    proof_init=a.ibc.prove_channel("transfer", self.chan_a),
                    proof_height=header_a.height,
                )
            ],
        )
        ((_, self.chan_b),) = set(b.ibc.channels) - chans_before_b
        header_b = self.update_b_on_a()
        self.exec_ok(
            a,
            self.relayer_a,
            [
                MsgChannelOpenAck(
                    port_id="transfer",
                    channel_id=self.chan_a,
                    counterparty_channel_id=self.chan_b,
                    proof_try=b.ibc.prove_channel("transfer", self.chan_b),
                    proof_height=header_b.height,
                )
            ],
        )
        header_a = self.update_a_on_b()
        self.exec_ok(
            b,
            self.relayer_b,
            [
                MsgChannelOpenConfirm(
                    port_id="transfer",
                    channel_id=self.chan_b,
                    proof_ack=a.ibc.prove_channel("transfer", self.chan_a),
                    proof_height=header_a.height,
                )
            ],
        )

    # ------------------------------------------------------------------
    # Packet helpers (the test acts as the relayer)
    # ------------------------------------------------------------------

    def reverse(self) -> "IbcPair":
        """A role-swapped view sharing all chain state.

        ``transfer`` on the view sends from the original B side, and the
        relay helpers run the opposite direction — multi-chain tests use
        this for return trips without duplicating the relay plumbing.
        """
        view = getattr(self, "_reverse_view", None)
        if view is None:
            view = object.__new__(IbcPair)
            view.a, view.b = self.b, self.a
            view.relayer_a, view.relayer_b = self.relayer_b, self.relayer_a
            view.client_on_a, view.client_on_b = self.client_on_b, self.client_on_a
            view.conn_a, view.conn_b = self.conn_b, self.conn_a
            view.chan_a, view.chan_b = self.chan_b, self.chan_a
            view.user = TxFactory(self.receiver, self.b.app.cal)
            view.receiver = self.user.wallet
            view._reverse_view = self
            self._reverse_view = view
        return view

    def transfer(
        self,
        amount: int = 10,
        timeout_blocks: Optional[int] = 100,
        denom: str = TRANSFER_DENOM,
        sender: Optional[TxFactory] = None,
        receiver: Optional[str] = None,
        timeout_timestamp: float = 0.0,
    ) -> Packet:
        """Send ``amount`` from A; ``timeout_blocks=None`` sets no timeout
        height, leaving ``timeout_timestamp`` the only expiry."""
        sender = sender or self.user
        timeout_height = (
            Height.zero()
            if timeout_blocks is None
            else Height(0, self.b.height + timeout_blocks)
        )
        msg = MsgTransfer(
            source_port="transfer",
            source_channel=self.chan_a,
            denom=denom,
            amount=amount,
            sender=sender.wallet.address,
            receiver=receiver or self.receiver.address,
            timeout_height=timeout_height,
            timeout_timestamp=timeout_timestamp,
            signer=sender.wallet.address,
        )
        result = self.exec_ok(self.a, sender, [msg])
        return next(e.packet for e in result.events if e.type == "send_packet")

    def recv_msgs(self, packets: list[Packet]) -> list:
        """Build UpdateClient + MsgRecvPacket msgs for delivery on B."""
        header = self.a.signed_header()
        msgs = [MsgUpdateClient(client_id=self.client_on_b, header=header)]
        for packet in packets:
            msgs.append(
                MsgRecvPacket(
                    packet=packet,
                    proof_commitment=self.a.ibc.prove_commitment(
                        "transfer", self.chan_a, packet.sequence
                    ),
                    proof_height=header.height,
                )
            )
        return msgs

    def relay_recv(self, packets: list[Packet]) -> ResponseDeliverTx:
        return self.exec_ok(self.b, self.relayer_b, self.recv_msgs(packets))

    def ack_msgs(self, packets: list[Packet]) -> list:
        header = self.b.signed_header()
        msgs = [MsgUpdateClient(client_id=self.client_on_a, header=header)]
        for packet in packets:
            ack = self.b.ibc.acknowledgement_for(
                "transfer", self.chan_b, packet.sequence
            )
            msgs.append(
                MsgAcknowledgement(
                    packet=packet,
                    acknowledgement=ack,
                    proof_acked=self.b.ibc.prove_acknowledgement(
                        "transfer", self.chan_b, packet.sequence
                    ),
                    proof_height=header.height,
                )
            )
        return msgs

    def relay_ack(self, packets: list[Packet]) -> ResponseDeliverTx:
        return self.exec_ok(self.a, self.relayer_a, self.ack_msgs(packets))

    def timeout_msgs(self, packets: list[Packet]) -> list:
        """UpdateClient + MsgTimeout msgs for A, proving non-receipt on B:
        the receipt's absence (unordered) or B's receive counter (ordered)."""
        header = self.b.signed_header()
        msgs = [MsgUpdateClient(client_id=self.client_on_a, header=header)]
        ibc_b = self.b.ibc
        key = ("transfer", self.chan_b)
        ordered = ibc_b.channels[key].ordering == ChannelOrder.ORDERED
        for packet in packets:
            if ordered:
                proof = ibc_b.prove_next_sequence_recv(*key)
                next_recv = ibc_b.next_sequence_recv[key]
            else:
                proof = ibc_b.prove_unreceived(*key, packet.sequence)
                next_recv = 0
            msgs.append(
                MsgTimeout(
                    packet=packet,
                    proof_unreceived=proof,
                    proof_height=header.height,
                    next_sequence_recv=next_recv,
                )
            )
        return msgs

    def relay_full_cycle(self, amount: int = 10) -> Packet:
        packet = self.transfer(amount=amount)
        self.relay_recv([packet])
        self.relay_ack([packet])
        return packet

    def voucher_denom(self) -> str:
        from repro.cosmos.denom import DenomTrace

        return (
            DenomTrace.native(TRANSFER_DENOM)
            .prepend("transfer", self.chan_b)
            .ibc_denom()
        )
