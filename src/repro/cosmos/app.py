"""The Gaia application: a Cosmos-SDK-style ABCI app with bank + IBC.

This is the application layer of the paper's testbed chains (Gaia v7).  It
implements the ABCI protocol for the consensus engine:

* ``CheckTx`` — ante validation for mempool admission (sequence checks
  against the mempool's view are driven by the mempool itself).
* ``DeliverTx`` — ante (sequence increment + fee deduction, persisted even
  when message execution later fails, exactly like the SDK), then atomic
  message execution, one route call per run of same-type messages
  (DESIGN.md, "Message runs"): the chain's one journal, which every keeper
  got at construction, records the keepers' writes and undoes them if a
  message fails, and the provable store buffers the transaction's writes
  in an overlay it merges or drops.
* ``Commit`` — commits the provable store; the resulting app hash is what
  counterparty light clients verify proofs against.
"""

from __future__ import annotations

import random
from itertools import groupby
from typing import Any, Callable, Iterable, Optional, Sequence

from repro import calibration as cal
from repro.cosmos.accounts import AccountKeeper, AddressIndex, Wallet
from repro.cosmos.ante import AnteHandler
from repro.cosmos.bank import BankKeeper
from repro.cosmos.gas import GasMeter, GasSchedule
from repro.cosmos.journal import Journal
from repro.cosmos.tx import MsgSend, Tx
from repro.errors import ChainError, OutOfGasError
from repro.ibc.module import Charge, CounterpartyChainInfo, ExecContext, IbcModule
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
    MsgTransfer,
    MsgUpdateClient,
)
from repro.ibc.proofs import PROOF_MODE_MERKLE
from repro.ibc.transfer import TransferApp
from repro.sim.records import dataclass
from repro.sim.rng import RngRegistry
from repro.tendermint.abci import (
    AbciEvent,
    ResponseCheckTx,
    ResponseDeliverTx,
    ResponseEndBlock,
)
from repro.tendermint.crypto import hash_value
from repro.tendermint.merkle import ProvableStore
from repro.tendermint.types import Evidence, Header

#: The fee/staking token of the simulated Gaia chains.
FEE_DENOM = "stake"
#: The token moved by the benchmark workload.
TRANSFER_DENOM = "uatom"


@dataclass
class FeePool:
    collected: float = 0.0


#: A route executes one run of same-type messages: ``charge(msg)`` just
#: before each message (or ``charge(msg, count)`` before a stretch of one
#: repeated message), its events appended to ``events``.
Route = Callable[[Iterable[Any], ExecContext, Charge, list[AbciEvent]], None]


def _each(handler: Callable[[Any, ExecContext], list[AbciEvent]]) -> Route:
    """Route a run through a handler of one message that returns its events."""

    def route(run, ctx, charge, events) -> None:
        for msg in run:
            charge(msg)
            events.extend(handler(msg, ctx))

    return route


def _unroutable(run, ctx, charge, events) -> None:
    """The route of a type nothing handles: its first message fails."""
    msg = next(iter(run))
    charge(msg)
    raise ChainError(f"unroutable message kind {getattr(msg, 'kind', '?')!r}")


class GaiaApp:
    """One chain's application state and ABCI handlers."""

    def __init__(
        self,
        chain_id: str,
        calibration: Optional[cal.Calibration] = None,
        proof_mode: str = PROOF_MODE_MERKLE,
        rng: Optional[random.Random] = None,
    ):
        self.chain_id = chain_id
        self.cal = calibration or cal.DEFAULT_CALIBRATION
        # Auth and bank share one address interner so both keepers index
        # their array columns with the same dense integers.
        self.address_index = AddressIndex()
        self.accounts = AccountKeeper(index=self.address_index)
        self.store = ProvableStore()
        # One journal records every keeper's writes while a transaction
        # is open (cosmos/journal.py).
        self.journal = Journal()
        self.bank = BankKeeper(
            store=self.store, index=self.address_index, journal=self.journal
        )
        # The testbed injects a named stream from its RngRegistry (see
        # tendermint.node.Chain); default-constructed apps derive a
        # deterministic per-chain stream instead of a hard-coded seed.
        if rng is None:
            rng = RngRegistry(1).stream(f"gas/standalone/{chain_id}")
        self.gas_schedule = GasSchedule(self.cal, rng=rng)
        self.ante = AnteHandler(self.accounts)
        self.ibc = IbcModule(
            chain_id=chain_id,
            store=self.store,
            proof_mode=proof_mode,
            event_bytes=self.cal.event_bytes,
            journal=self.journal,
        )
        self.transfer = TransferApp(self.ibc, self.bank)
        self.fee_pool = FeePool()
        self.proof_mode = proof_mode

        self._counterparties: dict[str, CounterpartyChainInfo] = {}
        self._ctx = ExecContext(height=0, time=0.0)
        self._block_events: list[AbciEvent] = []
        self._commit_counter = 0

        # The router: one route per message type.  Packet messages and
        # transfers run as a whole; the rest go message by message.
        ibc = self.ibc
        self._routes: dict[type, Route] = {
            MsgTransfer: self.transfer.send_transfers,
            MsgRecvPacket: ibc.recv_packets,
            MsgAcknowledgement: ibc.acknowledge_packets,
            MsgTimeout: _each(ibc.timeout_packet),
            MsgUpdateClient: _each(ibc.update_client),
            MsgCreateClient: _each(self._create_client),
            MsgConnectionOpenInit: _each(ibc.connection_open_init),
            MsgConnectionOpenTry: _each(ibc.connection_open_try),
            MsgConnectionOpenAck: _each(ibc.connection_open_ack),
            MsgConnectionOpenConfirm: _each(ibc.connection_open_confirm),
            MsgChannelOpenInit: _each(ibc.channel_open_init),
            MsgChannelOpenTry: _each(ibc.channel_open_try),
            MsgChannelOpenAck: _each(ibc.channel_open_ack),
            MsgChannelOpenConfirm: _each(ibc.channel_open_confirm),
            MsgSend: _each(self._bank_send),
        }

    # ------------------------------------------------------------------
    # Genesis helpers
    # ------------------------------------------------------------------

    def genesis_account(
        self, wallet: Wallet, coins: Optional[dict[str, int]] = None
    ) -> None:
        """Create an account at genesis with the given balances."""
        self.accounts.get_or_create(wallet.public_key)
        for denom, amount in (coins or {}).items():
            if amount > 0:
                self.bank.mint(wallet.address, denom, amount)
        self.bank.write_back()

    def genesis_population(self, count: int, coins: dict[str, int]) -> range:
        """Create ``count`` genesis accounts holding ``coins`` each and
        return their slot block — columns only, the path that lets a
        million-account population fit in memory.

        The accounts carry no stored key material (validation uses the
        public key each transaction presents) and no address: whoever
        materialises member ``i``'s wallet calls ``address_index.bind(
        block[i], wallet.address)`` before its first use.
        """
        block = self.accounts.create_range(count)
        for denom, amount in coins.items():
            self.bank.genesis_mint_range(block, denom, amount)
        return block

    def register_counterparty(self, info: CounterpartyChainInfo) -> None:
        """Make a counterparty chain's public info available for
        ``MsgCreateClient`` handling."""
        self._counterparties[info.chain_id] = info

    # ------------------------------------------------------------------
    # ABCI: CheckTx
    # ------------------------------------------------------------------

    def check_tx(
        self, tx: Tx, expected_sequence: Optional[int] = None
    ) -> ResponseCheckTx:
        """Mempool admission: signature, sequence, fee affordability."""
        try:
            if expected_sequence is None:
                self.ante.validate(tx, check_only=True)
            else:
                self.ante.validate_for_mempool(tx, expected_sequence)
            self._check_fee(tx)
        except ChainError as exc:
            return ResponseCheckTx(
                code=exc.code, log=str(exc), codespace=exc.codespace
            )
        return ResponseCheckTx(code=0, gas_wanted=tx.gas_limit)

    def _check_fee(self, tx: Tx) -> None:
        balance = self.bank.balance(tx.signer_address, FEE_DENOM)
        if balance < tx.fee:
            raise ChainError(
                f"insufficient fee: {balance} < {tx.fee} {FEE_DENOM}",
                code=13,
            )

    # ------------------------------------------------------------------
    # ABCI: block execution
    # ------------------------------------------------------------------

    def begin_block(self, header: Header, evidence: Sequence[Evidence]) -> None:
        self._ctx = ExecContext(height=header.height, time=header.time)
        self._block_events = []
        # Evidence handling: a real chain slashes here.  We record it so
        # tests can assert evidence reached the application.
        for item in evidence:
            self._block_events.append(
                AbciEvent(
                    type="slash",
                    attributes=(("validator", item.validator_address),),
                    size_bytes=100,
                )
            )

    def deliver_tx(self, tx: Tx) -> ResponseDeliverTx:
        """Execute one transaction atomically (SDK semantics)."""
        try:
            self.ante.validate(tx, check_only=False)
        except ChainError as exc:
            return ResponseDeliverTx(
                code=exc.code,
                log=str(exc),
                gas_wanted=tx.gas_limit,
                gas_used=self.cal.gas_tx_overhead,
                codespace=exc.codespace,
            )
        # Fees are deducted after ante and are kept even if messages fail.
        try:
            fee_amount = int(tx.fee)
            if fee_amount > 0:
                self.bank.burn(tx.signer_address, FEE_DENOM, fee_amount)
                self.bank.write_back()
                self.fee_pool.collected += fee_amount
        except ChainError as exc:
            return ResponseDeliverTx(
                code=13,
                log=f"insufficient fees: {exc}",
                gas_wanted=tx.gas_limit,
                gas_used=self.cal.gas_tx_overhead,
            )

        meter = GasMeter(limit=tx.gas_limit)
        meter.consume(self.cal.gas_tx_overhead)
        bill = self.gas_schedule.charge

        def charge(msg: Any, count: int = 1) -> None:
            bill(meter, getattr(msg, "kind", "unknown"), count)

        # The keepers' typed state rolls back through the journal; the
        # provable store buffers the transaction's writes in its overlay.
        journal = self.journal
        journal.begin()
        store = self.store
        store.open_overlay()
        events: list[AbciEvent] = []
        routes = self._routes
        failure: Optional[ResponseDeliverTx] = None
        try:
            ctx = ExecContext(
                height=self._ctx.height, time=self._ctx.time, signer=tx.signer_address
            )
            # One route call per maximal run of one message type.
            for cls, run in groupby(tx.msgs, type):
                routes.get(cls, _unroutable)(run, ctx, charge, events)
        except (ChainError, OutOfGasError) as exc:
            code = exc.code if isinstance(exc, ChainError) else 11
            failure = ResponseDeliverTx(
                code=code,
                log=str(exc),
                gas_wanted=tx.gas_limit,
                gas_used=meter.consumed,
                codespace=getattr(exc, "codespace", "sdk"),
            )
        except Exception as exc:  # noqa: BLE001 - IBC and app errors
            failure = ResponseDeliverTx(
                code=1,
                log=f"{type(exc).__name__}: {exc}",
                gas_wanted=tx.gas_limit,
                gas_used=meter.consumed,
                codespace="ibc",
            )
        if failure is not None:
            journal.rollback()
            self.bank.discard_writes()
            store.drop_overlay()
            return failure
        journal.commit()
        self.bank.write_back()
        store.merge_overlay()
        return ResponseDeliverTx(
            code=0,
            gas_wanted=tx.gas_limit,
            gas_used=meter.consumed,
            events=events,
        )

    def _create_client(
        self, msg: MsgCreateClient, ctx: ExecContext
    ) -> list[AbciEvent]:
        info = self._counterparties.get(msg.chain_id)
        if info is None:
            raise ChainError(f"unknown counterparty chain {msg.chain_id!r}")
        _, events = self.ibc.create_client(
            info, msg.initial_header, now=ctx.time, trusting_period=msg.trusting_period
        )
        return events

    def _bank_send(self, msg: MsgSend, ctx: ExecContext) -> list[AbciEvent]:
        if msg.sender != ctx.signer:
            raise ChainError("bank send sender must be the tx signer", code=4)
        self.bank.send(msg.sender, msg.recipient, msg.denom, msg.amount)
        return [
            AbciEvent(
                type="transfer_bank",
                attributes=(
                    ("sender", msg.sender),
                    ("recipient", msg.recipient),
                    ("amount", f"{msg.amount}{msg.denom}"),
                ),
                size_bytes=150,
            )
        ]

    def end_block(self, height: int) -> ResponseEndBlock:
        return ResponseEndBlock(events=list(self._block_events))

    def commit(self) -> bytes:
        """Commit state; returns the new app hash."""
        self._commit_counter += 1
        if self.proof_mode == PROOF_MODE_MERKLE:
            return self.store.commit()
        # Stub mode: cheap deterministic root (no merkle rebuild).
        root = hash_value(
            {"n": self._commit_counter, "size": len(self.store), "chain": self.chain_id}
        )
        self.store.commit_cheap(root)
        return root

    # ------------------------------------------------------------------
    # Query helpers used by the RPC layer
    # ------------------------------------------------------------------

    def account_sequence(self, address: str) -> int:
        return self.accounts.sequence_of(address)
