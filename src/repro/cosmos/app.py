"""The Gaia application: a Cosmos-SDK-style ABCI app with bank + IBC.

This is the application layer of the paper's testbed chains (Gaia v7).  It
implements the ABCI protocol for the consensus engine:

* ``CheckTx`` — ante validation for mempool admission (sequence checks
  against the mempool's view are driven by the mempool itself).
* ``DeliverTx`` — ante (sequence increment + fee deduction, persisted even
  when message execution later fails, exactly like the SDK), then atomic
  message execution: keepers roll back through a journal, and the provable
  store buffers the transaction's writes in an overlay it merges or drops.
* ``Commit`` — commits the provable store; the resulting app hash is what
  counterparty light clients verify proofs against.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, Sequence

from repro import calibration as cal
from repro.cosmos.accounts import AccountKeeper, AddressIndex, Wallet
from repro.cosmos.ante import AnteHandler
from repro.cosmos.bank import BankKeeper
from repro.cosmos.gas import GasMeter, GasSchedule
from repro.cosmos.journal import Journal
from repro.cosmos.tx import MsgSend, Tx
from repro.errors import ChainError, OutOfGasError
from repro.ibc.module import CounterpartyChainInfo, ExecContext, IbcModule
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


def _events_only(
    handler: Callable[[Any, ExecContext], tuple[Any, list[AbciEvent]]],
) -> Callable[[Any, ExecContext], list[AbciEvent]]:
    """Route to a handler that returns ``(new id or packet, events)``."""
    return lambda msg, ctx: handler(msg, ctx)[1]


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
        self.bank = BankKeeper(store=self.store, index=self.address_index)
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
        )
        self.transfer = TransferApp(self.ibc, self.bank)
        self.fee_pool = FeePool()
        self.proof_mode = proof_mode

        self._counterparties: dict[str, CounterpartyChainInfo] = {}
        self._ctx = ExecContext(height=0, time=0.0)
        self._block_events: list[AbciEvent] = []
        self._commit_counter = 0

        # The router: one handler per message type, each returning the
        # message's events.
        ibc = self.ibc
        self._routes: dict[type, Callable[[Any, ExecContext], list[AbciEvent]]] = {
            MsgTransfer: _events_only(self.transfer.msg_transfer),
            MsgRecvPacket: ibc.recv_packet,
            MsgAcknowledgement: ibc.acknowledge_packet,
            MsgTimeout: ibc.timeout_packet,
            MsgUpdateClient: ibc.update_client,
            MsgCreateClient: self._create_client,
            MsgConnectionOpenInit: _events_only(ibc.connection_open_init),
            MsgConnectionOpenTry: _events_only(ibc.connection_open_try),
            MsgConnectionOpenAck: ibc.connection_open_ack,
            MsgConnectionOpenConfirm: ibc.connection_open_confirm,
            MsgChannelOpenInit: _events_only(ibc.channel_open_init),
            MsgChannelOpenTry: _events_only(ibc.channel_open_try),
            MsgChannelOpenAck: ibc.channel_open_ack,
            MsgChannelOpenConfirm: ibc.channel_open_confirm,
            MsgSend: self._bank_send,
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
                self.fee_pool.collected += fee_amount
        except ChainError as exc:
            return ResponseDeliverTx(
                code=13,
                log=f"insufficient fees: {exc}",
                gas_wanted=tx.gas_limit,
                gas_used=self.cal.gas_tx_overhead,
            )

        meter = GasMeter(limit=tx.gas_limit)
        meter.consume(self.cal.gas_tx_overhead, "tx overhead")
        # The keepers' typed state rolls back through the journal; the
        # provable store buffers the transaction's writes in its overlay.
        journal = Journal()
        self._attach_journal(journal)
        store = self.store
        store.open_overlay()
        events: list[AbciEvent] = []
        routes = self._routes
        failure: Optional[ResponseDeliverTx] = None
        try:
            ctx = ExecContext(
                height=self._ctx.height, time=self._ctx.time, signer=tx.signer_address
            )
            for msg in tx.msgs:
                kind = getattr(msg, "kind", "unknown")
                meter.consume(self.gas_schedule.gas_for_msg(kind), kind)
                handler = routes.get(type(msg))
                if handler is None:
                    raise ChainError(
                        f"unroutable message kind {getattr(msg, 'kind', '?')!r}"
                    )
                events.extend(handler(msg, ctx))
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
        finally:
            self._attach_journal(None)
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

    def _attach_journal(self, journal: Optional[Journal]) -> None:
        self.bank.journal = journal
        self.ibc.journal = journal

    def _create_client(
        self, msg: MsgCreateClient, ctx: ExecContext
    ) -> list[AbciEvent]:
        info = self._counterparties.get(msg.chain_id)
        if info is None:
            raise ChainError(f"unknown counterparty chain {msg.chain_id!r}")
        return self.ibc.handle_create_client(msg, ctx, info)

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
