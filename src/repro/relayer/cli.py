"""The Hermes CLI as a workload connector (``hermes tx ft-transfer``).

The paper's Benchmark module "binds the workload submission to the Hermes
Relayer CLI": user accounts submit transactions of up to 100 ``MsgTransfer``
messages through the machine-local full node, then poll for confirmation
before the next submission (the account-sequence constraint of §V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro import calibration as cal
from repro.cosmos.accounts import Wallet
from repro.cosmos.gas import GasSchedule
from repro.cosmos.tx import Tx, TxFactory
from repro.errors import RpcError, RpcTimeoutError
from repro.ibc.msgs import MsgTransfer
from repro.ibc.packet import Height
from repro.relayer.logging import RelayerLog
from repro.sim.core import Environment, Event
from repro.tendermint.node import BroadcastResult, ChainNode, TxLookupResult
from repro.tendermint.rpc import RpcClient


@dataclass
class TransferSubmission:
    """Outcome of one CLI ft-transfer invocation (one transaction)."""

    tx: Tx
    transfer_count: int
    broadcast_time: float
    broadcast: Optional[BroadcastResult] = None
    confirmed: Optional[TxLookupResult] = None
    confirm_time: Optional[float] = None

    @property
    def accepted(self) -> bool:
        return self.broadcast is not None and self.broadcast.ok

    @property
    def committed_ok(self) -> bool:
        return (
            self.confirmed is not None
            and self.confirmed.found
            and self.confirmed.code == 0
        )


class WorkloadCli:
    """Submits cross-chain transfers on behalf of one user account."""

    __slots__ = (
        "env",
        "node",
        "log",
        "source_channel",
        "receiver",
        "denom",
        "confirm_poll_seconds",
        "confirm_timeout_seconds",
        "client",
        "factory",
        "_gas",
        "wallet",
    )

    def __init__(
        self,
        env: Environment,
        node: ChainNode,
        wallet: Wallet,
        client_host: str,
        log: RelayerLog,
        source_channel: str,
        receiver: str,
        denom: str = "uatom",
        rpc_timeout: Optional[float] = None,
        confirm_timeout_seconds: float = 300.0,
    ):
        self.env = env
        self.node = node
        self.log = log
        self.source_channel = source_channel
        self.receiver = receiver
        self.denom = denom
        self.confirm_poll_seconds = node.chain.cal.cli_confirm_poll_seconds
        self.confirm_timeout_seconds = confirm_timeout_seconds
        self.client = RpcClient(
            env,
            node.chain.network,
            client_host,
            node.rpc,
            timeout=rpc_timeout,
            client_id=f"cli/{wallet.name}",
        )
        self.factory = TxFactory(wallet, node.chain.cal)
        self._gas = GasSchedule(node.chain.cal)
        self.wallet = wallet

    # ------------------------------------------------------------------

    def build_transfer_msgs(
        self, count: int, amount: int, timeout_blocks: int, current_dst_height: int
    ) -> list[MsgTransfer]:
        """``count`` references to one message, the way Hermes repeats one.

        The messages are equal and immutable, so one object serves them
        all; each still executes on its own, with its own sequence.
        """
        msg = MsgTransfer(
            source_port="transfer",
            source_channel=self.source_channel,
            denom=self.denom,
            amount=amount,
            sender=self.wallet.address,
            receiver=self.receiver,
            timeout_height=Height(0, current_dst_height + timeout_blocks),
            signer=self.wallet.address,
        )
        return [msg] * count

    def ft_transfer(
        self,
        count: int,
        amount: int = 1,
        timeout_blocks: int = cal.DEFAULT_TIMEOUT_BLOCKS,
        dst_height_hint: Optional[int] = None,
        gas_factor: float = 1.3,
    ) -> Generator[Event, Any, TransferSubmission]:
        """Submit one transaction with ``count`` transfer messages.

        ``gas_factor`` scales the honest gas estimate — the default is the
        CLI's 1.3x headroom; the gas-griefing adversary passes a factor
        below 1 to submit transactions that admit but cannot execute.
        """
        dst_height = (
            dst_height_hint
            if dst_height_hint is not None
            else self.node.chain.engine.height
        )
        msgs = self.build_transfer_msgs(count, amount, timeout_blocks, dst_height)
        # CLI-side preparation (encode + sign).
        yield self.env.timeout(self.node.chain.cal.cli_prepare_seconds_per_tx)
        gas = int(self._gas.estimate_tx_gas([m.kind for m in msgs]) * gas_factor)
        tx = self.factory.build(msgs, gas_limit=gas)
        submission = TransferSubmission(
            tx=tx, transfer_count=count, broadcast_time=self.env.now
        )
        self.log.info(
            "transfer_broadcast",
            chain=self.node.chain.chain_id,
            tx_hash=tx.hash,
            count=count,
        )
        try:
            result = yield from self.client.call("broadcast_tx_sync", tx=tx)
        except RpcError as exc:
            self.log.error("transfer_broadcast_failed", reason=str(exc))
            # The tx never reached the node; roll the local sequence back so
            # the next attempt reuses it.
            self.factory.resync_sequence(tx.sequence)
            return submission
        submission.broadcast = result
        if not result.ok:
            self.log.error(
                "transfer_broadcast_rejected", code=result.code, log=result.log
            )
            if "sequence" in result.log:
                # Stale local sequence: re-sync from committed chain state.
                try:
                    info = yield from self.client.call(
                        "account", address=self.wallet.address
                    )
                    self.factory.resync_sequence(info["sequence"])
                except RpcError as exc:
                    self.log.error(
                        "sequence_resync_failed", reason=str(exc)
                    )
        return submission

    def wait_confirmation(
        self, submission: TransferSubmission
    ) -> Generator[Event, Any, bool]:
        """Poll ``/tx`` until the submission confirms; True on success."""
        if not submission.accepted:
            return False
        deadline = self.env.now + self.confirm_timeout_seconds
        while self.env.now < deadline:
            try:
                lookup = yield from self.client.call("tx", tx_hash=submission.tx.hash)
            except RpcTimeoutError:
                self.log.error(
                    "failed_tx_no_confirmation", tx_hash=submission.tx.hash
                )
                yield self.env.timeout(self.confirm_poll_seconds)
                continue
            except RpcError:
                yield self.env.timeout(self.confirm_poll_seconds)
                continue
            if lookup.found:
                submission.confirmed = lookup
                submission.confirm_time = self.env.now
                self.log.info(
                    "transfer_confirmation",
                    tx_hash=submission.tx.hash,
                    code=lookup.code,
                    height=lookup.height,
                    count=submission.transfer_count,
                )
                if lookup.code != 0:
                    # Committed but failed in execution (out of gas,
                    # failed ante) — distinct from the no-confirmation
                    # timeout bucket below, which never saw the tx land.
                    self.log.error(
                        "failed_tx_execution",
                        tx_hash=submission.tx.hash,
                        code=lookup.code,
                    )
                return lookup.code == 0
            yield self.env.timeout(self.confirm_poll_seconds)
        self.log.error("failed_tx_no_confirmation", tx_hash=submission.tx.hash)
        return False
