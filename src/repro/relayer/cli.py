"""The Hermes CLI as a workload connector (``hermes tx ft-transfer``).

The paper's Benchmark module "binds the workload submission to the Hermes
Relayer CLI": user accounts submit transactions of up to 100 ``MsgTransfer``
messages through the machine-local full node, then poll for confirmation
before the next submission (the account-sequence constraint of §V).  The
CLI shares the relayer's Chain Endpoint (Fig. 4), so this is only the
ICS-20 front: it builds the transfer batch and its timeout height.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro import calibration as cal
from repro.cosmos.accounts import Wallet
from repro.cosmos.app import TRANSFER_DENOM
from repro.errors import ChainError
from repro.ibc.msgs import MsgTransfer
from repro.ibc.packet import Height
from repro.relayer.endpoint import GAS_MULTIPLIER, ChainEndpoint, SubmittedTx
from repro.relayer.logging import RelayerLog
from repro.sim.core import Environment, Event
from repro.tendermint.node import ChainNode

#: The CLI waits longer for a confirmation than a relayer does.
CLI_CONFIRM_TIMEOUT_SECONDS = 300.0


class WorkloadCli:
    """Submits cross-chain transfers on behalf of one user account."""

    __slots__ = ("log", "source_channel", "receiver", "wallet", "endpoint", "factory")

    def __init__(
        self,
        env: Environment,
        node: ChainNode,
        wallet: Wallet,
        client_host: str,
        log: RelayerLog,
        source_channel: str,
        receiver: str,
        rpc_timeout: Optional[float] = None,
        gas_factor: float = GAS_MULTIPLIER,
    ):
        """``gas_factor`` below 1 is the gas-griefing adversary's: its
        transactions admit but cannot execute."""
        self.log = log
        self.source_channel = source_channel
        self.receiver = receiver
        self.wallet = wallet
        self.endpoint = ChainEndpoint(
            env,
            node,
            wallet,
            client_host,
            log,
            # The CLI only submits and confirms: it never queries.
            rpc_retry_attempts=0,
            client_id=f"cli/{wallet.name}",
            sign_seconds=node.chain.cal.cli_prepare_seconds_per_tx,
            confirm_poll_seconds=node.chain.cal.cli_confirm_poll_seconds,
            confirm_timeout_seconds=CLI_CONFIRM_TIMEOUT_SECONDS,
            gas_factor=gas_factor,
        )
        self.factory = self.endpoint.factory
        if rpc_timeout is not None:
            self.endpoint.client.timeout = rpc_timeout

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
            denom=TRANSFER_DENOM,
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
    ) -> Generator[Event, Any, SubmittedTx]:
        """Submit one transaction of ``count`` transfer messages."""
        if count > self.endpoint.cal.max_msgs_per_tx:
            raise ChainError(f"{count} transfers exceed one transaction")
        if dst_height_hint is None:
            dst_height_hint = self.endpoint.chain.engine.height
        msgs = self.build_transfer_msgs(count, amount, timeout_blocks, dst_height_hint)
        (submission,) = yield from self.endpoint.submit_msgs(msgs, "transfer")
        return submission

    def wait_confirmation(
        self, submission: SubmittedTx
    ) -> Generator[Event, Any, bool]:
        """Poll ``/tx`` until the submission confirms; True on success."""
        yield from self.endpoint.confirm_txs([submission], "transfer")
        confirmed = submission.confirmed
        if confirmed is not None and confirmed.code != 0:
            # Committed but failed in execution (out of gas, failed ante).
            self.log.error(
                "tx_execution_failed",
                chain=self.endpoint.chain_id,
                tx_hash=submission.tx.hash,
                code=confirmed.code,
                log=confirmed.log,
            )
        return submission.executed_ok
