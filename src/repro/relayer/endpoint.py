"""The Chain Endpoint (Fig. 4): the one submit-and-confirm path per chain.

Relay legs, the handshake and the Hermes CLI all go through it, as in
Hermes 1.0.  It signs with an *optimistic* account sequence (bumped
locally per signed tx, so several txs can queue into one block), gives a
sequence back when the node did not accept its broadcast and nothing was
signed since, re-syncs from committed chain state and retries once on
``account sequence mismatch`` (the paper's mismatch cascades under load),
and polls ``/tx`` for confirmation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.cosmos.accounts import Wallet
from repro.cosmos.gas import GasSchedule
from repro.cosmos.tx import Tx, TxFactory, chunk_msgs
from repro.errors import (
    NodeUnavailableError,
    RpcError,
    RpcOverloadedError,
    RpcTimeoutError,
)
from repro.relayer.logging import RelayerLog
from repro.sim.core import Environment, Event
from repro.tendermint.node import BroadcastResult, ChainNode, TxLookupResult
from repro.tendermint.rpc import RpcClient
from repro.trace import NULL_TRACER, packet_key

#: ABCI code for account sequence mismatch (see errors.SequenceMismatchError).
SEQUENCE_MISMATCH_CODE = 32

#: RPC failures worth retrying: the request may simply have hit a busy or
#: briefly-unavailable node.  Application-level RpcErrors are not retried.
TRANSIENT_RPC_ERRORS = (RpcTimeoutError, RpcOverloadedError, NodeUnavailableError)

#: Multiplier applied to estimated gas when setting tx gas limits
#: (Hermes's default_gas/max_gas behaviour, simplified).
GAS_MULTIPLIER = 1.3

#: A relayer gives up confirming a tx after this many seconds.
CONFIRM_TIMEOUT_SECONDS = 120.0

#: First query-retry backoff; doubles per attempt up to the cap.
RPC_RETRY_BASE_SECONDS = 0.5
RPC_RETRY_MAX_SECONDS = 8.0


@dataclass
class SubmittedTx:
    """A transaction the endpoint pushed toward the chain."""

    tx: Tx
    broadcast: Optional[BroadcastResult] = None
    confirmed: Optional[TxLookupResult] = None
    confirm_time: Optional[float] = None
    #: Packet messages in the tx (excludes the prepended client update).
    payload_msgs: int = 0
    #: (source_chain, source_channel, sequence) per packet message, in
    #: chunk order, so confirmations can be traced back to packet
    #: identities.
    packet_keys: tuple[tuple[str, str, int], ...] = ()

    @property
    def accepted(self) -> bool:
        return self.broadcast is not None and self.broadcast.ok

    @property
    def executed_ok(self) -> bool:
        return (
            self.confirmed is not None
            and self.confirmed.found
            and self.confirmed.code == 0
        )


class ChainEndpoint:
    """One signer's interface to one chain, via a machine-local full node.
    ``rpc_retry_attempts`` is the query retry budget (the seat's
    :class:`~repro.relayer.fleet.FleetConfig` value for a relayer).  The
    other keyword-only arguments default to a relayer's; the CLI passes
    its own."""

    def __init__(
        self,
        env: Environment,
        node: ChainNode,
        wallet: Wallet,
        client_host: str,
        log: RelayerLog,
        tracer=NULL_TRACER,
        *,
        rpc_retry_attempts: int,
        client_id: Optional[str] = None,
        sign_seconds: Optional[float] = None,
        confirm_poll_seconds: Optional[float] = None,
        confirm_timeout_seconds: float = CONFIRM_TIMEOUT_SECONDS,
        gas_factor: float = GAS_MULTIPLIER,
    ):
        self.env = env
        self.chain = node.chain
        #: The chain's calibration: the relayer's timings and limits.
        self.cal = cal = node.chain.cal
        self.rpc_retry_attempts = rpc_retry_attempts
        self.log = log
        self.tracer = tracer
        self._track = f"{log.relayer}/endpoint/{node.chain.chain_id}"
        self.client = RpcClient(
            env,
            node.chain.network,
            client_host,
            node.rpc,
            # Stable id (log names are unique per testbed): the default
            # falls back to a process-global counter, which is replay-safe
            # but drifts across runs in one process.
            client_id=client_id or f"{log.relayer}/{node.chain.chain_id}",
        )
        # Each packet transaction carries a prepended MsgUpdateClient on
        # top of the (paper-reported) 100 packet messages.
        self.factory = TxFactory(wallet, cal, prepended_msgs=1)
        self._gas = GasSchedule(cal)
        self.gas_factor = gas_factor
        if sign_seconds is None:
            sign_seconds = cal.relayer_sign_seconds_per_tx
        self.sign_seconds = sign_seconds
        if confirm_poll_seconds is None:
            confirm_poll_seconds = cal.relayer_confirm_poll_seconds
        self.confirm_poll_seconds = confirm_poll_seconds
        self.confirm_timeout_seconds = confirm_timeout_seconds
        self._last_signed: Optional[Tx] = None

    @property
    def chain_id(self) -> str:
        return self.chain.chain_id

    # ------------------------------------------------------------------
    # Queries (thin wrappers over the RPC client)
    # ------------------------------------------------------------------

    def query(self, method: str, **params: Any) -> Generator[Event, Any, Any]:
        """RPC query with capped exponential backoff on transient failures.

        With ``rpc_retry_attempts = 0`` (Hermes 1.0.0's query behaviour)
        this is a plain call.  Retries apply only to queries — broadcasts
        are never auto-retried, since the tx may have been accepted even
        when the response was lost.
        """
        budget = self.rpc_retry_attempts
        backoff = RPC_RETRY_BASE_SECONDS
        attempt = 0
        while True:
            try:
                return (yield from self.client.call(method, **params))
            except TRANSIENT_RPC_ERRORS as exc:
                if attempt >= budget:
                    if budget > 0:
                        self.log.error(
                            "rpc_retry_exhausted",
                            chain=self.chain_id,
                            method=method,
                            attempts=attempt + 1,
                            reason=str(exc),
                        )
                    raise
                attempt += 1
                self.log.info(
                    "rpc_retry",
                    chain=self.chain_id,
                    method=method,
                    attempt=attempt,
                    backoff=backoff,
                )
                yield self.env.timeout(backoff)
                backoff = min(backoff * 2.0, RPC_RETRY_MAX_SECONDS)

    # ------------------------------------------------------------------
    # Transaction submission
    # ------------------------------------------------------------------

    def submit_msgs(
        self,
        msgs: list[Any],
        label: str,
        prepend_msg: Optional[Any] = None,
        packet_src_chain: Optional[str] = None,
    ) -> Generator[Event, Any, list[SubmittedTx]]:
        """Chunk, sign and broadcast messages; returns per-tx outcomes.

        ``prepend_msg`` (a ``MsgUpdateClient`` in practice) is prepended to
        every chunk, the way Hermes precedes each packet transaction with a
        client update.
        ``packet_src_chain`` names the chain the chunk's packets originated
        on: a relay leg's messages each carry a packet, and their trace keys
        are built only when it is given.  The handshake's and the CLI's
        messages carry none.
        """
        submitted: list[SubmittedTx] = []
        for chunk in chunk_msgs(msgs, self.cal.max_msgs_per_tx):
            started = self.env.now
            yield self.env.timeout(self.sign_seconds)
            payload = [prepend_msg] + chunk if prepend_msg is not None else chunk
            entry = yield from self._sign_and_broadcast(payload, label, len(chunk))
            if packet_src_chain is not None:
                entry.packet_keys = tuple(
                    packet_key(
                        packet_src_chain, m.packet.source_channel, m.packet.sequence
                    )
                    for m in chunk
                )
            submitted.append(entry)
            if self.tracer.enabled:
                # Sign + broadcast for one chunk (Fig. 12's submit leg).
                self.tracer.record_span(
                    f"{label}_submit",
                    self._track,
                    start=started,
                    chain=self.chain_id,
                    tx_hash=entry.tx.hash,
                    count=entry.payload_msgs,
                    accepted=entry.accepted,
                )
        return submitted

    def sign(self, msgs: list[Any], sequence: Optional[int] = None) -> Tx:
        """One transaction over ``msgs``, its gas estimate scaled by the
        gas factor; at the next local sequence unless one is given."""
        kinds = [getattr(m, "kind", "unknown") for m in msgs]
        gas_limit = int(self._gas.estimate_tx_gas(kinds) * self.gas_factor)
        return self.factory.build(msgs, gas_limit=gas_limit, sequence=sequence)

    def _sign_and_broadcast(
        self,
        chunk: list[Any],
        label: str,
        payload_msgs: int,
        retried: bool = False,
    ) -> Generator[Event, Any, SubmittedTx]:
        factory = self.factory
        tx = self._last_signed = self.sign(chunk)
        entry = SubmittedTx(tx=tx, payload_msgs=payload_msgs)
        self.log.info(
            f"{label}_broadcast",
            chain=self.chain_id,
            tx_hash=tx.hash,
            count=payload_msgs,
        )
        try:
            result = yield from self.client.call("broadcast_tx_sync", tx=tx)
        except RpcError as exc:
            result = None
            self.log.error("broadcast_failed", chain=self.chain_id, reason=str(exc))
        entry.broadcast = result
        if result is not None and result.ok:
            return entry
        if self._last_signed is tx:
            # The node did not take the tx and nothing was signed since:
            # its sequence is still the account's next (Hermes 1.0 bumps
            # its sequence only on an accepted broadcast).
            factory.resync_sequence(tx.sequence)
        if result is None:
            return entry
        if result.code == SEQUENCE_MISMATCH_CODE and not retried:
            # Re-sync from chain and retry once with a fresh sequence.
            self.log.error(
                "account_sequence_mismatch",
                chain=self.chain_id,
                log=result.log,
            )
            try:
                info = yield from self.client.call(
                    "account", address=factory.wallet.address
                )
            except RpcError as exc:
                self.log.error(
                    "sequence_resync_failed", chain=self.chain_id, reason=str(exc)
                )
                return entry
            factory.resync_sequence(info["sequence"])
            return (
                yield from self._sign_and_broadcast(
                    chunk, label, payload_msgs, retried=True
                )
            )
        self.log.error(
            "broadcast_rejected",
            chain=self.chain_id,
            code=result.code,
            log=result.log,
        )
        return entry

    # ------------------------------------------------------------------
    # Confirmation polling
    # ------------------------------------------------------------------

    def confirm_txs(
        self, submitted: list[SubmittedTx], label: str
    ) -> Generator[Event, Any, list[SubmittedTx]]:
        """Poll ``/tx`` until every accepted tx confirms or the confirmation
        window lapses.  Failures surface as ``failed tx: no confirmation``.
        """
        pending = [s for s in submitted if s.accepted]
        deadline = self.env.now + self.confirm_timeout_seconds
        while pending and self.env.now < deadline:
            still_pending: list[SubmittedTx] = []
            for entry in pending:
                try:
                    lookup = yield from self.client.call(
                        "tx", tx_hash=entry.tx.hash
                    )
                except RpcError:
                    # Transient poll failure: keep polling until the
                    # deadline.  ``failed_tx_no_confirmation`` is logged
                    # only in the terminal sweep below, so reports count
                    # each unconfirmed tx exactly once.
                    still_pending.append(entry)
                    continue
                if lookup.found:
                    entry.confirmed = lookup
                    entry.confirm_time = self.env.now
                    self.log.info(
                        f"{label}_confirmation",
                        chain=self.chain_id,
                        tx_hash=entry.tx.hash,
                        code=lookup.code,
                        height=lookup.height,
                        count=entry.payload_msgs,
                    )
                    if self.tracer.enabled:
                        # Stamped at the same instant as the confirmation
                        # log record, so the trace's per-packet marks line
                        # up with the journal.
                        for key in entry.packet_keys:
                            self.tracer.event(
                                f"{label}_confirmed",
                                self._track,
                                key=key,
                                chain=self.chain_id,
                                tx_hash=entry.tx.hash,
                                height=lookup.height,
                                code=lookup.code,
                            )
                else:
                    still_pending.append(entry)
            pending = still_pending
            if pending:
                yield self.env.timeout(self.confirm_poll_seconds)
        for entry in pending:
            self.log.error(
                "failed_tx_no_confirmation",
                chain=self.chain_id,
                tx_hash=entry.tx.hash,
            )
        return submitted
