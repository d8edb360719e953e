"""The framework's Benchmark module: the Cross-chain Workload Connector.

Implements the paper's §III-D submission scheme: ``num_accounts`` user
accounts each submit transactions of up to 100 ``MsgTransfer`` messages
through the Hermes CLI and wait for confirmation before submitting again
(the account-sequence constraint allows only one transaction per account
per block).  Two modes:

* **continuous** (throughput experiments): every account loops until the
  measurement window closes, yielding a per-block batch of
  ``input_rate x block_interval`` transfers;
* **fixed-total** (latency experiments, Figs. 12-13): exactly
  ``total_transfers`` messages are spread evenly over
  ``submission_blocks`` consecutive per-account rounds.

Multi-route topologies get one account pool per route, each submitting
on the route's source chain; rates and fixed totals apply *per route*,
so adding spokes to a hub adds load (the saturation experiment).
Multi-hop routes encode the remaining hops into the receiver field
(packet-forward style, see :mod:`repro.ibc.transfer`).
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, Optional

from repro.cosmos.accounts import Wallet
from repro.cosmos.bank import module_address
from repro.errors import RpcError, WorkloadError
from repro.framework.setup import Testbed
from repro.ibc.transfer import encode_forward_receiver
from repro.relayer.cli import WorkloadCli
from repro.relayer.endpoint import GAS_MULTIPLIER, SubmittedTx
from repro.relayer.logging import RelayerLog
from repro.sim.core import Environment, ProcessGroup
from repro.sim.records import dataclass
from repro.tendermint.node import Chain
from repro.workload import (
    GRIEFING_GAS_FACTOR,
    GRIEFING_MSGS,
    WorkloadEngine,
    griefing_ticks,
    spam_ticks,
)


def _count(wire: str) -> Any:
    """A transfer counter that travels under ``wire`` in the report."""
    return field(default=0, metadata={"wire": wire})


@dataclass(slots=True)
class WorkloadStats:
    """Submission-side accounting (Table I's first three columns) — the
    report's ``submission`` section, in wire order."""

    requested_transfers: int = _count("requested")
    #: Passed CheckTx into the mempool.
    accepted_transfers: int = _count("accepted")
    #: Executed OK on chain, as seen through the submitters' confirmations.
    committed_transfers: int = _count("committed")
    #: The same count from chain state (the window's ``sends_total``, set
    #: when the report is built): Table I compares the two.
    committed_chain: int = 0
    #: CheckTx rejections.
    rejected_transfers: int = _count("rejected")
    #: Confirmed on chain with a non-zero code (e.g. out-of-gas griefing,
    #: failed-ante spam) — distinct from never-confirmed submissions.
    failed_transfers: int = _count("failed")
    #: Accepted into the mempool but never seen in a confirmation lookup.
    unconfirmed_transfers: int = _count("unconfirmed")
    #: Engine-mode arrivals dropped because the drawn sender was still
    #: waiting on its previous transaction (§IV-A sequence rule).
    deferred_transfers: int = _count("deferred")
    #: Broadcast RPC failures (never reached the node).
    lost_transfers: int = _count("lost")
    # Run bookkeeping (``wire: None``): never enters the report.
    submissions: list[SubmittedTx] = field(
        default_factory=list, metadata={"wire": None}
    )
    start_time: float = field(default=0.0, metadata={"wire": None})
    #: None until the workload finishes (an explicit sentinel: comparing a
    #: simulated float timestamp against 0.0 for "unset" is fragile).
    end_time: Optional[float] = field(default=None, metadata={"wire": None})

    def summary_lines(self) -> list[str]:
        return [f"requested         : {self.requested_transfers}"]

    def record(self, submission: SubmittedTx) -> None:
        self.submissions.append(submission)
        count = submission.payload_msgs
        self.requested_transfers += count
        if submission.broadcast is None:
            self.lost_transfers += count
        elif submission.broadcast.ok:
            self.accepted_transfers += count
        else:
            self.rejected_transfers += count

    def finalize_commits(self) -> None:
        """Count committed transfers from confirmations (call at the end).

        Accepted submissions split three ways: committed OK
        (``committed_transfers``), confirmed with a failure code
        (``failed_transfers``), and never confirmed
        (``unconfirmed_transfers``).
        """
        committed = failed = unconfirmed = 0
        for s in self.submissions:
            if s.executed_ok:
                committed += s.payload_msgs
            elif s.confirmed is not None and s.confirmed.found:
                failed += s.payload_msgs
            elif s.accepted:
                unconfirmed += s.payload_msgs
        self.committed_transfers = committed
        self.failed_transfers = failed
        self.unconfirmed_transfers = unconfirmed


class WorkloadDriver:
    """Runs the configured workload against a deployed testbed."""

    __slots__ = (
        "testbed",
        "config",
        "env",
        "log",
        "stats",
        "stop_requested",
        "_active",
        "finished",
        "processes",
        "_clis",
        "_hint_chains",
        "_routes",
        "route_requested",
        "route_accepted",
        "engine",
        "_busy",
        "_lazy_clis",
        "_engine_source",
        "_engine_channel",
        "_engine_receiver",
        "_engine_hint",
    )

    def __init__(self, testbed: Testbed, log: Optional[RelayerLog] = None):
        if testbed.path is None:
            raise WorkloadError("testbed must be bootstrapped before the workload")
        self.testbed = testbed
        self.config = testbed.config
        self.env: Environment = testbed.env
        self.log = log or RelayerLog(self.env, "workload")
        self.stats = WorkloadStats()
        self.stop_requested = False
        self._active = 0
        self.finished = self.env.event()
        #: Per-account submission processes, retained for interruption.
        self.processes = ProcessGroup(self.env)
        self._clis: list[WorkloadCli] = []
        #: Per-account first-hop destination chain (timeout-height hints).
        self._hint_chains: list[Chain] = []
        #: Route index per account, plus per-route submission tallies — the
        #: report's window section is scoped to the primary route, so it
        #: needs route-local requested/accepted, not the global totals.
        self._routes: list[int] = []
        self.route_requested = [0] * len(testbed.topology.routes)
        self.route_accepted = [0] * len(testbed.topology.routes)
        #: Generated-workload mode (config.workload set): the deterministic
        #: decision core plus lazily materialized per-sender CLIs.
        self.engine: Optional[WorkloadEngine] = None
        self._busy: set[int] = set()
        self._lazy_clis: dict[int, WorkloadCli] = {}
        if self.config.workload is not None:
            route = testbed.topology.routes[0]
            source = testbed.chains[route[0]]
            first = testbed.path_end(
                testbed.route_hop_paths(0)[0][0], source.chain_id
            )
            self.engine = WorkloadEngine(
                self.config.workload,
                self.config.input_rate,
                testbed.rng.keyed("workload"),
                self.config.seed,
            )
            self._engine_source = source
            self._engine_channel = first.channel_id
            self._engine_receiver = testbed.receivers[0].address
            self._engine_hint = testbed.chains[route[1]]
            return
        forward_fallback = module_address("transfer/forward")
        for r, route in enumerate(testbed.topology.routes):
            source = testbed.chains[route[0]]
            hop_paths = testbed.route_hop_paths(r)
            hint_chain = testbed.chains[route[1]]
            final_receiver = testbed.receivers[r].address
            for i, wallet in enumerate(testbed.route_wallets[r]):
                # Accounts spread round-robin over the available channels
                # of every hop (one channel in the paper's experiments).
                first = testbed.path_end(
                    hop_paths[0][i % len(hop_paths[0])], source.chain_id
                )
                if len(route) == 2:
                    receiver = final_receiver
                else:
                    # Each intermediate chain forwards on its next-hop
                    # channel; timed-out forwards refund to the module
                    # account standing in for packet-forward middleware.
                    hops = []
                    for k in range(1, len(route) - 1):
                        onward = testbed.path_end(
                            hop_paths[k][i % len(hop_paths[k])],
                            testbed.topology.chain_ids[route[k]],
                        )
                        hops.append(
                            (forward_fallback, onward.port_id, onward.channel_id)
                        )
                    receiver = encode_forward_receiver(hops, final_receiver)
                self._clis.append(
                    self._cli(source, wallet, first.channel_id, receiver)
                )
                self._hint_chains.append(hint_chain)
                self._routes.append(r)

    def _cli(
        self,
        source: Chain,
        wallet: Wallet,
        channel_id: str,
        receiver: str,
        gas_factor: float = GAS_MULTIPLIER,
    ) -> WorkloadCli:
        """A submitter's Hermes CLI against ``source``'s CLI-side node."""
        return WorkloadCli(
            env=self.env,
            node=source.node(self.testbed.cli_host),
            wallet=wallet,
            client_host=self.testbed.cli_host,
            log=self.log,
            source_channel=channel_id,
            receiver=receiver,
            gas_factor=gas_factor,
        )

    def _exit(self) -> None:
        """A submission loop ended; the last one out finishes the workload."""
        self._active -= 1
        if self._active == 0:
            self.stats.end_time = self.env.now
            if not self.finished.triggered:
                self.finished.succeed()

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn one submission process per account (engine mode: one
        generator process plus the configured adversarial loops)."""
        self.stats.start_time = self.env.now
        if self.engine is not None:
            spec = self.engine.spec
            self._active = 1
            self.processes.spawn(self._engine_loop(), name="workload/engine")
            if spec.spam_rate > 0:
                self._active += 1
                self.processes.spawn(self._spam_loop(), name="workload/spam")
            if spec.griefing_rate > 0:
                self._active += 1
                self.processes.spawn(
                    self._griefing_loop(), name="workload/griefer"
                )
            return
        schedules = self._schedules()
        self._active = len(self._clis)
        for cli, r, hint_chain, schedule in zip(
            self._clis, self._routes, self._hint_chains, schedules
        ):
            self.processes.spawn(
                self._account_loop(cli, r, hint_chain, schedule),
                name=f"workload/{cli.wallet.name}",
            )

    def stop(self) -> None:
        """Close the submission window (continuous mode)."""
        self.stop_requested = True

    # ------------------------------------------------------------------

    def _schedules(self) -> list[Optional[list[int]]]:
        """Per-account submission schedules, route pools concatenated.

        ``None`` means continuous mode (repeat full transactions until
        stopped); otherwise a list of per-round message counts.  In
        fixed-total mode each route submits ``total_transfers`` messages
        through its own account pool.
        """
        config = self.config
        if config.total_transfers is None:
            return [None] * len(self._clis)
        schedules: list[Optional[list[int]]] = []
        for wallets in self.testbed.route_wallets:
            schedules.extend(self._route_schedule(len(wallets)))
        return schedules

    def _route_schedule(self, accounts: int) -> list[list[int]]:
        config = self.config
        total = config.total_transfers
        rounds = config.submission_blocks
        # Messages per round, spread as evenly as integers allow.
        per_round = [
            total // rounds + (1 if r < total % rounds else 0)
            for r in range(rounds)
        ]
        schedules: list[list[int]] = [[] for _ in range(accounts)]
        for r, quota in enumerate(per_round):
            remaining = quota
            for a in range(accounts):
                chunk = min(config.msgs_per_tx, remaining)
                schedules[a].append(chunk)
                remaining -= chunk
                if remaining <= 0:
                    # Pad the rest of this round with empty slots.
                    for rest in range(a + 1, accounts):
                        schedules[rest].append(0)
                    break
            if remaining > 0:
                raise WorkloadError(
                    f"round {r}: {remaining} transfers exceed account capacity; "
                    f"increase accounts or msgs_per_tx"
                )
        return list(schedules)

    def _account_loop(
        self,
        cli: WorkloadCli,
        r: int,
        hint_chain: Chain,
        schedule: Optional[list[int]],
    ):
        config = self.config
        try:
            if schedule is None:
                while not self.stop_requested:
                    yield from self._one_submission(
                        cli, r, hint_chain, config.msgs_per_tx
                    )
            else:
                for count in schedule:
                    if count <= 0:
                        # Keep round alignment: wait out one block interval.
                        yield self.env.timeout(config.block_interval)
                        continue
                    yield from self._one_submission(cli, r, hint_chain, count)
        finally:
            self._exit()

    def _one_submission(
        self,
        cli: WorkloadCli,
        r: int,
        hint_chain: Chain,
        count: int,
    ):
        # The packet sequence is assigned on chain, so the span carries the
        # tx hash instead of a packet key; the trace aggregator joins it to
        # packets via the commit/send_packet marks for the same hash.
        span = self.testbed.tracer.open_span(
            "submit", f"workload/{cli.wallet.name}", count=count
        )
        submission = yield from cli.ft_transfer(
            count=count,
            amount=self.config.transfer_amount,
            timeout_blocks=self.config.timeout_blocks,
            dst_height_hint=hint_chain.engine.height,
        )
        self.stats.record(submission)
        self.route_requested[r] += count
        if submission.accepted:
            self.route_accepted[r] += count
            yield from cli.wait_confirmation(submission)
        self.testbed.tracer.close_span(
            span,
            tx_hash=submission.tx.hash,
            accepted=submission.accepted,
            committed=submission.executed_ok,
        )
        if not submission.accepted:
            # Back off one poll interval before retrying from this account.
            yield self.env.timeout(cli.endpoint.confirm_poll_seconds)
        return submission

    # -- generated-workload engine (config.workload) -------------------

    def _sender_cli(self, rank: int) -> WorkloadCli:
        """The (lazily materialized) CLI for sender ``rank``.

        The genesis population is a slot block with no addresses; a
        sender's first submission builds its wallet and binds its slot here.
        """
        cli = self._lazy_clis.get(rank)
        if cli is None:
            assert self.engine is not None
            wallet = Wallet.named(self.engine.population.sender_name(rank))
            self._engine_source.app.address_index.bind(
                self.testbed.route_blocks[0][rank], wallet.address
            )
            cli = self._engine_cli(wallet)
            self._lazy_clis[rank] = cli
        return cli

    def _engine_cli(
        self, wallet: Wallet, gas_factor: float = GAS_MULTIPLIER
    ) -> WorkloadCli:
        return self._cli(
            self._engine_source,
            wallet,
            self._engine_channel,
            self._engine_receiver,
            gas_factor,
        )

    def _engine_loop(self):
        engine = self.engine
        start = self.env.now
        times = engine.arrivals.times()
        index = 0
        try:
            while not self.stop_requested:
                delay = start + next(times) - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                if self.stop_requested:
                    break
                rank = engine.draw_sender(index)
                count = engine.draw_payload(index)
                index += 1
                if rank in self._busy:
                    # The sender is still waiting on its previous tx: a
                    # second one would carry a stale sequence (§IV-A), so
                    # the arrival is dropped and counted, not queued.
                    engine.deferred += 1
                    self.stats.deferred_transfers += count
                    continue
                self._busy.add(rank)
                engine.record_start(rank)
                self.processes.spawn(
                    self._engine_submission(self._sender_cli(rank), rank, count),
                    name=f"workload/tx-{index - 1}",
                )
        finally:
            self._exit()

    def _engine_submission(self, cli: WorkloadCli, rank: int, count: int):
        try:
            yield from self._one_submission(cli, 0, self._engine_hint, count)
        finally:
            self._busy.discard(rank)

    def _spam_loop(self):
        """Stale-sequence replay floods against the source mempool."""
        engine = self.engine
        spec = engine.spec
        cli = self._engine_cli(self.testbed.spam_wallet)
        start = self.env.now
        spam_tx = None
        try:
            for tick in spam_ticks(spec, engine.spam_stream):
                delay = start + tick - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                if self.stop_requested:
                    break
                if spam_tx is None:
                    # One honestly-gassed transfer signed at sequence 0:
                    # the first broadcast commits, every replay after it
                    # is a CheckTx rejection (duplicate, then stale).
                    msgs = cli.build_transfer_msgs(
                        1,
                        self.config.transfer_amount,
                        self.config.timeout_blocks,
                        self._engine_hint.engine.height,
                    )
                    spam_tx = cli.endpoint.sign(msgs, sequence=0)
                rejected = 0
                for _ in range(spec.spam_burst):
                    engine.spam_submitted += 1
                    try:
                        result = yield from cli.endpoint.client.call(
                            "broadcast_tx_sync", tx=spam_tx
                        )
                    except RpcError as exc:
                        engine.spam_rejected += 1
                        rejected += 1
                        self.log.info("spam_rpc_rejected", error=str(exc))
                        continue
                    if not result.ok:
                        engine.spam_rejected += 1
                        rejected += 1
                self.log.info(
                    "spam_flood", burst=spec.spam_burst, rejected=rejected
                )
        finally:
            self._exit()

    def _griefing_loop(self):
        """§IV-A gas griefing: under-gassed 100-message transactions."""
        engine = self.engine
        cli = self._engine_cli(
            self.testbed.grief_wallet, gas_factor=GRIEFING_GAS_FACTOR
        )
        start = self.env.now
        try:
            for tick in griefing_ticks(engine.spec, engine.griefing_stream):
                delay = start + tick - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                if self.stop_requested:
                    break
                engine.griefing_submitted += 1
                submission = yield from self._one_submission(
                    cli, 0, self._engine_hint, GRIEFING_MSGS
                )
                confirmed = submission.confirmed
                if confirmed is not None and confirmed.found and confirmed.code:
                    engine.griefing_failed += 1
        finally:
            self._exit()

    # ------------------------------------------------------------------

    def finalize(self) -> WorkloadStats:
        self.stats.finalize_commits()
        if self.stats.end_time is None:
            self.stats.end_time = self.env.now
        return self.stats
