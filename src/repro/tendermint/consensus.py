"""Tendermint consensus: rounds of propose → prevote → precommit → commit.

The engine simulates the exact message schedule of each round: the proposer
gossips the proposal, every validator prevotes when it has validated the
proposal, precommits when >2/3 of prevote power has arrived, and the block
commits when >2/3 of precommit power has reached the primary full node.
Delays are sampled per message from the network model, so the 200 ms RTT of
the paper's testbed shows up as ~3 one-way delays of consensus latency per
block — matching the ~25 ms (LAN) figure the paper cites for 5 validators.

Timing model per height (the run's :class:`~repro.calibration.Calibration`
holds the fitted values):

* the proposer proposes ``min_block_interval`` (Tendermint's
  ``timeout_commit``, the paper's 5 s minimum interval) after the previous
  block's proposal time, but never before the previous block finished
  executing;
* after commit, the block executes for
  ``overhead + per_msg * B + per_msg_sq * B**2`` simulated seconds — the
  superlinear term reproduces the paper's Fig. 7 interval growth;
* a round with a silent proposer times out and moves to the next round and
  proposer, exactly like the real algorithm's liveness path.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import calibration as cal
from repro.errors import SimulationError
from repro.ibc.client import SignedHeader, make_signed_header
from repro.sim.core import SHUTDOWN, Environment
from repro.sim.network import Network
from repro.sim.records import dataclass
from repro.sim.rng import RngRegistry
from repro.tendermint.abci import (
    Application,
    ExecutedBlock,
    ExecutedTx,
)
from repro.tendermint.mempool import Mempool
from repro.tendermint.store import BlockStore, TxIndexer
from repro.tendermint.types import (
    Block,
    BlockID,
    BlockIDFlag,
    Commit,
    CommitSig,
    Data,
    Evidence,
    Header,
    evidence_hash,
    last_commit_hash,
)
from repro.tendermint.validator import Validator, ValidatorSet

#: How long a round waits for a proposal before moving on (Tendermint's
#: timeout_propose).
TIMEOUT_PROPOSE = 3.0
#: Per-validator cost to validate a proposal before prevoting.
VALIDATE_BASE_SECONDS = 0.005
VALIDATE_SECONDS_PER_MSG = 2e-6


@dataclass(slots=True)
class CommittedBlockInfo:
    """What the engine hands to subscribers after a block executes."""

    block: Block
    executed: ExecutedBlock
    signed_header: SignedHeader
    commit_time: float


class ConsensusEngine:
    """Drives one chain's block production inside the simulation."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        chain_id: str,
        validators: ValidatorSet,
        validator_hosts: dict[str, str],
        app: Application,
        mempool: Mempool,
        block_store: BlockStore,
        indexer: TxIndexer,
        rng: RngRegistry,
        calibration: cal.Calibration,
        primary_host: Optional[str] = None,
    ):
        self.env = env
        self.network = network
        self.chain_id = chain_id
        self.validators = validators
        self.validator_hosts = dict(validator_hosts)
        missing = [v.name for v in validators if v.name not in self.validator_hosts]
        if missing:
            raise SimulationError(f"validators without hosts: {missing}")
        self.app = app
        self.mempool = mempool
        self.block_store = block_store
        self.indexer = indexer
        self.cal = calibration
        self._rng = rng.stream(f"consensus/{chain_id}")
        self.primary_host = primary_host or next(iter(self.validator_hosts.values()))

        #: Validators currently refusing to participate (fault injection).
        self.silent: set[str] = set()
        #: Evidence queued for inclusion in the next block.
        self.pending_evidence: list[Evidence] = []
        #: Subscribers notified (synchronously) after each committed block.
        self._subscribers: list[Callable[[CommittedBlockInfo], None]] = []

        self.height = 0
        self.app_hash = b""
        self.latest_signed_header: Optional[SignedHeader] = None
        self.round_failures = 0
        self._last_proposal_time: Optional[float] = None
        self._last_block_id = BlockID.nil()
        self._last_commit = Commit.genesis()
        self._running = False
        self._stopped = False
        self.process = None

    # -- public API -------------------------------------------------------------

    def subscribe(self, callback: Callable[[CommittedBlockInfo], None]) -> None:
        self._subscribers.append(callback)

    def start(self) -> None:
        if self._running:
            raise SimulationError("consensus engine already running")
        self._running = True
        self.process = self.env.process(
            self._run(), name=f"consensus/{self.chain_id}"
        )

    def stop(self) -> None:
        self._stopped = True

    def shutdown(self) -> None:
        """Teardown: stop, then interrupt the height loop mid-wait.

        ``stop()`` alone lets an in-flight block finish (the lifecycle
        tests depend on that); a shutdown kills the loop immediately so
        no consensus process outlives the run.
        """
        self.stop()
        if self.process is not None and self.process.is_alive:
            self.process.interrupt(SHUTDOWN)
        self.process = None

    def set_silent(self, validator_name: str, silent: bool = True) -> None:
        """Fault injection: a silent validator neither proposes nor votes."""
        if silent:
            self.silent.add(validator_name)
        else:
            self.silent.discard(validator_name)

    # -- the height loop ----------------------------------------------------------

    def _run(self):
        while not self._stopped:
            height = self.height + 1
            committed = yield from self._run_height(height)
            if committed is None:
                continue  # liveness failure this height attempt; retry
            # timeout_commit: the configured >=5 s gap before the next
            # proposal, counted from the end of the previous block's
            # execution (Tendermint waits *after* commit).
            yield self.env.timeout(self.cal.min_block_interval)

    def _run_height(self, height: int):
        """Run rounds until a block commits; returns the block info."""
        base_proposer = self.validators.advance_proposer()
        round_ = 0
        while True:
            if self._stopped:
                return None
            proposer = self.validators.proposer_for_round(base_proposer, round_)
            result = yield from self._run_round(height, round_, proposer)
            if result is not None:
                return result
            round_ += 1
            self.round_failures += 1
            if round_ > 1000:
                raise SimulationError(
                    f"chain {self.chain_id} stuck at height {height}: no quorum"
                )

    def _run_round(self, height: int, round_: int, proposer: Validator):
        """One consensus round.  Returns block info or None on timeout."""
        t_propose = self.env.now
        if proposer.name in self.silent:
            # No proposal arrives; every validator times out.
            yield self.env.timeout(TIMEOUT_PROPOSE)
            return None

        quorum = self.validators.quorum_power()
        live = [v for v in self.validators if v.name not in self.silent]
        live_power = sum(v.power for v in live)
        if live_power < quorum:
            # Not enough live validators to ever reach quorum this round.
            yield self.env.timeout(TIMEOUT_PROPOSE)
            return None

        # Proposer reaps the mempool (txs must have gossiped in time).
        txs = self.mempool.reap(
            now=t_propose - self.cal.proposal_cutoff_seconds,
            max_gas=self.cal.block_max_gas,
            max_bytes=self.cal.block_max_bytes,
        )
        data = Data(txs=list(txs))
        message_count = sum(getattr(tx, "msg_count", 1) for tx in txs)
        evidence = list(self.pending_evidence)

        proposer_host = self.validator_hosts[proposer.name]

        # Exact message-schedule simulation of the two voting stages.
        proposal_at: dict[str, float] = {}
        for validator in live:
            delay = self.network.delay(proposer_host, self.validator_hosts[validator.name])
            validate = (
                VALIDATE_BASE_SECONDS + VALIDATE_SECONDS_PER_MSG * message_count
            )
            proposal_at[validator.name] = t_propose + delay + validate

        prevote_quorum_at = self._vote_stage(proposal_at, live, quorum)
        if prevote_quorum_at is None:
            yield self.env.timeout(TIMEOUT_PROPOSE)
            return None
        precommit_quorum_at = self._vote_stage(prevote_quorum_at, live, quorum)
        if precommit_quorum_at is None:
            yield self.env.timeout(TIMEOUT_PROPOSE)
            return None

        # The chain's primary full node assembles the commit when it holds
        # +2/3 precommit power.
        votes_at_primary = sorted(
            (
                (
                    precommit_quorum_at[v.name]
                    + self.network.delay(
                        self.validator_hosts[v.name], self.primary_host
                    ),
                    v,
                )
                for v in live
            ),
            key=lambda pair: (pair[0], pair[1].address),
        )
        power = 0
        commit_time = None
        committed_validators: list[Validator] = []
        for arrival, validator in votes_at_primary:
            power += validator.power
            committed_validators.append(validator)
            if power >= quorum:
                commit_time = arrival
                break
        if commit_time is None:
            yield self.env.timeout(TIMEOUT_PROPOSE)
            return None
        commit_time += self.cal.consensus_base_latency * self._rng.uniform(0.8, 1.2)

        if commit_time > self.env.now:
            yield self.env.timeout(commit_time - self.env.now)

        # -- execute the block ------------------------------------------------
        header = Header(
            chain_id=self.chain_id,
            height=height,
            time=t_propose,
            last_block_id=self._last_block_id,
            last_commit_hash=last_commit_hash(self._last_commit),
            data_hash=data.hash(),
            validators_hash=self.validators.hash(),
            next_validators_hash=self.validators.hash(),
            app_hash=self.app_hash,
            last_results_hash=b"",
            evidence_hash=evidence_hash(evidence),
            proposer_address=proposer.address,
        )

        execution_seconds = (
            self.cal.block_overhead_seconds
            + self.cal.deliver_tx_seconds_per_msg * message_count
            + self.cal.indexing_seconds_per_msg_sq * message_count**2
        )
        yield self.env.timeout(execution_seconds)

        self.app.begin_block(header, evidence)
        executed_txs: list[ExecutedTx] = []
        for index, tx in enumerate(txs):
            result = self.app.deliver_tx(tx)
            executed_txs.append(
                ExecutedTx(tx=tx, height=height, index=index, result=result)
            )
        end_block = self.app.end_block(height)
        self.app_hash = self.app.commit()

        commit = self._make_commit(height, round_, header, committed_validators)
        block = Block(
            header=header, data=data, evidence=evidence, last_commit=self._last_commit
        )
        executed = ExecutedBlock(
            height=height,
            time=header.time,
            txs=executed_txs,
            end_block_events=end_block.events,
            app_hash=self.app_hash,
            execution_seconds=execution_seconds,
        )
        self.block_store.save(block, executed)
        self.indexer.index_block(executed)
        self.mempool.update([tx.hash for tx in txs])

        signed_header = make_signed_header(
            chain_id=self.chain_id,
            height=height,
            time=self.env.now,
            root=self.app_hash,
            validator_set=self.validators,
            absent=set(self.silent),
        )

        self.height = height
        self.pending_evidence = []
        self._last_proposal_time = t_propose
        self._last_block_id = block.block_id()
        self._last_commit = commit
        self.latest_signed_header = signed_header

        info = CommittedBlockInfo(
            block=block,
            executed=executed,
            signed_header=signed_header,
            commit_time=self.env.now,
        )
        for subscriber in list(self._subscribers):
            subscriber(info)
        return info

    def _vote_stage(
        self,
        trigger_at: dict[str, float],
        live: list[Validator],
        quorum: int,
    ) -> Optional[dict[str, float]]:
        """One voting stage: every live validator broadcasts its vote when
        triggered; returns, per validator, when it observes +2/3 power."""
        quorum_at: dict[str, float] = {}
        for receiver in live:
            receiver_host = self.validator_hosts[receiver.name]
            arrivals = sorted(
                (
                    trigger_at[sender.name]
                    + self.network.delay(
                        self.validator_hosts[sender.name], receiver_host
                    ),
                    sender.power,
                )
                for sender in live
            )
            power = 0
            reached = None
            for arrival, sender_power in arrivals:
                power += sender_power
                if power >= quorum:
                    reached = arrival
                    break
            if reached is None:
                return None
            quorum_at[receiver.name] = reached
        return quorum_at

    def _make_commit(
        self,
        height: int,
        round_: int,
        header: Header,
        committed: list[Validator],
    ) -> Commit:
        block_id = BlockID(hash=header.hash(), part_set_header=self._last_block_id.part_set_header)
        committed_names = {v.name for v in committed}
        signatures = []
        for validator in self.validators:
            if validator.name in self.silent:
                flag = BlockIDFlag.ABSENT
                signature = b""
            elif validator.name in committed_names:
                flag = BlockIDFlag.COMMIT
                signature = validator.private_key.sign(block_id.hash)
            else:
                flag = BlockIDFlag.NIL
                signature = validator.private_key.sign(b"nil/" + block_id.hash)
            signatures.append(
                CommitSig(
                    block_id_flag=flag,
                    validator_address=validator.address,
                    timestamp=self.env.now,
                    signature=signature,
                )
            )
        return Commit(
            height=height,
            round=round_,
            block_id=block_id,
            signatures=tuple(signatures),
        )
