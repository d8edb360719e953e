"""ICS-02 light clients (Tendermint flavour).

A light client tracks the counterparty chain's consensus: for each verified
height it stores a :class:`ConsensusState` holding the app-state root and
the header time.  ``update`` verifies a :class:`SignedHeader` — height
monotonicity, trusting period, and that >2/3 of the known validator set
signed the commit — exactly the checks that make IBC trust-minimised.

A client hosted by an IBC module writes its consensus states, latest
height and latest time through the chain's journal, so a failed
transaction's ``MsgUpdateClient`` leaves no header behind.  A freeze is
written directly: misbehaviour evidence outlives the transaction that
carried it.
"""

from __future__ import annotations

from typing import Optional

from repro.cosmos.journal import Journal
from repro.errors import ClientError
from repro.sim.records import dataclass, record
from repro.tendermint.crypto import GLOBAL_SIGNATURES, hash_value
from repro.tendermint.types import BlockIDFlag, Commit
from repro.tendermint.validator import ValidatorSet


@record
class ConsensusState:
    """Verified snapshot of the counterparty at one height."""

    height: int
    root: bytes  # app hash covering state up to this header
    timestamp: float
    next_validators_hash: bytes


@record
class SignedHeader:
    """What a relayer submits in MsgUpdateClient.

    ``root`` is the app hash carried by the header; ``commit`` holds the
    validator signatures for the header's block.
    """

    chain_id: str
    height: int
    time: float
    root: bytes
    next_validators_hash: bytes
    commit: Commit

    def sign_bytes(self) -> bytes:
        return hash_value(
            {
                "chain_id": self.chain_id,
                "height": self.height,
                "time": self.time,
                "root": self.root.hex(),
            }
        )


@dataclass(slots=True)
class ClientState:
    """Mutable client metadata (ICS-02 ClientState)."""

    client_id: str
    chain_id: str
    trust_level_numerator: int = 2
    trust_level_denominator: int = 3
    trusting_period: float = 14 * 24 * 3600.0
    latest_height: int = 0
    frozen: bool = False


#: Roots whose fold memos a light client keeps (see ``fold_memo``).
FOLD_MEMO_ROOTS = 2


class TendermintLightClient:
    """A light client instance living inside one chain's IBC module."""

    def __init__(
        self,
        client_id: str,
        chain_id: str,
        validator_set: ValidatorSet,
        trusting_period: float = 14 * 24 * 3600.0,
        journal: Optional[Journal] = None,
    ):
        self.journal = journal if journal is not None else Journal()
        self.state = ClientState(
            client_id=client_id, chain_id=chain_id, trusting_period=trusting_period
        )
        self.validator_set = validator_set
        self.consensus_states: dict[int, ConsensusState] = {}
        self._latest_time: Optional[float] = None
        # root -> fold memo, oldest first; see ``fold_memo``.
        self._fold_memos: dict[bytes, dict] = {}

    @property
    def client_id(self) -> str:
        return self.state.client_id

    @property
    def latest_height(self) -> int:
        return self.state.latest_height

    def consensus_state(self, height: int) -> ConsensusState:
        state = self.consensus_states.get(height)
        if state is None:
            raise ClientError(
                f"client {self.client_id}: no consensus state at height {height}"
            )
        return state

    # -- updates --------------------------------------------------------------

    def update(self, header: SignedHeader, now: float) -> ConsensusState:
        """Verify a header and record its consensus state.

        Raises :class:`ClientError` on any verification failure.  Updates
        for already-verified heights are idempotent if consistent and
        rejected (freeze-worthy) if conflicting.
        """
        if self.state.frozen:
            raise ClientError(f"client {self.client_id} is frozen")
        if header.chain_id != self.state.chain_id:
            raise ClientError(
                f"header chain id {header.chain_id!r} != {self.state.chain_id!r}"
            )
        if header.height <= 0:
            raise ClientError("header height must be positive")
        existing = self.consensus_states.get(header.height)
        if existing is not None:
            if existing.root == header.root:
                return existing
            # Conflicting header for a verified height: misbehaviour.
            self.state.frozen = True
            raise ClientError(
                f"client {self.client_id} frozen: conflicting header at "
                f"height {header.height}"
            )
        if (
            self._latest_time is not None
            and now - self._latest_time > self.state.trusting_period
        ):
            raise ClientError(
                f"client {self.client_id}: trusting period expired"
            )
        self._verify_commit(header)
        state = ConsensusState(
            height=header.height,
            root=header.root,
            timestamp=header.time,
            next_validators_hash=header.next_validators_hash,
        )
        journal = self.journal
        journal.add(self.consensus_states, header.height, state)
        if header.height > self.state.latest_height:
            journal.assign(self.state, "latest_height", header.height)
            latest = self._latest_time
            time = header.time if latest is None else max(latest, header.time)
            journal.assign(self, "_latest_time", time)
        return state

    def _verify_commit(self, header: SignedHeader) -> None:
        commit = header.commit
        sign_bytes = header.sign_bytes()
        signed_power = 0
        for sig in commit.signatures:
            if sig.block_id_flag != BlockIDFlag.COMMIT:
                continue
            validator = self.validator_set.by_address(sig.validator_address)
            if validator is None:
                raise ClientError(
                    f"unknown validator {sig.validator_address} in commit"
                )
            if not GLOBAL_SIGNATURES.verify(
                validator.public_key, sign_bytes, sig.signature
            ):
                raise ClientError(
                    f"bad signature from validator {validator.name}"
                )
            signed_power += validator.power
        threshold = (
            self.validator_set.total_power
            * self.state.trust_level_numerator
            // self.state.trust_level_denominator
        )
        if signed_power <= threshold:
            raise ClientError(
                f"insufficient voting power: {signed_power} <= {threshold}"
            )

    # -- verification helpers used by ICS-03/04 --------------------------------

    def root_at(self, height: int) -> bytes:
        return self.consensus_state(height).root

    def fold_memo_at(self, height: int) -> tuple[bytes, dict]:
        """The root at ``height`` and its fold memo (``fold_memo``): what
        each membership check against that height needs, in one call."""
        state = self.consensus_states.get(height)
        if state is None:
            state = self.consensus_state(height)  # raises ClientError
        root = state.root
        return root, self._fold_memos.get(root) or self.fold_memo(root)

    def fold_memo(self, root: bytes) -> dict:
        """The membership-fold memo of ``root``
        (:func:`~repro.tendermint.merkle.verify_membership`).

        A batch of packets is proven against one header, so consecutive
        proofs share their substore's top-layer proof, which the memo folds
        once, and their upper paths in the substore
        (:meth:`~repro.tendermint.merkle.MembershipProof.folds_to`).  Only
        the ``FOLD_MEMO_ROOTS`` most recently opened roots keep a memo.
        """
        memos = self._fold_memos
        memo = memos.get(root)
        if memo is None:
            if len(memos) >= FOLD_MEMO_ROOTS:
                del memos[next(iter(memos))]
            memo = memos[root] = {}
        return memo


def make_signed_header(
    chain_id: str,
    height: int,
    time: float,
    root: bytes,
    validator_set: ValidatorSet,
    next_validators_hash: Optional[bytes] = None,
    absent: Optional[set[str]] = None,
) -> SignedHeader:
    """Produce a correctly signed header (used by chains and by tests).

    ``absent`` lists validator names that do not sign (fault injection).
    """
    from repro.tendermint.types import BlockID, CommitSig, PartSetHeader

    absent = absent or set()
    header = SignedHeader(
        chain_id=chain_id,
        height=height,
        time=time,
        root=root,
        next_validators_hash=(
            next_validators_hash
            if next_validators_hash is not None
            else validator_set.hash()
        ),
        commit=Commit(height=height, round=0, block_id=BlockID.nil(), signatures=()),
    )
    sign_bytes = header.sign_bytes()
    signatures = []
    for validator in validator_set:
        if validator.name in absent:
            signatures.append(
                CommitSig(
                    block_id_flag=BlockIDFlag.ABSENT,
                    validator_address=validator.address,
                    timestamp=time,
                    signature=b"",
                )
            )
        else:
            signatures.append(
                CommitSig(
                    block_id_flag=BlockIDFlag.COMMIT,
                    validator_address=validator.address,
                    timestamp=time,
                    signature=validator.private_key.sign(sign_bytes),
                )
            )
    block_id = BlockID(hash=sign_bytes, part_set_header=PartSetHeader(1, sign_bytes))
    commit = Commit(
        height=height, round=0, block_id=block_id, signatures=tuple(signatures)
    )
    return SignedHeader(
        chain_id=header.chain_id,
        height=header.height,
        time=header.time,
        root=header.root,
        next_validators_hash=header.next_validators_hash,
        commit=commit,
    )
