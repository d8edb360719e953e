"""Proof objects exchanged between chains via the relayer (ICS-23 role).

Two proof modes are supported:

* ``merkle`` — real two-layer proofs generated by the host chain's
  :class:`~repro.tendermint.merkle.ProvableStore` (the key's leaf to its
  substore's root, that root to the app hash) and verified hash by hash
  against the app hash stored in the verifying chain's light client.
  This is the default and what all protocol tests use.
* ``stub`` — structural stand-ins that skip hashing, for the largest
  sweeps.  A proof itself is cheap: generating one reads its aunts below
  level 4 and looks the rest up once per level-4 subtree, and against a
  warm light-client fold memo, as when a batch is checked against one
  header, verifying one hashes its leaf and its levels below
  ``FOLD_MEMO_MIN_LEVEL`` (2) and looks the rest up (about 4 us on the
  ``burst_5000`` benchmark workload).  What real mode still costs is the
  commit, a leaf hash per changed key plus the nodes the block moved,
  and the verification; ROADMAP item 2 gives the measured gap to stub
  mode per part.  No *simulated* quantity is affected.
  Stub proofs still carry the claimed key/value and the state generation
  they were produced at, so gross protocol errors (proving against the
  wrong chain or path) are caught.

The choice is a host-performance knob only: simulated RPC costs are
identical in both modes.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import ProofVerificationError
from repro.sim.records import dataclass
from repro.tendermint import merkle
from repro.tendermint.merkle import StoreAbsenceProof, StoreProof

PROOF_MODE_MERKLE = "merkle"
PROOF_MODE_STUB = "stub"


@dataclass(frozen=True)
class StubMembershipProof:
    """Structural membership claim used in ``stub`` proof mode."""

    key: bytes
    value: bytes
    root_tag: bytes  # the (cheap) app hash at proof generation time


@dataclass(frozen=True)
class StubNonMembershipProof:
    """Structural absence claim used in ``stub`` proof mode."""

    key: bytes
    root_tag: bytes


CommitmentProof = Union[StoreProof, StubMembershipProof]
AbsenceProof = Union[StoreAbsenceProof, StubNonMembershipProof]


def verify_membership(
    root: bytes,
    key: bytes,
    value: bytes,
    proof: Optional[CommitmentProof],
    memo: Optional[dict] = None,
) -> None:
    """Verify ``key -> value`` against ``root``; raises on failure.

    ``memo`` is the verifying light client's fold memo of ``root``
    (:meth:`~repro.ibc.client.TendermintLightClient.fold_memo`).
    """
    if proof is None:
        raise ProofVerificationError(f"missing membership proof for {key!r}")
    if isinstance(proof, StubMembershipProof):
        if proof.key != key or proof.value != value:
            raise ProofVerificationError(
                f"stub proof claims {proof.key!r}, expected {key!r}"
            )
        if proof.root_tag != root:
            raise ProofVerificationError("stub proof root mismatch")
        return
    if proof.leaf.key != key:
        raise ProofVerificationError(
            f"proof is for key {proof.key!r}, expected {key!r}"
        )
    if not merkle.verify_membership(root, proof, value, memo):
        raise ProofVerificationError(f"membership proof failed for {key!r}")


def verify_non_membership(
    root: bytes, key: bytes, proof: Optional[AbsenceProof]
) -> None:
    """Verify absence of ``key`` against ``root``; raises on failure."""
    if proof is None:
        raise ProofVerificationError(f"missing absence proof for {key!r}")
    if isinstance(proof, StubNonMembershipProof):
        if proof.key != key:
            raise ProofVerificationError(
                f"stub absence proof claims {proof.key!r}, expected {key!r}"
            )
        if proof.root_tag != root:
            raise ProofVerificationError("stub absence proof root mismatch")
        return
    if proof.key != key:
        raise ProofVerificationError(
            f"absence proof is for key {proof.key!r}, expected {key!r}"
        )
    if not merkle.verify_non_membership(root, proof):
        raise ProofVerificationError(f"non-membership proof failed for {key!r}")
