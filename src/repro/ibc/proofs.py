"""Proof objects exchanged between chains via the relayer (ICS-23 role).

Two proof modes are supported:

* ``merkle`` — real ``(index, total, aunts)`` proofs generated by the host
  chain's :class:`~repro.tendermint.merkle.ProvableStore` and verified hash
  by hash against the app hash stored in the verifying chain's light
  client.  This is the default and what all protocol tests use.
* ``stub`` — structural stand-ins that skip hashing, for the largest
  sweeps.  A proof itself is cheap.  At 10 k keys it takes about 3.5 us
  to generate and 11.5 us to verify by the plain fold (~15 SHA-256
  calls).  Against a warm light-client fold memo, as when a batch is
  checked against one header, verifying takes 5.3 us: the leaf and the
  four bottom levels are hashed, the rest is looked up.  What real mode
  still costs is rebuilding the positional tree of every dirty store
  each block.  Measured as ``run_experiment`` CPU time, median of 3, on
  a 2-core x86-64 host with CPython 3.11.7 shared with other work: the
  ``relay_steady`` benchmark workload (140 tx/s, a store that grows to
  ~20 k keys, every dirty commit structural) takes 0.83 s with stubs and
  1.52 s with real proofs (+83 %); the send-only ``chain_saturated``
  takes 1.08 s and 1.31-1.46 s (+21-35 %).  No *simulated* quantity is
  affected.
  Stub proofs still carry the claimed key/value and the state generation
  they were produced at, so gross protocol errors (proving against the
  wrong chain or path) are caught.

The choice is a host-performance knob only: simulated RPC costs are
identical in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import ProofVerificationError
from repro.tendermint import merkle
from repro.tendermint.merkle import MembershipProof, NonMembershipProof

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


CommitmentProof = Union[MembershipProof, StubMembershipProof]
AbsenceProof = Union[NonMembershipProof, StubNonMembershipProof]


def verify_membership(
    root: bytes,
    key: bytes,
    value: bytes,
    proof: Optional[CommitmentProof],
    memo: Optional[dict[bytes, tuple]] = None,
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
    if proof.key != key:
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
