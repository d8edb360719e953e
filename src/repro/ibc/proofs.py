"""Proof objects exchanged between chains via the relayer (ICS-23 role).

Two proof modes are supported:

* ``merkle`` — real ``(index, total, aunts)`` proofs generated by the host
  chain's :class:`~repro.tendermint.merkle.ProvableStore` and verified hash
  by hash against the app hash stored in the verifying chain's light
  client.  This is the default and what all protocol tests use.
* ``stub`` — structural stand-ins that skip hashing, for the largest
  sweeps.  A proof itself is cheap (about 3 us to generate and 10 us to
  verify at 10 k keys, most of it the ~15 SHA-256 calls); what real mode
  still costs is rebuilding the positional tree of every dirty store each
  block.  Measured as ``run_experiment`` wall time, median of 5, on a
  2-core x86-64 host with CPython 3.11.7: the ``relay_steady`` benchmark
  workload (140 tx/s, a store that grows to ~20 k keys, every dirty commit
  structural) takes 0.72 s with stubs and 1.26 s with real proofs
  (+74 %); the send-only ``chain_saturated`` takes 0.93 s and 1.06 s
  (+14 %).  No *simulated* quantity is affected.
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
    root: bytes, key: bytes, value: bytes, proof: Optional[CommitmentProof]
) -> None:
    """Verify ``key -> value`` against ``root``; raises on failure."""
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
    if not merkle.verify_membership(root, proof, value):
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
