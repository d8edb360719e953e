"""Tendermint substrate: blocks, validators, consensus, mempool, RPC."""

from repro.tendermint.abci import (
    AbciEvent,
    Application,
    ExecutedBlock,
    ExecutedTx,
    ResponseCheckTx,
    ResponseDeliverTx,
)
from repro.tendermint.crypto import PrivateKey, PublicKey, new_keypair, sha256
from repro.tendermint.merkle import (
    MembershipProof,
    NonMembershipProof,
    ProvableStore,
    StoreAbsenceProof,
    StoreProof,
    simple_hash_from_byte_slices,
    verify_membership,
    verify_non_membership,
)
from repro.tendermint.types import (
    Block,
    BlockID,
    BlockIDFlag,
    Commit,
    CommitSig,
    Data,
    Evidence,
    Header,
)
from repro.tendermint.validator import Validator, ValidatorSet

__all__ = [
    "AbciEvent",
    "Application",
    "Block",
    "BlockID",
    "BlockIDFlag",
    "Commit",
    "CommitSig",
    "Data",
    "Evidence",
    "ExecutedBlock",
    "ExecutedTx",
    "Header",
    "MembershipProof",
    "NonMembershipProof",
    "PrivateKey",
    "ProvableStore",
    "PublicKey",
    "ResponseCheckTx",
    "ResponseDeliverTx",
    "StoreAbsenceProof",
    "StoreProof",
    "Validator",
    "ValidatorSet",
    "new_keypair",
    "sha256",
    "simple_hash_from_byte_slices",
    "verify_membership",
    "verify_non_membership",
]
