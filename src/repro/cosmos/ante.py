"""The ante handler: signature and sequence verification.

This module implements the check the paper's §V calls out (and links to in
``x/auth/ante/sigverify.go``): a transaction is valid only if its sequence
number equals the signer account's current sequence.  Because the sequence
increments when a transaction *executes*, a user cannot have two
transactions accepted in the same block — the root cause of the paper's
``account sequence mismatch`` deployment challenge and the reason its
workload uses many accounts with 100 messages per transaction.
"""

from __future__ import annotations

from repro.cosmos.accounts import AccountKeeper
from repro.cosmos.tx import Tx
from repro.errors import ChainError, SequenceMismatchError
from repro.sim.records import dataclass
from repro.tendermint.crypto import GLOBAL_SIGNATURES


@dataclass
class AnteResult:
    gas_wanted: int


class AnteHandler:
    """Runs before message execution in both CheckTx and DeliverTx."""

    def __init__(self, accounts: AccountKeeper):
        self.accounts = accounts

    def validate(self, tx: Tx, check_only: bool = False) -> AnteResult:
        """Validate signature + sequence; bump sequence unless ``check_only``.

        CheckTx (mempool admission) passes ``check_only=True``: it validates
        against current state but does not persist the increment — which is
        why a *second* tx with the next sequence can sit in the mempool but
        also why replayed sequences surface as errors only at execution.
        """
        account = self.accounts.get(tx.signer_address)
        if account is None:
            raise ChainError(f"unknown account {tx.signer_address}", code=2)
        if tx.sequence != account.sequence:
            raise SequenceMismatchError(
                expected=account.sequence,
                got=tx.sequence,
                account=tx.signer_address,
            )
        if not GLOBAL_SIGNATURES.verify(tx.public_key, tx.sign_bytes(), tx.signature):
            raise ChainError("signature verification failed", code=4)
        if tx.public_key.address != tx.signer_address:
            raise ChainError("public key does not match signer address", code=4)
        if not check_only:
            account.sequence += 1
        return AnteResult(gas_wanted=tx.gas_limit)

    def validate_for_mempool(self, tx: Tx, expected_sequence: int) -> AnteResult:
        """CheckTx-path validation against the mempool's *check state*.

        Tendermint's mempool keeps its own sequence view (chain sequence
        plus already-admitted pending txs), which is what lets Hermes queue
        several sequential transactions for one block.  A client that signs
        with the stale on-chain sequence — like the Gaia CLI the paper used
        first — fails here with ``account sequence mismatch``.
        """
        account = self.accounts.get(tx.signer_address)
        if account is None:
            raise ChainError(f"unknown account {tx.signer_address}", code=2)
        if tx.sequence != expected_sequence:
            raise SequenceMismatchError(
                expected=expected_sequence,
                got=tx.sequence,
                account=tx.signer_address,
            )
        if not GLOBAL_SIGNATURES.verify(tx.public_key, tx.sign_bytes(), tx.signature):
            raise ChainError("signature verification failed", code=4)
        return AnteResult(gas_wanted=tx.gas_limit)
