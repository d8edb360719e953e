"""Hashing, addresses and simulated signatures for the Tendermint substrate.

Hashes are real SHA-256 over canonical encodings, so commitments, block IDs
and merkle roots behave exactly like the real system's (collision-resistant,
content-addressed).  Signatures are *structural* stand-ins: a signature is
the SHA-256 tag of ``(private key, message)`` and verification recomputes it
from the paired public key.  This keeps verification meaningful (a signature
only verifies for the exact signer and message) without pulling in ed25519.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from typing import Any

from repro.sim.records import dataclass


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def canonical_json(value: Any) -> bytes:
    """Deterministic JSON encoding used for hashing structured values."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def hash_value(value: Any) -> bytes:
    """SHA-256 of the canonical encoding of any JSON-representable value."""
    return sha256(canonical_json(value))


def short_hex(digest: bytes, length: int = 12) -> str:
    return digest.hex()[:length].upper()


@dataclass(frozen=True)
class PrivateKey:
    """A simulated signing key, derived deterministically from a name."""

    secret: bytes

    @classmethod
    def from_name(cls, name: str) -> "PrivateKey":
        return cls(secret=sha256(b"privkey/" + name.encode()))

    @property
    def public_key(self) -> "PublicKey":
        return _public_key_of(self.secret)

    def sign(self, message: bytes) -> bytes:
        # Memoized: verification recomputes the tag for the same
        # (key, message) pair, so the digest is derived exactly once.
        return _sign(self.secret, message)


#: Cache bounds: keypairs and addresses number in the dozens per testbed;
#: distinct (key, message) signatures grow with simulated blocks.  The
#: bounds comfortably exceed one run's working set — they exist so a
#: reused pool worker cannot accumulate entries across runs without limit.
_KEY_CACHE_SIZE = 1 << 12
_SIGN_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _public_key_of(secret: bytes) -> "PublicKey":
    return PublicKey(key=sha256(b"pubkey/" + secret))


@lru_cache(maxsize=_SIGN_CACHE_SIZE)
def _sign(secret: bytes, message: bytes) -> bytes:
    return sha256(secret + b"/sign/" + message)


@dataclass(frozen=True)
class PublicKey:
    """The verification half of a :class:`PrivateKey`."""

    key: bytes

    @property
    def address(self) -> str:
        """Tendermint-style address: first 20 bytes of the key hash, hex."""
        return _address_of(self.key)

    def verify(self, message: bytes, signature: bytes, signer: "PrivateKey") -> bool:
        """Structural verification.

        Real asymmetric verification is impossible for a hash-based stand-in
        without the private key, so nodes in this simulation keep a registry
        mapping public keys to their signing oracles (see
        :class:`SignatureRegistry`).  Callers should prefer the registry.
        """
        return signer.public_key == self and signer.sign(message) == signature


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _address_of(key: bytes) -> str:
    return sha256(key)[:20].hex()


def reset_caches() -> None:
    """Drop the signature/pubkey/address memo caches.

    Invoked per run by :func:`repro.framework.runner.run_experiment` so a
    long-lived sweep worker does not retain entries from earlier runs.
    """
    _public_key_of.cache_clear()
    _sign.cache_clear()
    _address_of.cache_clear()


class SignatureRegistry:
    """Verification oracle: maps public keys to their private counterparts.

    In the simulation every honest node can verify any signature by asking
    the registry whether ``sign(key, msg) == sig``.  Byzantine behaviour is
    modelled by *not* signing (or signing different content), which the
    registry faithfully exposes.
    """

    def __init__(self) -> None:
        self._by_pub: dict[bytes, PrivateKey] = {}

    def register(self, priv: PrivateKey) -> None:
        self._by_pub[priv.public_key.key] = priv

    def verify(self, pub: PublicKey, message: bytes, signature: bytes) -> bool:
        priv = self._by_pub.get(pub.key)
        if priv is None:
            return False
        return priv.sign(message) == signature


#: Process-wide registry; keys register themselves on keypair creation via
#: :func:`new_keypair`.
GLOBAL_SIGNATURES = SignatureRegistry()


def new_keypair(name: str) -> tuple[PrivateKey, PublicKey]:
    """Create (and register) a deterministic keypair for ``name``."""
    priv = PrivateKey.from_name(name)
    GLOBAL_SIGNATURES.register(priv)
    return priv, priv.public_key
