"""Tests for crypto stand-ins, block types and validator sets."""

import pytest

from repro.tendermint.crypto import (
    GLOBAL_SIGNATURES,
    PrivateKey,
    canonical_json,
    hash_value,
    new_keypair,
    sha256,
)
from repro.tendermint.types import (
    Block,
    BlockID,
    Commit,
    Data,
    Evidence,
    Header,
)
from repro.tendermint.validator import Validator, ValidatorSet
from repro.errors import SimulationError


# -- crypto -------------------------------------------------------------------


def test_keypair_deterministic():
    p1, pub1 = new_keypair("alice")
    p2, pub2 = new_keypair("alice")
    assert p1 == p2 and pub1 == pub2


def test_different_names_different_keys():
    _, a = new_keypair("alice")
    _, b = new_keypair("bob")
    assert a != b and a.address != b.address


def test_signature_verifies_via_registry():
    priv, pub = new_keypair("signer")
    sig = priv.sign(b"message")
    assert GLOBAL_SIGNATURES.verify(pub, b"message", sig)


def test_signature_rejects_wrong_message():
    priv, pub = new_keypair("signer2")
    sig = priv.sign(b"message")
    assert not GLOBAL_SIGNATURES.verify(pub, b"other", sig)


def test_signature_rejects_wrong_signer():
    priv_a, _ = new_keypair("a1")
    _, pub_b = new_keypair("b1")
    sig = priv_a.sign(b"m")
    assert not GLOBAL_SIGNATURES.verify(pub_b, b"m", sig)


def test_unregistered_key_never_verifies():
    rogue = PrivateKey(secret=b"\x01" * 32)
    assert not GLOBAL_SIGNATURES.verify(rogue.public_key, b"m", rogue.sign(b"m"))


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


def test_hash_value_distinct():
    assert hash_value({"x": 1}) != hash_value({"x": 2})


def test_address_is_20_bytes_hex():
    _, pub = new_keypair("addr-test")
    assert len(pub.address) == 40
    int(pub.address, 16)  # parses as hex


# -- block types ----------------------------------------------------------------


def _header(height=1, time=0.0, data_hash=b""):
    return Header(
        chain_id="test",
        height=height,
        time=time,
        last_block_id=BlockID.nil(),
        last_commit_hash=b"",
        data_hash=data_hash,
        validators_hash=b"v",
        next_validators_hash=b"v",
        app_hash=b"a",
        last_results_hash=b"",
        evidence_hash=b"",
        proposer_address="p",
    )


class FakeTx:
    def __init__(self, tag: bytes, size: int = 100):
        self.hash = sha256(tag)
        self.size_bytes = size
        self.msg_count = 1


def test_header_hash_changes_with_height():
    assert _header(height=1).hash() != _header(height=2).hash()


def test_data_hash_commits_to_txs():
    d1 = Data(txs=[FakeTx(b"a"), FakeTx(b"b")])
    d2 = Data(txs=[FakeTx(b"b"), FakeTx(b"a")])
    assert d1.hash() != d2.hash()
    assert d1.size_bytes == 200


def test_block_id_nil():
    assert BlockID.nil().is_nil


def test_block_part_set_scales_with_size():
    small = Block(
        header=_header(), data=Data(txs=[FakeTx(b"a")]), evidence=[],
        last_commit=Commit.genesis(),
    )
    big = Block(
        header=_header(), data=Data(txs=[FakeTx(b"b", size=300_000)]),
        evidence=[], last_commit=Commit.genesis(),
    )
    assert big.block_id().part_set_header.total > small.block_id().part_set_header.total


def test_evidence_hash_distinct():
    e1 = Evidence(validator_address="v1", height=3)
    e2 = Evidence(validator_address="v2", height=3)
    assert e1.hash() != e2.hash()


# -- validator sets ----------------------------------------------------------------


def test_validator_set_requires_members():
    with pytest.raises(SimulationError):
        ValidatorSet([])


def test_quorum_is_strictly_more_than_two_thirds():
    vs = ValidatorSet.with_names([f"v{i}" for i in range(5)], power=10)
    assert vs.total_power == 50
    assert vs.quorum_power() == 34  # > 2/3 of 50


def test_equal_power_rotation_is_round_robin():
    vs = ValidatorSet.with_names(["a", "b", "c", "d"])
    proposers = [vs.advance_proposer().name for _ in range(8)]
    assert sorted(proposers[:4]) == ["a", "b", "c", "d"]
    assert proposers[:4] == proposers[4:]


def test_rotation_proportional_to_power():
    heavy = Validator.named("heavy", power=30)
    light = Validator.named("light", power=10)
    vs = ValidatorSet([heavy, light])
    names = [vs.advance_proposer().name for _ in range(400)]
    heavy_share = names.count("heavy") / len(names)
    assert 0.70 <= heavy_share <= 0.80  # expected 0.75


def test_round_proposer_rotates_on_timeout():
    vs = ValidatorSet.with_names(["a", "b", "c"])
    base = vs.advance_proposer()
    next_ = vs.proposer_for_round(base, 1)
    assert next_ is not base
    assert vs.proposer_for_round(base, 3) is base  # wraps around


def test_validator_set_hash_depends_on_power():
    vs1 = ValidatorSet.with_names(["a", "b"], power=10)
    vs2 = ValidatorSet.with_names(["a", "b"], power=20)
    assert vs1.hash() != vs2.hash()
