"""Tests for merkle trees, the provable store, and proofs."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProofVerificationError
from repro.ibc import proofs as ibc_proofs
from repro.tendermint import merkle
from repro.tendermint.crypto import sha256
from repro.tendermint.merkle import (
    EMPTY_HASH,
    NonMembershipProof,
    ProvableStore,
    simple_hash_from_byte_slices,
    verify_membership,
    verify_non_membership,
)


def test_empty_root():
    assert simple_hash_from_byte_slices([]) == EMPTY_HASH


def test_single_leaf_is_domain_separated():
    # Leaf hash must not equal a bare sha256 (RFC 6962 prefixing).
    assert simple_hash_from_byte_slices([b"x"]) != sha256(b"x")


def test_root_changes_with_any_item():
    base = simple_hash_from_byte_slices([b"a", b"b", b"c"])
    assert base != simple_hash_from_byte_slices([b"a", b"b", b"d"])
    assert base != simple_hash_from_byte_slices([b"a", b"b"])
    assert base != simple_hash_from_byte_slices([b"b", b"a", b"c"])


def test_root_deterministic():
    items = [bytes([i]) for i in range(10)]
    assert simple_hash_from_byte_slices(items) == simple_hash_from_byte_slices(items)


@given(st.lists(st.binary(min_size=0, max_size=64), max_size=40))
def test_root_total_function(items):
    root = simple_hash_from_byte_slices(items)
    assert isinstance(root, bytes) and len(root) == 32


# -- ProvableStore ------------------------------------------------------------


def make_store(entries: dict[bytes, bytes]) -> ProvableStore:
    store = ProvableStore()
    for key, value in entries.items():
        store.set(key, value)
    store.commit()
    return store


def test_store_crud_before_commit():
    store = ProvableStore()
    store.set(b"k", b"v")
    assert store.get(b"k") == b"v"
    assert store.has(b"k")
    store.delete(b"k")
    assert store.get(b"k") is None


def test_commit_returns_root():
    store = make_store({b"a": b"1"})
    assert store.root != EMPTY_HASH


def test_empty_commit_root():
    store = ProvableStore()
    assert store.commit() == EMPTY_HASH


def test_membership_proof_verifies():
    store = make_store({b"a": b"1", b"b": b"2", b"c": b"3"})
    proof = store.prove(b"b")
    assert verify_membership(store.root, proof, b"2")


def test_membership_proof_rejects_wrong_value():
    store = make_store({b"a": b"1", b"b": b"2"})
    proof = store.prove(b"b")
    assert not verify_membership(store.root, proof, b"WRONG")


def test_membership_proof_rejects_wrong_root():
    store = make_store({b"a": b"1", b"b": b"2"})
    other = make_store({b"a": b"1", b"b": b"2", b"z": b"9"})
    proof = store.prove(b"b")
    assert not verify_membership(other.root, proof, b"2")


def test_prove_uncommitted_key_fails():
    store = make_store({b"a": b"1"})
    store.set(b"new", b"x")  # pending, not committed
    with pytest.raises(KeyError):
        store.prove(b"new")


def test_proofs_against_snapshot_not_pending_state():
    store = make_store({b"a": b"1"})
    root_before = store.root
    store.set(b"a", b"CHANGED")  # pending only
    proof = store.prove(b"a")
    assert verify_membership(root_before, proof, b"1")


def test_non_membership_proof_verifies():
    store = make_store({b"a": b"1", b"c": b"3", b"e": b"5"})
    for absent in (b"0", b"b", b"d", b"f"):
        proof = store.prove_absence(absent)
        assert verify_non_membership(store.root, proof), absent


def test_non_membership_rejects_present_key():
    store = make_store({b"a": b"1", b"c": b"3"})
    with pytest.raises(KeyError):
        store.prove_absence(b"a")


def test_non_membership_wrong_root_rejected():
    store = make_store({b"a": b"1", b"c": b"3"})
    proof = store.prove_absence(b"b")
    other = make_store({b"a": b"1", b"c": b"3", b"x": b"7"})
    assert not verify_non_membership(other.root, proof)


def test_absence_in_empty_store():
    store = ProvableStore()
    store.commit()
    proof = store.prove_absence(b"anything")
    assert verify_non_membership(EMPTY_HASH, proof)


@settings(max_examples=50, deadline=None)
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=16),
        st.binary(min_size=0, max_size=16),
        min_size=1,
        max_size=30,
    )
)
def test_every_committed_key_proves(entries):
    """Property: membership proofs verify for every key in any store."""
    store = make_store(entries)
    for key, value in entries.items():
        proof = store.prove(key)
        assert verify_membership(store.root, proof, value)


@settings(max_examples=50, deadline=None)
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=8),
        st.binary(min_size=0, max_size=8),
        min_size=0,
        max_size=20,
    ),
    absent=st.binary(min_size=9, max_size=12),  # longer than any key
)
def test_absent_keys_prove_absence(entries, absent):
    """Property: non-membership proofs verify for keys not in the store."""
    store = make_store(entries)
    proof = store.prove_absence(absent)
    assert verify_non_membership(store.root, proof)


@settings(max_examples=30, deadline=None)
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=8),
        st.binary(min_size=1, max_size=8),
        min_size=2,
        max_size=20,
    )
)
def test_root_independent_of_insertion_order(entries):
    """Property: the committed root is a pure function of contents."""
    store1 = make_store(entries)
    store2 = ProvableStore()
    for key in reversed(list(entries)):
        store2.set(key, entries[key])
    store2.commit()
    assert store1.root == store2.root


# -- the level-array tree against a recursive RFC-6962 reference ---------------


def _split(n: int) -> int:
    """Largest power of two strictly below ``n`` (RFC 6962 section 2.1)."""
    return 1 << ((n - 1).bit_length() - 1)


def _reference_root(leaf_hashes: list[bytes]) -> bytes:
    n = len(leaf_hashes)
    if n == 0:
        return EMPTY_HASH
    if n == 1:
        return leaf_hashes[0]
    left = _reference_root(leaf_hashes[: _split(n)])
    right = _reference_root(leaf_hashes[_split(n) :])
    return hashlib.sha256(b"\x01" + left + right).digest()


def _reference_sides(index: int, total: int) -> str:
    """Leaf-upward L/R path of leaf ``index``, by the same recursion."""
    if total == 1:
        return ""
    if index < _split(total):
        return _reference_sides(index, _split(total)) + "L"
    return _reference_sides(index - _split(total), total - _split(total)) + "R"


def _store_leaf(key: bytes, value: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + key + b"=" + sha256(value)).digest()


def _numbered(n: int) -> dict[bytes, bytes]:
    return {b"k%03d" % i: b"v%d" % i for i in range(n)}


@pytest.mark.parametrize("n", range(131))
def test_level_array_tree_matches_recursive_reference(n):
    entries = _numbered(n)
    items = list(entries.values())
    assert simple_hash_from_byte_slices(items) == _reference_root(
        [hashlib.sha256(b"\x00" + item).digest() for item in items]
    )
    store = make_store(entries)
    assert store.root == _reference_root(
        [_store_leaf(k, v) for k, v in sorted(entries.items())]
    )
    for index, (key, value) in enumerate(sorted(entries.items())):
        proof = store.prove(key)
        assert (proof.index, proof.total) == (index, n)
        assert len(proof.aunts) == len(_reference_sides(index, n))
        assert merkle._aunt_sides(index, n) == _reference_sides(index, n)
        assert verify_membership(store.root, proof, value)
    assert verify_non_membership(store.root, store.prove_absence(b"k"))
    assert verify_non_membership(store.root, store.prove_absence(b"k050x"))
    assert verify_non_membership(store.root, store.prove_absence(b"l"))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=40), max_size=70))
def test_simple_hash_matches_recursive_reference(items):
    assert simple_hash_from_byte_slices(items) == _reference_root(
        [hashlib.sha256(b"\x00" + item).digest() for item in items]
    )


# -- mutated and malformed proofs fail closed -----------------------------------


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


def _rejected(root: bytes, key: bytes, value: bytes, proof) -> bool:
    """Both verifiers refuse; the IBC one by raising its own error only."""
    with pytest.raises(ProofVerificationError):
        ibc_proofs.verify_membership(root, key, value, proof)
    return not verify_membership(root, proof, value)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 21, 33])
def test_any_single_mutation_of_a_proof_is_rejected(n):
    entries = _numbered(n)
    store = make_store(entries)
    root = store.root
    for key, value in entries.items():
        proof = store.prove(key)
        sides = _reference_sides(proof.index, n)
        aunts = proof.aunts
        mutants = [replace(proof, index=i) for i in range(-2, n + 3) if i != proof.index]
        # ``total`` is bound only through the path it implies: a claim that
        # changes the side sequence or the aunt count must fail, one that
        # changes neither is the same statement about the same root.
        for total in range(-2, 2 * n + 4):
            claim = replace(proof, total=total)
            if proof.index < total and _reference_sides(proof.index, total) == sides:
                assert verify_membership(root, claim, value)
            else:
                mutants.append(claim)
        for i, aunt in enumerate(aunts):
            mutants.append(replace(proof, aunts=aunts[:i] + (_flip(aunt),) + aunts[i + 1 :]))
            mutants.append(replace(proof, aunts=aunts[:i] + aunts[i + 1 :]))
            if i and aunts[i - 1] != aunt:
                swapped = aunts[: i - 1] + (aunt, aunts[i - 1]) + aunts[i + 1 :]
                mutants.append(replace(proof, aunts=swapped))
        mutants.append(replace(proof, aunts=aunts + (sha256(b"extra"),)))
        mutants.append(replace(proof, aunts=(sha256(b"extra"),) + aunts))
        mutants.append(replace(proof, value_hash=_flip(proof.value_hash)))
        for mutant in mutants:
            assert _rejected(root, key, value, mutant), mutant
        assert not verify_membership(root, replace(proof, key=key + b"x"), value)
        with pytest.raises(ProofVerificationError):
            ibc_proofs.verify_membership(root, key, value, replace(proof, key=key + b"x"))
        assert not verify_membership(root, proof, value + b"x")


def test_same_sides_but_other_aunt_count_is_rejected():
    # Leaf 0 is a left child all the way up in both trees, but the 5-leaf
    # tree is one level deeper than the 4-leaf one.
    store = make_store(_numbered(4))
    proof = store.prove(b"k000")
    assert set(_reference_sides(0, 4)) == set(_reference_sides(0, 5)) == {"L"}
    assert _rejected(store.root, b"k000", b"v0", replace(proof, total=5))


# -- absence proofs: adjacency comes from the paths, not from claims ------------


def _absence_rejected(root: bytes, proof: NonMembershipProof) -> bool:
    with pytest.raises(ProofVerificationError):
        ibc_proofs.verify_non_membership(root, proof.key, proof)
    return not verify_non_membership(root, proof)


def test_forged_absence_of_a_present_key_is_rejected():
    store = make_store({b"k%02d" % i: b"v" for i in range(10)})
    root = store.root
    assert store.has(b"k05")
    two_sided = NonMembershipProof(
        key=b"k05", left=store.prove(b"k02"), right=store.prove(b"k08")
    )
    one_sided = NonMembershipProof(key=b"k05", left=None, right=store.prove(b"k08"))
    assert _absence_rejected(root, two_sided)
    assert _absence_rejected(root, one_sided)
    assert _absence_rejected(
        root, NonMembershipProof(key=b"k05", left=store.prove(b"k02"), right=None)
    )
    assert _absence_rejected(root, NonMembershipProof(key=b"k05", left=None, right=None))


def test_non_adjacent_neighbours_are_rejected_for_every_claimed_position():
    keys = [b"k%02d" % i for i in range(10)]
    store = make_store({key: b"v" for key in keys})
    root = store.root
    for i in range(10):
        for j in range(i + 2, 10):
            present = keys[i + 1]
            left, right = store.prove(keys[i]), store.prove(keys[j])
            for total in range(1, 33):
                claims = [(left.index, right.index)]
                claims += [(at, at + 1) for at in range(total - 1)]
                for left_at, right_at in claims:
                    forged = NonMembershipProof(
                        key=present,
                        left=replace(left, index=left_at, total=total),
                        right=replace(right, index=right_at, total=total),
                    )
                    assert not verify_non_membership(root, forged), forged
    # One-sided: only the first leaf may stand alone on the right, only the
    # last alone on the left, whatever position the proof claims.
    for i in range(1, 10):
        for total in range(1, 33):
            forged = NonMembershipProof(
                key=keys[i - 1],
                left=None,
                right=replace(store.prove(keys[i]), index=0, total=total),
            )
            assert not verify_non_membership(root, forged), forged
            forged = NonMembershipProof(
                key=keys[i],
                left=replace(store.prove(keys[i - 1]), index=total - 1, total=total),
                right=None,
            )
            assert not verify_non_membership(root, forged), forged


def test_neighbour_proofs_must_agree_on_total():
    store = make_store(_numbered(3))
    proof = store.prove_absence(b"k001x")  # between leaf 1 and the promoted leaf 2
    assert verify_non_membership(store.root, proof)
    widened = replace(proof, left=replace(proof.left, total=4))
    assert verify_membership(store.root, widened.left, b"v1")  # same path shape
    assert not verify_non_membership(store.root, widened)


# -- hash accounting: the host-independent cost guard ---------------------------


class _HashCounter:
    """Counts SHA-256 invocations made by ``merkle``, by kind."""

    def __init__(self, monkeypatch):
        self.inner = self.leaf = self.value = 0
        monkeypatch.setattr(merkle, "_hashlib_sha256", self._prefixed)
        monkeypatch.setattr(merkle, "sha256", self._plain)

    def _prefixed(self, data: bytes):
        if data[:1] == b"\x01":
            self.inner += 1
        else:
            assert data[:1] == b"\x00"
            self.leaf += 1
        return hashlib.sha256(data)

    def _plain(self, data: bytes) -> bytes:
        self.value += 1
        return sha256(data)

    def take(self) -> tuple[int, int, int]:
        counts = (self.inner, self.leaf, self.value)
        self.inner = self.leaf = self.value = 0
        return counts


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 13, 64, 100])
def test_commit_hash_counts(monkeypatch, n):
    counter = _HashCounter(monkeypatch)
    store = ProvableStore()
    entries = _numbered(n)
    for key, value in entries.items():
        store.set(key, value)
    store.commit()
    assert counter.take() == (max(n - 1, 0), n, n)

    store.commit()  # clean: nothing changed
    assert counter.take() == (0, 0, 0)

    for key, value in entries.items():
        store.set(key, value)  # dirty, but no value moved
    store.commit()
    assert counter.take() == (max(n - 1, 0), 0, 0)

    changed = list(entries)[::3]
    for key in changed:
        store.set(key, b"moved")
    store.commit()
    assert counter.take() == (
        max(n - 1, 0) if changed else 0,
        len(changed),
        len(changed),
    )

    store.set(b"a-new-first-key", b"x")  # structural: shifts every index
    store.commit()
    assert counter.take() == (n, 1, 1)

    for key in entries:
        store.prove(key)
    store.prove_absence(b"k")
    store.prove_absence(b"zzz")
    assert counter.take() == (0, 0, 0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 50])
def test_simple_hash_hash_counts(monkeypatch, n):
    counter = _HashCounter(monkeypatch)
    simple_hash_from_byte_slices([b"%d" % i for i in range(n)])
    assert counter.take() == (max(n - 1, 0), n, 0)


def test_journal_rollback_restores_values():
    from repro.cosmos.journal import Journal

    store = make_store({b"a": b"1", b"b": b"2"})
    journal = Journal()
    store.journal = journal
    store.set(b"a", b"CHANGED")
    store.set(b"new", b"x")
    store.delete(b"b")
    journal.rollback()
    store.journal = None
    assert store.get(b"a") == b"1"
    assert store.get(b"new") is None
    assert store.get(b"b") == b"2"


def test_journal_commit_keeps_values():
    from repro.cosmos.journal import Journal

    store = make_store({b"a": b"1"})
    journal = Journal()
    store.journal = journal
    store.set(b"a", b"2")
    journal.commit()
    store.journal = None
    assert store.get(b"a") == b"2"
