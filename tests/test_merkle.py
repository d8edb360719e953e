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


def _single_mutations(proof, n):
    """Every single-field mutation of an honest proof over ``n`` leaves, as
    ``(mutant, accepted)``: only a ``total`` implying the same path stays
    true.  ``total`` is bound only through the path it implies: a claim that
    changes the side sequence or the aunt count must fail, one that changes
    neither is the same statement about the same root."""
    sides = _reference_sides(proof.index, n)
    aunts = proof.aunts
    mutants = [(replace(proof, index=i), False) for i in range(-2, n + 3) if i != proof.index]
    for total in range(-2, 2 * n + 4):
        same_path = proof.index < total and _reference_sides(proof.index, total) == sides
        mutants.append((replace(proof, total=total), same_path))
    for i, aunt in enumerate(aunts):
        mutants.append((replace(proof, aunts=aunts[:i] + (_flip(aunt),) + aunts[i + 1 :]), False))
        mutants.append((replace(proof, aunts=aunts[:i] + aunts[i + 1 :]), False))
        if i and aunts[i - 1] != aunt:
            swapped = aunts[: i - 1] + (aunt, aunts[i - 1]) + aunts[i + 1 :]
            mutants.append((replace(proof, aunts=swapped), False))
    mutants.append((replace(proof, aunts=aunts + (sha256(b"extra"),)), False))
    mutants.append((replace(proof, aunts=(sha256(b"extra"),) + aunts), False))
    mutants.append((replace(proof, value_hash=_flip(proof.value_hash)), False))
    return mutants


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 21, 33])
def test_any_single_mutation_of_a_proof_is_rejected(n):
    entries = _numbered(n)
    store = make_store(entries)
    root = store.root
    for key, value in entries.items():
        proof = store.prove(key)
        for mutant, accepted in _single_mutations(proof, n):
            if accepted:
                assert verify_membership(root, mutant, value)
            else:
                assert _rejected(root, key, value, mutant), mutant
        assert not verify_membership(root, replace(proof, key=key + b"x"), value)
        with pytest.raises(ProofVerificationError):
            ibc_proofs.verify_membership(root, key, value, replace(proof, key=key + b"x"))
        assert not verify_membership(root, proof, value + b"x")


# -- the fold memo is exact: a warm memo answers as the plain fold does ---------


def _warm_memo(store, entries) -> dict:
    """A fold memo of ``store.root`` after every honest proof verified."""
    memo: dict = {}
    for key, value in entries.items():
        assert verify_membership(store.root, store.prove(key), value, memo)
    return memo


@pytest.mark.parametrize("n", [16, 17, 21, 33, 64, 100])
def test_warm_memo_rejects_every_single_mutation(n):
    entries = _numbered(n)
    store = make_store(entries)
    root = store.root
    memo = _warm_memo(store, entries)
    # Every node from level FOLD_MEMO_MIN_LEVEL up is recorded, and nothing
    # below it: the memo holds exactly the upper part of the tree.
    upper_levels = merkle._tree_levels(
        [_store_leaf(k, v) for k, v in sorted(entries.items())]
    )[merkle.FOLD_MEMO_MIN_LEVEL :]
    assert set(memo) == {node for level in upper_levels for node in level}
    for key, value in entries.items():
        proof = store.prove(key)
        for mutant, accepted in _single_mutations(proof, n):
            # The plain fold's answer, before and after asking the memo.
            assert verify_membership(root, mutant, value) is accepted
            assert verify_membership(root, mutant, value, memo) is accepted, mutant
            if not accepted:
                with pytest.raises(ProofVerificationError):
                    ibc_proofs.verify_membership(root, key, value, mutant, memo)
        assert not verify_membership(root, proof, value + b"x", memo)
        assert not verify_membership(root, replace(proof, key=key + b"x"), value, memo)


def test_warm_memo_rejects_grafts_onto_recorded_upper_paths():
    """A forged leaf under an honest upper path: the proof ends in aunts
    (and the position) of a recorded fold state, but its bottom levels
    fold a different node, so it never reaches that state."""
    entries = _numbered(64)
    store = make_store(entries)
    root = store.root
    memo = _warm_memo(store, entries)
    honest = store.prove(b"k005")
    forged_leaf = replace(honest, key=b"k005x")
    for low in range(len(honest.aunts) + 1):
        for fake in (sha256(b"fake"), honest.aunts[0]):
            grafted = replace(
                forged_leaf, aunts=(fake,) * low + honest.aunts[low:]
            )
            assert not verify_membership(root, grafted, b"v5", memo)
    # A different tree's memo must not vouch for this root either: memos
    # are per root, and a proof of the other tree fails against this one.
    other = make_store({**entries, b"k064": b"v64"})
    other_memo = _warm_memo(other, {**entries, b"k064": b"v64"})
    assert not verify_membership(root, other.prove(b"k005"), b"v5", other_memo)
    assert not verify_membership(root, other.prove(b"k005"), b"v5", memo)


def test_absence_proofs_keep_the_full_fold(monkeypatch):
    entries = _numbered(64)
    store = make_store(entries)
    memo = _warm_memo(store, entries)
    assert memo  # warm, yet absence proofs never consult it
    counter = _HashCounter(monkeypatch)
    proof = store.prove_absence(b"k010x")
    assert verify_non_membership(store.root, proof)
    inner, leaf, _value = counter.take()
    assert (inner, leaf) == (len(proof.left.aunts) + len(proof.right.aunts), 2)


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


def _reference_memo_inner_hashes(total: int, order) -> int:
    """Inner hashes of verifying leaves ``order`` one after another with one
    fold memo: each fold stops at the first node at or above
    ``FOLD_MEMO_MIN_LEVEL`` that an earlier fold reached."""
    seen = set()
    hashes = 0
    for index in order:
        last, level = total - 1, 0
        while last:
            hashes += bool(index & 1 or index < last)
            index, last, level = index >> 1, last >> 1, level + 1
            if level >= merkle.FOLD_MEMO_MIN_LEVEL:
                if (level, index) in seen:
                    break
                seen.add((level, index))
    return hashes


@pytest.mark.parametrize(
    ("n", "step", "plain", "memoised"),
    [
        (1024, 1, 10240, 4222),
        (1000, 3, 3334, 1457),
        # The shape of the 5000-transfer burst: about every other leaf of
        # the two stores its 10 006 proofs are checked against.
        (5107, 2, 32185, 10849),
        (10013, 2, 68229, 21276),
    ],
)
def test_batch_verification_hash_counts(monkeypatch, n, step, plain, memoised):
    entries = _numbered(n) if n <= 1000 else {b"k%05d" % i: b"v%d" % i for i in range(n)}
    store = make_store(entries)
    keys = sorted(entries)[::step]
    proofs = [(store.prove(key), entries[key]) for key in keys]
    counter = _HashCounter(monkeypatch)
    for proof, value in proofs:
        assert verify_membership(store.root, proof, value)
    assert counter.take() == (plain, len(keys), len(keys))
    memo: dict = {}
    for proof, value in proofs:
        assert verify_membership(store.root, proof, value, memo)
    assert counter.take() == (memoised, len(keys), len(keys))
    order = [store._key_index[key] for key in keys]
    assert memoised == _reference_memo_inner_hashes(n, order)
    assert plain == sum(len(_reference_sides(i, n)) for i in order)
    # The batch re-verified against the warm memo: every fold stops at its
    # first upper level, so only the leaf and the bottom levels are hashed.
    for proof, value in proofs:
        assert verify_membership(store.root, proof, value, memo)
    rehashed = counter.take()[0]
    assert rehashed == _reference_memo_inner_hashes(n, order + order) - memoised
    assert rehashed <= merkle.FOLD_MEMO_MIN_LEVEL * len(keys)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 50])
def test_simple_hash_hash_counts(monkeypatch, n):
    counter = _HashCounter(monkeypatch)
    simple_hash_from_byte_slices([b"%d" % i for i in range(n)])
    assert counter.take() == (max(n - 1, 0), n, 0)


def test_overlay_drop_restores_values():
    """A dropped transaction overlay leaves the pending state, and with it
    the dirty flag, as it was; while open, reads go through it."""
    store = make_store({b"a": b"1", b"b": b"2"})
    store.open_overlay()
    store.set(b"a", b"CHANGED")
    store.set(b"new", b"x")
    store.delete(b"b")
    assert (store.get(b"a"), store.get(b"new"), store.get(b"b")) == (
        b"CHANGED",
        b"x",
        None,
    )
    assert store.has(b"new") and not store.has(b"b")
    assert store._data == {b"a": b"1", b"b": b"2"}  # nothing reached it yet
    store.drop_overlay()
    assert store.get(b"a") == b"1"
    assert store.get(b"new") is None
    assert store.get(b"b") == b"2"
    assert not store._dirty


def test_overlay_merge_keeps_values():
    store = make_store({b"a": b"1", b"b": b"2"})
    store.open_overlay()
    store.set(b"a", b"2")
    store.set(b"a", b"3")  # the last write to a key wins
    store.delete(b"b")
    store.set(b"new", b"x")
    store.delete(b"new")  # created and deleted in one transaction
    store.merge_overlay()
    assert store._data == {b"a": b"3"}
    assert store.get(b"a") == b"3" and store.get(b"b") is None
    assert store.commit() == make_store({b"a": b"3"}).root


def test_merging_unchanged_values_leaves_the_store_clean():
    """A merge marks the store dirty only for a value that actually
    changed (a write-through ``set`` always does; see the hash counts)."""
    store = make_store({b"a": b"1"})
    store.open_overlay()
    store.set(b"a", b"2")
    store.set(b"a", b"1")  # back where it started
    store.set(b"gone", b"x")
    store.delete(b"gone")
    store.delete(b"absent")
    store.merge_overlay()
    assert not store._dirty
    store.open_overlay()
    store.set(b"a", b"2")
    store.merge_overlay()
    assert store._dirty


def test_one_overlay_at_a_time():
    store = make_store({})
    store.open_overlay()
    with pytest.raises(RuntimeError, match="already open"):
        store.open_overlay()
    store.drop_overlay()
    store.open_overlay()  # a closed overlay may be reopened
    store.merge_overlay()


_OVERLAY_OPS = st.lists(
    st.tuples(
        st.sampled_from(["set", "delete"]),
        st.sampled_from([b"a", b"b", b"c", b"d"]),
        st.sampled_from([b"0", b"1", b"2"]),
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(
    initial=st.dictionaries(
        st.sampled_from([b"a", b"b", b"c"]), st.sampled_from([b"0", b"1"])
    ),
    ops=_OVERLAY_OPS,
    merge=st.booleans(),
)
def test_overlay_matches_a_plain_dict(initial, ops, merge):
    """An overlay reads like the dict the writes would have made; merged,
    it is that dict, dirty iff it differs; dropped, nothing moved."""
    store = make_store(initial)
    model = dict(initial)
    store.open_overlay()
    for op, key, value in ops:
        if op == "set":
            store.set(key, value)
            model[key] = value
        else:
            store.delete(key)
            model.pop(key, None)
        assert store.get(key) == model.get(key)
    for key in (b"a", b"b", b"c", b"d"):
        assert store.get(key) == model.get(key)
    if merge:
        store.merge_overlay()
        assert store._data == model
        assert store._dirty == (model != initial)
        assert store.commit() == make_store(model).root
    else:
        store.drop_overlay()
        assert store._data == initial and not store._dirty
