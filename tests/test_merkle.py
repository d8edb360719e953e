"""Tests for merkle trees, the provable store, and proofs."""

import functools
import hashlib
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProofVerificationError
from repro.ibc import proofs as ibc_proofs
from repro.tendermint import merkle
from repro.tendermint.crypto import sha256
from repro.tendermint.merkle import (
    EMPTY_HASH,
    NonMembershipProof,
    ProvableStore,
    StoreAbsenceProof,
    StoreProof,
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
    store = make_store({b"s/a": b"1", b"s/c": b"3", b"s/e": b"5", b"t": b"7"})
    for absent in (b"s/0", b"s/b", b"s/d", b"s/f", b"s/ab", b"s", b"r/b", b"u"):
        proof = store.prove_absence(absent)
        assert verify_non_membership(store.root, proof), absent


def test_non_membership_rejects_present_key():
    store = make_store({b"a": b"1", b"c": b"3"})
    with pytest.raises(KeyError):
        store.prove_absence(b"a")


def test_non_membership_wrong_root_rejected():
    store = make_store({b"s/a": b"1", b"s/c": b"3"})
    proof = store.prove_absence(b"s/b")
    other = make_store({b"s/a": b"1", b"s/c": b"3", b"s/x": b"7"})
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


# -- substore routing --------------------------------------------------------------


def test_keys_route_to_their_ics24_substore():
    channel = b"ports/transfer/channels/channel-0"
    for prefix in (b"commitments", b"receipts", b"acks"):
        key = prefix + b"/" + channel + b"/sequences/17"
        assert merkle.substore_of(key) == prefix + b"/" + channel
    assert merkle.substore_of(b"clients/07-tendermint-0/consensusStates/9") == b"clients"
    assert merkle.substore_of(b"nextSequenceRecv/" + channel) == b"nextSequenceRecv"
    assert merkle.substore_of(b"balances/alice/uatom") == b"balances"
    assert merkle.substore_of(b"channelEnds/" + channel) == b"channelEnds"
    assert merkle.substore_of(b"k001") == b"k001"
    # Sequence order is shortlex order, so a new packet is a right-edge
    # append however many digits its sequence has.
    keys = [b"acks/" + channel + b"/sequences/%d" % n for n in (1, 9, 10, 99, 100)]
    assert sorted(keys, key=merkle._shortlex) == keys


_SEGMENTS = st.sampled_from(
    [b"", b"commitments", b"receipts", b"acks", b"sequences", b"ports", b"7", b"x"]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_SEGMENTS, min_size=1, max_size=6), min_size=1, max_size=30))
def test_commit_routes_each_key_to_its_substore(paths):
    """A commit routes each new key by its parent path; that is the
    substore ``substore_of`` names, whatever the key's shape (no "/", a
    leading "/", ``sequences`` in any segment)."""
    keys = sorted({b"/".join(segments) for segments in paths})
    store = make_store({key: b"v" for key in keys})
    for key in keys:
        assert store._committed[key][2] == merkle.substore_of(key)
        assert verify_membership(store.root, store.prove(key), b"v")


# -- each layer against a recursive RFC-6962 reference -----------------------------


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


def _reference_rehashed_inner(
    total: int,
    dirty: set[int] = frozenset(),
    splice: tuple[int, int, int, int] = None,
    start: int = 0,
) -> int:
    """Inner nodes of a ``total``-leaf tree (leaves ``start`` on) that an
    incremental commit rehashes.  ``splice = (lo, hi, shift, tail)``: the
    leaves before ``lo`` kept their place, those in ``[hi, tail)`` are old
    leaves moved by ``shift``, the rest are new (no splice: every leaf kept
    its place).  A node is kept when none of its leaves is ``dirty`` and
    the old tree had it: all its leaves kept their place, and it is full
    or the old tree ended where it ends; or all moved by a multiple of its
    width."""
    if total == 1:
        return 0
    lo, hi, shift, tail = splice or (start + total,) * 2 + (0, start + total)
    end = start + total
    width = 1 << (total - 1).bit_length()
    kept = not any(start <= at < end for at in dirty) and (
        end <= lo and (total == width or end == tail - shift)
        or hi <= start and end <= tail and shift % width == 0
    )
    half = _split(total)
    return (
        (not kept)
        + _reference_rehashed_inner(half, dirty, splice, start)
        + _reference_rehashed_inner(total - half, dirty, splice, start + half)
    )


def _store_leaf(key: bytes, value: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + key + b"=" + sha256(value)).digest()


def _top_leaf(name: bytes, root: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + name + b"=" + root).digest()


def _numbered(n: int) -> dict[bytes, bytes]:
    """``n`` keys of one path segment each: ``n`` one-leaf substores, so the
    app-hash layer has ``n`` leaves."""
    return {b"k%03d" % i: b"v%d" % i for i in range(n)}


def _in_substore(n: int, width: int = 3) -> dict[bytes, bytes]:
    """``n`` keys of one substore ``s``, whose tree has ``n`` leaves."""
    return {b"s/k%0*d" % (width, i): b"v%d" % i for i in range(n)}


@pytest.mark.parametrize("n", range(131))
def test_level_array_tree_matches_recursive_reference(n):
    entries = _numbered(n)
    items = list(entries.values())
    assert simple_hash_from_byte_slices(items) == _reference_root(
        [hashlib.sha256(b"\x00" + item).digest() for item in items]
    )
    # The leaf layer: one substore of n keys under a one-leaf app-hash tree.
    store = make_store(_in_substore(n))
    substore_root = _reference_root(
        [_store_leaf(k, v) for k, v in sorted(_in_substore(n).items())]
    )
    assert store.root == _reference_root([_top_leaf(b"s", substore_root)] if n else [])
    for index, (key, value) in enumerate(sorted(_in_substore(n).items())):
        proof = store.prove(key)
        assert (proof.leaf.index, proof.leaf.total) == (index, n)
        assert len(proof.leaf.aunts) == len(_reference_sides(index, n))
        assert merkle._aunt_sides(index, n) == _reference_sides(index, n)
        assert (proof.top.key, proof.top.value_hash) == (b"s", substore_root)
        assert (proof.top.index, proof.top.total, proof.top.aunts) == (0, 1, ())
        assert verify_membership(store.root, proof, value)
    for absent in (b"s/k", b"s/k05x", b"s/l", b"s/k050x", b"t/k000"):
        assert verify_non_membership(store.root, store.prove_absence(absent))
    # The app-hash layer: n one-leaf substores.
    store = make_store(entries)
    assert store.root == _reference_root(
        [_top_leaf(k, _store_leaf(k, v)) for k, v in sorted(entries.items())]
    )
    for index, (key, value) in enumerate(sorted(entries.items())):
        proof = store.prove(key)
        assert (proof.leaf.index, proof.leaf.total, proof.leaf.aunts) == (0, 1, ())
        assert (proof.top.index, proof.top.total) == (index, n)
        assert len(proof.top.aunts) == len(_reference_sides(index, n))
        assert verify_membership(store.root, proof, value)
    for absent in (b"k", b"k050x", b"l"):
        assert verify_non_membership(store.root, store.prove_absence(absent))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=40), max_size=70))
def test_simple_hash_matches_recursive_reference(items):
    assert simple_hash_from_byte_slices(items) == _reference_root(
        [hashlib.sha256(b"\x00" + item).digest() for item in items]
    )


# -- the incremental commit against a rebuild from scratch ---------------------------

#: Three packet substores (appended, oldest-first deleted) ...
_CHANNELS = [
    b"commitments/ports/transfer/channels/channel-0",
    b"acks/ports/transfer/channels/channel-1",
    b"receipts/ports/transfer/channels/channel-0",
]


def _other_key(kind: int, n: int) -> bytes:
    """... and keys of prefix substores, whose inserts land mid-order."""
    return (
        b"balances/acct%d/uatom" % n,
        b"clients/07-tendermint-%d/consensusStates/%d" % (n % 3, n),
        b"k%d" % n,
    )[kind]


_BLOCK_OPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "drop_oldest", "insert", "revalue", "delete"]),
        st.integers(0, 2),
        st.integers(0, 40),
    ),
    max_size=24,
)


def _after_fill(*ops):
    """A block of 24 packets on channel-0 and 8 balances, then ``ops``."""
    fill = [("append", 0, 0)] * 24 + [("insert", 0, n) for n in range(10, 26, 2)]
    return [(fill, None), (list(ops), None)]


_DROP = ("drop_oldest", 0, 0)


@settings(max_examples=150, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(_BLOCK_OPS, st.sampled_from([None, "merge", "drop"])),
        min_size=1,
        max_size=8,
    )
)
# The splice's alignment cases: prefix removals whose count a level's node
# width divides or not, every key, an interior removal (acct20), the two
# newest keys (sequences 24 and 23), a mid-order insert (acct17 between
# acct16 and acct18), and a removal with an append in one block.
@example(blocks=_after_fill(*[_DROP] * 1))
@example(blocks=_after_fill(*[_DROP] * 2))
@example(blocks=_after_fill(*[_DROP] * 3))
@example(blocks=_after_fill(*[_DROP] * 4))
@example(blocks=_after_fill(*[_DROP] * 6))
@example(blocks=_after_fill(*[_DROP] * 8))
@example(blocks=_after_fill(*[_DROP] * 24))
@example(blocks=_after_fill(("delete", 0, 5)))
@example(blocks=_after_fill(("delete", 0, 24), ("delete", 0, 23)))
@example(blocks=_after_fill(("insert", 0, 17)))
@example(blocks=_after_fill(_DROP, _DROP, *[("append", 0, 0)] * 3))
def test_incremental_commit_matches_a_rebuild(blocks):
    """Block after block of appends, oldest-first deletes, mid-order
    inserts and value-only changes — written through or in a merged or
    dropped transaction overlay — the updated trees give the root, the
    membership proofs and the absence proofs of a store built from scratch
    over the same contents."""
    store = ProvableStore()
    model: dict[bytes, bytes] = {}
    next_sequence = [1, 1, 1]
    for ops, overlay in blocks:
        staged = dict(model)
        if overlay is not None:
            store.open_overlay()
        for op, which, n in ops:
            channel = _CHANNELS[which]
            if op == "append":
                key = channel + b"/sequences/%d" % next_sequence[which]
                next_sequence[which] += 1 + n % 3
                store.set(key, b"c%d" % n)
                staged[key] = b"c%d" % n
            elif op == "drop_oldest":
                live = [k for k in staged if merkle.substore_of(k) == channel]
                if live:
                    oldest = min(live, key=merkle._shortlex)
                    store.delete(oldest)
                    del staged[oldest]
            elif op == "insert":
                key = _other_key(which, n)
                store.set(key, b"v%d" % n)
                staged[key] = b"v%d" % n
            elif staged:
                key = sorted(staged)[n % len(staged)]
                if op == "revalue":
                    store.set(key, b"r%d" % n)
                    staged[key] = b"r%d" % n
                else:
                    store.delete(key)
                    del staged[key]
        if overlay == "drop":
            store.drop_overlay()
        else:
            if overlay == "merge":
                store.merge_overlay()
            model = staged
        root = store.commit()
        rebuilt = make_store(model)
        assert root == rebuilt.root
        for key, value in model.items():
            proof = store.prove(key)
            assert proof == rebuilt.prove(key)
            assert verify_membership(root, proof, value)
        probes = [channel + b"/sequences/%d" % s for channel in _CHANNELS for s in (0, 2, 7, 99)]
        probes += [_other_key(kind, 41) for kind in range(3)] + [b"zzz", b"a"]
        for key in probes:
            if key not in model:
                proof = store.prove_absence(key)
                assert proof == rebuilt.prove_absence(key)
                assert verify_non_membership(root, proof)


# -- mutated and malformed proofs fail closed -----------------------------------


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


def _rejected(root: bytes, key: bytes, value: bytes, proof) -> bool:
    """Both verifiers refuse; the IBC one by raising its own error only."""
    with pytest.raises(ProofVerificationError):
        ibc_proofs.verify_membership(root, key, value, proof)
    return not verify_membership(root, proof, value)


def _single_mutations(proof, n):
    """Every single-field mutation of an honest one-layer proof over ``n``
    leaves, as ``(mutant, accepted)``: only a ``total`` implying the same
    path stays true.  ``total`` is bound only through the path it implies:
    a claim that changes the side sequence or the aunt count must fail, one
    that changes neither is the same statement about the same root."""
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


def _two_layer_mutations(proof):
    """The single mutations of either layer of a :class:`StoreProof`, plus
    a top layer that names another substore."""
    mutants = [
        (replace(proof, leaf=leaf), accepted)
        for leaf, accepted in _single_mutations(proof.leaf, proof.leaf.total)
    ]
    for top, accepted in _single_mutations(proof.top, proof.top.total):
        mutants.append((replace(proof, top=top), accepted))
    mutants.append((replace(proof, top=replace(proof.top, key=proof.top.key + b"x")), False))
    return mutants


def _rekeyed(proof, key: bytes):
    """``proof`` with its leaf claiming ``key``."""
    return replace(proof, leaf=replace(proof.leaf, key=key))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 21, 33])
def test_any_single_mutation_of_a_proof_is_rejected(n):
    """Per layer: a substore of ``n`` keys, then ``n`` substores."""
    for entries in (_in_substore(n), _numbered(n)):
        store = make_store(entries)
        root = store.root
        for key, value in entries.items():
            proof = store.prove(key)
            for mutant, accepted in _two_layer_mutations(proof):
                if accepted:
                    assert verify_membership(root, mutant, value)
                else:
                    assert _rejected(root, key, value, mutant), mutant
            assert not verify_membership(root, _rekeyed(proof, key + b"x"), value)
            with pytest.raises(ProofVerificationError):
                ibc_proofs.verify_membership(root, key, value, _rekeyed(proof, key + b"x"))
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
    """Per layer: a substore of ``n`` keys, then ``n`` substores."""
    for entries in (_in_substore(n), _numbered(n)):
        store = make_store(entries)
        root = store.root
        memo = _warm_memo(store, entries)
        # Every substore node from level FOLD_MEMO_MIN_LEVEL up is recorded,
        # and nothing below it, plus each substore's top-layer proof once
        # and the last value checked: the memo holds exactly the upper part
        # of each tree.
        tops = {store.prove(key).top for key in entries}
        leaf_levels = merkle._tree_levels(
            [_store_leaf(k, v) for k, v in sorted(entries.items())]
        )
        upper = {
            node
            for level in leaf_levels[merkle.FOLD_MEMO_MIN_LEVEL :]
            for node in level
        }
        assert len(tops) == len(store._substores)
        slots = {(top.key, root) for top in tops}
        assert set(memo) == (upper if len(tops) == 1 else set()) | slots | {None}
        assert {memo[slot] for slot in slots} == tops
        for key, value in entries.items():
            proof = store.prove(key)
            for mutant, accepted in _two_layer_mutations(proof):
                # The plain fold's answer, before and after asking the memo.
                assert verify_membership(root, mutant, value) is accepted
                assert verify_membership(root, mutant, value, memo) is accepted, mutant
                if not accepted:
                    with pytest.raises(ProofVerificationError):
                        ibc_proofs.verify_membership(root, key, value, mutant, memo)
            assert not verify_membership(root, proof, value + b"x", memo)
            assert not verify_membership(root, _rekeyed(proof, key + b"x"), value, memo)


@functools.cache
def _two_snapshots():
    """One store at two commits, each as ``(root, [(key, value, proof,
    its single mutations)], {substore: its top-layer proof})``: the second
    commit dropped the six oldest packets, appended three and moved two
    values."""
    packet = b"commitments/ports/transfer/channels/channel-0/sequences/%d"
    entries = {packet % i: b"c%d" % (i % 3) for i in range(1, 41)}
    entries.update(_in_substore(20))
    entries.update(_numbered(5))
    store = make_store(entries)

    def snapshot():
        proofs = [
            (key, value, store.prove(key), _two_layer_mutations(store.prove(key)))
            for key, value in entries.items()
        ]
        return store.root, proofs, {proof.top.key: proof.top for _, _, proof, _ in proofs}

    before = snapshot()
    for i in range(1, 7):
        store.delete(packet % i)
        del entries[packet % i]
    for key in [packet % i for i in range(41, 44)] + [b"s/k003", b"k002"]:
        store.set(key, b"moved")
        entries[key] = b"moved"
    store.commit()
    return before, snapshot()


_CHECKS = st.lists(
    st.tuples(
        st.integers(0, 1),  # the snapshot the proof is from
        st.integers(0, 10**6),  # which of its proofs
        # honest (-1), its leaf layer under the other snapshot's top layer
        # (-2), or which of its single mutations
        st.one_of(st.just(-1), st.just(-2), st.integers(0, 10**6)),
        st.integers(0, 1),  # the snapshot whose root it is checked against
        st.booleans(),  # with its own value, or the next key's
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(warm=st.sampled_from([None, 0, 1]), checks=_CHECKS, shared=st.booleans())
# A memo warmed under one root, fed a proof of the other checked against
# either root, and a leaf layer of one snapshot under the other's top.
@example(warm=0, checks=[(1, 7, -1, 0, True)], shared=True)
@example(warm=0, checks=[(1, 7, -1, 1, True)], shared=True)
@example(warm=0, checks=[(1, 7, -1, 0, True)], shared=False)
@example(warm=0, checks=[(0, 30, -2, 1, True)], shared=True)
# Single mutations of a warm root's proof that reach a recorded node at
# another index, with another level size, or with other aunts left.
@example(warm=0, checks=[(0, 0, 5, 0, True), (0, 0, 49, 0, True)], shared=False)
@example(warm=0, checks=[(0, 0, 144, 0, True)], shared=False)
def test_a_memo_answers_as_the_plain_fold(warm, checks, shared):
    """Property: ``verify_membership`` with a memo returns exactly the
    memo-free answer, whatever honest, single-mutated and cross-snapshot
    proofs it is fed, with one memo per root or both roots sharing one
    dict (``shared``), and from empty or warmed by every honest proof of
    one snapshot (``warm``), so a memo warmed under one root is fed
    proofs checked against the other."""
    snapshots = _two_snapshots()
    memos = ({}, {})
    if warm is not None:
        root, proofs, _ = snapshots[warm]
        for _, value, proof, _ in proofs:
            assert verify_membership(root, proof, value, memos[0 if shared else warm])
    for source, pick, mutation, against, own_value in checks:
        proofs = snapshots[source][1]
        key, value, proof, mutants = proofs[pick % len(proofs)]
        if mutation == -2:
            proof = replace(proof, top=snapshots[1 - source][2][proof.top.key])
        elif mutation >= 0:
            proof = mutants[mutation % len(mutants)][0]
        if not own_value:
            value = proofs[(pick + 1) % len(proofs)][1]
        root = snapshots[against][0]
        memo = memos[0 if shared else against]
        assert verify_membership(root, proof, value, memo) is verify_membership(
            root, proof, value
        )


def test_warm_memo_rejects_grafts_onto_recorded_upper_paths():
    """A forged leaf under an honest upper path: the proof ends in aunts
    (and the position) of a recorded fold state, but its bottom levels
    fold a different node, so it never reaches that state."""
    entries = _in_substore(64)
    store = make_store(entries)
    root = store.root
    memo = _warm_memo(store, entries)
    honest = store.prove(b"s/k005")
    aunts = honest.leaf.aunts
    forged_leaf = replace(honest.leaf, key=b"s/k005x")
    for low in range(len(aunts) + 1):
        for fake in (sha256(b"fake"), aunts[0]):
            grafted = replace(forged_leaf, aunts=(fake,) * low + aunts[low:])
            assert not verify_membership(
                root, replace(honest, leaf=grafted), b"v5", memo
            )
    # A different tree's memo must not vouch for this root either: memos
    # are per root, and a proof of the other tree fails against this one.
    other = make_store({**entries, b"s/k064": b"v64"})
    other_memo = _warm_memo(other, {**entries, b"s/k064": b"v64"})
    assert not verify_membership(root, other.prove(b"s/k005"), b"v5", other_memo)
    assert not verify_membership(root, other.prove(b"s/k005"), b"v5", memo)
    # A recorded top-layer proof vouches for its own substore only: the
    # same leaf proof under another key's substore name is refused.
    assert not verify_membership(root, _rekeyed(honest, b"t/k005"), b"v5", memo)


def test_absence_proofs_keep_the_full_fold(monkeypatch):
    entries = _in_substore(64)
    store = make_store(entries)
    memo = _warm_memo(store, entries)
    assert memo  # warm, yet absence proofs never consult it
    counter = _HashCounter(monkeypatch)
    proof = store.prove_absence(b"s/k01x")  # between s/k019 and s/k020
    assert verify_non_membership(store.root, proof)
    inner, leaf, _value = counter.take()
    layer = proof.leaf
    assert (inner, leaf) == (
        len(layer.left.aunts) + len(layer.right.aunts) + len(proof.top.aunts),
        3,
    )


def test_same_sides_but_other_aunt_count_is_rejected():
    # Leaf 0 is a left child all the way up in both trees, but the 5-leaf
    # tree is one level deeper than the 4-leaf one.
    assert set(_reference_sides(0, 4)) == set(_reference_sides(0, 5)) == {"L"}
    store = make_store(_in_substore(4))
    proof = store.prove(b"s/k000")
    forged = replace(proof, leaf=replace(proof.leaf, total=5))
    assert _rejected(store.root, b"s/k000", b"v0", forged)
    store = make_store(_numbered(4))
    proof = store.prove(b"k000")
    forged = replace(proof, top=replace(proof.top, total=5))
    assert _rejected(store.root, b"k000", b"v0", forged)


# -- absence proofs: adjacency comes from the paths, not from claims ------------


def _absence_rejected(root: bytes, proof: StoreAbsenceProof) -> bool:
    with pytest.raises(ProofVerificationError):
        ibc_proofs.verify_non_membership(root, proof.key, proof)
    return not verify_non_membership(root, proof)


def _absence_layers(count: int):
    """Per layer, a store whose layer holds ``k00``..``k<count-1>``, a
    one-layer prover and the wrapper that makes a one-layer absence claim
    a store proof: inside substore ``s``, then among one-key substores."""
    inside = make_store({b"s/k%02d" % i: b"v" for i in range(count)})
    top = inside.prove(b"s/k00").top
    among = make_store({b"k%02d" % i: b"v" for i in range(count)})
    return [
        (
            inside,
            lambda i: b"s/k%02d" % i,
            lambda key: inside.prove(key).leaf,
            lambda key, claim: StoreAbsenceProof(key=key, leaf=claim, top=top),
        ),
        (
            among,
            lambda i: b"k%02d" % i,
            lambda key: among.prove(key).top,
            lambda key, claim: StoreAbsenceProof(key=key, leaf=None, top=claim),
        ),
    ]


def test_forged_absence_of_a_present_key_is_rejected():
    for store, name, prove, wrap in _absence_layers(10):
        root = store.root
        present = name(5)
        assert store.has(present)
        for left, right in (
            (prove(name(2)), prove(name(8))),
            (None, prove(name(8))),
            (prove(name(2)), None),
            (None, None),
        ):
            claim = NonMembershipProof(key=present, left=left, right=right)
            assert _absence_rejected(root, wrap(present, claim))


def test_non_adjacent_neighbours_are_rejected_for_every_claimed_position():
    for store, name, prove, wrap in _absence_layers(10):
        root = store.root
        keys = [name(i) for i in range(10)]
        for i in range(10):
            for j in range(i + 2, 10):
                present = keys[i + 1]
                left, right = prove(keys[i]), prove(keys[j])
                for total in range(1, 33):
                    claims = [(left.index, right.index)]
                    claims += [(at, at + 1) for at in range(total - 1)]
                    for left_at, right_at in claims:
                        forged = NonMembershipProof(
                            key=present,
                            left=replace(left, index=left_at, total=total),
                            right=replace(right, index=right_at, total=total),
                        )
                        assert not verify_non_membership(root, wrap(present, forged))
        # One-sided: only the first leaf may stand alone on the right, only
        # the last alone on the left, whatever position the proof claims.
        for i in range(1, 10):
            for total in range(1, 33):
                forged = NonMembershipProof(
                    key=keys[i - 1],
                    left=None,
                    right=replace(prove(keys[i]), index=0, total=total),
                )
                assert not verify_non_membership(root, wrap(keys[i - 1], forged))
                forged = NonMembershipProof(
                    key=keys[i],
                    left=replace(prove(keys[i - 1]), index=total - 1, total=total),
                    right=None,
                )
                assert not verify_non_membership(root, wrap(keys[i], forged))


def test_neighbour_proofs_must_agree_on_total():
    # s/k3 falls between leaf 1 (s/k2) and the promoted leaf 2 (s/k4).
    store = make_store({b"s/k0": b"v0", b"s/k2": b"v2", b"s/k4": b"v4"})
    proof = store.prove_absence(b"s/k3")
    assert verify_non_membership(store.root, proof)
    widened = replace(proof.leaf.left, total=4)
    # The same path shape, so a membership proof as good as the honest one.
    assert verify_membership(store.root, StoreProof(widened, proof.top), b"v2")
    forged = replace(proof, leaf=replace(proof.leaf, left=widened))
    assert not verify_non_membership(store.root, forged)


def test_forged_two_layer_proofs_are_rejected():
    """The top layer must be the key's own substore's, and honest."""
    channel = b"ports/transfer/channels/channel-0"
    commitment = b"commitments/" + channel + b"/sequences/%d"
    ack = b"acks/" + channel + b"/sequences/%d"
    entries = {commitment % i: b"c%d" % i for i in range(1, 9)}
    entries.update({ack % i: b"a%d" % i for i in range(1, 5)})
    entries.update({b"balances/alice/uatom": b"5", b"clients/07-tendermint-0/clientState": b"b"})
    store = make_store(entries)
    root = store.root
    proof = store.prove(commitment % 3)
    ack_proof = store.prove(ack % 3)
    # Wrong substore: an honest top layer, but of another substore.
    assert _rejected(root, commitment % 3, b"c3", replace(proof, top=ack_proof.top))
    # The ack's two honest layers do not prove the commitment's key.
    assert _rejected(root, commitment % 3, b"a3", _rekeyed(ack_proof, commitment % 3))
    # Forged top aunts, and a top layer from an older snapshot.
    for at in range(len(proof.top.aunts)):
        aunts = list(proof.top.aunts)
        aunts[at] = sha256(b"forged")
        forged = replace(proof, top=replace(proof.top, aunts=tuple(aunts)))
        assert _rejected(root, commitment % 3, b"c3", forged)
    older = make_store({k: v for k, v in entries.items() if k != commitment % 8})
    assert _rejected(root, commitment % 3, b"c3", replace(proof, top=older.prove(commitment % 3).top))

    # Absence of a key whose substore is missing: a top-layer absence proof.
    receipt = b"receipts/" + channel + b"/sequences/4"
    absent = store.prove_absence(receipt)
    assert absent.leaf is None and absent.top.key == b"receipts/" + channel
    assert verify_non_membership(root, absent)
    # Claiming a present substore missing, or proving absence in another
    # substore's tree, or mixing the two proof shapes, is refused.
    present = commitment % 20
    honest = store.prove_absence(present)
    assert verify_non_membership(root, honest)
    names = store._top.keys
    name = merkle.substore_of(present)
    at = names.index(name)
    left = store._prove_substore(names[at - 1])
    right = store._prove_substore(names[at + 1]) if at + 1 < len(names) else None
    missing = NonMembershipProof(key=name, left=left, right=right)
    assert _absence_rejected(root, StoreAbsenceProof(present, None, missing))
    assert _absence_rejected(root, replace(absent, key=present))
    in_acks = store.prove_absence(ack % 20)
    assert _absence_rejected(root, replace(in_acks, key=present, leaf=replace(in_acks.leaf, key=present)))
    assert _absence_rejected(root, replace(honest, top=absent.top))
    assert _absence_rejected(root, replace(absent, top=honest.top))
    assert _absence_rejected(root, replace(honest, leaf=replace(honest.leaf, left=None, right=None)))
    assert _absence_rejected(root, replace(honest, leaf=replace(honest.leaf, key=receipt)))


def test_a_key_filed_under_another_substore_is_refused(monkeypatch):
    """Both layers of a misfiled key's proof fold, but the verifier routes
    the key itself and refuses a top layer naming another substore."""
    key = b"commitments/ports/transfer/channels/channel-0/sequences/1"
    monkeypatch.setattr(merkle, "substore_of", lambda _key: b"balances")
    store = make_store({key: b"c1", b"balances/alice/uatom": b"c1"})
    proof = store.prove(key)
    monkeypatch.undo()
    assert proof.top.key == b"balances"
    assert proof.leaf.compute_root() == proof.top.value_hash
    assert proof.top.compute_root() == store.root
    assert _rejected(store.root, key, b"c1", proof)
    assert not verify_membership(store.root, proof, b"c1", {})
    # Nor does a memo whose last check routed a key of that substore, with
    # the same value, vouch for it.
    memo: dict = {}
    assert verify_membership(store.root, store.prove(b"balances/alice/uatom"), b"c1", memo)
    assert not verify_membership(store.root, proof, b"c1", memo)


def test_stub_commits_do_no_substore_work(monkeypatch):
    """Stub mode commits no tree: a stub app's writes are never routed to
    a substore, and nothing is hashed."""
    from repro.cosmos.app import GaiaApp

    app = GaiaApp("stub-chain", proof_mode="stub")

    def forbidden(*_args):
        raise AssertionError("substore work in stub mode")

    monkeypatch.setattr(merkle, "substore_of", forbidden)
    monkeypatch.setattr(merkle._Tree, "apply", forbidden)
    counter = _HashCounter(monkeypatch)
    store = app.store
    roots = set()
    for block in range(3):
        store.set(b"commitments/ports/transfer/channels/channel-0/sequences/%d" % block, b"c")
        store.open_overlay()
        store.set(b"balances/alice/uatom", b"%d" % block)
        store.merge_overlay()
        roots.add(app.commit())
    assert counter.take() == (0, 0, 0)
    assert len(roots) == 3 and store.root in roots
    assert store._substores == {} and store._committed == {}
    assert not store._changed and not store._merged


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
    """A commit hashes what the block changed: each distinct new value, the
    changed leaves, their ancestors, and the app-hash tree's leaf of each
    touched substore.  After a removal or a mid-order insert it keeps the
    nodes the splice left in place or moved by a multiple of their width,
    as ``_reference_rehashed_inner`` states."""
    counter = _HashCounter(monkeypatch)
    store = ProvableStore()
    entries = _in_substore(n)
    top = 1 if n else 0  # the app-hash tree's leaf for substore ``s``
    for key, value in entries.items():
        store.set(key, value)
    store.commit()
    assert counter.take() == (max(n - 1, 0), n + top, n)

    store.commit()  # clean: nothing changed
    assert counter.take() == (0, 0, 0)

    for key, value in entries.items():
        store.set(key, value)  # written, but no value moved
    store.commit()
    assert counter.take() == (0, 0, 0)

    changed = list(entries)[::3]
    for key in changed:
        store.set(key, b"moved")  # one value: hashed once
    store.commit()
    dirty = {int(key[3:]) for key in changed}
    assert counter.take() == (
        _reference_rehashed_inner(n, dirty) if n else 0,
        len(changed) + top,
        1 if changed else 0,
    )

    store.set(b"s/a000", b"x")  # mid-order (first): shifts every index
    store.commit()
    assert counter.take() == (n, 2, 1)
    assert n == _reference_rehashed_inner(n + 1, splice=(0, 1, 1, n + 1))

    store.set(b"s/z000", b"x")  # right-edge append: its ancestors only
    store.commit()
    assert counter.take() == (_reference_rehashed_inner(n + 2, {n + 1}), 2, 1)

    store.delete(b"s/a000")  # the oldest key: an odd shift moves every pair
    store.commit()
    assert counter.take() == (n, 1, 0)
    assert n == _reference_rehashed_inner(n + 1, splice=(0, 0, -1, n + 1))

    # s/k000 .. s/k<n-1>, s/z000 are left.
    if n >= 4:  # the four oldest keys: two levels are sliced
        for key in list(entries)[:4]:
            store.delete(key)
        store.commit()
        assert counter.take() == (
            _reference_rehashed_inner(n - 3, splice=(0, 0, -4, n - 3)),
            1,
            0,
        )

    # s/k004 .. s/k<n-1>, s/z000 are left (n - 3 keys, or n + 1).
    left = n - 3 if n >= 4 else n + 1
    if left >= 4:  # an interior key, with the second-oldest
        third, second = sorted(store._substores[b"s"].keys)[2:0:-1]
        store.delete(third)
        store.delete(second)
        store.commit()
        assert counter.take() == (
            _reference_rehashed_inner(left - 2, splice=(1, 1, -2, left - 2)),
            1,
            0,
        )
        left -= 2
    if left >= 3:  # the two oldest keys and an append, in one block
        for key in sorted(store._substores[b"s"].keys)[:2]:
            store.delete(key)
        store.set(b"s/z001", b"x")
        store.commit()
        assert counter.take() == (
            _reference_rehashed_inner(left - 1, splice=(0, 0, -2, left - 2)),
            2,
            1,
        )

    store.set(b"t/x", b"x")  # a new substore, appended to the app-hash tree
    store.commit()
    assert counter.take() == (1, 2, 1)

    for key in store._committed:
        store.prove(key)
    store.prove_absence(b"s/k")
    store.prove_absence(b"s/zzzz")
    store.prove_absence(b"u/missing")
    assert counter.take() == (0, 0, 0)


@pytest.mark.parametrize(
    ("workload", "hashes"),
    [
        ("hub_fleet_faults", ((16_900, 16_162, 361), (26_366, 10_534, 103), 53_651)),
        ("burst_5000", ((16_605, 15_295, 103), (25_008, 10_014, 57), 45_396)),
    ],
)
def test_workload_commit_hash_counts(monkeypatch, workload, hashes):
    """A benchmark workload's whole-run merkle work at seed 0, as
    ``hashes``: the inner, leaf and value hashes of all its commits and of
    all its membership checks, and the aunts its proofs read from the
    trees.

    History, ``hub_fleet_faults`` / ``burst_5000``.  Commits: a whole-tree
    rebuild per dirty block, hashing every changed value, made
    (63 955, 15 918, 15 918) / (30 105, 15 245, 15 245); rebuilding only a
    substore that lost keys made (18 800, 16 162, 361) / (21 343, 15 295,
    103).  Checks with the memo from level 4 and a value hash per proof
    made (43 075, 10 534, 10 455) / (41 244, 10 014, 10 006).  Proofs that
    read every level's aunt read 108 817 / 126 332."""
    from perf.workloads import WORKLOADS

    import repro

    config = next(w for w in WORKLOADS if w.name == workload).config(0)
    counted = {"commit": [0, 0, 0], "verify": [0, 0, 0], "aunts": 0}

    def counting(function, kind):
        def counted_call(*args):
            before = counter.inner, counter.leaf, counter.value
            try:
                return function(*args)
            finally:
                after = counter.inner, counter.leaf, counter.value
                for at, (was, now) in enumerate(zip(before, after)):
                    counted[kind][at] += now - was

        return counted_call

    def counted_siblings(*args):
        found = siblings(*args)
        counted["aunts"] += len(found)
        return found

    siblings = merkle._siblings
    counter = _HashCounter(monkeypatch)
    monkeypatch.setattr(ProvableStore, "commit", counting(ProvableStore.commit, "commit"))
    monkeypatch.setattr(merkle, "verify_membership", counting(verify_membership, "verify"))
    monkeypatch.setattr(merkle, "_siblings", counted_siblings)
    repro.run_experiment(config)
    assert (tuple(counted["commit"]), tuple(counted["verify"]), counted["aunts"]) == hashes


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
        (1024, 1, 10240, 2558),
        (1000, 3, 3334, 1166),
        # The shape of the 5000-transfer burst: about every other leaf of
        # the two stores its 10 006 proofs are checked against.
        (5107, 2, 32185, 7659),
        (10013, 2, 68229, 15018),
    ],
)
def test_batch_verification_hash_counts(monkeypatch, n, step, plain, memoised):
    """A batch in one substore of ``n`` keys: the plain check folds both
    layers per proof; with a memo the top layer is folded once."""
    entries = _in_substore(n, width=3 if n <= 1000 else 5)
    store = make_store(entries)
    keys = sorted(entries)[::step]
    proofs = [(store.prove(key), entries[key]) for key in keys]
    assert all(proof.top.total == 1 for proof, _ in proofs)  # no top aunts
    counter = _HashCounter(monkeypatch)
    for proof, value in proofs:
        assert verify_membership(store.root, proof, value)
    assert counter.take() == (plain, 2 * len(keys), len(keys))
    memo: dict = {}
    for proof, value in proofs:
        assert verify_membership(store.root, proof, value, memo)
    assert counter.take() == (memoised, len(keys) + 1, len(keys))
    order = [proof.leaf.index for proof, _ in proofs]
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
    assert not store._merged


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
    """A merge keeps the overlay for the commit only if a value actually
    moved (a write-through ``set`` always notes its key; the commit then
    finds the value unmoved and hashes nothing, see the hash counts)."""
    store = make_store({b"a": b"1"})
    store.open_overlay()
    store.set(b"a", b"2")
    store.set(b"a", b"1")  # back where it started
    store.set(b"gone", b"x")
    store.delete(b"gone")
    store.delete(b"absent")
    store.merge_overlay()
    assert not store._merged
    store.open_overlay()
    store.set(b"a", b"2")
    store.merge_overlay()
    assert store._merged == [{b"a": b"2"}]


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
        assert bool(store._merged) == (model != initial)
        assert store.commit() == make_store(model).root
    else:
        store.drop_overlay()
        assert store._data == initial and not store._merged
