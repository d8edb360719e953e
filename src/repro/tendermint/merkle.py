"""Merkle commitments: RFC-6962-style trees and a proved key/value store.

Two structures back the chain's commitments:

* :func:`simple_hash_from_byte_slices` — the tree Tendermint uses for the
  transaction hash in the block header (leaf/inner domain separation as in
  RFC 6962).
* :class:`ProvableStore` — a sorted key/value map with membership and
  non-membership proofs, standing in for the IAVL tree that Cosmos chains
  commit to via ``app_hash``.  IBC light clients verify packet commitments
  against this root (ICS-23 semantics).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from hashlib import sha256 as _hashlib_sha256
from typing import Iterable, Optional, Sequence

from repro.tendermint.crypto import sha256

_LEAF_PREFIX = b"\x00"
_INNER_PREFIX = b"\x01"

#: Root of an empty tree, per Tendermint convention.
EMPTY_HASH = sha256(b"")


def _leaf_hash(data: bytes) -> bytes:
    return _hashlib_sha256(_LEAF_PREFIX + data).digest()


def _tree_levels(leaf_hashes: list[bytes]) -> list[list[bytes]]:
    """Bottom-up levels of the RFC-6962 tree over a non-empty leaf list.

    ``levels[0]`` is the leaves and ``levels[-1]`` is ``[root]``.  Adjacent
    nodes pair; an unpaired last node is promoted unhashed, which yields the
    same tree as splitting at the largest power of two below the length.
    Node ``i`` of level ``l`` therefore has sibling ``i ^ 1`` when that
    index exists and parent ``i >> 1`` either way.
    """
    sha = _hashlib_sha256
    levels = [leaf_hashes]
    level = leaf_hashes
    while len(level) > 1:
        size = len(level)
        parents = [
            sha(_INNER_PREFIX + level[i] + level[i + 1]).digest()
            for i in range(0, size - 1, 2)
        ]
        if size & 1:
            parents.append(level[-1])
        levels.append(parents)
        level = parents
    return levels


def simple_hash_from_byte_slices(items: Sequence[bytes]) -> bytes:
    """Tendermint's SimpleMerkleRoot over a list of byte slices."""
    if len(items) == 0:
        return EMPTY_HASH
    return _tree_levels([_leaf_hash(item) for item in items])[-1][0]


#: Fold states are memoised only from this tree level up.  A level-``l``
#: node covers ``2**l`` leaves, so the levels below are where proofs share
#: least and where most of a memo's entries would be.
FOLD_MEMO_MIN_LEVEL = 4


def _aunt_sides(index: int, total: int) -> Optional[str]:
    """Leaf-upward side of leaf ``index`` of ``total`` at each level where it
    has a sibling: ``L`` it is the left child (aunt on the right), ``R`` the
    right.  Promoted levels contribute nothing, so the length is the exact
    aunt count.  ``None`` when ``index`` is outside ``[0, total)``.
    """
    if not 0 <= index < total:
        return None
    sides = ""
    last = total - 1  # index of the level's last node; halves per level
    while last:
        if index & 1:
            sides += "R"
        elif index < last:
            sides += "L"
        index >>= 1
        last >>= 1
    return sides


@dataclass(frozen=True, slots=True)
class MembershipProof:
    """Tendermint-shaped proof that ``key -> value`` is leaf ``index`` of
    ``total``: the sibling hashes (``aunts``) from the leaf up to the root."""

    key: bytes
    value_hash: bytes
    index: int
    total: int
    aunts: tuple[bytes, ...]

    def compute_root(self) -> Optional[bytes]:
        """Fold the aunts into a root; ``None`` unless ``(index, total)`` is
        a position and implies exactly ``len(aunts)`` siblings."""
        sides = _aunt_sides(self.index, self.total)
        aunts = self.aunts
        if sides is None or len(sides) != len(aunts):
            return None
        sha = _hashlib_sha256
        node = sha(_LEAF_PREFIX + self.key + b"=" + self.value_hash).digest()
        for side, aunt in zip(sides, aunts):
            if side == "R":
                node = sha(_INNER_PREFIX + aunt + node).digest()
            else:
                node = sha(_INNER_PREFIX + node + aunt).digest()
        return node

    def folds_to(self, root: bytes, memo: dict[bytes, tuple]) -> bool:
        """``compute_root() == root``, stopping early at a known fold state.

        ``memo`` maps each node that an accepted fold passed at level
        ``FOLD_MEMO_MIN_LEVEL`` or above to that fold's state there: the
        node's position ``index`` on its level, the level's ``last`` index,
        the aunts still to fold, and the root they folded to.  The rest of
        a fold is a function of exactly the first three, so a proof that
        reaches a recorded state with the same ``root`` would fold on to
        ``root``, and is accepted without the remaining hashes.  Any other
        proof folds in full, so the answer is always the plain fold's; an
        accepted fold records its new upper states.
        """
        index = self.index
        last = self.total - 1
        if not 0 <= index <= last:
            return False
        aunts = self.aunts
        sha = _hashlib_sha256
        node = sha(_LEAF_PREFIX + self.key + b"=" + self.value_hash).digest()
        used = 0
        level = 0
        fresh = []
        try:
            while last:
                if index & 1:
                    node = sha(_INNER_PREFIX + aunts[used] + node).digest()
                    used += 1
                elif index < last:
                    node = sha(_INNER_PREFIX + node + aunts[used]).digest()
                    used += 1
                index >>= 1
                last >>= 1
                level += 1
                if level >= FOLD_MEMO_MIN_LEVEL:
                    state = (index, last, aunts[used:], root)
                    if memo.get(node) == state:
                        break
                    fresh.append((node, state))
            else:
                if used != len(aunts) or node != root:
                    return False
        except IndexError:  # fewer aunts than the position implies
            return False
        for node, state in fresh:
            memo[node] = state
        return True


@dataclass(frozen=True, slots=True)
class NonMembershipProof:
    """Proof that ``key`` is absent: membership proofs of its neighbours.

    With leaves sorted by key, a key is absent iff its would-be left and
    right neighbours are adjacent in the tree.  Edge positions carry a
    single neighbour, which must then be the first or last leaf.
    """

    key: bytes
    left: Optional[MembershipProof]
    right: Optional[MembershipProof]

    def consistent(self) -> bool:
        """The neighbours bracket the key and their paths make them adjacent.

        Adjacency is read from the side sequences, not from ``index``: once
        both proofs fold to the root the hash chain binds every side, while
        an index is only the prover's claim.  Root-down, adjacent leaves
        share a prefix, then the left goes ``L·R*`` and the right ``R·L*``;
        the first leaf is all ``L`` and the last all ``R``.
        """
        left, right = self.left, self.right
        if left is not None and left.key >= self.key:
            return False
        if right is not None and right.key <= self.key:
            return False
        left_up = "" if left is None else _aunt_sides(left.index, left.total)
        right_up = "" if right is None else _aunt_sides(right.index, right.total)
        if left_up is None or right_up is None:
            return False
        if left is None or right is None:
            # An edge of the tree (both missing: the empty tree).
            return "L" not in left_up and "R" not in right_up
        if left.total != right.total:
            return False
        left_up = left_up.lstrip("R")
        right_up = right_up.lstrip("L")
        return (
            left_up[:1] == "L" and right_up[:1] == "R" and left_up[1:] == right_up[1:]
        )


class ProvableStore:
    """A sorted key/value map committed to by a merkle root.

    The root is recomputed lazily per block (``commit()``); proofs are
    generated against the last committed snapshot, matching how a chain
    serves proofs for height ``h`` from the state committed at ``h``.
    """

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        self._root: bytes = EMPTY_HASH
        self._dirty = False
        # The committed snapshot: sorted keys, each key's leaf index, and
        # the tree as bottom-up level arrays (see ``_tree_levels``), built
        # once per commit so that each proof is O(log n) list lookups.
        self._committed_keys: list[bytes] = []
        self._key_index: dict[bytes, int] = {}
        self._levels: list[list[bytes]] = []
        # Leaf hashes survive across commits: most keys are unchanged from
        # block to block, so each entry maps key -> (value, value_hash,
        # leaf_hash) and is recomputed only when the value actually moved.
        # Entries change only in ``commit``, so a committed key's entry
        # always describes the snapshot, never the pending state.
        self._leaf_cache: dict[bytes, tuple[bytes, bytes, bytes]] = {}
        # Proofs are immutable and snapshot-scoped, so identical requests
        # between commits (relayers re-proving the same commitment) share
        # one object.  Cleared whenever the snapshot changes.
        self._proof_cache: dict[bytes, MembershipProof] = {}
        #: Optional transaction journal (see :mod:`repro.cosmos.journal`).
        self.journal = None

    # -- mutation (pending state) -------------------------------------------

    def set(self, key: bytes, value: bytes) -> None:
        journal = self.journal
        if journal is not None:
            previous = self._data.get(key)
            if previous is None or previous != value:
                journal.record_kv(self._data, key, previous)
        self._data[key] = value
        self._dirty = True

    def get(self, key: bytes) -> Optional[bytes]:
        return self._data.get(key)

    def delete(self, key: bytes) -> None:
        if key in self._data:
            if self.journal is not None:
                self.journal.record_kv(self._data, key, self._data[key])
            del self._data[key]
            self._dirty = True

    def has(self, key: bytes) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    # -- commitment ----------------------------------------------------------

    def commit(self) -> bytes:
        """Snapshot the pending state and return the new root."""
        if not self._dirty:
            # Nothing changed since the last snapshot (an empty block):
            # the committed tree is already current.
            return self._root
        data = self._data
        keys = sorted(data)
        leaf_cache = self._leaf_cache
        leaf_hashes = []
        for key in keys:
            value = data[key]
            cached = leaf_cache.get(key)
            if cached is None or cached[0] != value:
                value_hash = sha256(value)
                cached = (value, value_hash, _leaf_hash(key + b"=" + value_hash))
                leaf_cache[key] = cached
            leaf_hashes.append(cached[2])
        self._committed_keys = keys
        self._key_index = dict(zip(keys, range(len(keys))))
        if leaf_hashes:
            self._levels = _tree_levels(leaf_hashes)
            self._root = self._levels[-1][0]
        else:
            self._levels = []
            self._root = EMPTY_HASH
        self._proof_cache = {}
        self._dirty = False
        return self._root

    def commit_cheap(self, root: bytes) -> bytes:
        """Commit without rebuilding the merkle tree (stub-proof mode).

        Used by very large benchmark sweeps to skip the per-block tree
        rebuild (cost quoted in :mod:`repro.ibc.proofs`).  ``prove`` and
        ``prove_absence`` must not be called afterwards (stub proofs are
        used instead); the provided ``root`` becomes the app hash that stub
        proofs tag themselves with.
        """
        self._root = root
        self._dirty = False
        return self._root

    @property
    def root(self) -> bytes:
        """Root of the last committed snapshot."""
        return self._root

    # -- proofs (against the committed snapshot) ------------------------------

    def prove(self, key: bytes) -> MembershipProof:
        """Membership proof for ``key`` in the committed snapshot."""
        proof = self._proof_cache.get(key)
        if proof is not None:
            return proof
        index = self._key_index.get(key)
        if index is None:
            raise KeyError(f"key {key!r} not in committed state")
        aunts = []
        position = index
        for level in self._levels[:-1]:
            sibling = position ^ 1
            if sibling < len(level):
                aunts.append(level[sibling])
            position >>= 1
        proof = MembershipProof(
            key=key,
            value_hash=self._leaf_cache[key][1],
            index=index,
            total=len(self._committed_keys),
            aunts=tuple(aunts),
        )
        self._proof_cache[key] = proof
        return proof

    def prove_absence(self, key: bytes) -> NonMembershipProof:
        """Non-membership proof for ``key`` in the committed snapshot."""
        if key in self._key_index:
            raise KeyError(f"key {key!r} IS in committed state")
        keys = self._committed_keys
        idx = bisect.bisect_left(keys, key)
        return NonMembershipProof(
            key=key,
            left=self.prove(keys[idx - 1]) if idx > 0 else None,
            right=self.prove(keys[idx]) if idx < len(keys) else None,
        )


def verify_membership(
    root: bytes,
    proof: MembershipProof,
    value: bytes,
    memo: Optional[dict[bytes, tuple]] = None,
) -> bool:
    """Check a membership proof against a root and an expected value.

    ``memo`` is a fold memo of ``root`` (see :meth:`MembershipProof.folds_to`);
    it changes how many hashes the check costs, never its answer.
    """
    if proof.value_hash != sha256(value):
        return False
    if memo is None:
        return proof.compute_root() == root
    return proof.folds_to(root, memo)


def verify_non_membership(root: bytes, proof: NonMembershipProof) -> bool:
    """Check a non-membership proof against a root.

    :meth:`NonMembershipProof.consistent` reads bracketing and adjacency
    from the neighbours' paths; both neighbour proofs folding to ``root`` is
    what authenticates those paths.
    """
    if not proof.consistent():
        return False
    if proof.left is None and proof.right is None:
        return root == EMPTY_HASH
    for neighbour in (proof.left, proof.right):
        if neighbour is not None and neighbour.compute_root() != root:
            return False
    return True


def merkle_root_of_hashes(hashes: Iterable[bytes]) -> bytes:
    """Convenience: SimpleMerkleRoot over pre-hashed items."""
    return simple_hash_from_byte_slices(list(hashes))
