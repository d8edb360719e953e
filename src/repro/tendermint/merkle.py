"""Merkle commitments: RFC-6962-style trees and a proved key/value store.

Two structures back the chain's commitments:

* :func:`simple_hash_from_byte_slices` — the tree Tendermint uses for the
  transaction hash in the block header (leaf/inner domain separation as in
  RFC 6962).
* :class:`ProvableStore` — a key/value map with membership and
  non-membership proofs, standing in for the Cosmos SDK multistore that
  chains commit to via ``app_hash``: one tree per substore (an ICS-24
  prefix, or one packet channel under it) and a tree over the substores'
  roots.  IBC light clients verify packet commitments against this root
  through both layers (ICS-23 semantics).
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from hashlib import sha256 as _hashlib_sha256
from itertools import chain, compress
from typing import Iterable, Optional, Sequence, Union

from repro.sim.records import record
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


# -- substores ------------------------------------------------------------------

#: ICS-24 prefixes whose paths end in ``/sequences/<n>``.
_PACKET_PREFIXES = (b"commitments/", b"receipts/", b"acks/")
_SEQUENCES = b"/sequences/"


def substore_of(key: bytes) -> bytes:
    """The substore ``key`` lives in: its first path segment (the ICS-24
    prefix), except that a packet path's substore is everything before its
    ``/sequences/`` — one tree per (prefix, port, channel)."""
    if key.startswith(_PACKET_PREFIXES):
        cut = key.rfind(_SEQUENCES)
        if cut >= 0:
            return key[:cut]
    cut = key.find(b"/")
    return key if cut < 0 else key[:cut]


def _shortlex(key: bytes) -> tuple[int, bytes]:
    """Leaf order in every tree: by length, then by bytes.  In a packet
    substore every key is ``<substore>/sequences/<n>``, so this is sequence
    order, and each new packet lands at the right edge."""
    return len(key), key


def _sort_shortlex(keys: list[bytes]) -> None:
    """Sort ``keys`` in place by :func:`_shortlex`: by bytes, then stably
    by length, with no Python-level key call per element."""
    keys.sort()
    keys.sort(key=len)


@record
class MembershipProof:
    """Tendermint-shaped proof that ``key -> value`` is leaf ``index`` of
    ``total``: the sibling hashes (``aunts``) from the leaf up to the root.

    One layer of a :class:`StoreProof`.  In the app-hash layer ``key`` is a
    substore's name and ``value_hash`` that substore's root.
    """

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

    def folds_to(self, root: bytes, memo: dict) -> bool:
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


@record
class NonMembershipProof:
    """Proof that ``key`` is absent from one tree: membership proofs of its
    neighbours.

    With leaves in shortlex order, a key is absent iff its would-be left
    and right neighbours are adjacent in the tree.  Edge positions carry a
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
        order = _shortlex(self.key)
        if left is not None and _shortlex(left.key) >= order:
            return False
        if right is not None and _shortlex(right.key) <= order:
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

    def holds_under(self, root: bytes) -> bool:
        """``key`` is absent from the tree of ``root``.

        :meth:`consistent` reads bracketing and adjacency from the
        neighbours' paths; both neighbour proofs folding to ``root`` is what
        authenticates those paths.
        """
        if not self.consistent():
            return False
        if self.left is None and self.right is None:
            return root == EMPTY_HASH
        for neighbour in (self.left, self.right):
            if neighbour is not None and neighbour.compute_root() != root:
                return False
        return True


@record
class StoreProof:
    """Proof that ``key -> value`` is committed under an app hash.

    ``leaf`` folds the key's leaf to its substore's root; ``top`` proves
    that root is the substore's leaf in the app-hash tree.  That is the
    two-proof ICS-23 shape against the Cosmos SDK multistore.
    """

    leaf: MembershipProof
    top: MembershipProof

    @property
    def key(self) -> bytes:
        return self.leaf.key


@record
class StoreAbsenceProof:
    """Proof that ``key`` is absent under an app hash.

    If the key's substore is committed, ``leaf`` shows the key absent from
    it and ``top`` proves the substore's root.  If not, ``leaf`` is
    ``None`` and ``top`` shows the substore's name absent from the app-hash
    tree.
    """

    key: bytes
    leaf: Optional[NonMembershipProof]
    top: Union[MembershipProof, NonMembershipProof]


class _Tree:
    """One level-array tree (see ``_tree_levels``) over keys in shortlex
    order, kept current by :meth:`apply`."""

    __slots__ = ("keys", "index", "levels")

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.index: dict[bytes, int] = {}
        self.levels: list[list[bytes]] = []

    @property
    def root(self) -> bytes:
        return self.levels[-1][0] if self.levels else EMPTY_HASH

    def apply(
        self,
        added: list[bytes],
        added_leaves: list[bytes],
        changed: dict[bytes, Optional[bytes]],
    ) -> None:
        """Add the new keys ``added`` with their leaf hashes, and set each
        ``changed`` key (one in the tree) to its new leaf hash; ``None``
        removes the key.

        A changed leaf or a key past the last one rehashes only its
        ancestors.  Any removal, or a key inserted before the last one,
        rebuilds the tree.
        """
        keys = self.keys
        index = self.index
        leaves = self.levels[0] if keys else []
        moved: list[int] = []
        removed: list[int] = []
        for key, leaf in changed.items():
            at = index[key]
            if leaf is None:
                removed.append(at)
            else:
                leaves[at] = leaf
                moved.append(at)
        if added:
            ordered = list(added)
            _sort_shortlex(ordered)
            if ordered != added:
                leaf_of = dict(zip(added, added_leaves))
                added = ordered
                added_leaves = list(map(leaf_of.__getitem__, added))
        if removed or added and (
            not keys or _shortlex(added[0]) < _shortlex(keys[-1])
        ):
            return self._rebuild(leaves, removed, added, added_leaves)
        tail = len(leaves)
        index.update(zip(added, range(tail, tail + len(added))))
        keys += added
        leaves += added_leaves
        moved.sort()
        self._rehash(moved, tail)

    def _rebuild(
        self,
        leaves: list[bytes],
        removed: list[int],
        added: list[bytes],
        added_leaves: list[bytes],
    ) -> None:
        """Rebuild the whole tree without the leaves at ``removed`` and with
        the ``added`` keys (shortlex-sorted) in place."""
        keys = self.keys
        if removed:
            kept = [True] * len(keys)
            for at in removed:
                kept[at] = False
            keys = list(compress(keys, kept))
            leaves = list(compress(leaves, kept))
        if keys and added and _shortlex(added[0]) < _shortlex(keys[-1]):
            for key, leaf in zip(added, added_leaves):
                at = bisect.bisect_left(keys, _shortlex(key), key=_shortlex)
                keys.insert(at, key)
                leaves.insert(at, leaf)
        else:
            keys += added
            leaves += added_leaves
        self.keys = keys
        self.index = dict(zip(keys, range(len(keys))))
        self.levels = _tree_levels(leaves) if keys else []

    def _rehash(self, moved: list[int], tail: int) -> None:
        """Recompute the ancestors of the leaves at ``moved`` (sorted, each
        below ``tail``) and of every leaf from ``tail`` on (the appended
        ones); the levels then match the leaf count.  Each level's dirty
        tail is recomputed in one pass, as ``_tree_levels`` does."""
        sha = _hashlib_sha256
        levels = self.levels
        depth = 0
        while len(levels[depth]) > 1:
            child = levels[depth]
            size = len(child)
            if depth + 1 == len(levels):
                levels.append([])
            parent = levels[depth + 1]
            tail = tail >> 1 if tail < size else (size + 1) >> 1
            parents: list[int] = []
            for position in moved:
                position >>= 1
                if position >= tail:
                    break
                if not parents or parents[-1] != position:
                    parents.append(position)
            for position in parents:
                first = position << 1
                if first + 1 < size:
                    parent[position] = sha(
                        _INNER_PREFIX + child[first] + child[first + 1]
                    ).digest()
                else:
                    parent[position] = child[first]
            del parent[tail:]
            parent += [
                sha(_INNER_PREFIX + child[i] + child[i + 1]).digest()
                for i in range(tail << 1, size - 1, 2)
            ]
            if size & 1 and tail <= size >> 1:
                parent.append(child[-1])
            moved = parents
            depth += 1
        del levels[depth + 1 :]

    def aunts(self, at: int) -> tuple[bytes, ...]:
        """The sibling hashes of leaf ``at``, leaf-upward (the root's level
        has no sibling)."""
        aunts = []
        for level in self.levels[:-1]:
            sibling = at ^ 1
            if sibling < len(level):
                aunts.append(level[sibling])
            at >>= 1
        return tuple(aunts)

    def neighbours(self, key: bytes) -> tuple[Optional[bytes], Optional[bytes]]:
        """The keys either side of an absent ``key`` (``None`` at an edge)."""
        keys = self.keys
        at = bisect.bisect_left(keys, _shortlex(key), key=_shortlex)
        return (
            keys[at - 1] if at > 0 else None,
            keys[at] if at < len(keys) else None,
        )


class ProvableStore:
    """A key/value map committed to by a two-layer merkle root.

    Writes go to a flat pending dict.  ``commit()`` routes the keys
    written since the last commit to their substores
    (:func:`substore_of`), updates each touched substore's tree, then the
    app-hash tree over the ``(substore, root)`` pairs.  Proofs are
    generated against the last committed snapshot, matching how a chain
    serves proofs for height ``h`` from the state committed at ``h``.
    """

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        # What was written since the last commit, the only keys a commit
        # looks at: the keys written through, and each merged transaction
        # overlay that changed a value.
        self._changed: dict[bytes, None] = {}
        self._merged: list[dict[bytes, Optional[bytes]]] = []
        # Exactly the committed keys, each -> (value, value_hash,
        # substore), so that an unchanged rewrite costs no hash and a
        # committed key is routed once.  Entries change only in
        # ``commit``, so they always describe the snapshot, never the
        # pending state.
        self._committed: dict[bytes, tuple[bytes, bytes, bytes]] = {}
        self._substores: dict[bytes, _Tree] = {}
        # A new key's parent path (up to its last "/"; the key itself if
        # it has none) -> the key's substore.
        self._routes: dict[bytes, bytes] = {}
        # The app-hash tree: one leaf per committed substore, over
        # ``name + "=" + root``.
        self._top = _Tree()
        self._root: bytes = EMPTY_HASH
        # Proofs are immutable and snapshot-scoped, so identical requests
        # between commits (relayers re-proving the same commitment) share
        # one object, and every key of a substore shares one top-layer
        # proof.  Both are cleared whenever the snapshot changes.
        self._proof_cache: dict[bytes, StoreProof] = {}
        self._top_proofs: dict[bytes, MembershipProof] = {}
        # The open transaction's writes, key -> value (``None`` deletes the
        # key), or ``None`` when no transaction is open.
        self._overlay: Optional[dict[bytes, Optional[bytes]]] = None

    # -- mutation (pending state) -------------------------------------------

    def set(self, key: bytes, value: bytes) -> None:
        overlay = self._overlay
        if overlay is not None:
            overlay[key] = value
        else:
            self._data[key] = value
            self._changed[key] = None

    def get(self, key: bytes) -> Optional[bytes]:
        overlay = self._overlay
        if overlay is not None and key in overlay:
            return overlay[key]
        return self._data.get(key)

    def delete(self, key: bytes) -> None:
        overlay = self._overlay
        if overlay is not None:
            overlay[key] = None
        elif key in self._data:
            del self._data[key]
            self._changed[key] = None

    def has(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        """Keys in the pending state; an open overlay is not yet part of it."""
        return len(self._data)

    # -- transaction overlay --------------------------------------------------

    def open_overlay(self) -> None:
        """Buffer writes for one transaction, as the Cosmos SDK cache-wraps
        its multistore for each DeliverTx.

        Until :meth:`merge_overlay` or :meth:`drop_overlay`, ``set`` and
        ``delete`` write to the overlay and ``get`` reads through it, so
        the pending state sees the transaction all at once or not at all.
        """
        if self._overlay is not None:
            raise RuntimeError("a transaction overlay is already open")
        self._overlay = {}

    def merge_overlay(self) -> None:
        """Apply the open transaction's writes to the pending state.

        The overlay is kept for the next commit only if some value
        actually moved: a transaction that rewrites what is there leaves
        the next commit as cheap as an empty block's.
        """
        overlay = self._overlay
        self._overlay = None
        data = self._data
        moved = False
        for key, value in overlay.items():
            if value is None:
                if key in data:
                    del data[key]
                    moved = True
            elif data.get(key) != value:
                data[key] = value
                moved = True
        if moved:
            self._merged.append(overlay)

    def drop_overlay(self) -> None:
        """Discard the open transaction's writes."""
        self._overlay = None

    # -- commitment ----------------------------------------------------------

    def commit(self) -> bytes:
        """Snapshot the pending state and return the new root.

        Only the keys written since the last commit are looked at.  The
        cost follows what changed: a leaf hash per changed key, a value
        hash per distinct new value, the ancestors of changed or appended
        leaves (a whole-tree rebuild only for a substore with a removal or
        a key inserted mid-order), and the same for the app-hash tree over
        the touched substores.  Clean substores cost nothing.
        """
        if not self._changed and not self._merged:
            # Nothing written since the last snapshot (an empty block).
            return self._root
        written = (self._changed, *self._merged)
        self._changed = {}
        self._merged = []
        data = self._data
        committed = self._committed
        routes = self._routes
        sha = _hashlib_sha256
        # Packets of one kind often carry one value (a receipt, a success
        # ack, the commitment of a repeated transfer): hash each once.
        value_hashes: dict[bytes, bytes] = {}
        # Substore -> its new keys, their leaf hashes, and its committed
        # keys whose value moved, each -> its new leaf hash (``None``
        # removes the key).
        added: defaultdict[bytes, list[bytes]] = defaultdict(list)
        added_leaves: defaultdict[bytes, list[bytes]] = defaultdict(list)
        changed: defaultdict[bytes, dict[bytes, Optional[bytes]]] = defaultdict(dict)
        for key in chain.from_iterable(written):
            value = data.get(key)
            entry = committed.get(key)
            if entry is not None:
                if entry[0] == value:
                    continue  # rewritten with its committed value
                name = entry[2]
                if value is None:
                    del committed[key]
                    changed[name][key] = None
                    continue
            elif value is None:
                continue  # written and removed within the block
            else:
                # A key's substore is a function of its path up to the
                # last "/", so each such path is routed once.
                route = key.rpartition(b"/")[0] or key
                name = routes.get(route)
                if name is None:
                    name = routes[route] = substore_of(key)
            value_hash = value_hashes.get(value)
            if value_hash is None:
                value_hash = value_hashes[value] = sha256(value)
            committed[key] = (value, value_hash, name)
            leaf = sha(_LEAF_PREFIX + key + b"=" + value_hash).digest()
            if entry is None:
                added[name].append(key)
                added_leaves[name].append(leaf)
            else:
                changed[name][key] = leaf
        if not added and not changed:
            return self._root
        substores = self._substores
        top = self._top
        top_added: list[bytes] = []
        top_added_leaves: list[bytes] = []
        top_changed: dict[bytes, Optional[bytes]] = {}
        for name in dict.fromkeys(chain(added, changed)):
            tree = substores.get(name)
            if tree is None:
                tree = substores[name] = _Tree()
            tree.apply(added[name], added_leaves[name], changed[name])
            if not tree.keys:
                del substores[name]
                top_changed[name] = None
            elif name in top.index:
                top_changed[name] = _leaf_hash(name + b"=" + tree.root)
            else:
                top_added.append(name)
                top_added_leaves.append(_leaf_hash(name + b"=" + tree.root))
        top.apply(top_added, top_added_leaves, top_changed)
        self._root = top.root
        self._proof_cache = {}
        self._top_proofs = {}
        return self._root

    def commit_cheap(self, root: bytes) -> bytes:
        """Commit without touching any tree (stub-proof mode).

        Used by very large benchmark sweeps to skip the per-block commit
        (cost quoted in :mod:`repro.ibc.proofs`): no key is routed or
        hashed.  ``prove`` and ``prove_absence`` must not be called
        afterwards (stub proofs are used instead); the provided ``root``
        becomes the app hash that stub proofs tag themselves with.
        """
        self._root = root
        self._changed = {}
        self._merged = []
        return self._root

    @property
    def root(self) -> bytes:
        """Root of the last committed snapshot."""
        return self._root

    # -- proofs (against the committed snapshot) ------------------------------

    def prove(self, key: bytes) -> StoreProof:
        """Membership proof for ``key`` in the committed snapshot."""
        proof = self._proof_cache.get(key)
        if proof is not None:
            return proof
        entry = self._committed.get(key)
        if entry is None:
            raise KeyError(f"key {key!r} not in committed state")
        name = entry[2]
        tree = self._substores[name]
        at = tree.index[key]
        proof = StoreProof(
            MembershipProof(key, entry[1], at, len(tree.keys), tree.aunts(at)),
            self._top_proofs.get(name) or self._prove_substore(name),
        )
        self._proof_cache[key] = proof
        return proof

    def prove_absence(self, key: bytes) -> StoreAbsenceProof:
        """Non-membership proof for ``key`` in the committed snapshot."""
        if key in self._committed:
            raise KeyError(f"key {key!r} IS in committed state")
        name = substore_of(key)
        tree = self._substores.get(name)
        if tree is None:
            left, right = self._top.neighbours(name)
            return StoreAbsenceProof(
                key=key,
                leaf=None,
                top=NonMembershipProof(
                    key=name,
                    left=None if left is None else self._prove_substore(left),
                    right=None if right is None else self._prove_substore(right),
                ),
            )
        left, right = tree.neighbours(key)
        return StoreAbsenceProof(
            key=key,
            leaf=NonMembershipProof(
                key=key,
                left=None if left is None else self.prove(left).leaf,
                right=None if right is None else self.prove(right).leaf,
            ),
            top=self._prove_substore(name),
        )

    def _prove_substore(self, name: bytes) -> MembershipProof:
        """The app-hash-tree proof of substore ``name``'s root, made once
        per snapshot."""
        proof = self._top_proofs.get(name)
        if proof is None:
            top = self._top
            at = top.index[name]
            proof = MembershipProof(
                key=name,
                value_hash=self._substores[name].root,
                index=at,
                total=len(top.keys),
                aunts=top.aunts(at),
            )
            self._top_proofs[name] = proof
        return proof


def verify_membership(
    root: bytes,
    proof: StoreProof,
    value: bytes,
    memo: Optional[dict] = None,
) -> bool:
    """Check a two-layer membership proof against an app hash and an
    expected value.

    ``memo`` is a fold memo of ``root``: it holds the leaf layer's fold
    states (see :meth:`MembershipProof.folds_to`) and, under
    ``(substore name, root)``, the last top-layer proof of that substore
    that folded to ``root``; a field-equal proof folds identically.  It
    changes how many hashes the check costs, never its answer.
    """
    leaf, top = proof.leaf, proof.top
    if leaf.value_hash != sha256(value) or top.key != substore_of(leaf.key):
        return False
    if memo is None:
        return top.compute_root() == root and leaf.compute_root() == top.value_hash
    slot = (top.key, root)
    known = memo.get(slot)
    if known is not top and known != top:
        if top.compute_root() != root:
            return False
        memo[slot] = top
    return leaf.folds_to(top.value_hash, memo)


def verify_non_membership(root: bytes, proof: StoreAbsenceProof) -> bool:
    """Check a two-layer non-membership proof against an app hash.

    The top layer must speak for the key's own substore: its committed
    root when the leaf layer shows the key absent from it, and otherwise
    the substore's absence from the app-hash tree.  (A committed
    substore's root is never the empty tree's, so a leaf layer with no
    neighbours fails.)
    """
    top, leaf = proof.top, proof.leaf
    if top.key != substore_of(proof.key):
        return False
    if leaf is None:
        return isinstance(top, NonMembershipProof) and top.holds_under(root)
    return (
        isinstance(top, MembershipProof)
        and leaf.key == proof.key
        and top.compute_root() == root
        and leaf.holds_under(top.value_hash)
    )


def merkle_root_of_hashes(hashes: Iterable[bytes]) -> bytes:
    """Convenience: SimpleMerkleRoot over pre-hashed items."""
    return simple_hash_from_byte_slices(list(hashes))
