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
from itertools import chain
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
#: least and where most of a memo's entries would be: measured on the
#: benchmark's batches, level 1 doubles a memo to save at most 4 % of a
#: check, and level 3 checks 6-9 % slower (DESIGN.md "Merkle layout").
FOLD_MEMO_MIN_LEVEL = 2


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
    ``/sequences/`` — one tree per (prefix, port, channel).

    Either way it is a function of the key's route, its parent path
    ``key.rpartition(b"/")[0] or key``: ``/sequences/`` and the packet
    prefixes end in "/", so they lie within it.  The commit and the fold
    memo each derive a route's substore once.
    """
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
        the aunts still to fold (kept as the fold's whole aunts tuple and
        the count already used), and the root they folded to.  The rest of
        a fold is a function of exactly the node, its position and the
        remaining aunts, so a proof that reaches a recorded state with the
        same ``root`` would fold on to ``root``, and is accepted without
        the remaining hashes.  Any other proof folds in full, so the
        answer is always the plain fold's; an accepted fold records its
        new upper states.
        """
        index = self.index
        last = self.total - 1
        if not 0 <= index <= last:
            return False
        aunts = self.aunts
        sha = _hashlib_sha256
        node = sha(_LEAF_PREFIX + self.key + b"=" + self.value_hash).digest()
        used = 0
        below = FOLD_MEMO_MIN_LEVEL - 1  # levels passed before the memo's
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
                if below:
                    below -= 1
                    continue
                known = memo.get(node)
                if (
                    known is not None
                    and known[0] == index
                    and known[1] == last
                    and known[4] == root
                    and known[3][known[2] :] == aunts[used:]
                ):
                    break
                fresh.append((node, index, last, used))
            else:
                if used != len(aunts) or node != root:
                    return False
        except IndexError:  # fewer aunts than the position implies
            return False
        for node, index, last, used in fresh:
            memo[node] = (index, last, used, aunts, root)
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


def _parents(child: list[bytes], start: int, stop: int) -> list[bytes]:
    """Nodes ``start`` to ``stop - 1`` of the level above ``child``, as
    ``_tree_levels`` makes them (an unpaired last child moves up)."""
    sha = _hashlib_sha256
    size = len(child)
    nodes = [
        sha(_INNER_PREFIX + child[i] + child[i + 1]).digest()
        for i in range(start << 1, min(stop << 1, size - 1), 2)
    ]
    if size & 1 and start <= size >> 1 < stop:
        nodes.append(child[-1])
    return nodes


def _siblings(
    levels: list[list[bytes]], at: int, start: int, stop: int
) -> tuple[bytes, ...]:
    """The aunts of leaf ``at`` on levels ``start`` to ``stop - 1``: one
    list read per level where its ancestor has a sibling (only a level's
    unpaired last node has none)."""
    aunts = []
    at >>= start
    for level in levels[start:stop]:
        try:
            aunts.append(level[at ^ 1])
        except IndexError:
            pass
        at >>= 1
    return tuple(aunts)


#: Proofs of keys under one level-``PROOF_SHARED_LEVEL`` node of a tree
#: share that node's aunts (``_Tree.aunts``).
PROOF_SHARED_LEVEL = 4


class _Tree:
    """One level-array tree (see ``_tree_levels``) over keys in shortlex
    order, kept current by :meth:`apply`.

    ``index`` maps each key to its ordinal; its leaf position is the
    ordinal minus ``base``, so removing the oldest keys moves no entry.
    """

    __slots__ = ("keys", "index", "base", "levels", "_upper_aunts")

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.index: dict[bytes, int] = {}
        self.base = 0
        self.levels: list[list[bytes]] = []
        # Leaf position >> PROOF_SHARED_LEVEL -> the aunts from that level
        # up, for the current levels.
        self._upper_aunts: dict[int, tuple[bytes, ...]] = {}

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

        Removals and keys inserted before the last one are one splice of
        the leaves ``[lo, hi)``; keys past the last one are appended.  The
        keys, leaves and index move only over the splice (and the shorter
        side of it), and ``_rehash`` rehashes only what they changed.
        """
        keys = self.keys
        index = self.index
        base = self.base
        size = len(keys)
        if not size:
            self.levels = [[]]
        leaves = self.levels[0]
        self._upper_aunts = {}
        moved: list[int] = []
        removed: list[int] = []
        for key, leaf in changed.items():
            at = index[key] - base
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
        # The new keys before the last key are inserted, the rest appended.
        cut = (
            bisect.bisect_left(added, _shortlex(keys[-1]), key=_shortlex)
            if size and added
            else 0
        )
        lo = hi = size
        if removed or cut:
            spots = [
                bisect.bisect_left(keys, _shortlex(key), key=_shortlex)
                for key in added[:cut]
            ]
            removed.sort()
            lo = min(removed[0] if removed else size, spots[0] if spots else size)
            hi = max(removed[-1] + 1 if removed else 0, spots[-1] if spots else 0)
            gone = set(removed)
            kept = [at for at in range(lo, hi) if at not in gone]
            middle = list(map(keys.__getitem__, kept))
            middle_leaves = list(map(leaves.__getitem__, kept))
            if cut:
                middle += added[:cut]
                middle_leaves += added_leaves[:cut]
                if kept:
                    leaf_of = dict(zip(middle, middle_leaves))
                    _sort_shortlex(middle)
                    middle_leaves = list(map(leaf_of.__getitem__, middle))
            for at in removed:
                del index[keys[at]]
            shift = len(middle) - (hi - lo)
            # Positions right of the splice move by ``shift``: renumber
            # those keys, or the ones left of it and ``base``.
            if size - hi < lo:
                for key in keys[hi:]:
                    index[key] += shift
            else:
                base -= shift
                for key in keys[:lo]:
                    index[key] -= shift
                self.base = base
            index.update(zip(middle, range(base + lo, base + lo + len(middle))))
            keys[lo:hi] = middle
            leaves[lo:hi] = middle_leaves
            moved = [
                at if at < lo else at + shift for at in moved if not lo <= at < hi
            ]
            hi = lo + len(middle)
        else:
            shift = 0
        tail = len(keys)
        appended = added[cut:]
        index.update(zip(appended, range(base + tail, base + tail + len(appended))))
        keys += appended
        leaves += added_leaves[cut:]
        if not keys:
            self.levels = []
            self.base = 0
            return
        moved.sort()
        self._rehash(moved, lo, hi, shift, tail, size)

    def _rehash(
        self, moved: list[int], lo: int, hi: int, shift: int, tail: int, old: int
    ) -> None:
        """Bring the levels above the leaves up to date with them.

        Of the leaves, ``[0, lo)`` kept their place, ``[lo, hi)`` were
        spliced in, ``[hi, tail)`` are old leaves moved by ``shift``, those
        from ``tail`` on were appended, ``moved`` (sorted, outside the
        splice) changed in place, and there were ``old`` before.  On each
        level a node is kept if the old level had it: its children kept
        their place, or all moved by a multiple of its width, and a lone
        last child was the old level's last too.  The rest (the ancestors
        of the splice, of the appended tail and of the moved leaves, and
        once the shift no longer divides the width everything right of the
        splice) is rehashed, each level's runs in one pass.  The levels
        then match the leaf count.
        """
        sha = _hashlib_sha256
        levels = self.levels
        depth = 0
        while len(levels[depth]) > 1:
            child = levels[depth]
            size = len(child)
            if depth + 1 == len(levels):
                levels.append([])
            parent = levels[depth + 1]
            if shift & 1 or not parent:
                # The splice moved the pairing (or this level was the old
                # root's): nothing right of it is kept.
                hi = tail = lo
                shift = 0
            plo = (lo + (lo == size == old)) >> 1
            ptail = tail >> 1 if tail < size else (size + 1) >> 1
            phi = min((hi + 1) >> 1, ptail)
            shift >>= 1
            if phi < ptail:
                parent[plo : phi - shift] = _parents(child, plo, phi)
            else:
                parent[plo:] = _parents(child, plo, phi)
            del parent[ptail:]
            parent += _parents(child, ptail, (size + 1) >> 1)
            parents: list[int] = []
            for position in moved:
                position >>= 1
                if position >= ptail:
                    break
                if plo <= position < phi or parents and parents[-1] == position:
                    continue
                parents.append(position)
                first = position << 1
                if first + 1 < size:
                    parent[position] = sha(
                        _INNER_PREFIX + child[first] + child[first + 1]
                    ).digest()
                else:
                    parent[position] = child[first]
            moved, lo, hi, tail, old = parents, plo, phi, ptail, (old + 1) >> 1
            depth += 1
        del levels[depth + 1 :]

    def aunts(self, at: int) -> tuple[bytes, ...]:
        """The sibling hashes of leaf ``at``, leaf-upward (the root's level
        has no sibling): its own below ``PROOF_SHARED_LEVEL``, then the
        ones every leaf under its ancestor there shares, read once."""
        levels = self.levels
        top = len(levels) - 1
        if top <= PROOF_SHARED_LEVEL:
            return _siblings(levels, at, 0, top)
        upper = self._upper_aunts.get(at >> PROOF_SHARED_LEVEL)
        if upper is None:
            upper = self._upper_aunts[at >> PROOF_SHARED_LEVEL] = _siblings(
                levels, at, PROOF_SHARED_LEVEL, top
            )
        return _siblings(levels, at, 0, PROOF_SHARED_LEVEL) + upper

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
        leaves and the nodes a removal or a mid-order insert moved out of
        alignment (``_Tree.apply``), and the same for the app-hash tree
        over the touched substores.  Clean substores cost nothing.
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
                route = key.rpartition(b"/")[0] or key  # see substore_of
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
        at = tree.index[key] - tree.base
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
            at = top.index[name] - top.base
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
    states (see :meth:`MembershipProof.folds_to`); under ``(substore
    name, root)``, the last top-layer proof of that substore that folded
    to ``root``, as a field-equal proof folds identically; and under
    ``None`` the last check's value and key route with the value's hash
    and the route's substore, as a batch's packets share one channel and
    often one value.  It changes how many hashes the check costs, never
    its answer.
    """
    leaf, top = proof.leaf, proof.top
    key, name = leaf.key, top.key
    if memo is None:
        return (
            leaf.value_hash == sha256(value)
            and substore_of(key) == name
            and top.compute_root() == root
            and leaf.compute_root() == top.value_hash
        )
    route = key.rpartition(b"/")[0] or key  # see substore_of
    last = memo.get(None)
    if last is None or last[0] != value or last[1] != route:
        last = memo[None] = (value, route, sha256(value), substore_of(key))
    if leaf.value_hash != last[2] or last[3] != name:
        return False
    slot = (name, root)
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
