"""Sender populations with Zipf-skewed activity, and payload-size mixes.

A :class:`Population` holds no per-sender objects: the cumulative weight
table costs eight bytes per sender and a sender is a *rank* — on chain, a
slot of the block genesis reserved — so a million-sender population is
cheap until a sender actually submits and a wallet is materialized for it
(``Wallet.named(population.sender_name(rank))``, the one way an address is
derived).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate, repeat

from repro.sim.rng import KeyedStream


class Population:
    """``size`` prospective senders; rank 0 is the most active.

    Activity follows a Zipf law — rank ``r`` (1-based) is drawn with
    probability proportional to ``r ** -s`` — sampled by inverting the
    cumulative weight table (O(log n) per draw).
    """

    __slots__ = ("size", "seed", "_cumulative")

    def __init__(self, size: int, zipf_s: float, seed: int):
        self.size = size
        self.seed = seed
        # A left fold, so every partial sum is the one the explicit
        # ``total += rank**-zipf_s`` loop produces, bit for bit.
        self._cumulative = array(
            "d", accumulate(map(pow, range(1, size + 1), repeat(-zipf_s)))
        )

    def sender_name(self, rank: int) -> str:
        """The wallet name of sender ``rank`` — the same ``user{i}-{seed}``
        convention the fixed-pool setup path uses."""
        return f"user{rank}-{self.seed}"

    def sample_rank(self, u: float) -> int:
        """Rank for a uniform draw ``u`` in [0, 1): inverse CDF."""
        target = u * self._cumulative[-1]
        return min(self.size - 1, bisect_right(self._cumulative, target))


class PayloadMix:
    """Weighted mix of messages-per-transaction sizes."""

    __slots__ = ("_sizes", "_cumulative")

    def __init__(self, mix: tuple):
        self._sizes: list[int] = []
        self._cumulative = array("d")
        total = 0.0
        for msgs, weight in mix:
            self._sizes.append(int(msgs))
            total += float(weight)
            self._cumulative.append(total)

    @property
    def mean(self) -> float:
        previous = 0.0
        acc = 0.0
        for msgs, cum in zip(self._sizes, self._cumulative):
            acc += msgs * (cum - previous)
            previous = cum
        return acc / self._cumulative[-1]

    def sample(self, stream: KeyedStream, index: int) -> int:
        """Messages for transaction ``index`` (keyed, order-independent)."""
        target = stream.u01(float(index)) * self._cumulative[-1]
        slot = min(len(self._sizes) - 1, bisect_right(self._cumulative, target))
        return self._sizes[slot]
