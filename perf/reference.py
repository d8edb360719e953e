"""The reference kernel: how fast is this host right now?

The sandbox the benchmark runs in shares its cores and caches: the same
deterministic rep takes 1.75 s in a quiet minute and 2.9 s in a busy one,
and the busy spells last longer than a run, so no statistic over a run's
reps removes them.  What does is measuring, beside every rep, a fixed
piece of work that has nothing to do with the program: the kernel below
(dictionary updates over a 10 MB table, heap pushes, short-lived objects,
SHA-256 — the simulator's own mix).  A rep's host seconds are divided by
``kernel seconds / NOMINAL_S``, which turns them into seconds on a host
where the kernel takes exactly :data:`NOMINAL_S`; both sides of a
comparison are scaled by the same rule, and a change to ``src/repro``
cannot move the kernel.
"""

from __future__ import annotations

import hashlib
import heapq

from repro.parallel import hostclock

#: Kernel seconds on the host the benchmark was defined on, in a quiet
#: spell; calibrated seconds equal raw seconds there.
NOMINAL_S = 0.095
#: Kernel passes per probe: long enough (~0.2 s) to average the sub-second
#: bursts a rep averages too.
PROBE_PASSES = 2

_ACCOUNTS = 100_000
_STEPS = 40_000


class _Transfer:
    __slots__ = ("sender", "receiver", "amount")

    def __init__(self, sender: str, receiver: str, amount: int):
        self.sender = sender
        self.receiver = receiver
        self.amount = amount


class HostSpeed:
    """Probes the host with the kernel between the pieces of work it times.

    ``factor()`` is how slow the host was since the previous probe — the
    mean of that probe and one taken now, over nominal (1.0 = the defining
    host, quiet; 1.5 = everything takes half as long again).
    """

    def __init__(self) -> None:
        # Strings and ints only, so the cyclic collector never walks the
        # table during a rep.
        self._names = [f"cosmos1reference{i:06d}" for i in range(_ACCOUNTS)]
        self._balances = dict.fromkeys(self._names, 10**9)
        self._kernel_seconds()  # first pass faults the table in
        self._last = self._probe()

    def factor(self) -> float:
        before, self._last = self._last, self._probe()
        return (before + self._last) / 2 / (PROBE_PASSES * NOMINAL_S)

    def _probe(self) -> float:
        return sum(self._kernel_seconds() for _ in range(PROBE_PASSES))

    def _kernel_seconds(self) -> float:
        names = self._names
        balances = self._balances
        heap: list[tuple[int, int]] = []
        index = 12345
        start = hostclock.now()
        for step in range(_STEPS):
            index = (index * 1103515245 + 12345) & 0x7FFFFFFF
            transfer = _Transfer(
                names[index % _ACCOUNTS], names[(index >> 7) % _ACCOUNTS], step & 15
            )
            balances[transfer.sender] -= transfer.amount
            balances[transfer.receiver] += transfer.amount
            heapq.heappush(heap, (index & 0xFFFF, step))
            if step & 3 == 0:
                heapq.heappop(heap)
            if step & 31 == 0:
                hashlib.sha256(transfer.sender.encode()).digest()
        return hostclock.elapsed_since(start)
