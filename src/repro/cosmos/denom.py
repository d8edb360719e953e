"""ICS-20 denomination traces.

Tokens moved across a channel are represented on the destination chain by a
*voucher* denom ``ibc/<SHA256(trace path)>`` where the trace path prefixes
the base denomination with every (port, channel) hop, e.g.
``transfer/channel-0/uatom``.

This is why — as the paper notes in §IV-A — tokens sent through *different*
channels are NOT fungible with each other: their traces, hence their hashes,
differ.  Tests pin that property.
"""

from __future__ import annotations

from repro.sim.records import dataclass
from repro.tendermint.crypto import sha256


@dataclass(frozen=True)
class DenomTrace:
    """A trace path (sequence of port/channel hops) plus the base denom."""

    path: tuple[tuple[str, str], ...]  # ((port, channel), ...) outermost first
    base_denom: str

    @property
    def is_native(self) -> bool:
        return not self.path

    def full_path(self) -> str:
        if not self.path:
            return self.base_denom
        hops = "/".join(f"{port}/{channel}" for port, channel in self.path)
        return f"{hops}/{self.base_denom}"

    def ibc_denom(self) -> str:
        """The on-chain voucher denomination."""
        if self.is_native:
            return self.base_denom
        digest = sha256(self.full_path().encode()).hex().upper()
        return f"ibc/{digest}"

    def prepend(self, port: str, channel: str) -> "DenomTrace":
        """Trace after receiving this token over (port, channel)."""
        return DenomTrace(path=((port, channel),) + self.path, base_denom=self.base_denom)

    def unwind(self) -> "DenomTrace":
        """Trace after the token returns over its outermost hop."""
        if self.is_native:
            raise ValueError("cannot unwind a native denom")
        return DenomTrace(path=self.path[1:], base_denom=self.base_denom)

    def outermost_hop(self) -> tuple[str, str]:
        if self.is_native:
            raise ValueError("native denom has no hops")
        return self.path[0]

    @classmethod
    def parse(cls, full_path: str) -> "DenomTrace":
        """Parse ``port/channel/.../base`` into a trace."""
        parts = full_path.split("/")
        hops: list[tuple[str, str]] = []
        index = 0
        while index + 1 < len(parts) and parts[index + 1].startswith("channel-"):
            hops.append((parts[index], parts[index + 1]))
            index += 2
        base = "/".join(parts[index:])
        if not base:
            raise ValueError(f"trace {full_path!r} has no base denom")
        return cls(path=tuple(hops), base_denom=base)

    @classmethod
    def native(cls, base_denom: str) -> "DenomTrace":
        return cls(path=(), base_denom=base_denom)


class DenomRegistry:
    """Per-chain map from voucher hash denoms back to their traces."""

    def __init__(self) -> None:
        self._traces: dict[str, DenomTrace] = {}
        # Each trace's voucher denom, so a trace is hashed once per chain
        # rather than once per receive.
        self._denoms: dict[DenomTrace, str] = {}
        # Native denoms resolve to one shared trace each, not a fresh
        # DenomTrace per send.
        self._native: dict[str, DenomTrace] = {}

    def register(self, trace: DenomTrace) -> str:
        denom = self._denoms.get(trace)
        if denom is not None:
            return denom
        denom = trace.ibc_denom()
        existing = self._traces.get(denom)
        if existing is not None and existing != trace:
            raise ValueError(f"hash collision for denom {denom}")
        self._traces[denom] = trace
        self._denoms[trace] = denom
        return denom

    def resolve(self, denom: str) -> DenomTrace:
        """Trace for an on-chain denom (native denoms resolve trivially)."""
        if not denom.startswith("ibc/"):
            trace = self._native.get(denom)
            if trace is None:
                trace = self._native[denom] = DenomTrace.native(denom)
            return trace
        trace = self._traces.get(denom)
        if trace is None:
            raise KeyError(f"unknown voucher denom {denom}")
        return trace
