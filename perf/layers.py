"""The layer map and the cProfile layer ledger.

A fixed map assigns every file under ``src/repro/`` to exactly one layer,
named after the modules.  :func:`check_layer_map` walks the tree and fails
the benchmark when a file is unmapped, mapped twice, or a map entry has
gone stale — a new module must be placed deliberately instead of landing
in ``other``.

:func:`ledger` turns one profiled rep into per-layer self time and call
counts.  Time spent in built-ins and the standard library (about a sixth
of a run) is charged to the layer that called it, through the profile's
caller table; ``other`` keeps only what no ``repro`` code called.
"""

from __future__ import annotations

import os
import pstats
from typing import Iterable, Optional

from perf import SRC_ROOT

REPRO_ROOT = SRC_ROOT / "repro"

OTHER = "other"

#: Package entry files hold imports only; they are bookkeeping, not a layer.
_PACKAGE_FILES = ("__init__.py", "__main__.py")

#: Whole directories (relative to ``src/repro``) that are one layer.
DIR_LAYERS: dict[str, str] = {
    "sim": "sim",
    "cosmos": "cosmos",
    "ibc": "ibc",
    "relayer": "relayer",
    "faults": "faults",
    "workload": "framework.workload",
    "analysis": "framework.report",
    "trace": "support",
    "parallel": "support",
    "lint": "support",
}

#: Files of the directories that split across layers, and the top level.
FILE_LAYERS: dict[str, str] = {
    "errors.py": "support",
    "calibration.py": "support",
    "tendermint/consensus.py": "tendermint.consensus",
    "tendermint/mempool.py": "tendermint.consensus",
    "tendermint/store.py": "tendermint.consensus",
    "tendermint/node.py": "tendermint.consensus",
    "tendermint/validator.py": "tendermint.consensus",
    "tendermint/types.py": "tendermint.consensus",
    "tendermint/abci.py": "tendermint.consensus",
    "tendermint/merkle.py": "tendermint.merkle",
    "tendermint/crypto.py": "tendermint.crypto",
    "tendermint/rpc.py": "tendermint.rpc",
    "tendermint/websocket.py": "tendermint.rpc",
    "framework/setup.py": "framework.setup",
    "framework/topology.py": "framework.setup",
    "framework/config.py": "framework.setup",
    "framework/runner.py": "framework.runner",
    "framework/sweep.py": "framework.runner",
    "framework/workload.py": "framework.workload",
    "framework/metrics.py": "framework.report",
    "framework/report.py": "framework.report",
    "framework/processor.py": "framework.report",
    "framework/connectors.py": "framework.report",
}

#: Every layer, in the order the ledger prints them (outside in).
LAYERS: tuple[str, ...] = (
    "framework.runner",
    "framework.setup",
    "framework.workload",
    "framework.report",
    "faults",
    "relayer",
    "ibc",
    "cosmos",
    "tendermint.rpc",
    "tendermint.consensus",
    "tendermint.merkle",
    "tendermint.crypto",
    "sim",
    "support",
    OTHER,
)


class LayerMapError(Exception):
    """The layer map no longer matches the source tree."""


def layer_of(relative: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro`` (``/``-separated), or None.

    Raises :class:`LayerMapError` when two rules claim the file.
    """
    parts = relative.split("/")
    if parts[-1] in _PACKAGE_FILES:
        return "support"
    claims = []
    if relative in FILE_LAYERS:
        claims.append(FILE_LAYERS[relative])
    if len(parts) > 1 and parts[0] in DIR_LAYERS:
        claims.append(DIR_LAYERS[parts[0]])
    if len(claims) > 1:
        raise LayerMapError(f"{relative} is claimed by layers {claims}")
    return claims[0] if claims else None


def source_files() -> list[str]:
    """Every ``*.py`` under ``src/repro``, relative and ``/``-separated."""
    return sorted(
        path.relative_to(REPRO_ROOT).as_posix()
        for path in REPRO_ROOT.rglob("*.py")
    )


def check_layer_map(files: Optional[Iterable[str]] = None) -> dict[str, str]:
    """Map every source file to its layer; raise on any gap or stale entry."""
    files = source_files() if files is None else list(files)
    mapping: dict[str, str] = {}
    unmapped = []
    for relative in files:
        layer = layer_of(relative)
        if layer is None:
            unmapped.append(relative)
        else:
            mapping[relative] = layer
    if unmapped:
        raise LayerMapError(
            "no layer for: " + ", ".join(unmapped) + " (add to perf/layers.py)"
        )
    stale = sorted(set(FILE_LAYERS) - set(files))
    stale += sorted(
        directory
        for directory in DIR_LAYERS
        if not any(name.startswith(directory + "/") for name in files)
    )
    if stale:
        raise LayerMapError("layer map names missing files: " + ", ".join(stale))
    unknown = sorted(set(mapping.values()) - set(LAYERS))
    if unknown or OTHER in mapping.values():
        raise LayerMapError(f"files mapped to unknown layers: {unknown or OTHER}")
    return mapping


# -- the ledger ----------------------------------------------------------------

_Func = tuple[str, int, str]


def _repro_relative(filename: str) -> Optional[str]:
    if filename.startswith(("~", "<")):
        return None
    try:
        relative = os.path.relpath(os.path.abspath(filename), REPRO_ROOT)
    except ValueError:
        return None
    if relative.startswith(".."):
        return None
    return relative.replace(os.sep, "/")


class _Attribution:
    """Resolves each profiled function to a distribution over layers."""

    def __init__(self, stats: dict, mapping: dict[str, str]):
        self.stats = stats
        self.mapping = mapping
        self._file_layer: dict[str, Optional[str]] = {}
        self._shares: dict[_Func, dict[str, float]] = {}

    def direct(self, func: _Func) -> Optional[str]:
        """The layer of a function defined under ``src/repro``, else None."""
        filename = func[0]
        if filename not in self._file_layer:
            relative = _repro_relative(filename)
            if relative is None:
                self._file_layer[filename] = None
            elif relative not in self.mapping:
                raise LayerMapError(f"profiled file {relative} has no layer")
            else:
                self._file_layer[filename] = self.mapping[relative]
        return self._file_layer[filename]

    def shares(self, func: _Func) -> dict[str, float]:
        """Layer shares of a function: its own layer, or — for built-ins and
        library code — its callers' shares weighted by the inclusive time
        each caller spent in it."""
        return self._resolve(func, frozenset())[0]

    def _resolve(
        self, func: _Func, stack: frozenset
    ) -> tuple[dict[str, float], bool]:
        """Shares of ``func`` plus whether they are final (a result cut
        short by the recursion guard is valid only below that cycle)."""
        known = self._shares.get(func)
        if known is not None:
            return known, True
        layer = self.direct(func)
        if layer is not None:
            result, final = {layer: 1.0}, True
        else:
            result, final = self._from_callers(func, stack | {func})
        if final:
            self._shares[func] = result
        return result, final

    def _from_callers(
        self, func: _Func, stack: frozenset
    ) -> tuple[dict[str, float], bool]:
        edges = self.stats[func][4]
        callers = sorted(caller for caller in edges if caller not in stack)
        final = len(callers) == len(edges)
        weights = [edges[caller][3] for caller in callers]
        if sum(weights) <= 0.0:
            weights = [float(edges[caller][1]) for caller in callers]
        total = sum(weights)
        if total <= 0.0:
            return {OTHER: 1.0}, final
        result: dict[str, float] = {}
        for caller, weight in zip(callers, weights):
            if weight == 0.0:
                continue
            shares, caller_final = self._resolve(caller, stack)
            final = final and caller_final
            for layer, share in shares.items():
                result[layer] = result.get(layer, 0.0) + share * weight / total
        return result, final


def ledger(profile, mapping: dict[str, str]) -> dict[str, dict[str, float]]:
    """Per-layer ``self_s``, ``share`` and ``calls`` of one profiled rep.

    ``profile`` is a disabled :class:`cProfile.Profile`; ``mapping`` is
    :func:`check_layer_map`'s.  ``calls`` counts calls of the functions
    defined in the layer's files (for ``other``: of the profile's entry
    points), so it repeats exactly on a deterministic run.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    attribution = _Attribution(stats, mapping)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    total = 0.0
    for func in sorted(stats):
        _cc, ncalls, tottime, _ct, callers = stats[func]
        total += tottime
        layer = attribution.direct(func)
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        if not callers:
            calls[OTHER] += ncalls
        # A built-in's own time is known per calling edge, so charge each
        # edge to its caller exactly; functions with no recorded caller
        # (the profile's entry points) keep their time in ``other``.
        charged = 0.0
        for caller in sorted(callers):
            edge_time = callers[caller][2]
            charged += edge_time
            for target, share in attribution.shares(caller).items():
                self_s[target] += edge_time * share
        self_s[OTHER] += tottime - charged
    if total <= 0.0:
        raise LayerMapError("the profile recorded no time")
    result = {
        layer: {
            "self_s": self_s[layer],
            "share": self_s[layer] / total,
            "calls": calls[layer],
        }
        for layer in LAYERS
    }
    share_sum = sum(row["share"] for row in result.values())
    if abs(share_sum - 1.0) > 1e-6:
        raise LayerMapError(f"layer shares sum to {share_sum!r}, not 1")
    return result
