"""Boundary spans, recorded from outside the program.

:class:`SpanRecorder` wraps the eleven functions where one layer calls into
the next, at class level, before the testbed is built — the program's
files stay unedited.  Each call becomes one span ``(name, start, end,
parent)``; the parent is the span that was open when the call began, so
the list is a forest rooted at ``span.sim.step`` (one per simulated
event) and ``span.framework.build_report``.  Spans stay in memory during
the rep and are dumped when the workload ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from pathlib import Path
from typing import Any, Callable

from repro.parallel import hostclock

#: (span name, module, class, method) — outside in.
BOUNDARIES: tuple[tuple[str, str, str, str], ...] = (
    ("span.framework.build_report", "repro.framework.runner", "_ExperimentEngine", "_build_report"),
    ("span.sim.step", "repro.sim.core", "Environment", "step"),
    ("span.rpc.submit", "repro.tendermint.rpc", "RpcServer", "submit"),
    ("span.ws.publish_block", "repro.tendermint.websocket", "WebSocketServer", "publish_block"),
    ("span.mempool.add", "repro.tendermint.mempool", "Mempool", "add"),
    ("span.mempool.reap", "repro.tendermint.mempool", "Mempool", "reap"),
    ("span.cosmos.check_tx", "repro.cosmos.app", "GaiaApp", "check_tx"),
    ("span.cosmos.deliver_tx", "repro.cosmos.app", "GaiaApp", "deliver_tx"),
    ("span.cosmos.commit", "repro.cosmos.app", "GaiaApp", "commit"),
    ("span.merkle.prove", "repro.tendermint.merkle", "ProvableStore", "prove"),
    ("span.merkle.commit", "repro.tendermint.merkle", "ProvableStore", "commit"),
)

SPAN_NAMES: tuple[str, ...] = tuple(boundary[0] for boundary in BOUNDARIES)


class SpanRecorder:
    """Context manager: installs the boundary wrappers, records spans."""

    def __init__(self) -> None:
        #: ``[name index, start, end, parent index or -1]`` per span, host
        #: seconds on the :mod:`repro.parallel.hostclock` timeline.
        self.spans: list[list[Any]] = []
        self._open: list[int] = []
        self._originals: list[tuple[type, str, Callable]] = []

    def __enter__(self) -> "SpanRecorder":
        for index, (_name, module, cls_name, method) in enumerate(BOUNDARIES):
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            setattr(cls, method, self._wrap(index, original))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for cls, method, original in self._originals:
            setattr(cls, method, original)
        self._originals.clear()

    def _wrap(self, index: int, original: Callable) -> Callable:
        spans = self.spans
        open_spans = self._open
        now = hostclock.now

        @functools.wraps(original)
        def boundary(*args: Any, **kwargs: Any) -> Any:
            record = [index, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = now()
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = now()
                open_spans.pop()

        return boundary

    def totals(self) -> dict[str, dict[str, float]]:
        """``calls`` and inclusive host seconds per span name."""
        calls = [0] * len(BOUNDARIES)
        inclusive = [0.0] * len(BOUNDARIES)
        for index, start, end, _parent in self.spans:
            calls[index] += 1
            inclusive[index] += end - start
        return {
            name: {"calls": calls[i], "incl_s": inclusive[i]}
            for i, name in enumerate(SPAN_NAMES)
        }

    def dump(self, path: Path) -> None:
        """Write the raw span list (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        document = {
            "names": list(SPAN_NAMES),
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [index, round(start - origin, 7), round(end - origin, 7), parent]
                for index, start, end, parent in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
