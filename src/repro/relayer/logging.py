"""Structured relayer event logs.

The paper's entire latency analysis is built from Hermes log timestamps
(§V notes the chain's own timestamps are skewed, so only relayer-side
clocks are used).  Each operational step emits a :class:`LogRecord`; the
framework's Cross-chain Event Connector consumes these to reconstruct the
13-step timeline of Fig. 12.

Step names follow the paper's breakdown, per message kind::

    transfer: broadcast, extraction, confirmation, data_pull
    recv:     build, broadcast, extraction, confirmation, data_pull
    ack:      build, broadcast, extraction, confirmation
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.sim.core import Environment
from repro.sim.records import record


def render_journal(logs: "Iterable[RelayerLog]") -> str:
    """Render structured logs into the canonical journal text.

    One ``time|relayer|level|event|fields`` line per record (times via
    ``repr`` so floats round-trip exactly), concatenated over the given
    logs in order.  This is THE byte-comparison format for determinism
    checks: the golden tests and the scheduler-race sanitizer both diff
    journals rendered here, and ``run_experiment(capture_journal=True)``
    attaches one to the report.
    """
    return "\n".join(
        f"{record.time!r}|{record.relayer}|{record.level}|"
        f"{record.event}|{record.fields!r}"
        for log in logs
        for record in log.records
    )


@record
class LogRecord:
    time: float
    relayer: str
    level: str
    event: str
    fields: tuple[tuple[str, Any], ...]

    def field(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default


class RelayerLog:
    """Append-only log for one relayer instance."""

    __slots__ = ("env", "relayer", "records")

    def __init__(self, env: Environment, relayer: str):
        self.env = env
        self.relayer = relayer
        self.records: list[LogRecord] = []

    def _emit(self, level: str, event: str, **fields: Any) -> LogRecord:
        record = LogRecord(
            time=self.env.now,
            relayer=self.relayer,
            level=level,
            event=event,
            fields=tuple(fields.items()),
        )
        self.records.append(record)
        return record

    def info(self, event: str, **fields: Any) -> LogRecord:
        return self._emit("info", event, **fields)

    def error(self, event: str, **fields: Any) -> LogRecord:
        return self._emit("error", event, **fields)

    # -- query helpers ----------------------------------------------------------

    def by_event(self, event: str) -> list[LogRecord]:
        return [r for r in self.records if r.event == event]

    def count(self, event: str) -> int:
        return sum(1 for r in self.records if r.event == event)

    def errors(self) -> list[LogRecord]:
        return [r for r in self.records if r.level == "error"]
