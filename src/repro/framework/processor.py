"""The Cross-chain Event Processor: step timelines from relayer logs.

Reconstructs the paper's 13-step breakdown (Fig. 12) of a cross-chain
transfer from the merged relayer/CLI logs:

====  =====================  ==============================
step  name                   log event
====  =====================  ==============================
 1    transfer broadcast     ``transfer_broadcast``
 2    transfer extraction    ``transfer_extraction``
 3    transfer confirmation  ``transfer_confirmation``
 4    transfer data pull     ``transfer_data_pull``
 5    recv build             ``recv_build``
 6    recv broadcast         ``recv_broadcast``
 7    recv extraction        ``recv_extraction``
 8    recv confirmation      ``recv_confirmation``
 9    recv data pull         ``recv_data_pull``
10    ack build              ``ack_build``
11    ack broadcast          ``ack_broadcast``
12    ack extraction         ``ack_extraction``
13    ack confirmation       ``ack_confirmation``
====  =====================  ==============================

Each record carries a ``count`` of messages reaching that step, so a step's
timeline is a cumulative curve over time — exactly what the paper's Fig. 12
plots.  Only relayer-side timestamps are used, mirroring the paper's choice
(§V, "timestamp mismatch").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.framework.connectors import CrossChainEventConnector
from repro.relayer.logging import LogRecord

#: The 13 steps, in execution order.
STEP_EVENTS: list[tuple[int, str, str]] = [
    (1, "transfer broadcast", "transfer_broadcast"),
    (2, "transfer extraction", "transfer_extraction"),
    (3, "transfer confirmation", "transfer_confirmation"),
    (4, "transfer data pull", "transfer_data_pull"),
    (5, "recv build", "recv_build"),
    (6, "recv broadcast", "recv_broadcast"),
    (7, "recv extraction", "recv_extraction"),
    (8, "recv confirmation", "recv_confirmation"),
    (9, "recv data pull", "recv_data_pull"),
    (10, "ack build", "ack_build"),
    (11, "ack broadcast", "ack_broadcast"),
    (12, "ack extraction", "ack_extraction"),
    (13, "ack confirmation", "ack_confirmation"),
]

#: Aggregation of steps into the paper's three phases.
PHASE_OF_STEP = {
    1: "transfer", 2: "transfer", 3: "transfer", 4: "transfer",
    5: "receive", 6: "receive", 7: "receive", 8: "receive", 9: "receive",
    10: "acknowledge", 11: "acknowledge", 12: "acknowledge", 13: "acknowledge",
}


@dataclass
class StepTimeline:
    """Cumulative completion curve of one step."""

    step: int
    name: str
    points: list[tuple[float, int]]  # (time, cumulative count), sorted

    @property
    def started_at(self) -> Optional[float]:
        return self.points[0][0] if self.points else None

    @property
    def finished_at(self) -> Optional[float]:
        return self.points[-1][0] if self.points else None

    @property
    def total(self) -> int:
        return self.points[-1][1] if self.points else 0

    def completed_by(self, time: float) -> int:
        done = 0
        for t, cumulative in self.points:
            if t > time:
                break
            done = cumulative
        return done


def in_flight_seconds(pulls: Iterable[tuple[float, float]]) -> float:
    """Seconds with at least one of the ``(end, duration)`` pulls in
    flight: overlapping pulls (a fleet's relayers, the two legs) count
    once, and a pull that overlaps none adds exactly its ``duration``."""
    total = 0.0
    reach = float("-inf")
    for end, duration in sorted(pulls, key=lambda pull: pull[0] - pull[1]):
        start = end - duration
        if start >= reach:
            total += duration
        elif end > reach:
            total += end - reach
        reach = max(reach, end)
    return total


@dataclass
class TransferTimelineReport:
    """The full Fig. 12-style reconstruction — the ``timeline`` section."""

    total_seconds: float
    phase_seconds: dict[str, float]
    data_pull_seconds: float = field(metadata={"derived": "data_pull_fraction"})
    origin_time: float
    #: The 13 step curves, in step order.
    steps: list[StepTimeline]

    @property
    def timelines(self) -> dict[int, StepTimeline]:
        return {timeline.step: timeline for timeline in self.steps}

    def phase_fraction(self, phase: str) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.phase_seconds.get(phase, 0.0) / self.total_seconds

    @property
    def data_pull_fraction(self) -> float:
        """The paper's headline: pulls ~69 % of total processing time."""
        if self.total_seconds <= 0:
            return 0.0
        return self.data_pull_seconds / self.total_seconds

    def summary_lines(self) -> list[str]:
        if self.total_seconds <= 0:
            return []
        return [
            "phase breakdown   : "
            f"transfer {self.phase_fraction('transfer') * 100:.1f}% / "
            f"receive {self.phase_fraction('receive') * 100:.1f}% / "
            f"ack {self.phase_fraction('acknowledge') * 100:.1f}% "
            f"(pulls {self.data_pull_fraction * 100:.1f}%)"
        ]


class CrossChainEventProcessor:
    """Aggregates and interprets cross-chain communication events."""

    __slots__ = ("connector",)

    def __init__(self, connector: CrossChainEventConnector):
        self.connector = connector

    # ------------------------------------------------------------------

    def step_timelines(
        self, start_time: float = 0.0, end_time: Optional[float] = None
    ) -> dict[int, StepTimeline]:
        records = [
            r
            for r in self.connector.merged_records()
            if r.time >= start_time and (end_time is None or r.time <= end_time)
        ]
        by_event: dict[str, list[LogRecord]] = {}
        for record in records:
            by_event.setdefault(record.event, []).append(record)
        timelines: dict[int, StepTimeline] = {}
        for step, name, event in STEP_EVENTS:
            cumulative = 0
            points: list[tuple[float, int]] = []
            for record in by_event.get(event, []):
                if event.endswith("_confirmation") and record.field("code", 0) != 0:
                    continue  # failed txs do not advance the step
                count = record.field("count", 1) or 1
                cumulative += count
                points.append((record.time, cumulative))
            timelines[step] = StepTimeline(step=step, name=name, points=points)
        return timelines

    def transfer_timeline(
        self, start_time: float = 0.0, end_time: Optional[float] = None
    ) -> TransferTimelineReport:
        """Reconstruct the Fig. 12 breakdown for one workload run."""
        timelines = self.step_timelines(start_time, end_time)
        origin = None
        for step in range(1, 14):
            started = timelines[step].started_at
            if started is not None:
                origin = started if origin is None else min(origin, started)
        origin = origin if origin is not None else start_time

        # Phase boundaries: a phase spans from its first step's first record
        # to its last step's last record.
        phase_bounds: dict[str, list[float]] = {}
        for step, timeline in timelines.items():
            if not timeline.points:
                continue
            phase = PHASE_OF_STEP[step]
            bounds = phase_bounds.setdefault(
                phase, [timeline.started_at, timeline.finished_at]
            )
            bounds[0] = min(bounds[0], timeline.started_at)
            bounds[1] = max(bounds[1], timeline.finished_at)

        # Phases execute back-to-back; attribute time between consecutive
        # phase completions, as the paper does (27.6 % / 57.3 % / 14.9 %).
        phase_seconds: dict[str, float] = {}
        previous_end = origin
        total_end = origin
        for phase in ("transfer", "receive", "acknowledge"):
            bounds = phase_bounds.get(phase)
            if bounds is None:
                phase_seconds[phase] = 0.0
                continue
            end = max(bounds[1], previous_end)
            phase_seconds[phase] = end - previous_end
            previous_end = end
            total_end = max(total_end, end)

        pull_seconds = in_flight_seconds(
            (record.time, record.field("duration", 0.0) or 0.0)
            for record in self.connector.merged_records()
            if record.event in ("transfer_data_pull", "recv_data_pull")
            and record.time >= start_time
            and (end_time is None or record.time <= end_time)
        )

        return TransferTimelineReport(
            total_seconds=total_end - origin,
            phase_seconds=phase_seconds,
            data_pull_seconds=pull_seconds,
            origin_time=origin,
            steps=[timelines[step] for step, _name, _event in STEP_EVENTS],
        )

    # ------------------------------------------------------------------

    def completion_curve(
        self, start_time: float = 0.0
    ) -> list[tuple[float, int]]:
        """Cumulative completed transfers over time (Fig. 13's curves),
        measured at ack confirmation, relative to ``start_time``."""
        timeline = self.step_timelines(start_time)[13]
        return [(t - start_time, c) for t, c in timeline.points]

    def completion_latency(self, start_time: float, target: int) -> Optional[float]:
        """Seconds from ``start_time`` until ``target`` transfers completed."""
        for t, cumulative in self.completion_curve(start_time):
            if cumulative >= target:
                return t
        return None

    def error_summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.connector.errors():
            counts[record.event] = counts.get(record.event, 0) + 1
        return counts
