"""repro.trace: the lifecycle tracer, latency decomposition and exports.

Three layers of guarantees, mirroring the module's contract:

* **Tracer mechanics** — spans and events are recorded in sim time with
  stable identity keys; the ``NullTracer`` is a true no-op so untraced
  runs pay nothing.
* **Conservation** — the five per-packet stage durations are adjacent
  differences over one boundary chain, so they partition the end-to-end
  latency *exactly* (no float drift), and the report's aggregate stage
  sums equal the per-packet sums.
* **Conformance** — the paper-calibration batch scenario reproduces the
  headline claim: data pulls dominate the transfer at 60-80 % of wall
  time (the paper measures 69 %), and the Perfetto export is a valid
  Chrome trace_event document.
"""

import ast
import json

import pytest

from repro.framework import ExperimentConfig, TopologySpec, run_experiment
from repro.framework.metrics import (
    TRACE_BOUNDARIES,
    TRACE_STAGES,
    assemble_packet_traces,
    assemble_route_traces,
    collect_trace_metrics,
)
from repro.framework.processor import in_flight_seconds
from repro.sim import Environment
from repro.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    format_key,
    json_safe,
    packet_key,
    trace_event_document,
)


# -- tracer mechanics --------------------------------------------------------


def test_span_lifecycle_records_sim_time():
    env = Environment()
    tracer = Tracer(env)

    def proc():
        span = tracer.open_span("submit", "workload/w0", count=3)
        yield env.timeout(2.5)
        tracer.close_span(span, accepted=True)

    handle = env.process(proc())
    env.run()
    assert handle.triggered
    (span,) = tracer.spans_named("submit")
    assert span.closed
    assert (span.start, span.end, span.duration) == (0.0, 2.5, 2.5)
    assert span.attrs["count"] == 3
    assert span.attrs["accepted"] is True
    assert not tracer.open_spans


def test_record_span_defaults_end_to_now():
    env = Environment()
    tracer = Tracer(env)

    def proc():
        yield env.timeout(4.0)
        tracer.record_span("pull", "worker/a->b", start=1.0)

    handle = env.process(proc())
    env.run()
    assert handle.triggered
    (span,) = tracer.spans_named("pull")
    assert (span.start, span.end) == (1.0, 4.0)


def test_events_carry_packet_identity():
    env = Environment()
    tracer = Tracer(env)
    key = packet_key("ibc-0", "channel-0", 7)
    tracer.event("detect", "supervisor", key=key, height=12)
    assert key == ("ibc-0", "channel-0", 7)
    assert format_key(key) == "ibc-0/channel-0/7"
    (event,) = tracer.packet_events("detect")
    assert event.key == key
    assert event.attr("height") == 12
    assert event.attr("absent", 0) == 0


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, NullTracer)
    span = NULL_TRACER.open_span("submit", "workload")
    NULL_TRACER.close_span(span)
    NULL_TRACER.record_span("pull", "worker", start=0.0)
    NULL_TRACER.event("detect", "supervisor")
    assert list(NULL_TRACER.packet_events()) == []
    assert list(NULL_TRACER.spans_named("submit")) == []


def test_json_safe_renders_bytes_as_hex():
    assert json_safe(b"\xab\xcd") == "ABCD"
    assert json_safe("plain") == "plain"
    assert json_safe(7) == 7


def test_stage_names_partition_boundary_chain():
    """Five stages span six boundaries: the partition is structural."""
    assert len(TRACE_BOUNDARIES) == len(TRACE_STAGES) + 1


# -- conservation ------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_report():
    """A rate-driven traced run with every lifecycle completing."""
    return run_experiment(
        ExperimentConfig(
            input_rate=20,
            measurement_blocks=4,
            seed=5,
            tracing=True,
            drain_seconds=20.0,
        )
    )


def test_stage_durations_partition_latency_exactly(traced_report):
    """Per packet: the five stage durations sum to the submit->ack
    latency with zero float error, because each stage is the difference
    of adjacent boundary timestamps."""
    packets = assemble_packet_traces(traced_report.tracer)
    complete = [p for p in packets if p.complete]
    assert len(complete) == len(packets) > 100
    for packet in complete:
        stages = packet.stage_seconds()
        assert tuple(stages) == TRACE_STAGES
        assert sum(stages.values()) == packet.total_seconds
        assert all(duration >= 0.0 for duration in stages.values())


def test_boundaries_are_monotone(traced_report):
    for packet in assemble_packet_traces(traced_report.tracer):
        times = [t for t in packet.boundaries() if t is not None]
        assert times == sorted(times)


def test_report_aggregate_equals_per_packet_sums(traced_report):
    """The report's stage_seconds are the per-packet stage sums, packet
    by packet, accumulated in sorted-key order — exactly."""
    packets = [
        p for p in assemble_packet_traces(traced_report.tracer) if p.complete
    ]
    expected = {stage: 0.0 for stage in TRACE_STAGES}
    for packet in sorted(packets, key=lambda p: p.key):
        for stage, seconds in packet.stage_seconds().items():
            expected[stage] += seconds
    trace = traced_report.trace
    assert trace.stage_seconds == expected
    assert trace.completed == len(packets)


def test_trace_counts_are_consistent(traced_report):
    trace = traced_report.trace
    assert trace.traced == trace.completed + trace.partial
    assert trace.timed_out == 0
    assert trace.wall_seconds > 0.0
    assert 0.0 <= trace.data_pull_share <= 1.0


def test_single_hop_routes_match_packets(traced_report):
    """On the two-chain pair every route is one hop and its delivery
    latency is exactly submit -> recv commit of that packet."""
    routes = assemble_route_traces(traced_report.tracer)
    packets = assemble_packet_traces(traced_report.tracer)
    assert len(routes) == len(packets)
    for route, packet in zip(routes, packets):
        assert route.hop_count == 1
        assert route.hops[0] == packet
        assert route.delivery_seconds == (
            packet.recv_commit_at - packet.submit_at
        )


def test_multi_hop_routes_chain_through_forward_links():
    """A 3-chain line chains each origin packet to its forwarded hop; the
    route's delivery interval spans both hops."""
    from repro.framework import TopologySpec

    report = run_experiment(
        ExperimentConfig(
            input_rate=4,
            measurement_blocks=2,
            seed=5,
            tracing=True,
            drain_seconds=40.0,
            topology=TopologySpec.line(3),
        )
    )
    routes = [r for r in assemble_route_traces(report.tracer) if r.complete]
    assert routes
    for route in routes:
        assert route.hop_count == 2
        first, second = route.hops
        assert second.forwarded_from == first.key
        # The onward hop is spawned by (so never precedes) the first
        # hop's delivery, and the route interval covers both hops.
        assert second.src_commit_at >= first.recv_commit_at
        assert route.delivery_seconds >= (
            second.recv_commit_at - second.src_commit_at
        )


def test_collect_trace_metrics_disabled_tracer_is_none():
    assert collect_trace_metrics(NULL_TRACER) is None


# -- conformance: the paper's data-pull share --------------------------------


@pytest.fixture(scope="module")
def conformance_report():
    """The pinned conformance scenario: 200 single-message transfers
    submitted in one block at the paper's calibration."""
    return run_experiment(
        ExperimentConfig(
            total_transfers=200,
            msgs_per_tx=1,
            submission_blocks=1,
            run_to_completion=True,
            tracing=True,
            seed=1,
        )
    )


def test_data_pull_share_in_paper_band(conformance_report):
    """Acceptance criterion: Sec. 5's '69 % of transfer time is spent in
    data pulls' reproduces within the 60-80 % band on the conformance
    batch."""
    trace = conformance_report.trace
    assert trace.completed == 200
    assert 0.60 <= trace.data_pull_share <= 0.80


def test_pull_share_definition(conformance_report):
    """The share's numerator is the time with a pull in flight; the
    conformance batch's pulls never overlap, so it is every pull's sum."""
    trace = conformance_report.trace
    tracer = conformance_report.tracer
    spans = tracer.spans_named("transfer_data_pull")
    spans += tracer.spans_named("recv_data_pull")
    in_flight = in_flight_seconds((s.end, s.duration) for s in spans)
    assert trace.data_pull_share == in_flight / trace.wall_seconds
    assert trace.pull_seconds == pytest.approx(
        trace.transfer_pull_seconds + trace.recv_pull_seconds
    )


def test_in_flight_seconds_counts_overlap_once():
    # (end, duration): [0, 2] and [1, 3] overlap, [5, 6] stands alone and
    # [2.5, 2.75] lies inside [1, 3].
    assert in_flight_seconds([(3.0, 2.0), (2.0, 2.0), (6.0, 1.0), (2.75, 0.25)]) == 4.0
    assert in_flight_seconds([(1.0, 0.5), (2.0, 0.25)]) == 0.75
    assert in_flight_seconds([]) == 0.0


def test_multi_relayer_pull_share_stays_a_share():
    """Two uncoordinated relayers per edge of a three-spoke hub pull the
    same blocks at the same time.  Summing their pulls read 1.12 here;
    the time with a pull in flight is a share of the wall."""
    report = run_experiment(
        ExperimentConfig(
            topology=TopologySpec.hub_and_spoke(3),
            num_relayers=2,
            input_rate=20,
            measurement_blocks=3,
            drain_seconds=30,
            tracing=True,
            seed=7,
        )
    )
    trace, timeline = report.trace, report.timeline
    assert 0.0 < trace.data_pull_share <= 1.0
    assert trace.pull_seconds < trace.transfer_pull_seconds + trace.recv_pull_seconds
    assert 0.0 < timeline.data_pull_fraction <= 1.0
    assert timeline.data_pull_seconds <= timeline.total_seconds


def test_each_pull_has_one_clock():
    """With parallel pulls, each pull's journal record and its trace span
    cover the same interval: the record is written when the pull
    completes, not when its whole group does."""
    report = run_experiment(
        ExperimentConfig(
            total_transfers=40,
            msgs_per_tx=2,
            run_to_completion=True,
            pull_concurrency=4,
            tracing=True,
            seed=1,
        ),
        capture_journal=True,
    )
    for step in ("transfer_data_pull", "recv_data_pull"):
        records = []
        for line in report.journal.splitlines():
            time, _relayer, _level, event, fields = line.split("|", 4)
            if event == step:
                duration = dict(ast.literal_eval(fields))["duration"]
                records.append((float(time) - duration, float(time)))
        spans = sorted((s.start, s.end) for s in report.tracer.spans_named(step))
        assert len(records) == len(spans) == 20
        assert sorted(records) == pytest.approx(spans, abs=1e-9)


# -- Perfetto export ---------------------------------------------------------


def test_perfetto_document_is_valid_trace_event_json(conformance_report):
    document = trace_event_document(conformance_report.tracer)
    # The container format Perfetto and chrome://tracing expect.
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    events = document["traceEvents"]
    assert events
    wire = json.dumps(document)  # must be serializable as-is
    assert json.loads(wire) == document
    phases = {event["ph"] for event in events}
    assert phases == {"M", "X", "i"}
    tracks = set()
    for event in events:
        assert {"ph", "pid", "tid"} <= set(event)
        if event["ph"] == "M":
            assert event["name"] == "thread_name"
            tracks.add((event["pid"], event["tid"]))
        else:
            assert isinstance(event["ts"], int)  # integer microseconds
            assert event["name"]
        if event["ph"] == "X":
            assert isinstance(event["dur"], int) and event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] == "t"  # thread-scoped instant
    # Every span/instant lands on a declared (pid, tid) track.
    used = {
        (e["pid"], e["tid"]) for e in events if e["ph"] in ("X", "i")
    }
    assert used <= tracks


def test_perfetto_write_round_trips(conformance_report, tmp_path):
    from repro.trace import write_perfetto

    path = tmp_path / "trace.json"
    count = write_perfetto(conformance_report.tracer, str(path))
    document = json.loads(path.read_text())
    assert count == len(document["traceEvents"]) > 0


# -- tracing from the CLI ----------------------------------------------------

_TRACED_ARGV = ["--total", "20", "--msgs-per-tx", "4", "--to-completion"]


def test_cli_trace_json_output(capsys):
    from repro.__main__ import main

    assert main([*_TRACED_ARGV, "--tracing", "--json"]) == 0
    trace = json.loads(capsys.readouterr().out)["trace"]
    assert trace["completed"] == 20
    assert tuple(trace["stage_seconds"]) == TRACE_STAGES


def test_cli_trace_table_and_perfetto(capsys, tmp_path):
    from repro.__main__ import main

    out = tmp_path / "perfetto.json"
    # --perfetto turns tracing on by itself.
    code = main([*_TRACED_ARGV, "--waterfall", "4", "--perfetto", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "data pulls" in captured.out
    assert "=submit" in captured.out  # the waterfall legend
    assert "... and 16 more packet(s)" in captured.out
    assert "ui.perfetto.dev" in captured.err
    assert json.loads(out.read_text())["traceEvents"]


def test_cli_waterfall_zero_prints_only_the_table(capsys):
    from repro.__main__ import main

    assert main([*_TRACED_ARGV, "--tracing", "--waterfall", "0"]) == 0
    out = capsys.readouterr().out
    assert "data pulls" in out
    assert "=submit" not in out


def test_main_tracing_flag_enables_section(capsys):
    from repro.__main__ import main

    argv = ["--total", "10", "--msgs-per-tx", "5", "--to-completion", "--tracing"]
    assert main(argv) == 0
    assert "trace " in capsys.readouterr().out

