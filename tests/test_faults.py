"""Tests for repro.faults: injection mechanics and relayer recovery.

Unit-level checks (schedule validation, crash/brownout/link semantics)
plus integration scenarios on the two-chain harness: a node crash during
relaying, the ISSUE's fault-window edge cases (crash exactly at a block
commit boundary, disconnect during an in-flight data pull, retry budget
exhaustion), and the retry/resubscribe/clear recovery path end to end.
"""

import pytest

from repro.errors import (
    NodeUnavailableError,
    RpcTimeoutError,
    SimulationError,
)
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
    RpcBrownout,
    WsDisconnect,
)
from repro.relayer import FleetConfig
from repro.tendermint.rpc import RpcClient
from repro.tendermint.websocket import SubscriptionClosed


def make_injector(harness, rng, *faults) -> FaultInjector:
    return FaultInjector(
        harness.env,
        harness.network,
        [harness.chain_a, harness.chain_b],
        rng,
        FaultSchedule(tuple(faults)),
    )


def probe_client(harness, timeout=5.0) -> RpcClient:
    return RpcClient(
        harness.env,
        harness.network,
        "m1",
        harness.node_a.rpc,
        timeout=timeout,
        client_id="fault-probe",
    )


# ----------------------------------------------------------------------
# Schedule validation
# ----------------------------------------------------------------------


def test_schedule_rejects_negative_activation_time():
    with pytest.raises(SimulationError):
        FaultSchedule((NodeCrash("m0", at=-1.0, duration=5.0),))


def test_schedule_rejects_bad_probability():
    with pytest.raises(SimulationError):
        FaultSchedule((RpcBrownout("m0", at=0.0, duration=5.0, drop_probability=1.5),))


def test_schedule_horizon_and_bool():
    schedule = FaultSchedule(
        (NodeCrash("m0", at=3.0, duration=7.0), WsDisconnect("m1", at=20.0))
    )
    assert schedule.horizon == pytest.approx(20.0)
    assert schedule
    assert not FaultSchedule()


def test_schedule_accepts_list_and_freezes_it():
    schedule = FaultSchedule([WsDisconnect("m0", at=1.0)])
    assert isinstance(schedule.faults, tuple)


@pytest.mark.parametrize(
    "fault",
    [
        NodeCrash("m9", at=1.0, duration=5.0),
        RpcBrownout("m9", at=1.0, duration=5.0),
        WsDisconnect("m9", at=1.0),
        LinkDegradation("m9", "m1", at=1.0, duration=5.0, latency=0.3),
        LinkDegradation("m0", "m9", at=1.0, duration=5.0, latency=0.3),
    ],
    ids=["crash", "brownout", "disconnect", "link-a", "link-b"],
)
def test_injector_rejects_a_fault_on_an_unknown_host(harness, rng, fault):
    """A fault on a machine the testbed lacks would touch nothing yet be
    reported as applied; the injector refuses it before arming any fault,
    naming the fault and the hosts it knows."""
    valid = WsDisconnect("m0", at=0.5)
    with pytest.raises(SimulationError) as raised:
        make_injector(harness, rng, valid, fault)
    message = str(raised.value)
    assert repr(fault) in message
    assert "'m9'" in message
    assert "['m0', 'm1', 'm2', 'm3', 'm4']" in message


def test_unknown_fault_host_fails_the_experiment():
    from repro.framework import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        input_rate=10,
        measurement_blocks=2,
        faults=FaultSchedule((NodeCrash("machine-9", at=1.0, duration=5.0),)),
    )
    with pytest.raises(SimulationError, match="machine-9"):
        run_experiment(config)


# ----------------------------------------------------------------------
# Crash / brownout / link mechanics
# ----------------------------------------------------------------------


def test_node_crash_refuses_rpc_then_recovers(bootstrapped, rng):
    h = bootstrapped
    t0 = h.env.now  # fault times count from injector.start()
    injector = make_injector(h, rng, NodeCrash("m0", at=5.0, duration=20.0))
    injector.start()
    client = probe_client(h)

    def flow():
        before = yield from client.call("status")
        yield h.env.timeout(10.0)  # t=~10: inside the crash window
        try:
            yield from client.call("status")
            mid = "served"
        except NodeUnavailableError:  # repro-lint: disable=R002
            mid = "refused"
        yield h.env.timeout(30.0)  # past the restart at t0+25
        after = yield from client.call("status")
        return before, mid, after

    before, mid, after = h.run_process(flow())
    assert before["chain_id"] == "chain-a"
    assert mid == "refused"
    assert after["height"] > before["height"]  # consensus kept going (4/5)
    assert h.node_a.rpc.stats.refused >= 1
    assert [w.kind for w in injector.windows] == ["node_crash"]
    assert injector.windows[0].start == pytest.approx(t0 + 5.0)
    assert injector.windows[0].end == pytest.approx(t0 + 25.0)


def test_crash_severs_websocket_subscriptions(bootstrapped, rng):
    h = bootstrapped
    subscription = h.relayer.supervisor.subscriptions["chain-a"]
    injector = make_injector(h, rng, NodeCrash("m0", at=2.0, duration=5.0))
    injector.start()

    def flow():
        yield h.env.timeout(4.0)

    h.run_process(flow())
    assert subscription.disconnected
    assert h.relayer.log.count("websocket_disconnected") >= 1


def test_brownout_times_out_requests_then_clears(bootstrapped, rng):
    h = bootstrapped
    injector = make_injector(
        h, rng, RpcBrownout("m0", at=0.0, duration=30.0, drop_probability=1.0)
    )
    injector.start()
    client = probe_client(h, timeout=2.0)

    def flow():
        yield h.env.timeout(5.0)  # inside the brown-out
        try:
            yield from client.call("status")
            mid = "served"
        except RpcTimeoutError:  # repro-lint: disable=R002
            mid = "timed out"
        yield h.env.timeout(30.0)  # t=~37: brown-out over
        after = yield from client.call("status")
        return mid, after

    mid, after = h.run_process(flow(), limit=200.0)
    assert mid == "timed out"
    assert after["chain_id"] == "chain-a"
    assert h.node_a.rpc.stats.dropped >= 1


def test_link_degradation_applies_and_restores(bootstrapped, rng):
    h = bootstrapped
    base_delay = h.network.link("m1", "m2").latency
    injector = make_injector(
        h,
        rng,
        LinkDegradation("m1", "m2", at=1.0, duration=10.0, latency=1.5),
    )
    injector.start()

    def flow():
        yield h.env.timeout(5.0)
        during = h.network.link("m1", "m2").latency
        yield h.env.timeout(10.0)
        after = h.network.link("m1", "m2").latency
        return during, after

    during, after = h.run_process(flow(), limit=100.0)
    assert during == pytest.approx(1.5)
    assert after == pytest.approx(base_delay)
    assert h.network.link_override("m1", "m2") is None


def test_ws_disconnect_pushes_closed_sentinel(harness):
    h = harness
    subscription = h.node_a.websocket.subscribe("m1")
    h.node_a.websocket.disconnect(subscription, "test reset")

    def flow():
        item = yield subscription.queue.get()
        return item

    item = h.run_process(flow(), limit=10.0)
    assert isinstance(item, SubscriptionClosed)
    assert item.reason == "test reset"
    assert subscription.disconnected


def test_crashed_websocket_refuses_new_subscriptions(harness):
    h = harness
    h.node_a.websocket.set_crashed(True)
    with pytest.raises(NodeUnavailableError):
        h.node_a.websocket.subscribe("m1")
    h.node_a.websocket.set_crashed(False)
    assert h.node_a.websocket.subscribe("m1") is not None


# ----------------------------------------------------------------------
# Relayer recovery: retry, resubscribe, gap-triggered clearing
# ----------------------------------------------------------------------


def test_retry_budget_exhaustion_is_logged_not_crashed(bootstrapped, rng):
    from tests.test_endpoint_supervisor import make_endpoint

    h = bootstrapped
    endpoint = make_endpoint(h, "ep-retry", rpc_retry_attempts=2)
    injector = make_injector(h, rng, NodeCrash("m0", at=0.0, duration=300.0))
    injector.start()

    def flow():
        yield h.env.timeout(1.0)
        try:
            yield from endpoint.query("status")
        except NodeUnavailableError:  # repro-lint: disable=R002
            return "raised"
        return "served"

    outcome = h.run_process(flow(), limit=400.0)
    assert outcome == "raised"
    assert endpoint.log.count("rpc_retry") == 2
    assert endpoint.log.count("rpc_retry_exhausted") == 1
    assert h.env.crashed_processes == []


def test_retry_succeeds_once_node_returns(bootstrapped, rng, monkeypatch):
    from repro.relayer import endpoint as endpoint_module
    from tests.test_endpoint_supervisor import make_endpoint

    h = bootstrapped
    # Backoffs 2 + 4 + 8 = 14 s ride out a 10 s crash window.
    monkeypatch.setattr(endpoint_module, "RPC_RETRY_BASE_SECONDS", 2.0)
    endpoint = make_endpoint(h, "ep-retry-ok", rpc_retry_attempts=4)
    injector = make_injector(h, rng, NodeCrash("m0", at=0.0, duration=10.0))
    injector.start()

    def flow():
        yield h.env.timeout(1.0)
        result = yield from endpoint.query("status")
        return result

    result = h.run_process(flow(), limit=100.0)
    assert result["chain_id"] == "chain-a"
    assert endpoint.log.count("rpc_retry") >= 1
    assert endpoint.log.count("rpc_retry_exhausted") == 0


def test_crash_recovery_resubscribes_and_clears_missed_packets(bootstrapped, rng):
    """End to end: packets committed while the relayer's node is down are
    recovered via resubscribe + height-gap detection + clear."""
    h = bootstrapped
    cli = h.cli()
    # Crash spans several blocks: the transfer commits during the outage,
    # its send_packet event is lost with the subscription.
    injector = make_injector(h, rng, NodeCrash("m0", at=6.0, duration=30.0))
    injector.start()

    def flow():
        submission = yield from cli.ft_transfer(count=3, amount=1)
        assert submission.accepted
        yield h.env.timeout(150.0)

    h.run_process(flow(), limit=500.0)
    log = h.relayer.log
    assert log.count("websocket_disconnected") >= 1
    assert log.count("resubscribed") >= 1
    assert log.count("height_gap_detected") >= 1
    assert log.count("packet_clear") >= 1
    pending = h.chain_a.app.ibc.pending_commitments(
        h.path.a.port_id, h.path.a.channel_id
    )
    assert list(pending) == []
    assert h.env.crashed_processes == []


def test_resubscribe_disabled_listener_stops(make_harness):
    """The switch is set once, on the relayer's seat, and the supervisor
    obeys it: a dropped stream stays dropped."""
    h = make_harness(fleet=FleetConfig(resubscribe_on_disconnect=False))
    h.run_process(h.bootstrap(), limit=500.0)
    h.node_a.websocket.disconnect_all("operator reset")

    def flow():
        yield h.env.timeout(30.0)

    h.run_process(flow(), limit=100.0)
    assert h.relayer.log.count("websocket_disconnected") == 1
    assert h.relayer.log.count("resubscribed") == 0


# ----------------------------------------------------------------------
# Fault-window edge cases (ISSUE satellite)
# ----------------------------------------------------------------------


def test_crash_exactly_at_commit_boundary(bootstrapped):
    """A crash fired synchronously at the block-commit callback must not
    crash any process: the subscription sees the boundary block or the
    sentinel, never a half-delivered frame."""
    h = bootstrapped
    fired = []

    def on_commit(info):
        # Crash synchronously inside the very first commit we observe —
        # the instant the node's height advances.
        if not fired:
            fired.append(info.block.header.height)
            h.node_a.set_crashed(True)

    h.chain_a.engine.subscribe(on_commit)

    def flow():
        yield h.env.timeout(40.0)
        h.node_a.set_crashed(False)
        yield h.env.timeout(30.0)

    h.run_process(flow())
    assert len(fired) == 1
    assert h.relayer.log.count("websocket_disconnected") >= 1
    assert h.relayer.log.count("resubscribed") >= 1
    assert h.env.crashed_processes == []


def test_disconnect_during_inflight_data_pull(bootstrapped):
    """Dropping the subscription while the worker's data pull is in flight
    must not crash the worker; the packets still complete (clear or direct)."""
    h = bootstrapped
    cli = h.cli()
    fired = []

    def on_commit(info):
        has_sends = any(
            event.type == "send_packet"
            for item in info.executed.txs
            for event in item.result.events
        )
        if has_sends and not fired:
            fired.append(info.block.header.height)
            # Mid-pull: the notification is parsed and the worker's RPC
            # pull is issued within ~1 s of the commit.
            h.env.schedule_callback(
                1.0,
                lambda: h.node_a.websocket.disconnect_all("mid-pull reset"),
            )

    h.chain_a.engine.subscribe(on_commit)

    def flow():
        submission = yield from cli.ft_transfer(count=2, amount=1)
        assert submission.accepted
        yield h.env.timeout(120.0)

    h.run_process(flow(), limit=400.0)
    assert fired, "workload never committed a send_packet block"
    assert h.relayer.log.count("websocket_disconnected") >= 1
    assert h.relayer.log.count("resubscribed") >= 1
    pending = h.chain_a.app.ibc.pending_commitments(
        h.path.a.port_id, h.path.a.channel_id
    )
    assert list(pending) == []
    assert h.env.crashed_processes == []
