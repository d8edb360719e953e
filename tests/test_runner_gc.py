"""The runner pauses CPython's cyclic collector, and that is sound.

``_ExperimentEngine.run()`` turns the collector off for the event loop
and hands it back before the report build (DESIGN.md, "Host memory
model").  Two things make that safe and both are pinned here: the pause always hands the
collector back in the state it found it, and the paths that used to
create reference cycles — a failed RPC, a decided ``any_of`` — no longer
do.  The scenario-level gate is ``repro check stall`` (cyclic garbage
must be 0); see ``tests/test_stallcheck.py`` for the gate itself.
"""

import contextlib
import gc

import pytest

from repro.errors import NodeUnavailableError
from repro.faults import FaultSchedule, NodeCrash, RpcBrownout
from repro.framework import ExperimentConfig, FleetConfig
from repro.framework.runner import _ExperimentEngine
from repro.lint import scenarios
from repro.lint.stallcheck import _collector_off
from repro.sim import Environment, Network, RngRegistry
from repro.tendermint.rpc import RpcClient, RpcServer


@contextlib.contextmanager
def collector_state(enabled: bool):
    """Run the body with the collector ``enabled`` or not; restore after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@contextlib.contextmanager
def counting_unreachable():
    """Collector off over the body, from a collected heap; afterwards
    ``found[0]`` is what one full pass found unreachable."""
    found = []
    with _collector_off():
        yield found
        found.append(gc.collect())


def _golden() -> ExperimentConfig:
    return scenarios.lookup("golden").build(7)


# ----------------------------------------------------------------------
# The pause restores the caller's collector state on every way out
# ----------------------------------------------------------------------


def _crashing_orchestrate(self):
    env = self.testbed.env

    def boom():
        yield env.timeout(1.0)
        raise ValueError("boom")

    crashing = env.process(boom(), name="boom")
    yield env.timeout(2.0)
    assert not crashing.is_alive


def _run_ok(monkeypatch):
    assert _ExperimentEngine(_golden()).run().window.sends_total > 0


def _run_times_out(monkeypatch):
    engine = _ExperimentEngine(
        ExperimentConfig(input_rate=20, measurement_blocks=4, max_sim_seconds=3.0)
    )
    with pytest.raises(TimeoutError):
        engine.run()


def _run_crashes(monkeypatch):
    monkeypatch.setattr(_ExperimentEngine, "_orchestrate", _crashing_orchestrate)
    with pytest.raises(RuntimeError, match="crashed"):
        _ExperimentEngine(_golden()).run()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", [_run_ok, _run_times_out, _run_crashes])
def test_run_leaves_the_collector_as_it_found_it(monkeypatch, enabled, outcome):
    with collector_state(enabled):
        outcome(monkeypatch)
        assert gc.isenabled() is enabled


def test_no_collector_pass_inside_the_event_loop(monkeypatch):
    """Not one generation-0 pass until the last event has been processed;
    the report build runs with the collector handed back."""
    engine = _ExperimentEngine(_golden())
    env = engine.testbed.env
    passes_at = []
    enabled_at_report = []

    def probe(phase, info):
        if phase == "start":
            passes_at.append(env.events_processed)

    build_report = _ExperimentEngine._build_report

    def probed_build_report(self):
        enabled_at_report.append(gc.isenabled())
        return build_report(self)

    monkeypatch.setattr(_ExperimentEngine, "_build_report", probed_build_report)
    gc.callbacks.append(probe)
    try:
        engine.run()
    finally:
        gc.callbacks.remove(probe)
    assert env.events_processed > 1000
    assert set(passes_at) <= {env.events_processed}
    assert enabled_at_report == [True]


# ----------------------------------------------------------------------
# The paths that used to create cycles
# ----------------------------------------------------------------------


def test_rpc_error_path_leaves_nothing_unreachable():
    """hub_fleet_faults' mechanism in small: a crashed node refuses
    requests (``NodeUnavailableError`` raised inside ``RpcClient.call``),
    a brown-out times others out, and the relayers retry.  No registry
    scenario reaches the refused-request path."""
    config = ExperimentConfig(
        input_rate=10,
        measurement_blocks=3,
        seed=1,
        drain_seconds=20.0,
        num_relayers=2,
        relayer=FleetConfig(policy="none", rpc_retry_attempts=3),
        clear_interval=2,
        faults=FaultSchedule(
            (
                RpcBrownout("machine-0", at=2.0, duration=10.0, drop_probability=0.3),
                NodeCrash("machine-1", at=6.0, duration=8.0),
            )
        ),
    )
    with counting_unreachable() as found:
        engine = _ExperimentEngine(config)  # kept: a dropped testbed is cyclic
        report = engine.run()
    assert report.faults.rpc_refused > 0 and report.faults.rpc_retries > 0
    assert found == [0]


def _refused_call(env: Environment, timeout: float, rtt: float) -> RpcClient:
    """One call to a crashed node, its error caught by the calling process;
    the kernel is then drained so nothing stays reachable through its heap."""
    network = Network(env, RngRegistry(77), default_rtt=rtt)
    network.add_host("server")
    network.add_host("client")
    server = RpcServer(env, network, "server")
    server.set_crashed(True)
    client = RpcClient(env, network, "client", server, timeout=timeout)

    def caller():
        with pytest.raises(NodeUnavailableError):
            yield from client.call("status")

    env.run_until_complete(env.process(caller(), name="caller"))
    env.run()
    return client


def test_refused_call_drops_its_frame_references():
    """The error is thrown into ``call`` at its ``yield`` (the any_of failed)."""
    with counting_unreachable() as found:
        env = Environment()  # kept: a dropped kernel is cyclic garbage itself
        client = _refused_call(env, timeout=5.0, rtt=0.0)
    assert (client.errors, client.timeouts) == (1, 0)
    assert found == [0]


def test_refused_call_racing_its_deadline_drops_them_too():
    """The deadline pops first at the very instant the error is delivered:
    the any_of succeeds, and ``call`` raises the response's error itself."""
    one_way = 0.1
    with counting_unreachable() as found:
        env = Environment()
        client = _refused_call(env, timeout=one_way + one_way, rtt=2 * one_way)
    assert (client.errors, client.timeouts) == (1, 0)
    assert found == [0]
