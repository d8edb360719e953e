"""Tests for the network latency model and named RNG streams."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, LinkSpec, Network, RngRegistry, derive_seed


@pytest.fixture
def quiet_network(env):
    rng = RngRegistry(7)
    net = Network(env, rng, default_rtt=0.2)  # no jitter
    net.add_host("a")
    net.add_host("b")
    return net


def test_default_one_way_delay_is_half_rtt(quiet_network):
    assert quiet_network.delay("a", "b") == pytest.approx(0.1)


def test_local_delivery_is_instant(quiet_network):
    assert quiet_network.delay("a", "a") == 0.0


def test_link_override(quiet_network):
    quiet_network.set_link("a", "b", LinkSpec(latency=0.5))
    assert quiet_network.delay("a", "b") == pytest.approx(0.5)
    assert quiet_network.delay("b", "a") == pytest.approx(0.5)


def test_jitter_stays_within_bounds(env):
    rng = RngRegistry(3)
    net = Network(env, rng, default_rtt=0.2, default_jitter=0.02)
    net.add_host("a")
    net.add_host("b")
    delays = []
    for i in range(200):
        env.schedule_callback(i * 0.01, lambda: delays.append(net.delay("a", "b")))
    env.run()
    assert all(0.08 <= d <= 0.12 for d in delays)
    assert len(set(delays)) > 1  # actually jittered


def test_jitter_is_keyed_not_sequential(env):
    """Delay is a pure function of (link, time): re-sampling at the same
    instant returns the same value (so concurrent senders cannot swap
    draws), while different instants and directions sample independently."""
    rng = RngRegistry(3)
    net = Network(env, rng, default_rtt=0.2, default_jitter=0.02)
    net.add_host("a")
    net.add_host("b")
    assert net.delay("a", "b") == net.delay("a", "b")
    assert net.delay("a", "b") != net.delay("b", "a")
    seen = {net.delay("a", "b")}
    env.schedule_callback(0.5, lambda: seen.add(net.delay("a", "b")))
    env.run()
    assert len(seen) == 2


def test_link_override_lookup_and_clear(quiet_network):
    assert quiet_network.link_override("a", "b") is None
    spec = LinkSpec(latency=0.5)
    quiet_network.set_link("a", "b", spec)
    assert quiet_network.link_override("a", "b") is spec
    assert quiet_network.link_override("b", "a") is spec
    quiet_network.clear_link("a", "b")
    assert quiet_network.link_override("a", "b") is None
    assert quiet_network.delay("a", "b") == pytest.approx(0.1)


def test_duplicate_host_rejected(env, quiet_network):
    with pytest.raises(SimulationError):
        quiet_network.add_host("a")


# -- RNG streams ------------------------------------------------------------


def test_named_streams_are_independent():
    registry = RngRegistry(42)
    a = [registry.stream("a").random() for _ in range(5)]
    b = [registry.stream("b").random() for _ in range(5)]
    assert a != b


def test_same_name_same_stream_object():
    registry = RngRegistry(42)
    assert registry.stream("x") is registry.stream("x")


def test_reproducible_across_registries():
    r1 = RngRegistry(42).stream("net")
    r2 = RngRegistry(42).stream("net")
    assert [r1.random() for _ in range(10)] == [r2.random() for _ in range(10)]


def test_different_seeds_differ():
    r1 = RngRegistry(1).stream("net")
    r2 = RngRegistry(2).stream("net")
    assert [r1.random() for _ in range(5)] != [r2.random() for _ in range(5)]


def test_derive_seed_stable():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")


def test_spawned_registry_is_independent():
    root = RngRegistry(9)
    child = root.spawn("sub")
    assert child.root_seed != root.root_seed
    assert child.stream("n").random() != root.stream("n").random()


# -- keyed streams -----------------------------------------------------------


def test_keyed_stream_is_a_pure_function_of_key():
    a = RngRegistry(42).keyed("k")
    b = RngRegistry(42).keyed("k")
    assert a is not b
    assert [a.u01(t * 0.1) for t in range(10)] == [b.u01(t * 0.1) for t in range(10)]


def test_keyed_stream_values_in_range_and_distinct():
    ks = RngRegistry(7).keyed("k")
    values = [ks.u01(t * 0.01) for t in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert len(set(values)) == len(values)
    lows = [ks.uniform(t * 0.01, -2.0, 3.0) for t in range(100)]
    assert all(-2.0 <= v < 3.0 for v in lows)


def test_keyed_stream_salt_and_name_decorrelate():
    reg = RngRegistry(7)
    ks = reg.keyed("k")
    assert ks.u01(1.0, salt=0) != ks.u01(1.0, salt=1)
    assert ks.u01(1.0) != reg.keyed("other").u01(1.0)
    assert ks.derive("child").u01(1.0) != ks.u01(1.0)


def test_keyed_stream_index_covers_range():
    ks = RngRegistry(5).keyed("idx")
    picks = {ks.index(t * 0.01, 4) for t in range(200)}
    assert picks == {0, 1, 2, 3}


def test_registry_keyed_is_cached_and_seed_domain_separated():
    reg = RngRegistry(1)
    assert reg.keyed("x") is reg.keyed("x")
    # A keyed stream named like a sequential stream must not share seeds.
    assert reg.keyed("x").seed != derive_seed(1, "x")
