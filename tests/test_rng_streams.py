"""Unit tests for sim/rng.py: named-stream derivation guarantees."""

from repro.sim.rng import RngRegistry, derive_seed


def first_draws(rng, n=8):
    return [rng.random() for _ in range(n)]


def test_same_name_same_sequence_across_registries():
    a = RngRegistry(123).stream("network/jitter")
    b = RngRegistry(123).stream("network/jitter")
    assert first_draws(a) == first_draws(b)


def test_stream_is_cached_per_registry():
    registry = RngRegistry(5)
    assert registry.stream("x") is registry.stream("x")


def test_distinct_names_distinct_streams():
    registry = RngRegistry(7)
    names = [f"component/{i}" for i in range(20)]
    draws = {name: tuple(first_draws(registry.stream(name))) for name in names}
    assert len(set(draws.values())) == len(names)


def test_distinct_roots_distinct_streams():
    a = RngRegistry(1).stream("gas/ibc-0")
    b = RngRegistry(2).stream("gas/ibc-0")
    assert first_draws(a) != first_draws(b)


def test_no_cross_stream_aliasing_from_name_composition():
    # The (root, name) encoding must not collapse distinct pairs: e.g.
    # root=1/name="2/x" vs root=12/name="x" both involve the digits "12".
    seeds = {
        derive_seed(1, "2/x"),
        derive_seed(12, "x"),
        derive_seed(1, "2"),
        derive_seed(12, ""),
        derive_seed(1, "2/"),
    }
    assert len(seeds) == 5


def test_draw_count_isolation_between_streams():
    # Consuming one stream must not perturb another (the property the
    # multi-relayer experiments rely on).
    registry = RngRegistry(99)
    isolated = first_draws(RngRegistry(99).stream("b"))
    noisy = registry.stream("a")
    first_draws(noisy, n=1000)
    assert first_draws(registry.stream("b")) == isolated


def test_spawn_is_deterministic_and_independent():
    child1 = RngRegistry(3).spawn("sub")
    child2 = RngRegistry(3).spawn("sub")
    assert child1.root_seed == child2.root_seed
    assert child1.root_seed != RngRegistry(3).root_seed
    assert first_draws(child1.stream("s")) == first_draws(child2.stream("s"))
    # A differently named spawn diverges.
    other = RngRegistry(3).spawn("other")
    assert first_draws(other.stream("s")) != first_draws(child1.stream("s"))


def test_derive_seed_is_64_bit():
    for name in ("a", "b", "gas/ibc-0", ""):
        seed = derive_seed(42, name)
        assert 0 <= seed < 2**64
