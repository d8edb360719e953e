"""Unit tests for the discrete-event simulation kernel."""
# repro-lint: disable-file=R003 -- tests drive env.run() directly; handles unused

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Environment, Interrupt
from repro.sim.core import ProcessGroup


def test_clock_starts_at_zero(env):
    assert env.now == 0.0  # repro-lint: disable=D004


def test_timeout_advances_clock(env):
    seen = []

    def proc():
        yield env.timeout(3.5)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [3.5]


def test_timeouts_fire_in_order(env):
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(2.0, "b"))
    env.process(proc(1.0, "a"))
    env.process(proc(3.0, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo(env):
    """Ties break by scheduling order, keeping runs deterministic."""
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_timeout_rejected(env):
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value(env):
    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    assert env.run_until_complete(p) == 42


def test_process_exception_propagates_to_waiter(env):
    def failing():
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield env.process(failing())
        return "handled"

    p = env.process(waiter())
    assert env.run_until_complete(p) == "handled"


def test_run_until_complete_raises_process_error(env):
    def failing():
        yield env.timeout(1)
        raise RuntimeError("dead")

    p = env.process(failing())
    with pytest.raises(RuntimeError, match="dead"):
        env.run_until_complete(p)


def test_event_succeed_delivers_value(env):
    event = env.event()
    got = []

    def waiter():
        value = yield event
        got.append(value)

    env.process(waiter())
    env.schedule_callback(2.0, lambda: event.succeed("hello"))
    env.run()
    assert got == ["hello"]


def test_event_double_trigger_rejected(env):
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception(env):
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_any_of_takes_first(env):
    def proc():
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(5.0, value="slow")
        result = yield env.any_of([fast, slow])
        return (env.now, list(result.values()))

    p = env.process(proc())
    when, values = env.run_until_complete(p)
    assert when == 1.0
    assert values == ["fast"]


def test_any_of_does_not_fire_on_pending_timeout(env):
    """Regression: a Timeout must not satisfy AnyOf before its instant."""

    def proc():
        never = env.event()
        deadline = env.timeout(10.0)
        yield env.any_of([never, deadline])
        return env.now

    p = env.process(proc())
    assert env.run_until_complete(p) == 10.0


def test_all_of_waits_for_every_event(env):
    def proc():
        events = [env.timeout(d) for d in (1.0, 4.0, 2.0)]
        yield env.all_of(events)
        return env.now

    p = env.process(proc())
    assert env.run_until_complete(p) == 4.0


def test_all_of_fails_fast(env):
    failing = env.event()

    def proc():
        with pytest.raises(ValueError):
            yield env.all_of([env.timeout(100.0), failing])
        return env.now

    p = env.process(proc())
    env.schedule_callback(1.0, lambda: failing.fail(ValueError("nope")))
    assert env.run_until_complete(p) == 1.0


def test_any_of_lets_go_of_the_child_that_lost(env):
    """The abandoned child must not keep the condition alive (and the
    condition the child): once decided, its callback is removed."""
    never = env.event()

    def proc():
        yield env.any_of([never, env.timeout(1.0)])
        return env.now

    p = env.process(proc())
    assert env.run_until_complete(p) == 1.0
    assert never.callbacks == []


def test_any_of_losing_timeout_still_resumes_its_own_waiter_once(env):
    """Detaching the condition removes only the condition's callback: a
    process waiting on the losing Timeout itself is resumed exactly once,
    and the Timeout still pops (no event added, removed or reordered)."""
    slow = env.timeout(5.0)
    resumed = []

    def racer():
        yield env.any_of([env.timeout(1.0), slow])
        return env.now

    def waiter():
        yield slow
        resumed.append(env.now)

    race = env.process(racer())
    env.process(waiter())
    env.run()
    assert race.value == 1.0
    assert resumed == [5.0]
    assert slow.processed


def test_all_of_failing_early_detaches_from_pending_children(env):
    failing = env.event()
    pending = env.event()

    def proc():
        with pytest.raises(ValueError):
            yield env.all_of([pending, failing])
        return env.now

    p = env.process(proc())
    env.schedule_callback(1.0, lambda: failing.fail(ValueError("nope")))
    assert env.run_until_complete(p) == 1.0
    assert pending.callbacks == []


def test_run_until_stops_at_horizon(env):
    hits = []

    def proc():
        while True:
            yield env.timeout(1.0)
            hits.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    assert env.now == 3.5  # repro-lint: disable=D004


def test_run_until_in_past_rejected(env):
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_interrupt_raises_in_process(env):
    caught = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            caught.append((env.now, interrupt.cause))

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(2.0)
        p.interrupt("wake up")

    env.process(interrupter())
    env.run()
    assert caught == [(2.0, "wake up")]


def test_interrupt_finished_process_rejected(env):
    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yield_non_event_fails_process(env):
    def bad():
        yield 42  # type: ignore[misc]

    p = env.process(bad())
    env.run()
    assert p.triggered and not p.ok
    assert isinstance(p.value, SimulationError)


def test_nested_yield_from(env):
    def inner():
        yield env.timeout(1.0)
        return "inner-done"

    def outer():
        value = yield from inner()
        yield env.timeout(1.0)
        return value + "+outer"

    p = env.process(outer())
    assert env.run_until_complete(p) == "inner-done+outer"
    assert env.now == 2.0  # repro-lint: disable=D004


def test_schedule_callback(env):
    fired = []
    env.schedule_callback(4.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [4.0]


def test_peek_returns_next_event_time(env):
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_queue_is_inf(env):
    assert env.peek() == float("inf")


def test_cancelled_event_does_not_resume(env):
    resumed = []
    event = env.event()

    def waiter():
        yield event
        resumed.append(True)

    env.process(waiter())

    def canceller():
        yield env.timeout(1.0)
        event.cancel()

    env.process(canceller())
    env.run()
    assert resumed == []


# -- ProcessGroup -----------------------------------------------------------------


def _sleeper(env, delay, log=None):
    try:
        yield env.timeout(delay)
    except Interrupt as interrupt:
        if log is not None:
            log.append(interrupt.cause)


def test_group_live_keeps_spawn_order_and_lets_finished_processes_go(env):
    group = ProcessGroup(env)
    procs = [
        group.spawn(_sleeper(env, delay), name=f"p{delay}") for delay in (3, 1, 2, 5)
    ]
    assert group.live == procs
    env.run(until=2.5)
    assert [p.name for p in group.live] == ["p3", "p5"]
    # A finished process is dropped from the group, not only filtered out.
    assert list(group._procs) == [procs[0], procs[3]]
    env.run()
    assert group.live == [] and not group._procs


def test_group_leaves_out_a_process_that_returned_but_is_unprocessed(env):
    group = ProcessGroup(env)
    process = group.spawn(_sleeper(env, 1.0), name="returns-at-1")
    seen = []

    def observer():
        # Resumes at t=1 after ``process`` returned, before the kernel
        # processes its completion event (scheduled later at the same instant).
        yield env.timeout(1.0)
        seen.append((process.is_alive, process.processed, group.live))

    env.process(observer())
    env.run()
    assert seen == [(False, False, [])]
    assert not group._procs


def test_group_add_of_an_already_processed_process(env):
    group = ProcessGroup(env)
    done = env.process(_sleeper(env, 1.0))
    env.run()
    assert done.processed
    assert group.add(done) is done
    assert group.live == [] and not group._procs
    # Adding a live process twice retains it once.
    live = env.process(_sleeper(env, 1.0))
    group.add(live)
    group.add(live)
    assert group.live == [live]
    env.run()
    assert not group._procs


def test_group_interrupt_all_reaches_every_live_process(env):
    group = ProcessGroup(env)
    log = []
    for delay in (5, 1, 7):
        group.spawn(_sleeper(env, delay, log), name=f"p{delay}")
    env.run(until=2)
    group.interrupt_all("stop")
    env.run()
    assert log == ["stop", "stop"] and group.live == []
    group.interrupt_all("again")  # nothing left: a no-op
    env.run()
    assert log == ["stop", "stop"]
