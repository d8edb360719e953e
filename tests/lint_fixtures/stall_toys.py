"""Deliberately-stalling toy builders for the stallcheck tests.

Each ``build_*`` function wires a purpose-built liveness bug onto a
fresh environment; ``tests/test_stallcheck.py`` loads this module by
path and runs the toys under the :class:`~repro.lint.stallcheck`
monitor.  The file lives under ``lint_fixtures`` with the other
deliberately broken code, never imported as part of the test package.
"""

from repro.sim.resources import Resource


def build_deadlock(env):
    """Classic opposite-order lock acquisition: both processes stall."""
    lock_a = Resource(env)
    lock_b = Resource(env)

    def forward():
        req_a = lock_a.request()
        yield req_a
        yield env.timeout(1.0)
        req_b = lock_b.request()
        yield req_b
        lock_b.release(req_b)
        lock_a.release(req_a)

    def backward():
        req_b = lock_b.request()
        yield req_b
        yield env.timeout(1.0)
        req_a = lock_a.request()
        yield req_a
        lock_a.release(req_a)
        lock_b.release(req_b)

    env.process(forward(), name="forward")
    env.process(backward(), name="backward")


def build_livelock(env):
    """A zero-delay loop: events fire forever at t=0."""

    def spinner():
        while True:
            yield env.timeout(0.0)

    env.process(spinner(), name="spinner")


def build_leak(env):
    """A granted slot that is never released."""
    resource = Resource(env)

    def hog():
        req = resource.request()
        yield req
        # Exits without releasing: the slot leaks.

    env.process(hog(), name="hog")
