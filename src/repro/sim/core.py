"""Discrete-event simulation kernel.

Everything in this reproduction — consensus rounds, RPC queues, relayer
workers, the network — runs on top of this small SimPy-style kernel.
Processes are Python generators that ``yield`` :class:`Event` objects; the
:class:`Environment` advances a virtual clock and resumes processes when the
events they wait on trigger.

Design notes
------------
* The kernel is deterministic: ties in the event heap are broken by a
  monotonically increasing sequence number, so two runs with the same seeds
  produce identical traces.
* There is no wall-clock anywhere; ``env.now`` is simulated seconds.
* Event cancellation is supported (``Event.cancel()``) so that clients can
  race a request against a timeout without leaking queue entries.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError, StopSimulation

#: Type of a process body: a generator yielding events.
ProcessGenerator = Generator["Event", Any, Any]

#: Scheduling priorities.  URGENT is used for events that must be observed
#: before ordinary events scheduled at the same instant (e.g. the trigger
#: chain of a condition).
URGENT = 0
NORMAL = 1


class _ShutdownType:
    """Sentinel type for :data:`SHUTDOWN` (interrupt cause)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "SHUTDOWN"


#: Interrupt cause used by graceful teardown (``ProcessGroup
#: .interrupt_all(SHUTDOWN)``).  A process that lets an Interrupt with
#: this cause escape its body is *not* recorded as crashed: dying on
#: shutdown is the expected end of a service loop.
SHUTDOWN = _ShutdownType()

#: Set by :mod:`repro.lint.stallcheck` while a monitored run is active;
#: the kernel takes one ``is None`` branch per hook site otherwise.
_STALL_MONITOR = None


class TieBreak:
    """Policy ordering events that share the same (time, priority) heap key.

    The default ``fifo`` policy pops ties in scheduling order — the classic
    deterministic DES choice.  The ``lifo`` policy pops them in *reverse*
    scheduling order.  Nothing in the simulation is allowed to depend on
    which policy runs: if a scenario's observable outputs differ between the
    two, the code has a real scheduling race that the sequence-number
    tie-break was silently masking (see ``repro.lint.schedcheck``).
    """

    __slots__ = ("name", "sign")

    def __init__(self, name: str, sign: int):
        self.name = name
        self.sign = sign

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TieBreak({self.name!r})"


#: The registered tie-break policies, by name.
TIEBREAKS: dict[str, TieBreak] = {
    "fifo": TieBreak("fifo", 1),
    "lifo": TieBreak("lifo", -1),
}


def resolve_tiebreak(policy: "str | TieBreak") -> TieBreak:
    """Look up a policy by name (or pass a :class:`TieBreak` through)."""
    if isinstance(policy, TieBreak):
        return policy
    try:
        return TIEBREAKS[policy]
    except KeyError:
        raise SimulationError(
            f"unknown tie-break policy {policy!r}; "
            f"expected one of {sorted(TIEBREAKS)}"
        ) from None


class Event:
    """A condition that will be *triggered* at some point in simulated time.

    An event moves through three states: pending → triggered → processed.
    Processes wait on events by yielding them; callbacks attached before the
    event is processed run when the environment pops it from the heap.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_cancelled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._cancelled = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after triggering)."""
        return self._ok

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value of an untriggered event")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is raised inside every process waiting on the event.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def cancel(self) -> None:
        """Mark a pending event as cancelled.

        A cancelled event may still trigger (e.g. a resource grant already in
        flight) but waiters added before cancellation are not resumed, and
        resources treat cancelled requests as released.  Cancelling a
        triggered event is a no-op.
        """
        if not self._triggered:
            self._cancelled = True
            self.callbacks = []

    # -- internal -----------------------------------------------------------

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately at the current time.
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled"
            if self._cancelled
            else "processed"
            if self.processed
            else "triggered"
            if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        env._schedule(self, NORMAL, delay)


class Process(Event):
    """A running process.  As an event, it triggers when the body returns.

    The event's value is the generator's return value; if the body raises,
    waiters see the exception (via :meth:`Event.fail` semantics).
    """

    __slots__ = ("_generator", "name", "_waiting_on", "__weakref__")

    def __init__(
        self, env: "Environment", generator: ProcessGenerator, name: str = ""
    ):
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        monitor = _STALL_MONITOR
        if monitor is not None:
            monitor.on_process(self)
        # Bootstrap: resume the generator as soon as the env starts stepping.
        bootstrap = Event(env)
        bootstrap._triggered = True
        env._schedule(bootstrap, URGENT, 0.0)
        bootstrap._add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is not waiting on anything (still bootstrapping) is allowed.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        waiting = self._waiting_on
        if waiting is not None:
            waiting.cancel()
            self._waiting_on = None
        wakeup = Event(self.env)
        wakeup._triggered = True
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        self.env._schedule(wakeup, URGENT, 0.0)
        wakeup._add_callback(self._resume)

    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        while True:
            try:
                if trigger._ok:
                    target = self._generator.send(
                        trigger._value if trigger is not None else None
                    )
                else:
                    target = self._generator.throw(trigger._value)
            except StopIteration as exc:
                if not self._triggered:
                    self.succeed(exc.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate to waiters
                if isinstance(exc, StopSimulation):
                    raise
                if not (isinstance(exc, Interrupt) and exc.cause is SHUTDOWN):
                    # A shutdown interrupt escaping the body is graceful
                    # teardown, not a crash.
                    self.env.crashed_processes.append((self.name, exc))
                if not self._triggered:
                    self.fail(exc)
                return

            if not isinstance(target, Event):
                trigger = Event(self.env)
                trigger._triggered = True
                trigger._ok = False
                trigger._value = SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
                continue
            if target.processed:
                # Already done: loop synchronously with its outcome.
                trigger = target
                continue
            self._waiting_on = target
            target._add_callback(self._resume)
            return


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Condition(Event):
    """Base for :func:`AllOf` / :func:`AnyOf` composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._pending = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            # Only a *processed* event counts as already-done here: a
            # Timeout is "triggered" from creation but must not satisfy a
            # condition before its scheduled instant.
            if event.processed:
                self._check(event)
            else:
                self._pending += 1
                event._add_callback(self._check)
            if self._triggered:
                break

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _detach(self) -> None:
        """Stop listening to the children that lost, once the outcome is set.

        A child that never triggers (the response a deadline beat) would
        otherwise keep ``_check`` in its callbacks while ``events`` keeps
        the child: one reference cycle per decided race.
        """
        check = self._check
        for event in self.events:
            callbacks = event.callbacks
            if callbacks and not event._triggered and check in callbacks:
                callbacks.remove(check)

    def _results(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e.triggered and e._ok}


class AllOf(Condition):
    """Triggers when every child event has triggered.

    Fails as soon as any child fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            self._detach()
            return
        if all(e.triggered for e in self.events):
            self.succeed(self._results())


class AnyOf(Condition):
    """Triggers when the first child event triggers (success or failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed(self._results())
        self._detach()


class Environment:
    """The simulation clock and event loop."""

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "tiebreak",
        "_seq_sign",
        "crashed_processes",
        "events_processed",
    )

    def __init__(
        self, initial_time: float = 0.0, tiebreak: "str | TieBreak" = "fifo"
    ):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self.tiebreak = resolve_tiebreak(tiebreak)
        self._seq_sign = self.tiebreak.sign
        #: (name, exception) for every process body that raised.  Waiters
        #: still receive the exception; this list exists so harnesses can
        #: detect crashes in fire-and-forget processes.
        self.crashed_processes: list[tuple[str, BaseException]] = []
        #: Events popped by :meth:`step` so far — the denominator for
        #: events/sec benchmarks and allocations-per-event accounting.
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._seq += 1
        heapq.heappush(
            self._queue,
            (self._now + delay, priority, self._seq_sign * self._seq, event),
        )

    def schedule_callback(
        self, delay: float, callback: Callable[[], None]
    ) -> Event:
        """Run ``callback`` after ``delay`` seconds (no process needed)."""
        marker = Timeout(self, delay)
        marker._add_callback(lambda _e: callback())
        return marker

    # -- running ------------------------------------------------------------

    def step(self) -> None:
        """Process the next event in the queue."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        monitor = _STALL_MONITOR
        if monitor is not None:
            monitor.on_step(when)
        callbacks = event.callbacks
        event.callbacks = None
        if event._cancelled:
            return
        event._triggered = True  # Timeouts trigger when their instant arrives.
        if callbacks:
            for callback in callbacks:
                callback(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')``."""
        queue = self._queue
        while queue:
            when, _prio, _seq, event = queue[0]
            if event._cancelled and not event.callbacks:
                heapq.heappop(queue)
                continue
            return when
        return float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``until`` (exclusive of later events).

        When ``until`` is given the clock is advanced exactly to it, even if
        no event is scheduled there, matching SimPy semantics.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})"
            )
        queue = self._queue
        step = self.step
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                step()
        except StopSimulation:
            return
        if until is not None:
            self._now = max(self._now, until)

    def run_until_complete(self, process: Process, limit: float = 1e9) -> Any:
        """Run until ``process`` finishes and return its value.

        Raises the process's exception if it failed; raises
        :class:`SimulationError` if the queue drains first.
        """
        while not process.triggered:
            if not self._queue:
                raise SimulationError(
                    f"event queue drained before process {process.name!r} finished"
                )
            if self._queue[0][0] > limit:
                raise SimulationError(
                    f"process {process.name!r} did not finish before t={limit}"
                )
            self.step()
        if not process.ok:
            raise process.value
        return process.value

    def stop(self) -> None:
        """Stop the current :meth:`run` call from inside a callback/process."""
        raise StopSimulation


class ProcessGroup:
    """Owns the :class:`Process` handles a component spawns.

    Fire-and-forget ``env.process(...)`` calls discard the returned handle,
    so the process can never be awaited, interrupted or cancelled — and the
    analyzer's R003 rule flags them.  A group keeps the handles in spawn
    order, drops each one when its process completes, and offers bulk
    interruption for teardown.
    """

    __slots__ = ("env", "_procs", "__weakref__")

    def __init__(self, env: Environment):
        self.env = env
        # Keys only: a dict is an insertion-ordered set with O(1) removal.
        self._procs: dict[Process, None] = {}
        monitor = _STALL_MONITOR
        if monitor is not None:
            monitor.on_group(self)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start and retain a process; returns its handle."""
        return self.add(self.env.process(generator, name=name))

    def add(self, process: Process) -> Process:
        """Retain an externally created process handle."""
        if process not in self._procs:
            self._procs[process] = None
            # Runs when the process's completion is processed, or at once
            # if it already was.
            process._add_callback(self._procs.pop)
        return process

    @property
    def live(self) -> list[Process]:
        """The still-running processes, in spawn order.

        A process that has returned but whose completion the kernel has not
        yet processed is already left out.
        """
        return [p for p in self._procs if p.is_alive]

    def interrupt_all(self, cause: Any = None) -> None:
        """Interrupt every live process (teardown / fault recovery)."""
        for process in self.live:
            process.interrupt(cause)
