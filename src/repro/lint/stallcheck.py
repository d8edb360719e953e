"""Dynamic liveness sanitizer: the ``stall`` check.

Unguarded waits, leaked slots, zero-delay loops and un-drained queues
are caught here, on the running simulation, not by static pattern
rules (DESIGN.md §6, *Rule yield*).  A :class:`StallMonitor` hooks the kernel via the
``_STALL_MONITOR`` globals in :mod:`repro.sim.core` and
:mod:`repro.sim.resources`, keeping weak-reference registries of every
process, process group, resource and store the run creates — each
tagged with the source line that created it.  After the scenario runs,
the whole testbed is torn down (``engine.shutdown()``) and the monitor
checks that nothing survived:

* **deadlock** — the event heap drained while registered processes are
  still alive.  The report dumps the runtime *wait graph*: each stuck
  process's name, the source line its generator is suspended at, and a
  description of the event it waits on (which resource/store, how full).
* **livelock** — more than ``livelock_threshold`` events processed at a
  single simulated instant.  A zero-delay self-rescheduling loop makes
  time stop advancing; the monitor raises :class:`StallError` from
  inside ``env.step`` with the offending instant.
* **residue** — after teardown: still-granted resource slots, requests
  still queued, stores with live putters or waiting getters, process
  groups with live members, and WebSocket subscriptions still
  registered on any node.
* **backlog** — the high-water mark of every store, keyed by the file
  and function that created it, is recorded for the harness
  (:mod:`repro.lint.check`) to diff against the scenario's ``stall``
  pin in ``SCENARIO_PINS.json``, so an unbounded queue growth
  regression fails tier-1 the same way a lint finding does.
* **cyclic garbage** — ``_ExperimentEngine.run()`` pauses CPython's
  cyclic collector for the event loop, which is only sound while the
  loop creates no reference cycles.  The gate is wider than the pause:
  the monitored run collects once before the engine is built, keeps the
  collector off through construction, loop and report build, and
  collects again when ``run()`` returns; that pass must find nothing.
  If it does, the report counts the unreachable objects by type and
  names every frame and generator among them (``path:function``) — the
  cycle runs through one of those.

The teardown path is *only* exercised here: the normal experiment
runner never calls ``engine.shutdown()``, keeping its event accounting
byte-identical to the pinned golden run.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import weakref
from collections import Counter
from dataclasses import field
from typing import Callable, Iterator, Optional

from repro.lint.reporters import short_path
from repro.sim.records import dataclass

#: Default number of same-instant events treated as a livelock.  The
#: busiest pinned scenario (hub4) peaks well under 2k events at one
#: instant; a zero-delay loop blows past any finite threshold.
DEFAULT_LIVELOCK_THRESHOLD = 10_000


class StallError(Exception):
    """Raised by the monitor when simulated time stops advancing."""


def _creation_site(by_function: bool = False) -> str:
    """The first stack frame outside the kernel modules, as ``path:line``
    (for diagnostics) or ``path:function`` (for pins: an unrelated edit
    above the creating line must not unpin the site).  ``co_name``, not
    ``co_qualname``: CI still runs 3.10."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename.replace("\\", "/")
        if not filename.endswith(
            ("repro/sim/core.py", "repro/sim/resources.py", "repro/lint/stallcheck.py")
        ):
            where = frame.f_code.co_name if by_function else frame.f_lineno
            return f"{short_path(filename)}:{where}"
        frame = frame.f_back
    return "<unknown>"


class StallMonitor:
    """Weak-reference registries over every kernel object a run creates.

    Installed via :meth:`activate`; every hook is a single method call
    guarded by an ``is None`` check in the kernel, so unmonitored runs
    pay one branch per site and monitored runs stay allocation-light
    (weak references only — the monitor never keeps anything alive).
    """

    def __init__(self, livelock_threshold: int = DEFAULT_LIVELOCK_THRESHOLD):
        self.livelock_threshold = livelock_threshold
        self.processes: weakref.WeakSet = weakref.WeakSet()
        self.groups: weakref.WeakSet = weakref.WeakSet()
        self.resources: weakref.WeakSet = weakref.WeakSet()
        self.stores: weakref.WeakSet = weakref.WeakSet()
        #: kernel object -> "path:line" that created it.
        self.sites: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: store -> "path:function" that created it (the pin key).
        self.store_keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: store pin key -> max observed ``len(store.items)``.
        self.high_water: dict[str, int] = {}
        self.same_instant_max = 0
        self._last_when: Optional[float] = None
        self._same_instant = 0

    # -- kernel hooks (called from sim.core / sim.resources) ---------------

    def on_process(self, process) -> None:
        self.processes.add(process)
        self.sites[process] = _creation_site()

    def on_group(self, group) -> None:
        self.groups.add(group)
        self.sites[group] = _creation_site()

    def on_resource(self, resource) -> None:
        self.resources.add(resource)
        self.sites[resource] = _creation_site()

    def on_store(self, store) -> None:
        self.stores.add(store)
        self.sites[store] = _creation_site()
        self.store_keys[store] = _creation_site(by_function=True)

    def on_store_put(self, store) -> None:
        key = self.store_keys.get(store, "<unknown>")
        depth = len(store.items)
        # Record every put site, even at depth 0 (a waiting consumer
        # drained it synchronously) — the budget then pins the site.
        if depth > self.high_water.get(key, -1):
            self.high_water[key] = depth

    def on_step(self, when: float) -> None:
        if when == self._last_when:
            self._same_instant += 1
        else:
            self._last_when = when
            self._same_instant = 1
        if self._same_instant > self.same_instant_max:
            self.same_instant_max = self._same_instant
        if self._same_instant > self.livelock_threshold:
            raise StallError(
                f"livelock: {self._same_instant} events processed at "
                f"t={when} without time advancing (threshold "
                f"{self.livelock_threshold}); a zero-delay loop is "
                "rescheduling itself"
            )

    # -- activation ---------------------------------------------------------

    def activate(self):
        """Context manager installing this monitor into the kernel."""
        return _Activation(self)

    # -- post-run inspection ------------------------------------------------

    def live_processes(self) -> list:
        return [p for p in self.processes if p.is_alive]

    def wait_graph(self) -> list[str]:
        """One line per live process: name, suspension site, waited event."""
        lines = []
        for process in sorted(self.live_processes(), key=lambda p: p.name):
            frame = getattr(process._generator, "gi_frame", None)
            if frame is not None:
                at = f"{short_path(frame.f_code.co_filename)}:{frame.f_lineno}"
            else:
                at = "<no frame>"
            waiting = self._describe_event(process._waiting_on)
            lines.append(
                f"{process.name or '<unnamed>'} "
                f"(spawned at {self.sites.get(process, '<unknown>')}) "
                f"suspended at {at}, waiting on {waiting}"
            )
        return lines

    def _describe_event(self, event) -> str:
        from repro.sim.core import Process, Timeout
        from repro.sim.resources import Request, StoreGet, StorePut

        if event is None:
            return "nothing (never resumed)"
        if isinstance(event, Request):
            res = event.resource
            return (
                f"Request on Resource@{self.sites.get(res, '<unknown>')} "
                f"(in use {res.count}/{res.capacity}, "
                f"queue {res.queue_length})"
            )
        if isinstance(event, StoreGet):
            store = event.store
            return (
                f"StoreGet on Store@{self.sites.get(store, '<unknown>')} "
                f"({len(store.items)} item(s) buffered)"
            )
        if isinstance(event, StorePut):
            store = event.store
            return (
                f"StorePut on full Store@{self.sites.get(store, '<unknown>')} "
                f"({len(store.items)}/{store.capacity})"
            )
        if isinstance(event, Process):
            return f"process {event.name!r} to finish"
        if isinstance(event, Timeout):
            return f"Timeout({event.delay}s)"
        return type(event).__name__

    def residue(self) -> list[str]:
        """Leak findings over every registry (call after teardown)."""
        findings = []
        for resource in self.resources:
            if resource.count > 0:
                findings.append(
                    f"Resource@{self.sites.get(resource, '<unknown>')} still "
                    f"holds {resource.count} granted slot(s) after teardown"
                )
            if resource.queue_length > 0:
                findings.append(
                    f"Resource@{self.sites.get(resource, '<unknown>')} still "
                    f"queues {resource.queue_length} ungranted request(s)"
                )
        for store in self.stores:
            putters = store._live_putters()
            if putters > 0:
                findings.append(
                    f"Store@{self.sites.get(store, '<unknown>')} still has "
                    f"{putters} blocked put(s) after teardown"
                )
            getters = sum(1 for g in store._getters if not g.cancelled)
            if getters > 0:
                findings.append(
                    f"Store@{self.sites.get(store, '<unknown>')} still has "
                    f"{getters} waiting getter(s) after teardown"
                )
        for group in self.groups:
            live = group.live
            if live:
                names = ", ".join(sorted(p.name for p in live))
                findings.append(
                    f"ProcessGroup@{self.sites.get(group, '<unknown>')} still "
                    f"owns {len(live)} live process(es): {names}"
                )
        return sorted(findings)


class _Activation:
    """Installs/uninstalls a monitor into both kernel modules."""

    def __init__(self, monitor: StallMonitor):
        self.monitor = monitor

    def __enter__(self) -> StallMonitor:
        from repro.sim import core, resources

        if core._STALL_MONITOR is not None:
            raise RuntimeError("a StallMonitor is already active")
        core._STALL_MONITOR = self.monitor
        resources._STALL_MONITOR = self.monitor
        return self.monitor

    def __exit__(self, *exc) -> None:
        from repro.sim import core, resources

        core._STALL_MONITOR = None
        resources._STALL_MONITOR = None


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class StallcheckResult:
    """Outcome of one monitored scenario (or toy) run."""

    scenario: str
    events: int = 0
    live: int = 0
    same_instant_max: int = 0
    cyclic_garbage: int = 0
    high_water: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    wait_lines: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        header = (
            f"stallcheck[{self.scenario}]: {self.events} events, "
            f"{len(self.high_water)} store site(s) tracked, "
            f"same-instant peak {self.same_instant_max}, "
            f"cyclic garbage: {self.cyclic_garbage} object(s)"
        )
        lines = [header]
        if self.clean:
            lines.append(
                "  OK — no deadlock, no livelock, no teardown residue, no "
                "reference cycles, all store high-water marks within budget"
            )
        else:
            lines.append(f"  STALL — {len(self.violations)} violation(s):")
            lines += [f"    {v}" for v in self.violations]
            if self.wait_lines:
                lines.append("  runtime wait graph:")
                lines += [f"    {w}" for w in self.wait_lines]
            lines.append(
                "    see DESIGN.md §6 (how to read a stallcheck report); "
                "re-pin high-water budgets with `python -m repro check "
                "stall --write-pins` only after auditing the growth"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _collect(result: StallcheckResult, monitor: StallMonitor, env) -> None:
    """Copy what the monitor observed over the run into ``result``."""
    result.events = env.events_processed
    result.live = len(monitor.live_processes())
    result.same_instant_max = monitor.same_instant_max
    result.high_water = dict(monitor.high_water)


def _collect_cyclic_garbage(result: StallcheckResult) -> None:
    """One full collector pass; anything it finds is a violation.

    ``DEBUG_SAVEALL`` parks the unreachable objects in ``gc.garbage``
    instead of freeing them, so a failing run can say what they were.
    """
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        result.cyclic_garbage = gc.collect()
        garbage = gc.garbage[:]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    if not garbage:
        return
    types = Counter(type(obj).__name__ for obj in garbage)
    codes = {
        getattr(obj, "f_code", None) or getattr(obj, "gi_code", None)
        for obj in garbage
    } - {None}
    sites = sorted(f"{short_path(c.co_filename)}:{c.co_name}" for c in codes)
    result.violations.append(
        f"cyclic garbage: {result.cyclic_garbage} object(s) unreachable when "
        "run() returned — the run must create no reference cycles ("
        + ", ".join(f"{count} {name}" for name, count in sorted(types.items()))
        + "; frames: "
        + (", ".join(sites) or "none")
        + ")"
    )


@contextlib.contextmanager
def _collector_off() -> Iterator[None]:
    """A collected heap, then no collector pass until the block exits — so
    the next ``gc.collect()`` counts only what the block made unreachable.
    Collected until a pass finds nothing: freeing one cycle can leave
    another for the next pass, which would be miscounted as the block's."""
    while gc.collect():
        pass
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def run_monitored(scenario: str, config) -> StallcheckResult:
    """Run ``config`` monitored, tear it down, report every stall."""
    from repro.errors import SimulationError
    from repro.framework.runner import _ExperimentEngine

    monitor = StallMonitor()
    result = StallcheckResult(scenario=scenario)
    with _collector_off(), monitor.activate():
        engine = _ExperimentEngine(config)
        try:
            engine.run()
        except StallError as exc:
            result.violations.append(str(exc))
        except SimulationError:
            # The heap drained under the orchestrator: a deadlock.
            result.violations.append(
                f"deadlock: event heap drained with "
                f"{len(monitor.live_processes())} process(es) still waiting"
            )
            result.wait_lines = monitor.wait_graph()
        else:
            # Before teardown: its interrupts raise exceptions whose
            # tracebacks are cyclic, and no normal run executes it.
            _collect_cyclic_garbage(result)
            engine.shutdown()
            stuck = monitor.live_processes()
            if stuck:
                result.violations.append(
                    f"teardown left {len(stuck)} process(es) alive "
                    "(shutdown interrupt did not reach them)"
                )
                result.wait_lines = monitor.wait_graph()
            result.violations += monitor.residue()
            result.violations += _subscription_residue(engine.testbed)
        _collect(result, monitor, engine.testbed.env)
    return result


def _subscription_residue(testbed) -> list[str]:
    """WebSocket subscriptions still registered after teardown."""
    findings = []
    for chain in testbed.chains:
        for host, node in sorted(chain.nodes.items()):
            count = len(node.websocket.subscriptions)
            if count:
                findings.append(
                    f"websocket {chain.chain_id}/{host} still has {count} "
                    "registered subscription(s) after teardown"
                )
    return findings


def check_toy(
    name: str,
    build: Callable,
    livelock_threshold: int = DEFAULT_LIVELOCK_THRESHOLD,
) -> StallcheckResult:
    """Run a self-contained toy under the monitor (for tests/examples).

    ``build(env)`` sets up processes on a fresh :class:`Environment`;
    the toy then runs until its heap drains.  No pin is consulted —
    toys report deadlock, livelock and residue only.
    """
    from repro.sim.core import Environment

    monitor = StallMonitor(livelock_threshold=livelock_threshold)
    result = StallcheckResult(scenario=name)
    with monitor.activate():
        env = Environment()
        build(env)
        try:
            env.run()
        except StallError as exc:
            result.violations.append(str(exc))
        else:
            stuck = monitor.live_processes()
            if stuck:
                result.violations.append(
                    f"deadlock: event heap drained with {len(stuck)} "
                    "process(es) still waiting"
                )
                result.wait_lines = monitor.wait_graph()
            result.violations += monitor.residue()
        _collect(result, monitor, env)
    return result
