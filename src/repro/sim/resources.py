"""Queued resources and stores for the simulation kernel.

:class:`Resource` models a server with fixed concurrency and a FIFO queue —
this is exactly how we model Tendermint's *serial* RPC endpoint (capacity 1),
the mechanism behind the paper's main bottleneck finding.

:class:`Store` models an unbounded or bounded FIFO of items — used for
WebSocket subscription queues and the relayer workers' task queues.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from repro.errors import SimulationError
from repro.sim.core import Environment, Event

#: Set by :mod:`repro.lint.stallcheck` while a monitored run is active;
#: resource/store hot paths take one ``is None`` branch each otherwise.
_STALL_MONITOR = None


class _EmptyType:
    """Sentinel type for :data:`EMPTY` (a falsy singleton)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "EMPTY"

    def __bool__(self) -> bool:
        return False


#: Returned by :meth:`Store.try_get` when the store holds no items.
#: Unlike ``None`` it cannot collide with a stored item, so
#: ``store.try_get() is not EMPTY`` is always a safe emptiness test.
EMPTY = _EmptyType()


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw the request; frees the slot if it was already granted."""
        if self.triggered and not self.cancelled:
            # Slot already granted: give it back.
            self.resource.release(self)
        elif not self.cancelled:
            # Still queued: the live count drops now; the deque entry
            # is skipped lazily at the next dispatch.
            self.resource._live_queued -= 1
        super().cancel()


class Resource:
    """A server with ``capacity`` concurrent slots and a FIFO wait queue.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            resource.release(req)
    """

    __slots__ = (
        "env", "capacity", "_users", "_queue", "_live_queued", "grants",
        "__weakref__",
    )

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._queue: Deque[Request] = deque()
        # Live (non-cancelled) entries in _queue, maintained so the
        # monitor-sampled queue_length probe is O(1) instead of a scan.
        self._live_queued = 0
        #: Total number of requests ever granted (for utilisation probes).
        self.grants = 0
        monitor = _STALL_MONITOR
        if monitor is not None:
            monitor.on_resource(self)

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return self._live_queued

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            self._grant(req)
        else:
            self._queue.append(req)
            self._live_queued += 1
        return req

    def release(self, request: Request) -> None:
        """Return a slot and wake the next queued request, if any."""
        self._users.discard(request)
        self._dispatch()

    def _grant(self, req: Request) -> None:
        self._users.add(req)
        self.grants += 1
        req.succeed(self)

    def _dispatch(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            req = self._queue.popleft()
            if req.cancelled:
                continue  # already uncounted by Request.cancel
            self._live_queued -= 1
            self._grant(req)

    def serve(self, service_time: float) -> Generator[Event, Any, None]:
        """Convenience process body: queue, hold a slot for ``service_time``.

        Yield from this inside another process::

            yield from resource.serve(0.005)
        """
        req = self.request()
        yield req
        try:
            yield self.env.timeout(service_time)
        finally:
            self.release(req)


class StorePut(Event):
    """A pending insertion into a :class:`Store`."""

    __slots__ = ("item", "store")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        self.store = store

    def cancel(self) -> None:
        if not self.triggered and not self.cancelled:
            self.store._live_put_count -= 1
        super().cancel()


class StoreGet(Event):
    """A pending removal from a :class:`Store`."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self.store = store


class Store:
    """A FIFO buffer of items with optional capacity.

    ``put`` blocks when the store is full; ``get`` blocks when it is empty.
    """

    __slots__ = (
        "env", "capacity", "items", "_putters", "_getters", "_live_put_count",
        "__weakref__",
    )

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError(f"store capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()
        # Live (non-cancelled) entries in _putters; keeps try_put O(1).
        self._live_put_count = 0
        monitor = _STALL_MONITOR
        if monitor is not None:
            monitor.on_store(self)

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        event = StorePut(self, item)
        self._putters.append(event)
        self._live_put_count += 1
        self._dispatch()
        monitor = _STALL_MONITOR
        if monitor is not None:
            monitor.on_store_put(self)
        return event

    def get(self) -> StoreGet:
        event = StoreGet(self)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if len(self.items) + self._live_putters() >= self.capacity:
            return False
        self.put(item)
        return True

    def try_get(self) -> Any:
        """Non-blocking get; returns :data:`EMPTY` when the store is empty.

        The sentinel — not ``None`` — keeps a stored ``None`` item
        distinguishable from emptiness; test with ``is EMPTY``.
        """
        if not self.items:
            return EMPTY
        event = self.get()
        # With items available the get triggers synchronously.
        return event.value

    def _live_putters(self) -> int:
        return self._live_put_count

    def _dispatch(self) -> None:
        items = self.items
        putters = self._putters
        getters = self._getters
        progressed = True
        while progressed:
            progressed = False
            # Admit queued putters while there is capacity.
            while putters and len(items) < self.capacity:
                putter = putters.popleft()
                if putter.cancelled:
                    continue  # already uncounted by StorePut.cancel
                self._live_put_count -= 1
                items.append(putter.item)
                putter.succeed()
                progressed = True
            # Satisfy queued getters while there are items.
            while getters and items:
                getter = getters.popleft()
                if getter.cancelled:
                    continue
                getter.succeed(items.popleft())
                progressed = True
