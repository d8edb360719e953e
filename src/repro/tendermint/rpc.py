"""The Tendermint RPC server — the paper's main bottleneck — and its client.

The server processes queries through a :class:`Resource` with
``calibration.rpc_workers`` slots (1 by default: *"Tendermint is unable to
process queries in parallel, requiring the relayer to wait while its
requests for data are processed one by one"*).  Service times are
response-size dependent; in particular the packet-data pull scans the whole
height's indexed events, which is what makes Fig. 12's pulls consume 69 %
of a large batch's processing time.

Clients time out (``failed tx: no confirmation``-style) if the response does
not arrive in ``rpc_client_timeout_seconds``; the server still performs the
work — wasted effort that produces the congestion collapse of Table I at
very high input rates.  When the queue exceeds ``rpc_max_queue`` new
requests are shed immediately.
"""

from __future__ import annotations

import hashlib
import itertools
import zlib
from collections import OrderedDict
from dataclasses import field
from typing import Any, Callable, Generator, Optional

from repro import calibration as cal
from repro.errors import (
    NodeUnavailableError,
    RpcError,
    RpcOverloadedError,
    RpcTimeoutError,
    SimulationError,
)
from repro.sim.core import Environment, Event, ProcessGroup
from repro.sim.network import Network
from repro.sim.records import dataclass
from repro.sim.resources import Resource
from repro.sim.rng import KeyedStream
from repro.trace import NULL_TRACER

_REQUEST_IDS = itertools.count()


def _client_salt(client_id: str) -> int:
    """Stable per-client salt for keyed draws (hash() is randomized)."""
    return zlib.crc32(client_id.encode()) if client_id else 0


@dataclass
class RpcRequest:
    request_id: int
    method: str
    params: dict[str, Any]
    reply_host: str
    response: Event
    enqueued_at: float
    client_id: str = ""
    abandoned: bool = False


@dataclass
class RpcStats:
    """Aggregate server-side accounting (used by the analysis module)."""

    served: int = 0
    shed: int = 0
    #: Requests refused because the node was crashed (fault injection).
    refused: int = 0
    #: Requests silently dropped by an RPC brown-out (fault injection).
    dropped: int = 0
    busy_seconds: float = 0.0
    by_method: dict[str, int] = field(default_factory=dict)
    busy_by_method: dict[str, float] = field(default_factory=dict)

    def record(self, method: str, service: float) -> None:
        self.served += 1
        self.busy_seconds += service
        self.by_method[method] = self.by_method.get(method, 0) + 1
        self.busy_by_method[method] = (
            self.busy_by_method.get(method, 0.0) + service
        )


class RpcServer:
    """One full node's RPC endpoint.

    ``handlers`` maps a method name to a callable
    ``(params) -> (service_seconds, result_fn)`` where ``result_fn`` runs
    after the service time elapses (so results reflect state at completion).
    The node (:mod:`repro.tendermint.node`) registers the actual handlers.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        host: str,
        calibration: Optional[cal.Calibration] = None,
        tracer=NULL_TRACER,
    ):
        self.env = env
        self.network = network
        self.host = host
        self.cal = calibration or cal.DEFAULT_CALIBRATION
        self.tracer = tracer
        #: Trace track label; the owning node prefixes its chain id.
        self.trace_track = f"{host}/rpc"
        self.resource = Resource(env, capacity=self.cal.rpc_workers)
        self.handlers: dict[
            str, Callable[[dict[str, Any]], tuple[float, Callable[[], Any]]]
        ] = {}
        self.stats = RpcStats()
        self._outstanding = 0
        # Connection-pressure tracking: distinct clients seen recently.
        # See Calibration.rpc_overload_* for the Table I derivation.  Kept
        # in last-seen order (``env.now`` never decreases), so the stale
        # entries are always at the front.
        self._client_last_seen: OrderedDict[str, float] = OrderedDict()
        # Shed decisions are keyed draws (pure function of time + client):
        # submit() runs in callback context, so a sequential stream would
        # hand out draws in event-heap tie order when two clients hit the
        # server at the same instant — a scheduling race.
        seed = int.from_bytes(hashlib.sha256(host.encode()).digest()[:4], "big")
        self._shed_rng = KeyedStream(seed)
        # Fault-injection state (driven by repro.faults.FaultInjector).
        self.crashed = False
        self._brownout_until = 0.0
        self._brownout_probability = 0.0
        self._brownout_rng: Optional[KeyedStream] = None
        #: In-flight serve processes; the group prunes finished ones so a
        #: crash fault can interrupt exactly the live requests.
        self.processes = ProcessGroup(env)

    # -- fault injection ------------------------------------------------------

    def set_crashed(self, crashed: bool) -> None:
        """Mark the node down (up).  While down, every request is refused
        with :class:`NodeUnavailableError` — the TCP connection-refused of
        a crashed full node, not a slow one."""
        self.crashed = crashed

    def set_brownout(
        self, probability: float, until: float, rng: KeyedStream
    ) -> None:
        """Until sim time ``until``, silently drop each incoming request
        with ``probability``.  Dropped requests never get a response, so
        the client's own deadline raises a genuine :class:`RpcTimeoutError`
        with realistic timing.  ``rng`` must be a dedicated keyed stream
        so the drop decisions are a pure function of (arrival time,
        client) rather than of request arrival *order*."""
        self._brownout_probability = probability
        self._brownout_until = until
        self._brownout_rng = rng

    def _brownout_drops(self, request: "RpcRequest") -> bool:
        if (
            self._brownout_rng is None
            or self._brownout_probability <= 0.0
            or self.env.now >= self._brownout_until
        ):
            return False
        salt = _client_salt(request.client_id)
        return self._brownout_rng.u01(self.env.now, salt) < self._brownout_probability

    # -- connection-pressure overload -----------------------------------------

    def active_clients(self) -> int:
        cutoff = self.env.now - self.cal.rpc_client_activity_window
        seen = self._client_last_seen
        while seen:
            client = next(iter(seen))
            if seen[client] >= cutoff:
                break
            del seen[client]
        return len(seen)

    def _shed_probability(self) -> float:
        threshold = self.cal.rpc_overload_client_threshold
        active = self.active_clients()
        if active <= threshold:
            return 0.0
        pressure = (active - threshold) / (self.cal.rpc_overload_scale * threshold)
        return min(self.cal.rpc_overload_max_shed, pressure)

    def register(
        self,
        method: str,
        handler: Callable[[dict[str, Any]], tuple[float, Callable[[], Any]]],
    ) -> None:
        if method in self.handlers:
            raise SimulationError(f"duplicate RPC handler {method!r}")
        self.handlers[method] = handler

    def submit(self, request: RpcRequest) -> None:
        """Accept (or shed) a request that just arrived over the network."""
        if self.crashed:
            self.stats.refused += 1
            self._respond(request, error=NodeUnavailableError(
                f"connection refused: node {self.host} is down"
            ))
            return
        if self._brownout_drops(request):
            # Brown-out: the request vanishes; the client times out.
            self.stats.dropped += 1
            return
        if request.client_id:
            seen = self._client_last_seen
            seen[request.client_id] = self.env.now
            seen.move_to_end(request.client_id)
        if self._outstanding >= self.cal.rpc_max_queue:
            self.stats.shed += 1
            self._respond(request, error=RpcOverloadedError(
                f"rpc queue full ({self._outstanding} outstanding)"
            ))
            return
        shed_p = self._shed_probability()
        if shed_p > 0.0 and self._shed_rng.u01(
            self.env.now, _client_salt(request.client_id)
        ) < shed_p:
            # Connection-table pressure: the node refuses the connection.
            self.stats.shed += 1
            self._respond(request, error=RpcOverloadedError(
                f"connection refused ({self.active_clients()} active clients)"
            ))
            return
        self._outstanding += 1
        self.processes.spawn(self._serve(request), name=f"rpc/{self.host}")

    def _serve(self, request: RpcRequest):
        handler = self.handlers.get(request.method)
        arrived = self.env.now
        slot = self.resource.request()
        yield slot
        granted = self.env.now
        try:
            if handler is None:
                self._respond(
                    request, error=RpcError(f"unknown method {request.method!r}")
                )
                return
            try:
                service, result_fn = handler(request.params)
            except RpcError as exc:
                self._respond(request, error=exc)
                return
            yield self.env.timeout(service)
            self.stats.record(request.method, service)
            self.tracer.record_span(
                f"rpc/{request.method}",
                self.trace_track,
                start=arrived,
                wait=granted - arrived,
                service=service,
                client=request.client_id,
            )
            try:
                result = result_fn()
            except RpcError as exc:
                self._respond(request, error=exc)
                return
            self._respond(request, result=result)
        finally:
            self.resource.release(slot)
            self._outstanding -= 1

    def _respond(
        self,
        request: RpcRequest,
        result: Any = None,
        error: Optional[Exception] = None,
    ) -> None:
        if request.abandoned:
            return  # client already timed out; response dropped
        delay = self.network.delay(self.host, request.reply_host)

        def deliver() -> None:
            if request.abandoned or request.response.triggered:
                return
            if error is not None:
                request.response.fail(error)
            else:
                request.response.succeed(result)

        self.env.schedule_callback(delay, deliver)


class RpcClient:
    """A client bound to one server, with per-request timeout handling."""

    __slots__ = (
        "env",
        "network",
        "host",
        "server",
        "timeout",
        "client_id",
        "calls",
        "timeouts",
        "errors",
    )

    def __init__(
        self,
        env: Environment,
        network: Network,
        host: str,
        server: RpcServer,
        timeout: Optional[float] = None,
        client_id: str = "",
    ):
        self.env = env
        self.network = network
        self.host = host
        self.server = server
        self.timeout = (
            timeout
            if timeout is not None
            else server.cal.rpc_client_timeout_seconds
        )
        #: Distinct identity for connection-pressure accounting; every CLI
        #: account and relayer endpoint is its own client process.
        self.client_id = client_id or f"client-{next(_REQUEST_IDS)}"
        #: Client-side accounting.
        self.calls = 0
        self.timeouts = 0
        self.errors = 0

    def call(self, method: str, **params: Any) -> Generator[Event, Any, Any]:
        """Issue a request; yield-from this inside a process.

        Returns the result, or raises :class:`RpcTimeoutError` /
        :class:`RpcOverloadedError` / :class:`RpcError`.
        """
        self.calls += 1
        response = self.env.event()
        request = RpcRequest(
            request_id=next(_REQUEST_IDS),
            method=method,
            params=params,
            reply_host=self.host,
            response=response,
            enqueued_at=self.env.now,
            client_id=self.client_id,
        )
        send_delay = self.network.delay(self.host, self.server.host)
        self.env.schedule_callback(send_delay, lambda: self.server.submit(request))

        deadline = self.env.timeout(self.timeout)
        outcome = self.env.any_of([response, deadline])
        try:
            yield outcome
        except RpcError:
            self.errors += 1
            # The raised error's traceback keeps this frame alive, and these
            # locals hold the error as their event value: drop them, or every
            # failed call is a reference cycle pinning its whole caller chain.
            del response, request, outcome, deadline
            raise
        if response.triggered:
            if not response.ok:
                self.errors += 1
                try:
                    raise response.value
                finally:
                    del response, request, outcome, deadline
            return response.value
        # Timed out: abandon; the server may still burn time on it.
        request.abandoned = True
        self.timeouts += 1
        raise RpcTimeoutError(
            f"rpc {method} to {self.server.host} timed out after {self.timeout}s"
        )
