"""Exception hierarchy shared by every subsystem of the reproduction.

The hierarchy mirrors where failures originate in the real stack:

* :class:`SimulationError` — misuse of the discrete-event kernel.
* :class:`ChainError` — failures raised by a blockchain node (consensus,
  mempool, ABCI application).  These carry an ``code`` so the relayer can
  pattern-match on them the way Hermes matches on ABCI error codes.
* :class:`RpcError` — failures of the Tendermint RPC / WebSocket layer
  (timeouts, oversized frames).  These are *transport* failures: the
  underlying transaction may still succeed on chain.
* :class:`IbcError` — violations of the IBC protocol state machines.
* :class:`RelayerError` — failures internal to the relayer application.

Keeping one module for all of them lets tests assert on precise failure
classes without import cycles between subsystems.

The same reasoning puts the wire codec here, under "Wire format" below:
:func:`to_wire` / :func:`from_wire` are the one writer and reader of
every serialized config and report shape, every loader already imports
this module for :class:`SchemaError`, and it depends on nothing but the
standard library.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, fields, is_dataclass
from functools import partial
from typing import Any, Optional, Union, get_args, get_origin, get_type_hints


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel."""


class StopSimulation(Exception):  # noqa: N818 - control-flow signal, not error
    """Internal signal used to stop :meth:`Environment.run` early."""


# ---------------------------------------------------------------------------
# Blockchain node
# ---------------------------------------------------------------------------


class ChainError(ReproError):
    """An error returned by a blockchain node while handling a transaction.

    ``code`` follows the Cosmos SDK convention of small integer ABCI error
    codes; ``codespace`` names the module that raised it.
    """

    def __init__(self, message: str, *, code: int = 1, codespace: str = "sdk"):
        super().__init__(message)
        self.code = code
        self.codespace = codespace


class SequenceMismatchError(ChainError):
    """``account sequence mismatch`` — the paper's §V deployment challenge.

    Raised by the ante handler when a transaction's sequence number does not
    match the account's on-chain sequence (e.g. a second transaction from the
    same account submitted before the first confirmed).
    """

    def __init__(self, expected: int, got: int, account: str):
        super().__init__(
            f"account sequence mismatch, expected {expected}, got {got}: "
            f"incorrect account sequence (account {account})",
            code=32,
            codespace="sdk",
        )
        self.expected = expected
        self.got = got
        self.account = account


class OutOfGasError(ChainError):
    """Transaction exceeded its gas limit during execution."""

    def __init__(self, limit: int, used: int):
        super().__init__(
            f"out of gas: limit {limit}, used {used}", code=11, codespace="sdk"
        )
        self.limit = limit
        self.used = used


class InsufficientFundsError(ChainError):
    """Bank transfer with an insufficient spendable balance."""

    def __init__(self, message: str):
        super().__init__(message, code=5, codespace="sdk")


class MempoolFullError(ChainError):
    """The node's mempool is at capacity; the transaction was dropped."""

    def __init__(self) -> None:
        super().__init__("mempool is full", code=20, codespace="sdk")


class TxInMempoolError(ChainError):
    """A transaction with the same hash is already pending."""

    def __init__(self) -> None:
        super().__init__("tx already exists in cache", code=19, codespace="sdk")


# ---------------------------------------------------------------------------
# RPC / WebSocket transport
# ---------------------------------------------------------------------------


class RpcError(ReproError):
    """Transport-level failure when talking to a node's RPC server."""


class RpcTimeoutError(RpcError):
    """The client gave up waiting for the (serial) RPC server.

    Hermes surfaces this as ``failed tx: no confirmation`` when it happens
    during confirmation polling.
    """


class RpcOverloadedError(RpcError):
    """The RPC server shed the request because its queue is saturated."""


class NodeUnavailableError(RpcError):
    """The full node refused the connection because it is down.

    Raised when a fault-injected node crash (``repro.faults``) makes the
    RPC/WebSocket endpoints refuse new connections.  Transient: the node
    comes back after the crash window, so retry-with-backoff recovers.
    """


class WebSocketFrameTooLargeError(RpcError):
    """Event payload exceeded the Tendermint WebSocket 16 MB frame limit.

    Hermes logs this as ``Failed to collect events`` (paper §V); the
    subscription that hit it stops yielding events.
    """

    def __init__(self, size: int, limit: int):
        super().__init__(
            f"websocket frame of {size} bytes exceeds the {limit} byte limit"
        )
        self.size = size
        self.limit = limit


# ---------------------------------------------------------------------------
# IBC protocol
# ---------------------------------------------------------------------------


class IbcError(ReproError):
    """Violation of an IBC protocol state machine."""


class ClientError(IbcError):
    """ICS-02 light-client failure (unknown client, stale header, ...)."""


class ConnectionError_(IbcError):
    """ICS-03 connection handshake failure.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`ConnectionError`.
    """


class ChannelError(IbcError):
    """ICS-04 channel handshake or ordering failure."""


class PacketError(IbcError):
    """Packet-level failure: bad commitment, wrong sequence, bad proof."""


class RedundantPacketError(PacketError):
    """``packet messages are redundant`` — the packet was already relayed.

    This is the error the paper observes 23 020 times at 100 RPS when two
    uncoordinated relayers race to deliver the same packets (§IV-A).
    """

    def __init__(self, description: str):
        super().__init__(f"packet messages are redundant: {description}")


class PacketTimeoutError(PacketError):
    """Packet received after its timeout height/timestamp elapsed."""


class ProofVerificationError(IbcError):
    """A merkle proof failed to verify against the light client's root."""


# ---------------------------------------------------------------------------
# Relayer application
# ---------------------------------------------------------------------------


class RelayerError(ReproError):
    """Internal failure of the relayer application."""


class WorkloadError(ReproError):
    """The benchmark workload was configured inconsistently."""


# ---------------------------------------------------------------------------
# Wire format (serialized experiment configs and reports)
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """A serialized experiment artifact violates its wire schema.

    Raised by the ``from_dict``/``from_json`` loaders — the only error
    they raise — when a document carries unknown keys, misses required
    ones, holds a value of the wrong type, declares a schema version this
    library does not speak, or describes something its class refuses to
    be constructed as (the :class:`WorkloadError` a negative rate raises
    in code reaches a *loader's* caller wrapped in a ``SchemaError`` that
    names where in the document the value sits).
    """


# Every document class — the config tree and each report section — is a
# dataclass whose fields, in declaration order, ARE its wire shape; the two
# functions below are the only reader and writer.  Field metadata states
# the few places where wire and attribute differ: ``wire`` is the key the
# field travels under (None keeps the field host-side, never serialized);
# ``derived`` names a property dumped right after the field, which a loaded
# document must carry with exactly the value recomputed from the loaded
# fields.  A ``Union`` of dataclasses is a tagged union: each member states
# its tag once, as a ``kind`` class attribute, which is dumped first and
# selects the class on load.


def _union_tag(cls: type) -> Optional[str]:
    kind = getattr(cls, "kind", None)
    return kind if isinstance(kind, str) else None


def to_wire(value: Any) -> Any:
    """JSON form of a document value — a fresh copy, safe to mutate."""
    if is_dataclass(value):
        wire: dict[str, Any] = {}
        kind = _union_tag(type(value))
        if kind is not None:
            wire["kind"] = kind
        for spec in fields(value):
            key = spec.metadata.get("wire", spec.name)
            if key is None:
                continue
            wire[key] = to_wire(getattr(value, spec.name))
            derived = spec.metadata.get("derived")
            if derived is not None:
                wire[derived] = getattr(value, derived)
        return wire
    if isinstance(value, (list, tuple)):
        return [to_wire(item) for item in value]
    if isinstance(value, dict):
        return {key: to_wire(item) for key, item in value.items()}
    return value


def _mismatch(where: str, expected: Any, value: Any) -> SchemaError:
    return SchemaError(f"{where} must be {expected}, got {type(value).__name__}")


def from_wire(
    hint: Any, value: Any, where: str, *, defaults: bool = False
) -> Any:
    """Rebuild a value of annotation ``hint`` from its JSON form.

    The inverse of :func:`to_wire`, and the loaders' one validator: a
    dataclass hint demands exactly its wire keys, containers and scalars
    demand their annotated types (JSON arrays stand in for tuples, ints
    are accepted where a float is annotated).  With ``defaults`` — the
    config tree's rule, chosen by its ``from_dict``s — a key may be absent
    when its field has a default; report sections require every key.
    Anything else, including a :class:`ReproError` from the class's own
    ``__post_init__``, raises :class:`SchemaError` naming ``where`` the
    document went wrong.
    """
    if hint is Any:
        return value
    origin, args = get_origin(hint), get_args(hint)
    if origin is None and not is_dataclass(hint):  # a scalar
        # An int may stand in for a float it can be converted to.
        int_for_float = (
            hint is float
            and type(value) is int
            and abs(value) <= sys.float_info.max
        )
        if type(value) is hint or int_for_float:
            return value
        raise _mismatch(where, hint.__name__, value)
    load = partial(from_wire, defaults=defaults)
    if origin is Union:
        if value is None and type(None) in args:
            return None
        members = [arg for arg in args if arg is not type(None)]
        if len(members) == 1:  # Optional[X]
            return load(members[0], value, where)
        if not isinstance(value, dict):
            raise _mismatch(where, "a dict", value)
        tags = {_union_tag(member): member for member in members}
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in tags:
            raise SchemaError(
                f"{where} has unknown kind {kind!r} "
                f"(known kinds: {', '.join(tags)})"
            )
        return load(tags[kind], value, where)
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise _mismatch(where, "a dict", value)
        hints = get_type_hints(hint)
        attributes = {}  # wire key -> field
        # Keys restating what the loaded fields already determine.
        restated = [] if _union_tag(hint) is None else ["kind"]
        for spec in fields(hint):
            key = spec.metadata.get("wire", spec.name)
            if key is not None:
                attributes[key] = spec
            if "derived" in spec.metadata:
                restated.append(spec.metadata["derived"])
        known = [*attributes, *restated]
        unknown = sorted(set(value) - set(known))
        if unknown:
            raise SchemaError(
                f"unknown key(s) {', '.join(unknown)} in {where} "
                f"(known keys: {', '.join(known)})"
            )
        required = known
        if defaults:
            required = [
                key
                for key, spec in attributes.items()
                if spec.default is MISSING and spec.default_factory is MISSING
            ]
        missing = sorted(set(required) - set(value))
        if missing:
            raise SchemaError(
                f"{where} is missing key(s): {', '.join(missing)}"
            )
        loaded = {
            spec.name: load(hints[spec.name], value[key], f"{where}.{key}")
            for key, spec in attributes.items()
            if key in value
        }
        try:
            built = hint(**loaded)
        except ReproError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        for name in restated:
            if name in value and value[name] != getattr(built, name):
                raise SchemaError(
                    f"{where}.{name} is {value[name]!r}, but the section's "
                    f"own fields give {getattr(built, name)!r}"
                )
        return built
    if origin is list and isinstance(value, list):
        return [
            load(args[0], item, f"{where}[{i}]") for i, item in enumerate(value)
        ]
    if origin is tuple and isinstance(value, (list, tuple)):
        if args[1:] == (Ellipsis,):  # variadic: tuple[X, ...]
            args = args[:1] * len(value)
        if len(args) == len(value):
            return tuple(
                load(arg, item, f"{where}[{i}]")
                for i, (arg, item) in enumerate(zip(args, value))
            )
    if origin is dict and isinstance(value, dict):
        return {
            load(args[0], key, f"{where} key"): load(
                args[1], item, f"{where}.{key}"
            )
            for key, item in value.items()
        }
    raise _mismatch(where, hint, value)
