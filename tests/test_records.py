"""``@record`` against plain frozen dataclasses.

Every class decorated with :func:`repro.sim.records.record` is checked
against a ``dataclass(frozen=True, slots=True)`` twin declared here from
the same fields: construction, the errors of a bad call, equality,
hashing, ``repr``, immutability, copying, pickling and the wire codec
must all be the twin's.  A guard keeps ``@record`` the only way a frozen
slotted record is declared under ``src/repro``.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
import typing
from dataclasses import FrozenInstanceError, InitVar, field, fields
from pathlib import Path

import pytest

from repro.errors import from_wire, to_wire
from repro.ibc.channel import ChannelOrder
from repro.ibc.client import ConsensusState, SignedHeader
from repro.ibc.msgs import (
    MsgAcknowledgement,
    MsgChannelOpenAck,
    MsgChannelOpenConfirm,
    MsgChannelOpenInit,
    MsgChannelOpenTry,
    MsgConnectionOpenAck,
    MsgConnectionOpenConfirm,
    MsgConnectionOpenInit,
    MsgConnectionOpenTry,
    MsgCreateClient,
    MsgRecvPacket,
    MsgTimeout,
    MsgTransfer,
    MsgUpdateClient,
)
from repro.ibc.packet import Acknowledgement, Height, Packet
from repro.ibc.transfer import ForwardRoute, FungibleTokenPacketData
from repro.relayer.logging import LogRecord
from repro.sim.network import LinkSpec
from repro.sim.records import record
from repro.tendermint.abci import AbciEvent
from repro.tendermint.merkle import (
    MembershipProof,
    NonMembershipProof,
    StoreAbsenceProof,
    StoreProof,
)
from repro.tendermint.types import (
    BlockID,
    BlockIDFlag,
    Commit,
    CommitSig,
    Evidence,
    Header,
    PartSetHeader,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _decorator_name(node: ast.expr) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else ""


def _source_classes():
    """``(module, ClassDef)`` for every class under ``src/repro``."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                yield module, node


def _record_classes() -> list[type]:
    return [
        getattr(importlib.import_module(module), node.name)
        for module, node in _source_classes()
        if any(_decorator_name(d) == "record" for d in node.decorator_list)
    ]


RECORDS = _record_classes()

_PACKET = Packet(
    sequence=7,
    source_port="transfer",
    source_channel="channel-0",
    destination_port="transfer",
    destination_channel="channel-1",
    data=b'{"amount":"1"}',
    timeout_height=Height(0, 120),
    timeout_timestamp=0.0,
)
_PROOF = MembershipProof(
    key=b"commitments/7", value_hash=b"\x01" * 32, index=2, total=5,
    aunts=(b"\x02" * 32, b"\x03" * 32),
)
_TOP = MembershipProof(
    key=b"commitments", value_hash=b"\x04" * 32, index=1, total=3,
    aunts=(b"\x05" * 32,),
)
_STORE_PROOF = StoreProof(_PROOF, _TOP)
_COMMIT = Commit(
    height=4,
    round=0,
    block_id=BlockID(hash=b"\x04" * 32, part_set_header=PartSetHeader(1, b"p")),
    signatures=(CommitSig(BlockIDFlag.COMMIT, "val-0", 20.0, b"sig"),),
)
_HEADER = SignedHeader("chain-b", 4, 20.0, b"root", b"nvh", _COMMIT)

#: One representative, fully populated instance of every record.
SAMPLES = {
    sample.__class__: sample
    for sample in (
        ConsensusState(4, b"root", 20.0, b"nvh"),
        _HEADER,
        Height(1, 42),
        _PACKET,
        Acknowledgement(success=False, result="", error="boom"),
        MsgCreateClient("chain-b", 600.0, _HEADER, "relayer"),
        MsgUpdateClient("07-tendermint-0", _HEADER, "relayer"),
        MsgConnectionOpenInit("07-tendermint-0", "07-tendermint-1", "relayer"),
        MsgConnectionOpenTry(
            "07-tendermint-0", "07-tendermint-1", "connection-1", _STORE_PROOF, 4, "r"
        ),
        MsgConnectionOpenAck("connection-0", "connection-1", _STORE_PROOF, 4, "r"),
        MsgConnectionOpenConfirm("connection-1", _STORE_PROOF, 4, "relayer"),
        MsgChannelOpenInit(
            "transfer", "connection-0", "transfer", ChannelOrder.ORDERED,
            "ics20-1", "relayer",
        ),
        MsgChannelOpenTry(
            "transfer", "connection-1", "transfer", "channel-0",
            ChannelOrder.UNORDERED, "ics20-1", _STORE_PROOF, 4, "relayer",
        ),
        MsgChannelOpenAck("transfer", "channel-0", "channel-1", _STORE_PROOF, 4, "r"),
        MsgChannelOpenConfirm("transfer", "channel-1", _STORE_PROOF, 4, "relayer"),
        MsgTransfer(
            "transfer", "channel-0", "uatom", 5, "alice", "bob",
            Height(0, 120), 90.0, "alice",
        ),
        MsgRecvPacket(_PACKET, _STORE_PROOF, 4, "relayer"),
        MsgAcknowledgement(
            _PACKET, Acknowledgement(True, "AQ=="), _STORE_PROOF, 4, "relayer"
        ),
        MsgTimeout(
            _PACKET,
            StoreAbsenceProof(
                b"receipts/7", NonMembershipProof(b"receipts/7", _PROOF, None), _TOP
            ),
            4, 3, "r",
        ),
        FungibleTokenPacketData("transfer/channel-0/uatom", 5, "alice", "bob"),
        ForwardRoute("hub-fallback", "transfer", "channel-3", "carol"),
        LinkSpec(latency=0.1, jitter=0.01),
        LogRecord(3.5, "relayer-0", "info", "recv_batch", (("count", 2),)),
        AbciEvent(
            "send_packet", (("packet_sequence", 7),), 412, _PACKET, "chain-a",
            Acknowledgement(True, "AQ=="),
        ),
        _PROOF,
        NonMembershipProof(b"receipts/8", _PROOF, None),
        _STORE_PROOF,
        StoreAbsenceProof(
            b"receipts/8", NonMembershipProof(b"receipts/8", _PROOF, None), _TOP
        ),
        PartSetHeader(1, b"p"),
        _COMMIT.block_id,
        _COMMIT.signatures[0],
        _COMMIT,
        Header(
            "chain-a", 5, 25.0, _COMMIT.block_id, b"lch", b"dh", b"vh",
            b"nvh", b"ah", b"lrh", b"eh", "val-0",
        ),
        Evidence("val-1", 3, "duplicate_vote"),
    )
}


def _twin(cls: type) -> type:
    """A plain frozen, slotted dataclass with ``cls``'s name and fields."""
    specs = []
    for spec in fields(cls):
        options = dict(
            init=spec.init, repr=spec.repr, hash=spec.hash,
            compare=spec.compare, metadata=spec.metadata,
        )
        if spec.default is not dataclasses.MISSING:
            options["default"] = spec.default
        if spec.default_factory is not dataclasses.MISSING:
            options["default_factory"] = spec.default_factory
        specs.append((spec.name, spec.type, field(**options)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, slots=True)


def _args(value) -> list:
    return [getattr(value, spec.name) for spec in fields(value) if spec.init]


def _kwargs(value) -> dict:
    return {spec.name: getattr(value, spec.name) for spec in fields(value) if spec.init}


def _error(call) -> str:
    with pytest.raises(TypeError) as caught:
        call()
    return str(caught.value)


def _spec(spec: dataclasses.Field) -> tuple:
    return (
        spec.name, spec.type, spec.default, spec.default_factory, spec.init,
        spec.repr, spec.hash, spec.compare, dict(spec.metadata), spec.kw_only,
    )


# -- every record --------------------------------------------------------------


def test_every_record_has_a_sample():
    assert len(RECORDS) == len(set(RECORDS)) >= 32
    assert set(RECORDS) == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_its_plain_dataclass_twin(cls):
    twin = _twin(cls)
    sample = SAMPLES[cls]
    args, kwargs = _args(sample), _kwargs(sample)
    mine, theirs = cls(*args), twin(*args)
    assert cls(**kwargs) == mine == sample
    assert mine is not sample and twin(**kwargs) == theirs
    assert [getattr(mine, spec.name) for spec in fields(cls)] == [
        getattr(theirs, spec.name) for spec in fields(twin)
    ]
    assert hash(mine) == hash(theirs) == hash(sample)
    assert repr(mine) == repr(theirs)
    assert [_spec(spec) for spec in fields(cls)] == [_spec(s) for s in fields(twin)]
    assert cls.__match_args__ == twin.__match_args__
    assert cls.__slots__ == twin.__slots__
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_rejects_bad_calls_like_its_twin(cls):
    twin = _twin(cls)
    args = _args(SAMPLES[cls])
    assert _error(lambda: cls()) == _error(lambda: twin())
    assert _error(lambda: cls(*args, unexpected=1)) == _error(
        lambda: twin(*args, unexpected=1)
    )
    assert _error(lambda: cls(*args, None)) == _error(lambda: twin(*args, None))
    assert _error(lambda: cls(*args, **{fields(cls)[0].name: None})) == _error(
        lambda: twin(*args, **{fields(twin)[0].name: None})
    )


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_frozen(cls):
    value = SAMPLES[cls]
    for spec in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(value, spec.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, spec.name)
    # A name that is not a field fails as it does on the twin.
    errors = []
    for target in (value, _twin(cls)(*_args(value))):
        with pytest.raises(Exception) as caught:
            target.not_a_field = 1
        errors.append(type(caught.value))
    assert errors[0] is errors[1]
    assert value == cls(*_args(value))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_copies_and_pickles(cls):
    value = SAMPLES[cls]
    for again in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(again) is cls and again == value and hash(again) == hash(value)
        assert repr(again) == repr(value)


def _has_codec(hint) -> bool:
    """The wire codec can rebuild ``hint``: every field annotation resolves
    and every union among them is tagged (each member states a ``kind``)."""
    if dataclasses.is_dataclass(hint):
        try:
            hints = typing.get_type_hints(hint)
        except NameError:  # an annotation imported only for type checkers
            return False
        return all(_has_codec(hints[spec.name]) for spec in fields(hint))
    members = [
        arg for arg in typing.get_args(hint) if arg not in (type(None), Ellipsis)
    ]
    if typing.get_origin(hint) is typing.Union and len(members) > 1:
        if not all(isinstance(getattr(m, "kind", None), str) for m in members):
            return False
    return all(_has_codec(member) for member in members)


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if _has_codec(cls)], ids=lambda c: c.__name__
)
def test_record_wire_round_trip(cls):
    value = SAMPLES[cls]
    assert from_wire(cls, to_wire(value), cls.__name__) == value


def test_wire_round_trip_covers_the_hot_records():
    # The messages that carry a proof do not qualify: a proof field is an
    # untagged union (merkle or stub).  ``AbciEvent`` names its packet
    # types for type checkers only.
    for cls in (Packet, Height, MsgTransfer, FungibleTokenPacketData, Header):
        assert _has_codec(cls), cls.__name__
    assert not _has_codec(MsgRecvPacket) and not _has_codec(AbciEvent)


# -- the generated constructor ---------------------------------------------------


def test_default_factory_is_called_once_per_instance():
    first = MsgTransfer("transfer", "channel-0", "uatom", 1, "a", "b")
    second = MsgTransfer("transfer", "channel-0", "uatom", 1, "a", "b")
    assert first.timeout_height == second.timeout_height == Height.zero()
    assert first.timeout_height is not second.timeout_height

    calls = []

    def factory():
        calls.append(None)
        return []

    @record
    class Bag:
        name: str
        items: list = field(default_factory=factory)
        seen: list = field(default_factory=list, init=False)

    one, two = Bag("one"), Bag("two")
    assert len(calls) == 2
    assert one.items == two.items == [] and one.items is not two.items
    assert one.seen == [] and one.seen is not two.seen
    given = ["x"]
    assert Bag("three", given).items is given and len(calls) == 2


def test_init_false_default_and_post_init():
    seen = []

    @record
    class Counted:
        value: int
        scale: int = 2
        memo: object = field(default=None, init=False, compare=False)
        late: object = field(init=False, compare=False, repr=False)

        def __post_init__(self):
            seen.append((self.value, self.scale, self.memo))

    assert Counted(3) == Counted(value=3, scale=2) != Counted(3, 4)
    assert seen == [(3, 2, None)] * 2 + [(3, 4, None)]
    # With no default, an init=False slot stays empty, as dataclasses leave it.
    assert not hasattr(Counted(3), "late")


def test_subclass_writes_inherited_slots():
    @record
    class Base:
        a: int

    @record
    class Child(Base):
        b: int = 0

    child = Child(1, 2)
    assert (child.a, child.b) == (1, 2) and Child(a=1) == Child(1, 0)
    assert "a" not in vars(Child) and "b" in vars(Child)


def test_packet_commitment_slot_starts_empty():
    packet = dataclasses.replace(_PACKET)
    assert packet._commitment is None
    digest = packet.commitment()
    assert packet._commitment is not None and packet._commitment[3] == digest
    for copied in (
        dataclasses.replace(packet),
        dataclasses.replace(packet, sequence=8),
        Packet(*_args(packet)),
    ):
        assert copied._commitment is None
    assert packet == dataclasses.replace(packet) and "_commitment" not in repr(packet)


def test_unsupported_declarations_fail_at_decoration():
    with pytest.raises(TypeError, match="kw_only"):

        @record
        class KeywordOnly:
            value: int = field(kw_only=True)

    with pytest.raises(TypeError, match="InitVar"):

        @record
        class WithInitVar:
            value: int
            seed: InitVar[int]

    with pytest.raises(TypeError, match="kw_only"):

        @record
        class KeywordOnlyMarker:
            value: int
            _: dataclasses.KW_ONLY
            other: int = 0

    with pytest.raises(TypeError, match="__init__"):

        @record
        class OwnInit:
            value: int

            def __init__(self, value):
                object.__setattr__(self, "value", value)


# -- the single idiom -------------------------------------------------------------


def _is_frozen_slotted_dataclass(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call) or _decorator_name(decorator) != "dataclass":
        return False
    flags = {
        keyword.arg: keyword.value.value
        for keyword in decorator.keywords
        if isinstance(keyword.value, ast.Constant)
    }
    return flags.get("frozen") is True and flags.get("slots") is True


def test_frozen_slotted_records_are_declared_with_record():
    """``@record`` is the one way to declare a frozen, slotted value type:
    a ``@dataclass(frozen=True, slots=True)`` would bring back the slow
    frozen constructor unnoticed."""
    offenders = [
        f"{module}.{node.name}"
        for module, node in _source_classes()
        if any(_is_frozen_slotted_dataclass(d) for d in node.decorator_list)
    ]
    assert offenders == []


def test_guard_recognises_the_forbidden_spellings():
    tree = ast.parse(
        "@dataclass(frozen=True, slots=True)\nclass A: pass\n"
        "@dataclasses.dataclass(slots=True, frozen=True, eq=True)\nclass B: pass\n"
        "@dataclass(frozen=True)\nclass C: pass\n"
        "@dataclass(slots=True)\nclass D: pass\n"
        "@record\nclass E: pass\n"
    )
    flagged = [
        node.name
        for node in tree.body
        if any(_is_frozen_slotted_dataclass(d) for d in node.decorator_list)
    ]
    assert flagged == ["A", "B"]
