"""The class builder against stock dataclasses.

Every class decorated with :func:`repro.sim.records.record` is checked
against a ``dataclass(frozen=True, slots=True)`` twin declared here from
the same fields: construction, the errors of a bad call, equality,
hashing, ``repr``, immutability, copying, pickling and the wire codec
must all be the twin's.  Every other class the builder makes — mutable,
frozen unslotted, ``order=True``, ``kw_only`` — is checked against a
stock twin of its own options by :mod:`tests.twins`.  Guards keep
``@record`` the only way a frozen slotted record is declared, keep
``dataclasses.dataclass`` out of ``src/repro`` outside the builder, and
count the compiles a fresh ``import repro.framework`` makes.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import json
import os
import pickle
import subprocess
import sys
import typing
from dataclasses import FrozenInstanceError, InitVar, field, fields
from pathlib import Path

import pytest

import repro
from repro.errors import from_wire, to_wire
from repro.ibc.channel import (
    ChannelCounterparty,
    ChannelEnd,
    ChannelOrder,
    ChannelState,
)
from repro.ibc.client import ConsensusState, SignedHeader
from repro.ibc.connection import (
    ConnectionCounterparty,
    ConnectionEnd,
    ConnectionState,
)
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
from repro.sim.records import dataclass, record
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
from tests.twins import (
    CHECKS,
    RECORD_OPTIONS,
    SRC,
    built_classes,
    class_id,
    signature,
    stock_twin,
)
from tests.twins import decorator_name as _decorator_name
from tests.twins import source_classes as _source_classes


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
        ConnectionEnd(
            "connection-0", ConnectionState.OPEN, "07-tendermint-0",
            ConnectionCounterparty("07-tendermint-1", "connection-1"), ("1",), 5.0,
        ),
        ChannelEnd(
            "transfer", "channel-0", ChannelState.OPEN, ChannelOrder.UNORDERED,
            ChannelCounterparty("transfer", "channel-1"), ("connection-0",),
            "ics20-1",
        ),
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
    return stock_twin(cls, RECORD_OPTIONS, [])


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
    assert signature(cls) == signature(twin)
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


def test_guard_recognises_stock_dataclass_spellings():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "from dataclasses import make_dataclass as md\n"
        "from dataclasses import field, fields\n"
        "from repro.sim.records import dataclass\n"
        "dataclasses.dataclass(frozen=True)\n"
        "dataclasses.field()\n"
    )
    assert [ast.unparse(node) for node in _stock_builders(tree)] == [
        "from dataclasses import dataclass, field",
        "from dataclasses import make_dataclass as md",
        "dataclasses.dataclass",
    ]


# -- every class the builder makes ---------------------------------------------------

BUILT = built_classes()


def test_every_builder_class_is_checked():
    classes = [cls for cls, _options, _body in BUILT]
    assert len(classes) == len(set(classes)) >= 120
    assert set(RECORDS) < set(classes)
    options = [tuple(sorted(o.items())) for _cls, o, _body in BUILT]
    # Every option combination the package declares is among them.
    assert {
        (("frozen", False), ("order", False), ("slots", False)),
        (("frozen", False), ("order", False), ("slots", True)),
        (("frozen", True), ("order", False), ("slots", False)),
        (("frozen", True), ("order", False), ("slots", True)),
        (("frozen", True), ("order", True), ("slots", False)),
    } == set(options)
    assert any(s.kw_only for cls in classes for s in fields(cls))


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
@pytest.mark.parametrize("built", BUILT, ids=lambda built: class_id(built[0]))
def test_builder_class_matches_its_stock_twin(built, check):
    check(*built)


def _stock_builders(tree: ast.AST) -> list[ast.AST]:
    """Every import or attribute that reaches ``dataclasses.dataclass`` or
    ``dataclasses.make_dataclass``."""
    stock = {"dataclass", "make_dataclass"}
    return [
        node
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "dataclasses"
            and any(alias.name in stock for alias in node.names)
        )
        or (
            isinstance(node, ast.Attribute)
            and node.attr in stock
            and isinstance(node.value, ast.Name)
            and node.value.id == "dataclasses"
        )
    ]


def test_dataclasses_dataclass_is_applied_only_by_the_builder():
    """``repro.sim.records`` is the one place under ``src/repro`` that hands
    a class to ``dataclasses.dataclass``; everywhere else declares with its
    ``dataclass`` or ``record``.  At run time, every dataclass in a
    ``repro`` module has the builder's ``__init__``."""
    builder = SRC / "repro" / "sim" / "records.py"
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path != builder
        for node in _stock_builders(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []
    declared = {cls for cls, _options, _body in BUILT}
    for name, module in sorted(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in vars(module).values():
                if (
                    isinstance(value, type)
                    and dataclasses.is_dataclass(value)
                    and value.__module__ == name
                ):
                    assert value in declared, class_id(value)
                    code = value.__init__.__code__
                    assert code.co_filename.startswith("<dataclass "), class_id(value)


_COUNT_COMPILES = """
import dataclasses, json, sys

compiles = []


def hook(event, args):
    if event == "compile" and not str(args[1]).endswith(".py"):
        caller = sys._getframe(1).f_code.co_filename
        if caller.endswith(("records.py", "dataclasses.py")):
            compiles.append(str(args[1]))


sys.addaudithook(hook)
import repro.framework

classes = {
    value
    for name, module in list(sys.modules.items())
    if name.startswith("repro")
    for value in vars(module).values()
    if isinstance(value, type)
    and dataclasses.is_dataclass(value)
    and value.__module__ == name
}
print(json.dumps({"compiles": len(compiles), "classes": len(classes)}))
"""


def test_import_compiles_one_function_per_dataclass():
    """A fresh ``import repro.framework`` compiles at most one generated
    function per dataclass: the builder's ``__init__``.  Stock
    ``dataclasses.dataclass`` made 4–5 per class (535 for 114 classes)."""
    completed = subprocess.run(
        [sys.executable, "-c", _COUNT_COMPILES],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        capture_output=True, text=True, check=True, timeout=120,
    )
    counted = json.loads(completed.stdout)
    assert counted["classes"] >= 100
    assert 0 < counted["compiles"] <= counted["classes"]


# -- dataclasses' rules, class by class ------------------------------------------------


def _both(body, **options):
    """A class declared twice from the same body (a callable making it
    afresh, field specifiers included): by the builder, and stock."""
    return (
        dataclass(**options)(type("Built", (), body())),
        dataclasses.dataclass(**options)(type("Built", (), body())),
    )


@pytest.mark.parametrize("frozen", [False, True])
def test_hash_follows_dataclasses_rules(frozen):
    def eq_only(self, other):
        return NotImplemented

    for extra in ({}, {"__hash__": lambda self: 7}, {"__eq__": eq_only, "__hash__": None}):
        mine, theirs = _both(lambda: {"__annotations__": {"a": int}, **extra}, frozen=frozen)
        assert (mine.__hash__ is None) is (theirs.__hash__ is None)
        if theirs.__hash__ is not None:
            assert hash(mine(1)) == hash(theirs(1))
        assert (mine.__eq__ is eq_only) is (theirs.__eq__ is eq_only)


def test_declaration_errors_match_dataclasses():
    def lt(self, other):
        return True

    cases = [
        ({"__annotations__": {"a": int}, "__lt__": lt}, {"order": True}),
        ({"__annotations__": {"a": int}, "__setattr__": lt}, {"frozen": True}),
        ({"__annotations__": {"a": int, "b": int}, "a": 0}, {}),
    ]
    for body, options in cases:
        errors = []
        for decorate in (dataclass(**options), dataclasses.dataclass(**options)):
            with pytest.raises(TypeError) as caught:
                decorate(type("Bad", (), {**body, "__annotations__": dict(body["__annotations__"])}))
            errors.append(str(caught.value))
        assert errors[0] == errors[1]


def test_field_named_self_and_keyword_only_fields():
    def body():
        return {
            "__annotations__": {"self": int, "tag": str, "size": int},
            "tag": field(default="t", kw_only=True),
        }

    mine, theirs = _both(body, frozen=True)
    assert signature(mine) == signature(theirs)
    assert mine(1, 2, tag="u") == mine(self=1, size=2, tag="u")
    assert repr(mine(1, 2)) == repr(theirs(1, 2))
    with pytest.raises(TypeError, match="positional"):
        mine(1, 2, "u")


@pytest.mark.parametrize(
    "options",
    [{}, {"slots": True}, {"frozen": True}, {"frozen": True, "slots": True}],
    ids=lambda options: "-".join(options) or "mutable",
)
def test_init_writes_defaults_factories_and_post_init(options):
    seen = []

    def post_init(self):
        seen.append(self.a)

    def body():
        return {
            "__annotations__": {"a": int, "b": list, "c": int, "d": list},
            "b": field(default_factory=list),
            "c": field(default=5, init=False),
            "d": field(default_factory=lambda: ["d"], init=False),
            "__post_init__": post_init,
        }

    mine, theirs = _both(body, **options)
    one, two = mine(1), theirs(1)
    assert (one.a, one.b, one.c, one.d) == (two.a, two.b, two.c, two.d) == (1, [], 5, ["d"])
    assert one.b is not mine(1).b and one.d is not mine(1).d
    assert seen == [1, 1, 1, 1]
    given = ["x"]
    assert mine(2, given).b is given
