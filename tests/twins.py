"""Every class the class builder makes, against a stock dataclass twin.

:mod:`repro.sim.records` builds each dataclass under ``src/repro`` with
one compiled ``__init__`` and closure methods.  For every such class,
this module declares a *twin* with ``dataclasses.make_dataclass``, from
the same fields, decorator options and class body, and checks that both
behave alike: construction, ``==``, ``hash`` (or unhashability),
``repr``, ordering, the frozen guards on assignment and deletion,
``fields()``, ``dataclasses.replace``, ``copy.copy`` and a pickle round
trip.

It uses no pytest and no private ``dataclasses`` name, so the same
checks run on any supported interpreter::

    PYTHONPATH=src python -m tests.twins

``tests/test_records.py`` runs them per class in the tier-1 suite.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import inspect
import operator
import pickle
import re
from pathlib import Path
from typing import Any, Callable

import repro
from repro.cosmos.tx import MsgSend
from repro.framework.config import ExperimentConfig

SRC = Path(repro.__file__).resolve().parents[1]

#: The options ``@record`` stands for.
RECORD_OPTIONS = {"frozen": True, "slots": True, "order": False}


def decorator_name(node: ast.expr) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else ""


def source_classes():
    """``(module, ClassDef)`` for every class under ``src/repro``."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                yield module, node


def _options(decorator: ast.expr) -> dict[str, bool]:
    if decorator_name(decorator) == "record":
        return dict(RECORD_OPTIONS)
    options = {"frozen": False, "slots": False, "order": False}
    for keyword in getattr(decorator, "keywords", ()):
        options[keyword.arg] = keyword.value.value
    return options


def _body_names(node: ast.ClassDef) -> list[str]:
    """What the class body defines besides its fields: methods, plain
    class attributes and the docstring."""
    names = []
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(item.name)
        elif isinstance(item, ast.Assign):
            names += [t.id for t in item.targets if isinstance(t, ast.Name)]
    if ast.get_docstring(node) is not None:
        names.append("__doc__")
    return names


def built_classes() -> list[tuple[type, dict[str, bool], list[str]]]:
    """``(class, decorator options, body names)`` for every class under
    ``src/repro`` declared with ``@dataclass`` or ``@record``."""
    built = []
    for module, node in source_classes():
        for decorator in node.decorator_list:
            if decorator_name(decorator) in ("dataclass", "record"):
                cls = getattr(importlib.import_module(module), node.name)
                built.append((cls, _options(decorator), _body_names(node)))
    return built


def class_id(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def stock_twin(cls: type, options: dict[str, bool], body: list[str]) -> type:
    """A stock dataclass with ``cls``'s name, fields, options and body."""
    specs = []
    for spec in dataclasses.fields(cls):
        settings = dict(
            init=spec.init, repr=spec.repr, hash=spec.hash, compare=spec.compare,
            metadata=spec.metadata, kw_only=spec.kw_only,
        )
        if spec.default is not dataclasses.MISSING:
            settings["default"] = spec.default
        if spec.default_factory is not dataclasses.MISSING:
            settings["default_factory"] = spec.default_factory
        specs.append((spec.name, spec.type, dataclasses.field(**settings)))
    namespace = {name: vars(cls)[name] for name in body if name in vars(cls)}
    twin = dataclasses.make_dataclass(
        cls.__name__,
        specs,
        bases=tuple(b for b in cls.__bases__ if not dataclasses.is_dataclass(b)),
        namespace=namespace,
        **options,
    )
    twin.__qualname__ = cls.__qualname__
    return twin


# -- samples ---------------------------------------------------------------------

#: A value for each annotation the required fields use, and a second,
#: different one for building an unequal instance.
_PLACEHOLDERS = {
    "int": (3, 4), "float": (2.5, 3.5), "str": ("s", "t"),
    "bytes": (b"b", b"c"), "bool": (True, False),
}
_CONTAINERS = {"tuple": (), "list": [], "dict": {}, "set": set(), "frozenset": frozenset()}

#: Keyword arguments for the classes whose ``__post_init__`` refuses
#: placeholders.
_KWARGS: dict[str, Callable[[], dict[str, Any]]] = {
    "repro.cosmos.tx.Tx": lambda: dict(
        msgs=[MsgSend("alice", "bob", "uatom", 5)], signer_address="alice",
        public_key=None, sequence=0, gas_limit=100_000, fee=0.0, signature=b"sig",
    ),
    "repro.framework.topology.TopologySpec": lambda: dict(
        chain_ids=("ibc-0", "ibc-1", "ibc-2"), edges=((0, 1), (1, 2)),
        routes=((0, 1, 2),), name="line",
    ),
    "repro.framework.setup.Testbed": lambda: dict(
        config=ExperimentConfig(input_rate=20, measurement_blocks=2)
    ),
}


def _placeholder(annotation: Any, which: int) -> Any:
    text = str(annotation)
    if text.startswith("Optional[") or text.endswith("| None") or text == "None":
        return None
    if text in _PLACEHOLDERS:
        return _PLACEHOLDERS[text][which]
    for prefix, empty in _CONTAINERS.items():
        if text.startswith(prefix):
            return copy.copy(empty)
    return None


def sample_kwargs(cls: type) -> dict[str, Any]:
    """Keyword arguments that build a representative instance of ``cls``."""
    if class_id(cls) in _KWARGS:
        return _KWARGS[class_id(cls)]()
    return {
        spec.name: _placeholder(spec.type, 0)
        for spec in dataclasses.fields(cls)
        if spec.init
        and spec.default is dataclasses.MISSING
        and spec.default_factory is dataclasses.MISSING
    }


def _other_kwargs(cls: type, kwargs: dict[str, Any]) -> dict[str, Any] | None:
    """``kwargs`` with one compared scalar field changed to a value the
    class accepts, or None if it has no such field."""
    for spec in dataclasses.fields(cls):
        if spec.init and spec.compare and str(spec.type) in _PLACEHOLDERS:
            for other in _PLACEHOLDERS[str(spec.type)]:
                changed = {**kwargs, spec.name: other}
                if other != kwargs.get(spec.name, spec.default) and (
                    outcome(lambda: cls(**changed))[0] == "returned"
                ):
                    return changed
    return None


# -- the checks ------------------------------------------------------------------


def outcome(call: Callable[[], Any]) -> tuple:
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return ("returned", call())
    except Exception as exc:
        return ("raised", type(exc), str(exc))


_ADDRESS = re.compile(r"0x[0-9a-f]+")


def shown(call: Callable[[], Any]) -> str:
    """``outcome(call)`` as text, object addresses masked: two builds of a
    class whose ``__post_init__`` deploys a simulation (``Testbed``) hold
    alike but distinct environments, chains and relayers."""
    return _ADDRESS.sub("0x?", repr(outcome(call)))


def _values(value: Any) -> list[str]:
    return [
        shown(lambda name=spec.name: getattr(value, name))
        for spec in dataclasses.fields(value)
    ]


def _spec(spec: dataclasses.Field) -> tuple:
    return (
        spec.name, spec.type, spec.default, spec.default_factory, spec.init,
        spec.repr, spec.hash, spec.compare, dict(spec.metadata), spec.kw_only,
    )


def signature(cls: type) -> tuple:
    """``inspect.signature(cls)``, with a ``default_factory`` field's
    default read as its repr: dataclasses and the builder each mark such
    a parameter with their own ``<factory>`` object."""
    found = inspect.signature(cls)
    return (
        [
            (
                p.name, p.kind, p.annotation,
                "<factory>" if repr(p.default) == "<factory>" else p.default,
            )
            for p in found.parameters.values()
        ],
        found.return_annotation,
    )


def check_methods(cls: type, options: dict[str, bool], body: list[str]) -> None:
    """Construction, equality, hashing, ``repr``, ordering and the class's
    introspection match the stock twin's."""
    twin = stock_twin(cls, options, body)
    kwargs = sample_kwargs(cls)
    mine, theirs = cls(**kwargs), twin(**kwargs)
    assert _values(mine) == _values(theirs)
    specs = [spec for spec in dataclasses.fields(cls) if spec.init]
    args = [getattr(mine, s.name) for s in specs if not s.kw_only]
    keywords = {s.name: getattr(mine, s.name) for s in specs if s.kw_only}
    assert _values(cls(*args, **keywords)) == _values(twin(*args, **keywords))
    pairs = [(mine, theirs, cls(**kwargs), twin(**kwargs))]
    other = _other_kwargs(cls, kwargs)
    if other is not None:
        pairs.append((mine, theirs, cls(**other), twin(**other)))
    for a, twin_a, b, twin_b in pairs:
        for op in (operator.eq, operator.ne, operator.lt, operator.le,
                   operator.gt, operator.ge):
            assert outcome(lambda: op(a, b)) == outcome(lambda: op(twin_a, twin_b)), op
        assert (a == object()) is (twin_a == object()) is False
    assert outcome(lambda: hash(mine)) == outcome(lambda: hash(theirs))
    assert (cls.__hash__ is None) is (twin.__hash__ is None)
    assert shown(lambda: repr(mine)) == shown(lambda: repr(theirs))
    assert [_spec(s) for s in dataclasses.fields(cls)] == [
        _spec(s) for s in dataclasses.fields(twin)
    ]
    assert signature(cls) == signature(twin)
    assert cls.__match_args__ == twin.__match_args__
    assert vars(cls).get("__slots__") == vars(twin).get("__slots__")
    assert cls.__doc__ == twin.__doc__
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


def check_state(cls: type, options: dict[str, bool], body: list[str]) -> None:
    """The frozen guards, ``replace``, ``copy.copy`` and pickling match
    the stock twin's."""
    twin = stock_twin(cls, options, body)
    kwargs = sample_kwargs(cls)
    for spec in dataclasses.fields(cls):
        mine, theirs = cls(**kwargs), twin(**kwargs)
        new = _placeholder(spec.type, 1)
        assert _kind(lambda: setattr(mine, spec.name, new)) == _kind(
            lambda: setattr(theirs, spec.name, new)
        )
        assert _values(mine) == _values(theirs)
        assert _kind(lambda: delattr(mine, spec.name)) == _kind(
            lambda: delattr(theirs, spec.name)
        )
        assert _values(mine) == _values(theirs)
    mine, theirs = cls(**kwargs), twin(**kwargs)
    assert _kind(lambda: setattr(mine, "not_a_field", 1)) == _kind(
        lambda: setattr(theirs, "not_a_field", 1)
    )
    mine, theirs = cls(**kwargs), twin(**kwargs)
    for again, twin_again in (
        (dataclasses.replace(mine), dataclasses.replace(theirs)),
        (copy.copy(mine), copy.copy(theirs)),
    ):
        assert type(again) is cls and _values(again) == _values(mine)
        assert outcome(lambda: again == mine) == outcome(lambda: twin_again == theirs)
    restored = outcome(lambda: pickle.loads(pickle.dumps(mine)))
    if restored[0] == "raised":
        # Only state the fields hold may refuse pickling, not the class.
        assert any(
            outcome(lambda v=getattr(mine, s.name): pickle.dumps(v))[0] == "raised"
            for s in dataclasses.fields(cls)
            if hasattr(mine, s.name)
        ), restored
    else:
        again = restored[1]
        assert type(again) is cls and again == mine
        assert shown(lambda: repr(again)) == shown(lambda: repr(mine))
        assert outcome(lambda: hash(again)) == outcome(lambda: hash(mine))


def _kind(call: Callable[[], Any]) -> Any:
    """The exception type ``call`` raises, or None."""
    result = outcome(call)
    return result[1] if result[0] == "raised" else None


CHECKS = (check_methods, check_state)


def main() -> int:
    built = built_classes()
    failures = 0
    for cls, options, body in built:
        for check in CHECKS:
            try:
                check(cls, options, body)
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {check.__name__}[{class_id(cls)}]: {exc!r}")
    print(f"{len(built)} classes, {len(built) * len(CHECKS)} checks, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
