"""The one class builder: dataclasses with a single compiled method.

Every dataclass under ``repro`` is declared with this module's
:func:`dataclass` (mutable state, configs, report sections) or
:func:`record` (the immutable value types — packets, messages, events,
headers, proofs, log records — ``dataclass(frozen=True, slots=True)``
under one name).

Both still hand the class to ``dataclasses.dataclass`` to collect its
fields, with every method generator switched off, so ``fields()``,
``dataclasses.replace``, ``is_dataclass`` and field metadata stay
dataclasses' own.  What dataclasses would generate from source — one
``compile`` per method, ~4–5 per class — is built here instead:

* **``__init__`` is the one compile per class**, because it is the one
  method that is hot at run time.  A frozen slotted class writes each
  field through its slot descriptor's ``__set__``, bound once and held in
  the closure; a frozen unslotted class through ``object.__setattr__``;
  every other class assigns plainly.  It keeps dataclasses' signature,
  positional order, defaults, ``kw_only`` fields and annotations, calls
  each ``default_factory`` once per instance, sets ``init=False`` fields
  that have a default, and calls ``__post_init__`` when the class defines
  one.  A hand-written ``__init__`` is kept, as dataclasses keeps it.
* **Everything else is a shared closure** over an ``operator.attrgetter``
  of the fields it reads: ``__eq__``, ``__hash__`` (dataclasses' rules: a
  frozen class hashes its compared fields, a mutable one is unhashable
  unless it defines ``__hash__``), ``__repr__``, the ``order=True``
  comparisons, the frozen ``__setattr__``/``__delattr__`` guards and a
  frozen slotted class's pickle state.  Each behaves, error for error, as
  the method dataclasses would have compiled, and a method the class
  body defines is kept where dataclasses keeps it.

``InitVar`` pseudo-fields are a ``TypeError`` at decoration, and so are,
for :func:`record`, keyword-only fields and a hand-written ``__init__``:
a record is built positionally on the hot paths.  ``__dataclass_params__``
records the fields-only call, so a frozen class reads ``frozen=False``
there; no code here or in dataclasses' public functions consults it.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import MISSING, FrozenInstanceError, fields
from operator import attrgetter, ge, gt, le, lt
from reprlib import recursive_repr
from typing import Any, Callable, Optional, TypeVar

_T = TypeVar("_T", bound=type)


class _Factory:
    """The signature default of a field built by ``default_factory``."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def dataclass(
    cls: Optional[_T] = None,
    /,
    *,
    frozen: bool = False,
    order: bool = False,
    slots: bool = False,
) -> Any:
    """``dataclasses.dataclass`` with the options this package uses, built
    with one compiled method per class."""

    def wrap(cls: _T) -> _T:
        return _build(cls, frozen=frozen, order=order, slots=slots)

    return wrap if cls is None else wrap(cls)


def record(cls: _T) -> _T:
    """Declare ``cls`` a frozen, slotted dataclass with a slot-writing
    ``__init__``."""
    if "__init__" in cls.__dict__:
        raise TypeError(f"@record class {cls.__qualname__} defines __init__")
    return _build(cls, frozen=True, order=False, slots=True, positional=True)


def _build(
    original: _T, *, frozen: bool, order: bool, slots: bool, positional: bool = False
) -> _T:
    own = dict(original.__dict__)
    undocumented = not getattr(original, "__doc__")
    if undocumented:
        # Spare dataclasses a signature lookup on a class with no __init__
        # yet; the docstring is made below, from the real one.
        original.__doc__ = original.__name__
    cls = dataclasses.dataclass(
        original, init=False, repr=False, eq=False, order=False,
        frozen=False, slots=slots,
    )
    specs = fields(cls)
    if len(specs) != len(cls.__dataclass_fields__) and any(
        "InitVar" in str(spec.type)
        for spec in cls.__dataclass_fields__.values()
        if spec not in specs
    ):
        raise TypeError(f"class {cls.__qualname__}: InitVar fields are not supported")
    if positional and any(spec.kw_only for spec in specs):
        raise TypeError(
            f"@record class {cls.__qualname__}: only positional-or-keyword "
            f"fields are supported (no kw_only or KW_ONLY)"
        )
    if "__init__" not in own:
        cls.__init__ = _init(cls, specs, frozen, slots)  # type: ignore[misc]
    _add_methods(cls, original, own, specs, frozen, order, slots)
    if undocumented:
        try:
            text_sig = str(inspect.signature(cls)).replace(" -> None", "")
        except (TypeError, ValueError):
            text_sig = ""
        cls.__doc__ = cls.__name__ + text_sig
    return cls


def _init(
    cls: type, specs: tuple[dataclasses.Field, ...], frozen: bool, slotted: bool
) -> Callable[..., None]:
    """The class's ``__init__``: its one compiled function."""
    self_name = "__dataclass_self__" if any(s.name == "self" for s in specs) else "self"
    closure: dict[str, Any] = {}
    params: list[str] = []
    kw_only: list[str] = []
    defaults: list[Any] = []
    kw_defaults: dict[str, Any] = {}
    annotations: dict[str, Any] = {}
    body: list[str] = []
    for index, spec in enumerate(specs):
        factory = f"__factory_{index}"
        has_factory = spec.default_factory is not MISSING
        if has_factory:
            closure[factory] = spec.default_factory
        if spec.init:
            default = _FACTORY if has_factory else spec.default
            if spec.kw_only:
                kw_only.append(spec.name)
                if default is not MISSING:
                    kw_defaults[spec.name] = default
            else:
                if default is not MISSING:
                    defaults.append(default)
                elif defaults:
                    raise TypeError(
                        f"non-default argument {spec.name!r} follows default argument"
                    )
                params.append(spec.name)
            annotations[spec.name] = spec.type
            value = spec.name
            if has_factory:
                closure["__unset"] = _FACTORY
                body.append(f"if {value} is __unset: {value} = {factory}()")
        elif spec.default is not MISSING:
            value = f"__default_{index}"
            closure[value] = spec.default
        elif has_factory:
            value = f"{factory}()"
        else:
            continue  # dataclasses leaves such a field unset, too
        if frozen and slotted:
            setter = f"__set_{index}"
            closure[setter] = _slot(cls, spec.name).__set__
            body.append(f"{setter}({self_name}, {value})")
        elif frozen:
            closure["__setattr"] = object.__setattr__
            body.append(f"__setattr({self_name}, {spec.name!r}, {value})")
        else:
            body.append(f"{self_name}.{spec.name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append(f"{self_name}.__post_init__()")
    signature = [self_name, *params]
    if kw_only:
        signature += ["*", *kw_only]
    lines = [
        f"def __create_init__({', '.join(closure)}):",
        f"    def __init__({', '.join(signature)}):",
        *(f"        {line}" for line in body or ["pass"]),
        "    return __init__",
    ]
    namespace: dict[str, Any] = {}
    exec(compile("\n".join(lines), f"<dataclass {cls.__qualname__}>", "exec"), namespace)
    init = namespace["__create_init__"](**closure)
    init.__defaults__ = tuple(defaults) or None
    init.__kwdefaults__ = kw_defaults or None
    init.__annotations__ = {**annotations, "return": None}
    _name(cls, init)
    return init


def _slot(cls: type, name: str) -> Any:
    """The slot descriptor of field ``name``: on ``cls`` or a base record."""
    return next(vars(klass)[name] for klass in cls.__mro__ if name in vars(klass))


def _name(cls: type, method: Callable[..., Any]) -> None:
    method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    method.__module__ = cls.__module__


def _values(names: list[str]) -> Callable[[Any], tuple]:
    """The tuple of ``names``' values: what dataclasses' generated methods
    spell ``(self.a, self.b,)``."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _add_methods(
    cls: type,
    original: type,
    own: dict[str, Any],
    specs: tuple[dataclasses.Field, ...],
    frozen: bool,
    order: bool,
    slotted: bool,
) -> None:
    methods: list[Callable[..., Any]] = []
    if "__repr__" not in own:
        methods.append(_repr([spec.name for spec in specs if spec.repr]))
    compared = _values([spec.name for spec in specs if spec.compare])
    if "__eq__" not in own:

        def __eq__(self: Any, other: Any) -> Any:
            if other.__class__ is self.__class__:
                return compared(self) == compared(other)
            return NotImplemented

        methods.append(__eq__)
    if order:
        for op in (lt, le, gt, ge):
            name = f"__{op.__name__}__"
            if name in own:
                raise TypeError(
                    f"Cannot overwrite attribute {name} in class {cls.__name__}. "
                    f"Consider using functools.total_ordering"
                )
            methods.append(_compare(name, op, compared))
    own_hash = own.get("__hash__", MISSING)
    if own_hash is MISSING or (own_hash is None and "__eq__" in own):
        if frozen:
            hashed = _values([
                spec.name for spec in specs
                if (spec.compare if spec.hash is None else spec.hash)
            ])

            def __hash__(self: Any) -> int:
                return hash(hashed(self))

            methods.append(__hash__)
        else:
            cls.__hash__ = None  # type: ignore[assignment]
    if frozen:
        for name in ("__setattr__", "__delattr__"):
            if name in own:
                raise TypeError(f"Cannot overwrite attribute {name} in class {cls.__name__}")
        methods += _frozen_guards(original, frozenset(spec.name for spec in specs))
        if slotted:
            methods += _frozen_state(own, [spec.name for spec in specs])
    for method in methods:
        _name(cls, method)
        setattr(cls, method.__name__, method)


def _repr(names: list[str]) -> Callable[[Any], str]:
    values = _values(names)
    labels = [f"{name}=" for name in names]

    def __repr__(self: Any) -> str:
        shown = ", ".join([label + repr(value) for label, value in zip(labels, values(self))])
        return f"{self.__class__.__qualname__}({shown})"

    return recursive_repr()(__repr__)


def _compare(
    name: str, op: Callable[[Any, Any], Any], compared: Callable[[Any], tuple]
) -> Callable[[Any, Any], Any]:
    def method(self: Any, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return op(compared(self), compared(other))
        return NotImplemented

    method.__name__ = name
    return method


def _frozen_guards(original: type, guarded: frozenset[str]) -> list[Callable[..., None]]:
    """dataclasses' ``FrozenInstanceError`` guards.  Like the ones it
    compiles, they test against the class as declared: for a slotted
    class that is the class dataclasses replaced, so assigning a name
    that is not a field fails in ``super()`` with a ``TypeError``."""

    def __setattr__(self: Any, name: str, value: Any) -> None:
        if type(self) is original or name in guarded:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(original, self).__setattr__(name, value)

    def __delattr__(self: Any, name: str) -> None:
        if type(self) is original or name in guarded:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(original, self).__delattr__(name)

    return [__setattr__, __delattr__]


def _frozen_state(own: dict[str, Any], names: list[str]) -> list[Callable[..., Any]]:
    """A frozen slotted class's pickle state: every field's value, in
    order, restored past the frozen guard."""
    values = _values(names)
    write = object.__setattr__

    def __getstate__(self: Any) -> list[Any]:
        return list(values(self))

    def __setstate__(self: Any, state: list[Any]) -> None:
        for name, value in zip(names, state):
            write(self, name, value)

    return [m for m in (__getstate__, __setstate__) if m.__name__ not in own]
