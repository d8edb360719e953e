"""Frozen value records with a constructor that writes their slots directly.

:func:`record` is the one way to declare an immutable value type —
packets, messages, events, headers, proofs, log records.  It is
``dataclass(frozen=True, slots=True)`` with one part replaced: the
generated ``__init__``.

A frozen dataclass cannot assign its own fields, because its
``__setattr__`` raises, so dataclasses' ``__init__`` fills every field
through ``object.__setattr__``: a global lookup, an attribute lookup and a
generic attribute write that looks the name up on the type again.  The
``__init__`` generated here calls each field's slot descriptor
``__set__`` instead, bound once at decoration and held in the function's
closure.  It keeps the signature, positional order, defaults and
annotations of the one it replaces, calls each ``default_factory`` once
per instance, sets ``init=False`` fields that have a default, and calls
``__post_init__`` when the class defines one.  Anything it would
translate differently (keyword-only fields, ``InitVar``, a hand-written
``__init__``) is a ``TypeError`` at decoration.

Everything else — ``__eq__``, ``__hash__``, ``__repr__``, the
``FrozenInstanceError`` on assignment and deletion, ``fields()``,
``dataclasses.replace``, pickling and field metadata — is dataclasses'
own.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, TypeVar

_T = TypeVar("_T", bound=type)


def record(cls: _T) -> _T:
    """Declare ``cls`` a frozen, slotted dataclass with a slot-writing
    ``__init__``."""
    if "__init__" in cls.__dict__:
        raise TypeError(f"@record class {cls.__qualname__} defines __init__")
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__init__ = _slot_writing_init(cls)  # type: ignore[misc]
    return cls


def _slot_writing_init(cls: type) -> Callable[..., None]:
    generated = cls.__init__
    code = generated.__code__
    self_name, *params = code.co_varnames[: code.co_argcount]
    specs = fields(cls)
    if code.co_kwonlyargcount or params != [spec.name for spec in specs if spec.init]:
        raise TypeError(
            f"@record class {cls.__qualname__}: only positional-or-keyword "
            f"fields are supported (no kw_only, KW_ONLY or InitVar)"
        )
    # Trailing parameters' defaults, as the generated signature has them.
    defaults = dict(zip(reversed(params), reversed(generated.__defaults__ or ())))
    closure: dict[str, Any] = {}
    body = []
    for index, spec in enumerate(specs):
        factory = f"__factory_{index}"
        has_factory = spec.default_factory is not MISSING
        if has_factory:
            closure[factory] = spec.default_factory
        if spec.init:
            value = spec.name
            if has_factory:
                # The generated signature's placeholder for "not passed".
                closure["__unset"] = defaults[spec.name]
                body.append(f"if {value} is __unset: {value} = {factory}()")
        elif spec.default is not MISSING:
            value = f"__default_{index}"
            closure[value] = spec.default
        elif has_factory:
            value = f"{factory}()"
        else:
            continue  # dataclasses leaves such a slot empty, too
        setter = f"__set_{index}"
        closure[setter] = _slot(cls, spec.name).__set__
        body.append(f"{setter}({self_name}, {value})")
    if hasattr(cls, "__post_init__"):
        body.append(f"{self_name}.__post_init__()")
    signature = ", ".join([self_name, *params])
    lines = [
        f"def __create_init__({', '.join(closure)}):",
        f"    def __init__({signature}):",
        *(f"        {line}" for line in body or ["pass"]),
        "    return __init__",
    ]
    namespace: dict[str, Any] = {}
    code = compile("\n".join(lines), f"<record {cls.__qualname__}>", "exec")
    exec(code, namespace)
    init = namespace["__create_init__"](**closure)
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = generated.__annotations__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


def _slot(cls: type, name: str) -> Any:
    """The slot descriptor of field ``name``: on ``cls`` or a base record."""
    return next(vars(klass)[name] for klass in cls.__mro__ if name in vars(klass))
