"""Rule registry.

Rules self-register with the :func:`register` decorator; importing this
package loads the built-in rule modules and therefore populates
:data:`REGISTRY`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.rules.base import Rule

#: rule id -> rule instance, in registration (= documentation) order.
REGISTRY: "dict[str, Rule]" = {}


def register(rule_cls: "Type[Rule]") -> "Type[Rule]":
    """Class decorator: instantiate and index a rule by its id."""
    rule = rule_cls()
    if not rule.rule_id:
        raise ValueError(f"rule {rule_cls.__name__} has no rule_id")
    if rule.rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    REGISTRY[rule.rule_id] = rule
    return rule_cls


def all_rules() -> "list[Rule]":
    return list(REGISTRY.values())


# Built-in rule modules (import order fixes documentation order).
from repro.lint.rules import determinism as _determinism  # noqa: E402,F401
from repro.lint.rules import exceptions as _exceptions  # noqa: E402,F401
