"""Lint findings: the analyzer's output records."""

from __future__ import annotations

from typing import Any

from repro.sim.records import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: RULE message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


#: Rule id used for files the analyzer cannot parse.
PARSE_ERROR_RULE = "E001"
