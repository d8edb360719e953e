"""Finding reporters: text (human) and JSON (machine / CI), plus the
path shortener the dynamic sanitizers' reports share."""

from __future__ import annotations

import json
from typing import Sequence

from repro.lint.findings import Finding


def render_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "repro.lint: no findings"
    lines = [f.format() for f in findings]
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    summary = ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
    lines.append(f"repro.lint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    payload = {
        "findings": [f.to_dict() for f in findings],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


REPORTERS = {"text": render_text, "json": render_json}


def short_path(filename: str) -> str:
    """Shorten an absolute path to its in-repo tail where possible."""
    for marker in ("/src/", "/lib/python"):
        idx = filename.rfind(marker)
        if idx >= 0:
            return filename[idx + len(marker) :]
    return filename
