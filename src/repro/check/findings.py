"""Structured findings and the shared reporter for `repro check`.

Every verification pass (graphs, tables, architecture) reports through the same
vocabulary: a :class:`Finding` carries a stable rule id, a severity, a
location string and a human-readable message.  The CLI renders findings as
text or JSON and applies per-rule suppression, so CI can run
``repro check --strict`` and fail on any finding while a developer can
silence one rule (``--ignore IR008``) during an investigation.

Location strings are pass-specific but follow one scheme:

* ``graph:<model>[@<transform>]/<op>`` for graph-pass findings,
* ``device:<name>`` / ``framework:<name>`` / ``calibration:<fw>@<dev>`` /
  ``tableV:<device>`` for table findings,
* ``<path>:<line>`` for architectural findings.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from typing import Iterable, Sequence


class Severity(enum.Enum):
    """How bad a finding is; ``--strict`` treats every level as fatal."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Finding:
    """One rule violation reported by a verification pass."""

    rule: str
    severity: Severity
    location: str
    message: str

    def to_dict(self) -> dict[str, str]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.severity.value:7s} {self.rule}  {self.location}: {self.message}"


def suppress(findings: Iterable[Finding], rules: Sequence[str]) -> list[Finding]:
    """Drop findings whose rule id is in ``rules`` (exact, case-insensitive)."""
    ignored = {rule.upper() for rule in rules}
    return [f for f in findings if f.rule.upper() not in ignored]


def count_by_severity(findings: Sequence[Finding]) -> dict[str, int]:
    counts = {severity.value: 0 for severity in Severity}
    for finding in findings:
        counts[finding.severity.value] += 1
    return counts


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in findings]
    counts = count_by_severity(findings)
    if findings:
        lines.append(
            f"{len(findings)} finding(s): {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['info']} info"
        )
    else:
        lines.append("no findings")
    return "\n".join(lines)


#: ``<path>:<line>`` locations (arch/units findings) map onto GitHub file
#: annotations; other location schemes render as bare annotations.
_FILE_LOCATION_RE = re.compile(r"^(?P<file>[^:]+\.py):(?P<line>\d+)$")

_GITHUB_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "notice",
}


def _escape_github(text: str) -> str:
    """Escape the characters the workflow-command parser treats specially."""
    return (text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A"))


def render_github(findings: Sequence[Finding]) -> str:
    """GitHub Actions annotations (``::error file=...,line=...::message``).

    Findings whose location is a ``path:line`` pair annotate that file in
    the PR diff; table/graph findings (non-file locations) still surface as
    run-level annotations with the location folded into the message.
    """
    lines = []
    for finding in findings:
        level = _GITHUB_LEVELS[finding.severity]
        match = _FILE_LOCATION_RE.match(finding.location)
        message = _escape_github(f"{finding.rule}: {finding.message}")
        if match:
            lines.append(f"::{level} file={match['file']},line={match['line']},"
                         f"title={finding.rule}::{message}")
        else:
            location = _escape_github(finding.location)
            lines.append(f"::{level} title={finding.rule}::{location}: {message}")
    counts = count_by_severity(findings)
    if findings:
        lines.append(
            f"{len(findings)} finding(s): {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['info']} info"
        )
    else:
        lines.append("no findings")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (stable schema for the CI gate)."""
    payload = {
        "version": 1,
        "counts": count_by_severity(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=1)
