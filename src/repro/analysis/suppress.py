"""Inline suppressions: ``# mpclint: disable=<rule>[,<rule>...] -- reason``.

Two placements are honored:

* trailing, on the flagged line itself::

      root = min(adj.keys())  # mpclint: disable=raw-extremum -- guarded above

* ``disable-next-line``, on its own line immediately above (for lines where
  a trailing comment would not fit)::

      # mpclint: disable-next-line=raw-extremum -- loads is never empty here
      worst = max(loads)

A justification after ``--`` is required: a suppression is a recorded
decision, not an off switch.  Suppressions that never fire are themselves
findings (``unused-suppression``), so stale ones cannot accumulate —
re-running the analyzer after a refactor tells you which decisions to
revisit.  Naming an unknown rule is a ``bad-suppression`` finding.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.analysis.core import UNSUPPRESSABLE, Finding

__all__ = ["Suppression", "scan_suppressions", "apply_suppressions"]

_DIRECTIVE = re.compile(
    r"#\s*mpclint:\s*(?P<kind>disable|disable-next-line)\s*="
    r"\s*(?P<rules>[\w,\- ]+?)\s*(?:--\s*(?P<reason>.*))?$"
)


@dataclass
class Suppression:
    """One parsed directive (one entry per rule it names)."""

    rule: str
    directive_line: int  # where the comment sits (for diagnostics)
    target_line: int  # the line whose findings it suppresses
    reason: str
    used: bool = field(default=False, compare=False)


def _comment_tokens(source: str) -> Iterator[Tuple[int, str]]:
    """(line, text) of every real comment — directive lookalikes inside
    strings/docstrings (e.g. documentation examples) are not comments and
    must not parse as directives."""
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return  # unparseable tail; the engine reports the syntax error


def scan_suppressions(source: str, path: str) -> Tuple[List[Suppression], List[Finding]]:
    """Parse every directive comment in ``source``; malformed ones become
    findings."""
    sups: List[Suppression] = []
    problems: List[Finding] = []
    for i, line in _comment_tokens(source):
        if "mpclint:" not in line:
            continue
        m = _DIRECTIVE.search(line)
        if m is None:
            # Not a disable directive (module= overrides etc.) — but a
            # misspelled disable should not silently do nothing.
            if re.search(r"#\s*mpclint:\s*disable", line):
                problems.append(
                    Finding(
                        rule="bad-suppression",
                        path=path,
                        line=i,
                        col=1,
                        message=(
                            "malformed suppression; expected "
                            "'# mpclint: disable=<rule>[,<rule>] -- <justification>'"
                        ),
                    )
                )
            continue
        reason = (m.group("reason") or "").strip()
        if not reason:
            problems.append(
                Finding(
                    rule="bad-suppression",
                    path=path,
                    line=i,
                    col=1,
                    message=(
                        "suppression needs a justification: "
                        "'# mpclint: disable=<rule> -- <why this is safe>'"
                    ),
                )
            )
            continue
        target = i + 1 if m.group("kind") == "disable-next-line" else i
        for rule in (r.strip() for r in m.group("rules").split(",")):
            if not rule:
                continue
            if rule in UNSUPPRESSABLE:
                problems.append(
                    Finding(
                        rule="bad-suppression",
                        path=path,
                        line=i,
                        col=1,
                        message=f"rule {rule!r} cannot be suppressed",
                    )
                )
                continue
            sups.append(
                Suppression(rule=rule, directive_line=i, target_line=target, reason=reason)
            )
    return sups, problems


def apply_suppressions(
    findings: List[Finding],
    suppressions: List[Suppression],
    known_rules: set,
    path: str,
) -> Tuple[List[Finding], int]:
    """Filter ``findings`` through ``suppressions`` (all of one file).

    Returns the surviving findings (including ``unused-suppression`` /
    ``bad-suppression`` diagnostics for directives that name unknown rules or
    never fire) and the number of suppressions that were used.
    """
    by_key: Dict[Tuple[str, int], List[Suppression]] = {}
    for s in suppressions:
        by_key.setdefault((s.rule, s.target_line), []).append(s)

    kept: List[Finding] = []
    for f in findings:
        matching = by_key.get((f.rule, f.line))
        if matching and f.rule not in UNSUPPRESSABLE:
            for s in matching:
                s.used = True
        else:
            kept.append(f)

    used = sum(1 for s in suppressions if s.used)
    for s in suppressions:
        if s.used:
            continue
        if s.rule not in known_rules:
            kept.append(
                Finding(
                    rule="bad-suppression",
                    path=path,
                    line=s.directive_line,
                    col=1,
                    message=f"suppression names unknown rule {s.rule!r}",
                )
            )
        else:
            kept.append(
                Finding(
                    rule="unused-suppression",
                    path=path,
                    line=s.directive_line,
                    col=1,
                    message=(
                        f"suppression of {s.rule!r} never fires; delete it "
                        f"(reason recorded: {s.reason})"
                    ),
                )
            )
    return kept, used
