"""Command-line entry point: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage or internal error.  ``--output``
always writes the JSON report (CI uploads it as an artifact) regardless of
the ``--format`` chosen for stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.core import all_rules
from repro.analysis.engine import run_analysis
from repro.analysis.report import render_json, render_rule_list, render_text

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "mpclint: AST-based checks of this repository's MPC-simulation "
            "disciplines (word/round charging, cache invalidation, "
            "worker/driver isolation, extremum safety, backend dispatch "
            "parity, bounded waits, traced clocks, config docs)."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout report format (default: text)",
    )
    p.add_argument(
        "--output",
        metavar="FILE",
        help="also write the JSON report to FILE",
    )
    p.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules with their historical rationale and exit",
    )
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_list(all_rules()))
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"mpclint: no such path(s): {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    select = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]
    try:
        report = run_analysis(paths, select=select)
    except ValueError as exc:
        print(f"mpclint: {exc}", file=sys.stderr)
        return 2

    if args.output:
        Path(args.output).write_text(render_json(report), encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code
