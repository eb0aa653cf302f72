"""mpclint — AST static analysis of this repository's MPC disciplines.

The test suite samples the repo's correctness invariants; this package
machine-checks the ones that hold *by construction only if every edit keeps
the discipline*: data movement must be word/round-charged through the
simulator, payload mutators must invalidate the caches baked from payloads,
worker-reachable code must stay free of driver state, extremum folds must
handle empty record sets, and every ``backend``-style dispatch must cover the
full literal set ``MPCConfig`` declares.  Each rule names the historical bug class of this
repository it encodes — see ``docs/ANALYSIS.md``.

Run it as ``python -m repro.analysis src/`` (or ``python tools/mpclint.py``
without installing).  The package is stdlib-only so the CI lint job needs no
runtime dependencies.
"""

from repro.analysis.core import (
    Finding,
    ProjectRule,
    Report,
    Rule,
    RuleMeta,
    all_rules,
    register,
    rule_by_name,
)
from repro.analysis.engine import run_analysis

__all__ = [
    "Finding",
    "Report",
    "Rule",
    "ProjectRule",
    "RuleMeta",
    "register",
    "all_rules",
    "rule_by_name",
    "run_analysis",
]
