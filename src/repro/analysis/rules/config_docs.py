"""Rule ``config-docs-drift``.

**History.**  PR 6 added ``tools/check_config_docs.py``: every ``MPCConfig``
field must appear (backticked) in ``docs/CONFIG.md``, because the config
surface was drifting ahead of its documentation.  This module folds that
standalone script into the analyzer as a first-class rule, and the script
is gone: the blocking mpclint run over ``src/`` is the one place the check
runs.

**Check.**  Parse the dataclass fields of ``MPCConfig`` from the AST of
``repro.mpc.config`` (annotated class-level assignments, ``init=False``
fields included — they are part of the documented surface) and require each
name to appear as `` `name` `` in ``docs/CONFIG.md`` relative to the
project root.  Findings anchor at the undocumented field's declaration.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List

from repro.analysis.core import Finding, ProjectRule, RuleMeta, register
from repro.analysis.project import ModuleContext, Project

__all__ = ["ConfigDocsRule", "config_fields"]

CONFIG_MODULE = "repro.mpc.config"
CONFIG_CLASS = "MPCConfig"
DOCS_RELPATH = "docs/CONFIG.md"


def config_fields(config_module: ModuleContext) -> List[ast.AnnAssign]:
    """Annotated class-level field declarations of MPCConfig, in order."""
    for cls in ast.walk(config_module.tree):
        if isinstance(cls, ast.ClassDef) and cls.name == CONFIG_CLASS:
            return [
                stmt
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ]
    return []


@register
class ConfigDocsRule(ProjectRule):
    meta = RuleMeta(
        name="config-docs-drift",
        summary=(
            "every MPCConfig field must be documented (backticked) in "
            "docs/CONFIG.md"
        ),
        rationale=(
            "PR 6 drift class: the config surface grew faster than its "
            "documentation; undocumented knobs are unusable knobs"
        ),
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        config = project.module(CONFIG_MODULE)
        if config is None:
            return []
        fields = config_fields(config)
        if not fields:
            return []
        docs_path = project.root / DOCS_RELPATH
        if not docs_path.is_file():
            return [
                self.finding(
                    config,
                    fields[0],
                    f"{DOCS_RELPATH} not found at the project root; MPCConfig "
                    "fields must be documented there",
                )
            ]
        docs = docs_path.read_text(encoding="utf-8")
        documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", docs))
        findings: List[Finding] = []
        for field in fields:
            name = field.target.id  # type: ignore[union-attr]
            if name not in documented:
                findings.append(
                    self.finding(
                        config,
                        field,
                        f"MPCConfig field {name!r} is not documented in "
                        f"{DOCS_RELPATH} (expected a backticked `{name}` "
                        "mention)",
                    )
                )
        return findings
