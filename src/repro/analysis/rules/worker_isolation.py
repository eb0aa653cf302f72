"""Rule ``worker-driver-isolation``.

**History.**  The process backend runs code inside worker processes.
Workers must stay cheap to start and semantically inert: they evaluate DP
layer batches over the clustering the driver shipped them and nothing
else.  During bring-up, an import edge from worker-reachable code into the
simulator would have dragged the driver's accounting state (round and word
books, incremental memos, serving state) into every worker — wrong
(divergent accounting) and slow (import cost per spawn).  The seam held by
convention; this rule pins it.

**Check.**  Build the project import graph, take the modules reachable from
the worker entry set (``repro.mpc.exec.pool``, which holds the worker
command loop), and flag any import edge from a reachable module into a
driver-only module: the accounting side — simulator, machine, darray,
primitives, both treeops backends, the DP engine, the clustering builder,
the incremental layer, the pipeline and the server.  Workers run DP layer
code by design, so ``repro.dp`` outside the engine stays allowed.  Both
top-level and function-local imports count: a lazy import still executes in
the worker.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.core import Finding, ProjectRule, RuleMeta, register
from repro.analysis.project import ModuleContext, Project

__all__ = ["WorkerIsolationRule"]

#: Modules holding the worker entry point (``_worker_main``).
WORKER_ENTRY_MODULES = ("repro.mpc.exec.pool",)

#: Driver-only module prefixes: the accounting side — simulation state,
#: record-model machinery, and everything holding per-run memos.
DRIVER_ONLY_PREFIXES = (
    "repro.mpc.simulator",
    "repro.mpc.machine",
    "repro.mpc.darray",
    "repro.mpc.primitives",
    "repro.mpc.treeops",
    "repro.mpc.treeops_array",
    "repro.dp.engine",
    "repro.clustering.builder",
    "repro.dynamic",
    "repro.core",
    "repro.serving",
)


def _resolve_relative(module_name: str, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    # ``from .x import y`` in module p.q.m -> p.q.x (level counts up from
    # the module's own package, so drop ``level`` trailing components).
    parts = module_name.split(".")
    parts = parts[: -node.level] if node.level <= len(parts) else []
    base = ".".join(parts)
    if node.module:
        return f"{base}.{node.module}" if base else node.module
    return base


def _imports(module: ModuleContext) -> Iterable[Tuple[ast.AST, str]]:
    """Yield (node, imported-module-name) pairs, relative imports resolved."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(module.module_name, node)
            if target:
                yield node, target
            # ``from pkg import sub`` may import a submodule: record both.
            for alias in node.names:
                if target:
                    yield node, f"{target}.{alias.name}"


def _is_driver_only(name: str) -> bool:
    return any(
        name == prefix or name.startswith(prefix + ".")
        for prefix in DRIVER_ONLY_PREFIXES
    )


@register
class WorkerIsolationRule(ProjectRule):
    meta = RuleMeta(
        name="worker-driver-isolation",
        summary=(
            "code reachable from the worker entry (repro.mpc.exec.pool) must "
            "not import driver-only modules (simulator, accounting, memos)"
        ),
        rationale=(
            "PR 5 seam: dragging simulator/accounting state into spawned "
            "workers diverges the word/round books and bloats worker startup"
        ),
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        by_name: Dict[str, ModuleContext] = {m.module_name: m for m in project.modules}
        edges: Dict[str, List[Tuple[ast.AST, str]]] = {
            name: list(_imports(mod)) for name, mod in by_name.items()
        }

        reachable: Set[str] = set()
        frontier = [n for n in WORKER_ENTRY_MODULES if n in by_name]
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            for _node, target in edges.get(name, ()):  # project-local edges
                if target in by_name and target not in reachable:
                    frontier.append(target)

        findings: List[Finding] = []
        for name in sorted(reachable):
            module = by_name[name]
            seen: Set[int] = set()
            for node, target in edges[name]:
                if not _is_driver_only(target):
                    continue
                if id(node) in seen:  # one finding per import statement
                    continue
                seen.add(id(node))
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"worker-reachable module {name!r} imports driver-only "
                        f"module {target!r}; workers must not load simulator/"
                        "accounting state (PR 5 isolation seam)",
                    )
                )
        return findings
