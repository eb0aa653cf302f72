"""Rule ``stale-cache-invalidation``.

**History.**  PR 4's incremental re-solve cached per-cluster payload plans
that baked tree payloads (``node_data`` / ``edge_data``) into them.  The
stale-payload bug: a point update wrote ``node_data`` but kept serving plans
baked from the *old* payload — silently wrong DP values, caught only by the
differential fuzz harness.  The fix added ``invalidate_payload_plans()`` and
the rule that every payload mutator calls it.  The baked inputs now live in
the compiled layer plan's payload cache
(``ClusteringPlan._node_inputs`` / ``ClusteringPlan._edge_infos``), which
``HierarchicalClustering.invalidate_payload_plans()`` drops.

**Check.**  Declarative cache contracts: each names the watched attributes,
the mutation forms (attribute/subscript writes, mutating method calls,
designated sink functions such as ``_set_payload``), and what a mutating
function must also do — call one of the ``required_calls``, or be a method
of an ``owner`` class that is allowed to manage its own cache fields.
Anything else is a finding; designated builders outside the owner carry a
justified suppression.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.analysis.core import Finding, Rule, RuleMeta, register
from repro.analysis.project import ModuleContext, call_name

__all__ = ["CacheContract", "StaleCacheRule", "CONTRACTS"]

#: Method names that mutate the object they are called on.
MUTATING_METHODS = {
    "append",
    "clear",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
    "fill",
    "sort",
}


@dataclass(frozen=True)
class CacheContract:
    """One watched-cache discipline."""

    #: Attribute names whose mutation invalidates a cache.
    attrs: FrozenSet[str]
    #: A mutator must call one of these (any name in the function body).
    #: Empty set: no call can discharge the obligation — only the owner
    #: class (or a justified suppression) may write the attribute.
    required_calls: FrozenSet[str] = frozenset()
    #: Functions that mutate the watched data when passed it as an argument.
    sinks: FrozenSet[str] = frozenset()
    #: Class whose methods own these attributes and may write them freely.
    owner: Optional[str] = None
    #: Dotted-module prefixes where the contract applies ((): everywhere).
    scope: Tuple[str, ...] = field(default=())
    #: One-line description used in the finding message.
    description: str = ""


CONTRACTS: Tuple[CacheContract, ...] = (
    CacheContract(
        attrs=frozenset({"node_data", "edge_data"}),
        required_calls=frozenset({"invalidate_payload_plans"}),
        sinks=frozenset({"_set_payload"}),
        owner="Tree",
        scope=("repro.dynamic", "repro.dp", "repro.mpc", "repro.core"),
        description=(
            "tree payloads are baked into the layer plan's payload cache; a "
            "mutator that skips invalidate_payload_plans() serves inputs from "
            "the old payload (PR 4 stale-payload class)"
        ),
    ),
    CacheContract(
        attrs=frozenset({"_node_inputs", "_edge_infos"}),
        owner="ClusteringPlan",
        scope=("repro",),
        description=(
            "the payload cache is owned by ClusteringPlan; writes from "
            "outside bypass the invalidation protocol"
        ),
    ),
)


def _attr_name_written(node: ast.AST) -> Optional[ast.Attribute]:
    """The Attribute being mutated by an assignment target, if any."""
    if isinstance(node, ast.Attribute):
        return node
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
        return node.value
    return None


def _called_names(fn: ast.AST) -> FrozenSet[str]:
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            cn = call_name(node)
            if cn:
                out.add(cn)
    return frozenset(out)


@register
class StaleCacheRule(Rule):
    meta = RuleMeta(
        name="stale-cache-invalidation",
        summary=(
            "payload mutators must invalidate the plans baked from payloads; "
            "cluster plan memos are written only by their owner class"
        ),
        rationale=(
            "PR 4 stale-payload class: node_data updated without "
            "invalidate_payload_plans() kept serving plans baked from the "
            "old payload — silently wrong DP values"
        ),
    )

    contracts: Tuple[CacheContract, ...] = CONTRACTS

    def _mutations(
        self, contract: CacheContract, fn: ast.AST
    ) -> Iterable[Tuple[ast.AST, str]]:
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = _attr_name_written(target)
                    if attr is not None and attr.attr in contract.attrs:
                        yield node, f"write to .{attr.attr}"
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = _attr_name_written(target)
                    if attr is not None and attr.attr in contract.attrs:
                        yield node, f"delete of .{attr.attr}"
            elif isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in MUTATING_METHODS
                    and isinstance(callee.value, ast.Attribute)
                    and callee.value.attr in contract.attrs
                ):
                    yield node, (
                        f"mutating call .{callee.value.attr}.{callee.attr}()"
                    )
                cn = call_name(node)
                if cn in contract.sinks:
                    for arg in node.args:
                        if (
                            isinstance(arg, ast.Attribute)
                            and arg.attr in contract.attrs
                        ):
                            yield node, (
                                f"{cn}(...) mutates .{arg.attr} in place"
                            )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for contract in self.contracts:
            if contract.scope and not module.in_scope(contract.scope):
                continue
            for fn in module.functions():
                cls = module.enclosing_class(fn)
                if contract.owner and cls is not None and cls.name == contract.owner:
                    continue
                hits = list(self._mutations(contract, fn))
                if not hits:
                    continue
                called = _called_names(fn)
                if contract.required_calls and (
                    called & contract.required_calls
                ):
                    continue
                for node, what in hits:
                    if contract.required_calls:
                        remedy = (
                            "call "
                            + " or ".join(sorted(contract.required_calls))
                            + "() in the same function"
                        )
                    else:
                        remedy = (
                            f"route the write through {contract.owner} (or "
                            "suppress with the builder's justification)"
                        )
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"{what} without cache invalidation — "
                            f"{contract.description}; {remedy}",
                        )
                    )
        return findings
