"""Renderings of plan trees: ASCII (EXPLAIN-style) and JSON-ready dicts."""

from __future__ import annotations

import re
from typing import Callable, List, Optional

from repro.plans.nodes import (
    GroupByNode,
    JoinNode,
    MapNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
)

Annotator = Optional[Callable[[PlanNode], str]]


def render_plan(node: PlanNode, annotate: Annotator = None) -> str:
    """Render *node* as an indented tree.

    ``annotate`` may be a callable ``PlanNode -> str`` appending extra text
    (cost, cardinality, ...) to each line.
    """
    lines: List[str] = []
    _render(node, "", "", lines, annotate)
    return "\n".join(lines)


_SUFFIX = re.compile(r"#g(\d+)")
_DEFAULTS = re.compile(r"(D[12]=\{)([^}]*)(\})")


def plan_shape(node: PlanNode) -> str:
    """:func:`render_plan` with the builder-generated ``#g<n>`` columns
    renamed by first appearance and each outerjoin default vector ordered
    by the renamed columns: equal for two plans that differ only in how
    the runs that made them numbered their groupings.

    The concrete counter values depend on how many groupings a run built
    along the way (the test oracle builds a fresh Γ per plan pair, the
    DP one per plan, a bounded run fewer still); the plan
    *shape* — which columns are shared where — is what two runs agree on.
    ``JoinNode`` default vectors are stored sorted by column *name*, so
    their rendered order follows the raw counter values: they take no
    part in ranking the suffixes (every padded column is also defined by
    a Γ), and are re-sorted after the renaming — or two equal plans
    differ in ``D2={…}`` order only.
    """
    rendered = render_plan(node)
    seen: dict = {}
    for number in _SUFFIX.findall(_DEFAULTS.sub("", rendered)):
        seen.setdefault(number, len(seen))

    def order(match):
        entries = sorted(match.group(2).split(", ")) if match.group(2) else []
        return match.group(1) + ", ".join(entries) + match.group(3)

    renamed = _SUFFIX.sub(lambda match: f"#g{seen[match.group(1)]}", rendered)
    return _DEFAULTS.sub(order, renamed)


def _render(
    node: PlanNode, own_prefix: str, child_prefix: str, lines: List[str], annotate: Annotator
) -> None:
    extra = f"  [{annotate(node)}]" if annotate else ""
    lines.append(f"{own_prefix}{node.label()}{extra}")
    children = node.children()
    for index, child in enumerate(children):
        last = index == len(children) - 1
        connector = "└─ " if last else "├─ "
        continuation = "   " if last else "│  "
        _render(child, child_prefix + connector, child_prefix + continuation, lines, annotate)


def plan_to_dict(node: PlanNode) -> dict:
    """Recursively serialise a plan tree into JSON-ready dicts."""
    if isinstance(node, ScanNode):
        return {
            "op": "scan",
            "relation": node.relation,
            "attributes": list(node.attributes),
        }
    if isinstance(node, SelectNode):
        return {
            "op": "select",
            "predicate": str(node.predicate),
            "input": plan_to_dict(node.child),
        }
    if isinstance(node, JoinNode):
        out = {
            "op": node.op.name.lower(),
            "predicate": str(node.predicate),
            "left": plan_to_dict(node.left),
            "right": plan_to_dict(node.right),
        }
        if node.groupjoin_vector is not None:
            out["groupjoin_vector"] = str(node.groupjoin_vector)
        return out
    if isinstance(node, GroupByNode):
        return {
            "op": "groupby",
            "group_by": list(node.group_attrs),
            "aggregates": str(node.vector),
            "input": plan_to_dict(node.child),
        }
    if isinstance(node, MapNode):
        return {
            "op": "map",
            "extensions": {name: str(expr) for name, expr in node.extensions},
            "input": plan_to_dict(node.child),
        }
    if isinstance(node, ProjectNode):
        return {
            "op": "project",
            "attributes": list(node.attributes),
            "input": plan_to_dict(node.child),
        }
    raise TypeError(f"unknown plan node {node!r}")
