"""Text renderings of model content graphs (paper operation 4).

"Browse a mining model for reporting and visualization applications" —
these helpers turn a content graph (``MiningModel.content_root()``) into
terminal-friendly reports: an indented tree for decision trees, profile
cards for clusters, a ranked rule list for association models, a
coefficient table for regressions, and transition summaries for sequence
models.  ``render_model`` dispatches on the node types present; the DMX
shell exposes it as ``.describe <model>``.
"""

from __future__ import annotations

from typing import List

from repro.core.content import (
    NODE_CLUSTER,
    NODE_ITEMSET,
    NODE_MODEL,
    NODE_PREDICTABLE,
    NODE_REGRESSION_ROOT,
    NODE_RULE,
    NODE_SEQUENCE,
    NODE_TREE,
    ContentNode,
)


def _format_distribution(node: ContentNode, limit: int = 3) -> str:
    parts = []
    for row in node.distribution[:limit]:
        value = "" if row.value is None else str(row.value)
        if isinstance(row.value, float):
            value = f"{row.value:g}"
        parts.append(f"{row.attribute}={value} ({row.probability:.0%})")
    if len(node.distribution) > limit:
        parts.append("...")
    return ", ".join(parts)


def render_tree(root: ContentNode) -> str:
    """Indented rendering of one tree (a NODE_TREE subtree)."""
    lines: List[str] = []

    def describe(node: ContentNode) -> str:
        summary = _format_distribution(node, limit=2)
        return (f"{node.caption} [{node.support:g} cases]"
                f"{'  -> ' + summary if summary else ''}")

    def walk(node: ContentNode, prefix: str, is_last: bool) -> None:
        connector = "`- " if is_last else "|- "
        lines.append(f"{prefix}{connector}{describe(node)}")
        child_prefix = prefix + ("   " if is_last else "|  ")
        for position, child in enumerate(node.children):
            walk(child, child_prefix,
                 position == len(node.children) - 1)

    lines.append(describe(root))
    for position, child in enumerate(root.children):
        walk(child, "", position == len(root.children) - 1)
    return "\n".join(lines)


def render_clusters(root: ContentNode) -> str:
    """Profile card per cluster, heaviest first."""
    clusters = sorted(
        (n for n in root.children if n.node_type == NODE_CLUSTER),
        key=lambda n: -n.support)
    lines = []
    for cluster in clusters:
        lines.append(f"{cluster.caption}  "
                     f"({cluster.support:g} cases, "
                     f"{cluster.probability:.0%} of population)")
        for row in cluster.distribution[:6]:
            value = row.value
            if isinstance(value, float):
                value = f"{value:.2f}"
            lines.append(f"    {row.attribute:30s} {value}")
    return "\n".join(lines)


def render_rules(root: ContentNode, limit: int = 15) -> str:
    """Association rules ranked by confidence, then frequent itemsets."""
    rules = [n for n in root.walk() if n.node_type == NODE_RULE]
    itemsets = [n for n in root.walk() if n.node_type == NODE_ITEMSET]
    lines = [f"{len(rules)} rules, {len(itemsets)} frequent itemsets"]
    for rule in sorted(rules, key=lambda n: -n.probability)[:limit]:
        lines.append(f"  {rule.caption:45s} "
                     f"confidence {rule.probability:.0%}  "
                     f"support {rule.support:g}")
    return "\n".join(lines)


def render_regression(root: ContentNode) -> str:
    """Coefficient table per regression target."""
    lines = []
    for target in root.children:
        lines.append(f"{target.caption}: {target.description}")
        for row in target.distribution:
            lines.append(f"    {row.attribute:30s} "
                         f"{float(row.value):+10.4f}")
    return "\n".join(lines)


def render_sequences(root: ContentNode, limit: int = 4) -> str:
    """Per-chain transition summaries of a sequence model."""
    lines = []
    for chain in root.children:
        lines.append(f"{chain.caption}  ({chain.support:g} cases)")
        for state in chain.children[:limit]:
            transitions = ", ".join(
                f"{row.value} ({row.probability:.0%})"
                for row in state.distribution[:3])
            lines.append(f"    {state.caption:20s} -> {transitions}")
        if len(chain.children) > limit:
            lines.append(f"    ... {len(chain.children) - limit} more "
                         f"states")
    return "\n".join(lines)


def render_model(model) -> str:
    """Dispatching report for any trained model."""
    root = model.content_root()
    header = (f"{model.name}  "
              f"[{model.algorithm.SERVICE_NAME}, "
              f"{model.case_count} cases, "
              f"{model.insert_count} insert(s)]")
    types = {node.node_type for node in root.walk()}
    if NODE_RULE in types or NODE_ITEMSET in types:
        body = render_rules(root)
    elif NODE_SEQUENCE in types:
        body = render_sequences(root)
    elif NODE_REGRESSION_ROOT in types:
        body = render_regression(root)
    elif NODE_CLUSTER in types:
        body = render_clusters(root)
    elif NODE_TREE in types or NODE_PREDICTABLE in types:
        body = "\n\n".join(render_tree(tree) for tree in root.children)
    else:  # pragma: no cover - every built-in hits a branch above
        body = "\n".join(f"{n.node_id}: {n.caption}" for n in root.walk())
    return f"{header}\n{body}"


def _describe_span(name: str, duration_ms: float, counters: dict,
                   attributes: dict) -> str:
    parts = [f"{name}  {duration_ms:.2f} ms"]
    for key, value in counters.items():
        amount = f"{value:g}" if isinstance(value, float) else str(value)
        parts.append(f"{key}={amount}")
    for key, value in attributes.items():
        parts.append(f"{key}={value}")
    return "  ".join(parts)


def _describe_plan_row(row: dict) -> str:
    parts = [row["OPERATOR"]]
    if row.get("TARGET"):
        parts[0] = f"{row['OPERATOR']} [{row['TARGET']}]"
    if row.get("STRATEGY"):
        parts.append(str(row["STRATEGY"]))
    if row.get("EST_ROWS") is not None:
        parts.append(f"est={row['EST_ROWS']}")
    if row.get("COST") is not None:
        parts.append(f"cost={row['COST']:g}")
    if row.get("ACTUAL_ROWS") is not None:
        parts.append(f"actual={row['ACTUAL_ROWS']}")
    if row.get("ACTUAL_BATCHES") is not None:
        parts.append(f"batches={row['ACTUAL_BATCHES']}")
    if row.get("WALL_MS") is not None:
        parts.append(f"{row['WALL_MS']:.2f} ms")
    if row.get("CACHE"):
        parts.append(f"cache={row['CACHE']}")
    if row.get("POOL_TASKS") is not None:
        parts.append(f"tasks={row['POOL_TASKS']}")
    if row.get("DETAIL"):
        parts.append(f"({row['DETAIL']})")
    return "  ".join(parts)


def _tree_lines(nodes) -> List[str]:
    """Indented tree of ``(id, parent_id, text)`` nodes, parents first and
    roots' parent None: a root unindented, each child under its parent."""
    children: dict = {}
    for node_id, parent_id, text in nodes:
        children.setdefault(parent_id, []).append((node_id, text))
    lines = []

    def walk(node_id, text: str, prefix: str, is_last: bool,
             is_root: bool) -> None:
        if is_root:
            lines.append(text)
        else:
            connector = "`- " if is_last else "|- "
            lines.append(f"{prefix}{connector}{text}")
        child_prefix = "" if is_root else prefix + ("   " if is_last
                                                    else "|  ")
        kids = children.get(node_id, [])
        for position, (child_id, child_text) in enumerate(kids):
            walk(child_id, child_text, child_prefix,
                 position == len(kids) - 1, False)

    for root_id, root_text in children.get(None, []):
        walk(root_id, root_text, "", True, True)
    return lines


def render_plan(rowset) -> str:
    """Indented operator tree for an EXPLAIN [ANALYZE] rowset (dmxsh)."""
    names = [column.name for column in rowset.columns]
    records = [dict(zip(names, row)) for row in rowset.rows]
    return "\n".join(_tree_lines(
        (record["OP_ID"], record["PARENT_ID"], _describe_plan_row(record))
        for record in records))


def render_trace(record) -> str:
    """Indented trace rows of one statement (``TRACE LAST``)."""
    text = " ".join(record.text.split())
    if len(text) > 60:
        text = text[:57] + "..."
    header = (f"{record.kind} [{record.status}] "
              f"{record.duration_ms:.2f} ms  {text}")
    lines = [header]
    if record.error:
        lines.append(f"error: {record.error}")
    lines += _tree_lines(
        (span_id, parent_id,
         _describe_span(name, duration_ms, counters, attributes))
        for span_id, parent_id, _, name, _, duration_ms, counters,
        attributes in record.trace_rows())
    return "\n".join(lines)


def render_top_statements(repository, limit: int = 10) -> str:
    """The hottest statement fingerprints as a text table (``.top``)."""
    stats = repository.statement_stats()[:max(1, limit)]
    if not stats:
        return ("(workload repository is empty"
                if repository.enabled
                else "(workload repository is disabled"
                ) + " - execute some statements first)"
    lines = [f"{'FINGERPRINT':<18}{'CALLS':>7}{'ERR':>5}{'TOTAL_MS':>10}"
             f"{'MEAN_MS':>9}{'P99_MS':>9}{'ROWS':>9}  STATEMENT"]
    for stat in stats:
        text = stat["statement"]
        if len(text) > 48:
            text = text[:45] + "..."
        p99 = stat["p99_ms"]
        mean = stat["mean_ms"]
        lines.append(
            f"{stat['fingerprint']:<18}{stat['calls']:>7}"
            f"{stat['errors']:>5}{stat['total_ms']:>10.2f}"
            f"{0.0 if mean is None else mean:>9.3f}"
            f"{0.0 if p99 is None else p99:>9.3f}"
            f"{stat['rows_returned']:>9}  {text}")
    return "\n".join(lines)
