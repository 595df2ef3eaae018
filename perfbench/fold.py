"""Fold the benchmark's spans into a (layer, span) -> count / total / self table.

A span's self time is its duration minus the part of that interval its child
spans cover (the union of the children's intervals, clipped to the parent).
For the end-to-end spans (layer "e2e") the self time is the part of the
operation that no span covers.
"""

from collections import defaultdict


def covered_us(start, end, intervals):
    """Length of the union of `intervals`, clipped to [start, end]."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def fold(spans):
    """Return {(layer, name): {"count", "total_us", "self_us"}}.

    `spans` is a list of dicts with layer, name, start_us, end_us, id and
    parent (-1 for a root). Spans that never closed are skipped.
    """
    spans = [s for s in spans if s["end_us"] >= s["start_us"]]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start_us"], s["end_us"]))
    rows = {}
    for s in spans:
        dur = s["end_us"] - s["start_us"]
        kids = covered_us(s["start_us"], s["end_us"], children.get(s["id"], []))
        row = rows.setdefault((s["layer"], s["name"]),
                              {"count": 0, "total_us": 0.0, "self_us": 0.0})
        row["count"] += 1
        row["total_us"] += dur
        row["self_us"] += dur - kids
    return rows


def uncovered_fraction(rows):
    """Share of end-to-end span time that no child span covers."""
    total = sum(r["total_us"] for (layer, _), r in rows.items() if layer == "e2e")
    uncovered = sum(r["self_us"] for (layer, _), r in rows.items()
                    if layer == "e2e")
    return uncovered / total if total > 0 else 0.0


def render(rows, limit=40):
    """The layer table as text, heaviest total first."""
    lines = ["%-12s %-40s %8s %12s %12s" % ("layer", "span", "count",
                                           "total_ms", "self_ms")]
    ordered = sorted(rows.items(), key=lambda kv: -kv[1]["total_us"])
    for (layer, name), r in ordered[:limit]:
        lines.append("%-12s %-40s %8d %12.2f %12.2f" % (
            layer, name[:40], r["count"], r["total_us"] / 1e3,
            r["self_us"] / 1e3))
    return "\n".join(lines)
