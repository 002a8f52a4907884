"""JSON and DOT serialization: the CLI reads posets and writes lattices.

Poset schema:   {"vertices": [{"id": str, "color": int}], "covers": [[id, id]]}
Lattice schema: {"vertices": [str], "edges": [{"from": str, "to": str, "color": int}]}

Output is deterministic (canonical ordering, fixed separators).
"""

import json

from .lattice import sort_key
from .poset import PosetError, VertexColoredPoset

_DOT_PALETTE = ("red", "blue", "forestgreen", "purple", "orange", "cyan4",
                "magenta", "gold3", "gray40", "brown", "darkolivegreen",
                "deeppink3")


def label(v):
    """Canonical flat string for a vertex label."""
    if isinstance(v, frozenset):
        return "{" + ";".join(sorted(label(x) for x in v)) + "}"
    if isinstance(v, tuple):
        return ",".join(label(x) for x in v)
    return str(v)


def poset_from_json(text):
    """Parse the poset schema; a document of another shape raises PosetError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PosetError(f"poset JSON does not match the schema (not JSON: {exc})") from None
    except RecursionError:
        raise PosetError("poset JSON does not match the schema (nested too deeply)") from None
    try:
        items, pairs = doc["vertices"], doc["covers"]
        vertices = [item["id"] for item in items]
        colors = {item["id"]: item["color"] for item in items}
        covers = [(a, b) for a, b in pairs]
    except (KeyError, TypeError, ValueError) as exc:
        raise PosetError(
            f"poset JSON does not match the schema ({type(exc).__name__}: {exc})") from None
    if not (isinstance(items, list) and isinstance(pairs, list)
            and all(isinstance(pair, list) for pair in pairs)):
        raise PosetError("poset JSON does not match the schema "
                         "(vertices, covers and each cover must be lists)")
    ends = [v for cover in covers for v in cover]
    if not all(isinstance(v, str) for v in vertices + ends):
        raise PosetError("poset JSON does not match the schema (vertex ids must be strings)")
    if len(set(vertices)) != len(vertices):
        raise PosetError("poset JSON does not match the schema (vertex ids must be unique)")
    for v in vertices:      # ; joins ideal labels, " and \ would break DOT
        if any(c in v for c in ';"\\'):
            raise PosetError(f"poset JSON does not match the schema "
                             f"(vertex id {v!r} may not contain ; \" or \\)")
    return VertexColoredPoset(vertices, covers, colors)


def lattice_to_json(L):
    doc = {
        "vertices": sorted(label(v) for v in L.vertices),
        "edges": sorted(({"from": label(a), "to": label(b), "color": c}
                         for a, b, c in L.edges),
                        key=lambda e: (e["from"], e["to"])),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def lattice_to_dot(L, name="lattice"):
    """Graphviz source: edge label = color, same-rank layout hints."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for v in L.vertices:
        lines.append(f'  "{label(v)}";')
    ranks = L.ranks
    if ranks is not None:
        by_rank = {}
        for v, r in ranks.items():
            by_rank.setdefault(r, []).append(v)
        for r in sorted(by_rank):
            row = " ".join(f'"{label(v)}";' for v in
                           sorted(by_rank[r], key=sort_key))
            lines.append(f"  {{ rank=same; {row} }}")
    for a, b, c in L.edges:
        tint = _DOT_PALETTE[(c - 1) % len(_DOT_PALETTE)]
        lines.append(f'  "{label(a)}" -> "{label(b)}" '
                     f'[label="{c}", color="{tint}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
