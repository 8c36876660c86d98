"""File formats: edge-list text, JSON graphs/labelings, DOT exports.

Graph text format: one `u v` line per edge, `#` starts a comment, and an
optional `vertices: u1 u2 ...` line declares isolated vertices. JSON graph
format: {"vertices": [...], "edges": [[u, v], ...]}. Labeling JSON:
{"edges": [{"u": int, "v": int, "label": int}, ...]}. All emitters sort
keys and arrays so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from .graph import Graph

if TYPE_CHECKING:  # each command loads only the layers it runs
    from .labeling import EdgeLabeling
    from .poset import CliquePoset

# label colors cycle through 8 values; the first three follow the usual
# black/red/blue drawing convention for labels 1, 2, 3
LABEL_COLORS = ("black", "red", "blue", "forestgreen",
                "darkorange", "purple", "saddlebrown", "deepskyblue")


def parse_graph_text(text: str) -> Graph:
    vertices: list[int] = []
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("vertices:"):
                vertices.extend(_vertex_token(tok)
                                for tok in line[len("vertices:"):].split())
            else:
                u, v = line.split()
                if u.isascii() and u.isdigit() and v.isascii() and v.isdigit():
                    edges.append((int(u), int(v)))
                else:
                    edges.append((_vertex_token(u), _vertex_token(v)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}") from exc
    return Graph(vertices, edges)


def _vertex_token(tok: str) -> int:
    """An ASCII decimal vertex id; int() alone would also take '1_0', '+3'
    and non-ASCII digits."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"not a vertex id: {tok!r}")
    return int(tok)


def _load_json(text: str, what: str):
    """json.loads, with a repeated object key or decoder recursion on deep
    nesting as a ValueError."""

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
            raise ValueError(f"{what} JSON repeats the key {key!r} in one object")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply") from None


def parse_graph_json(text: str) -> Graph:
    data = _load_json(text, "graph")
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise ValueError('graph JSON needs an "edges" array')
    vertices = data.get("vertices", [])
    if not isinstance(vertices, list):
        raise ValueError('graph JSON "vertices" must be an array')
    for i, e in enumerate(data["edges"]):
        if not isinstance(e, list) or len(e) != 2:
            raise ValueError(f"graph JSON edges[{i}] must be a pair [u, v], got {e!r}")
    return Graph(vertices, data["edges"])


def load_graph(path: str | Path, fmt: str | None = None) -> Graph:
    """Read a graph file; format from `fmt` or the file extension."""
    path = Path(path)
    text = path.read_text()
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "edgelist"
    if fmt == "json":
        return parse_graph_json(text)
    if fmt == "edgelist":
        return parse_graph_text(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def graph_to_json_dict(g: Graph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}


def labeling_to_json_dict(lab: EdgeLabeling) -> dict:
    return {
        "edges": [
            {"u": u, "v": v, "label": k} for (u, v), k in lab.items()
        ]
    }


_ENTRY_KEYS = frozenset(("u", "v", "label"))


def parse_labeling_json(g: Graph, text: str) -> EdgeLabeling:
    """Labeling from JSON; the edge set must match the graph exactly.

    Checks the JSON shape and repeated entries here; EdgeLabeling checks
    the vertex ids, the labels and the edge set.
    """
    from .labeling import EdgeLabeling

    data = _load_json(text, "labeling")
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise ValueError('labeling JSON needs an "edges" array')
    labels = {}
    for i, item in enumerate(data["edges"]):
        if not isinstance(item, dict) or not item.keys() >= _ENTRY_KEYS:
            raise ValueError(f'labeling JSON edges[{i}] must be an object with '
                             f'"u", "v" and "label", got {item!r}')
        u, v = e = item["u"], item["v"]
        if isinstance(u, (list, dict)) or isinstance(v, (list, dict)):
            raise ValueError(f"labeling JSON edges[{i}] has an array or object endpoint")
        if e in labels:
            raise ValueError(f"duplicate labeling entry for edge {e}")
        labels[e] = item["label"]
    return EdgeLabeling(g, labels)


def labeling_to_dot(lab: EdgeLabeling, name: str = "labeled") -> str:
    lines = [f"graph {name} {{"]
    for v in lab.graph.vertices:
        lines.append(f"  {v};")
    for (u, v), k in lab.items():
        color = LABEL_COLORS[(k - 1) % len(LABEL_COLORS)]
        lines.append(f'  {u} -- {v} [label={k}, color={color}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_name(node: frozenset[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(node)) + "}"


def poset_to_json_dict(p: CliquePoset) -> dict:
    nodes = list(p.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    covers = sorted(
        [index[low], index[high]]
        for high in nodes for low in p.covers[high]
    )
    return {
        "nodes": [sorted(node) for node in nodes],
        "covers": covers,
        "maximal": sorted(index[c] for c in p.maximal_nodes),
    }


def poset_to_dot(p: CliquePoset, name: str = "poset") -> str:
    """Hasse diagram, drawn bottom-up, maximal cliques highlighted."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    index = {node: i for i, node in enumerate(p.nodes)}
    for node, i in index.items():
        style = ', style=filled, fillcolor=lightgrey' if node in p.maximal_nodes else ""
        lines.append(f'  n{i} [label="{_node_name(node)}"{style}];')
    for high in p.nodes:
        for low in p.covers[high]:
            lines.append(f"  n{index[low]} -> n{index[high]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
