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

from .graph import Graph, canonical_edge

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
        u, _, v = raw.partition(" ")
        if u.isdigit() and v.isdigit() and raw.isascii():  # a plain `u v` line
            edges.append((int(u), int(v)))
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("vertices:"):
                vertices.extend(_vertex_token(tok)
                                for tok in line[len("vertices:"):].split())
            else:
                u, v = line.split()
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


def _load_json(text: str, what: str, pairs: bool = False):
    """json.loads, with a repeated object key or decoder recursion on deep
    nesting as a ValueError.

    With pairs, every object is decoded as a tuple of its (key, value)
    pairs, by a hook that makes no Python call, and the caller checks the
    keys of the objects it reads.
    """

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
            raise ValueError(f"{what} JSON repeats the key {key!r} in one object")
        return obj

    try:
        return json.loads(text, object_pairs_hook=tuple if pairs else unique_keys)
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

    One loop over the entries makes the checks of the JSON shape and those
    of EdgeLabeling, and writes the canonical {edge: label} table that the
    labeling then takes as it is. An entry is read off the (key, value)
    pairs of its object in any key order, and a repeated key shows as a
    dict shorter than the pairs. The wording of an error is worked out only
    once a fault is found, by _labeling_fault.
    """
    from .labeling import EdgeLabeling, _domain_error

    data = _load_json(text, "labeling", pairs=True)
    top = dict(data) if type(data) is tuple else {}
    edges = top.get("edges")
    if type(edges) is not list or len(top) != len(data):
        raise _labeling_fault(text)
    adj = g._adj
    table = {}
    known = True  # every entry so far is an edge of g
    extra = len(top) > 1  # keys whose values are not read: check them at the end
    for i, item in enumerate(edges):
        entry = dict(item) if type(item) is tuple else {}
        u, v, k = entry.get("u"), entry.get("v"), entry.get("label")
        if not (type(u) is int and type(v) is int and type(k) is int
                and u >= 0 and v >= 0 and u != v and k > 0 and len(entry) == len(item)):
            raise _labeling_fault(text, i)
        if len(entry) > 3:
            extra = True
        e = (u, v) if u < v else (v, u)
        if e in table:
            raise _labeling_fault(text, i)
        table[e] = k
        if v not in adj.get(u, ()):
            known = False
    if extra:
        _load_json(text, "labeling")  # a repeated key in a value not read
    if not known or len(table) != g.m:
        raise _domain_error(g, table)
    return EdgeLabeling._from_table(g, table)


def _labeling_fault(text: str, i: int | None = None) -> ValueError:
    """The error for labeling JSON whose top level (i None) or entry i
    fails parse_labeling_json's checks.

    The error names the fault that comes first in the order of the checks:
    a repeated key anywhere (the text is decoded again, into dicts), the
    top level, then the shape of every entry, its endpoints and an earlier
    entry with the same (u, v), and only then the ids and label of entry i
    and an earlier entry for the same edge. The entries before i passed
    every check.
    """
    from .labeling import _check_entry

    data = _load_json(text, "labeling")
    if i is None:
        return ValueError('labeling JSON needs an "edges" array')
    seen = set()
    for j, item in enumerate(data["edges"]):
        if not isinstance(item, dict) or not item.keys() >= _ENTRY_KEYS:
            return ValueError(f'labeling JSON edges[{j}] must be an object with '
                              f'"u", "v" and "label", got {item!r}')
        u, v = e = item["u"], item["v"]
        if isinstance(u, (list, dict)) or isinstance(v, (list, dict)):
            return ValueError(f"labeling JSON edges[{j}] has an array or object endpoint")
        if e in seen:
            return ValueError(f"duplicate labeling entry for edge {e}")
        seen.add(e)
    item = data["edges"][i]
    _check_entry(item["u"], item["v"], item["label"])
    return ValueError(f"duplicate label entry for edge {canonical_edge(item['u'], item['v'])}")


def labeling_to_dot(lab: EdgeLabeling) -> str:
    lines = ["graph labeled {"]
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


def poset_to_dot(p: CliquePoset) -> str:
    """Hasse diagram, drawn bottom-up, maximal cliques highlighted."""
    lines = ["digraph poset {", "  rankdir=BT;"]
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
