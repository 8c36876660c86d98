"""The formats that a `label` of an edge list never reads or writes.

Loaded by the calls that use one: JSON graphs (a graph file whose text
starts with `{` or `[`), DOT drawings (`label --dot`, `poset --out
x.dot`), the poset JSON (`poset`), and the help and usage text (`--help`
and usage errors), which is read off the command line's tables of
commands and options that cli passes in. matlabel.io holds the formats of
a `label` call, and the labeling JSON that `verify` and `exponents` read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .graph import Graph
from .io import _load_json

if TYPE_CHECKING:  # each command loads only the layers it runs
    from .labeling import EdgeLabeling
    from .poset import CliquePoset


def parse_graph_json(text: str) -> Graph:
    top = _load_json(text, "graph", ("vertices", "edges"))
    edges, vertices = top["edges"], top.get("vertices", [])
    if type(vertices) is not list:
        raise ValueError('graph JSON "vertices" must be an array')
    for i, e in enumerate(edges):
        if type(e) is not list or len(e) != 2:
            raise ValueError(f"graph JSON edges[{i}] must be a pair [u, v], got {e!r}")
    return Graph(vertices, edges)


# label colors cycle through 8 values; the first three follow the usual
# black/red/blue drawing convention for labels 1, 2, 3
LABEL_COLORS = ("black", "red", "blue", "forestgreen",
                "darkorange", "purple", "saddlebrown", "deepskyblue")


def _metavar(option: str) -> str:
    return f"{option} {option[2:].upper()}"


def usage(commands: dict, command: str | None) -> str:
    if command is None:
        return f"usage: matlabel {{{','.join(commands)}}} ..."
    _, positionals, allowed, _ = commands[command]
    words = [p.upper() for p in positionals] + [f"[{_metavar(o)}]" for o in allowed]
    return " ".join(["usage: matlabel", command] + words)


def help_text(commands: dict, options: dict, command: str | None) -> str:
    names = [command] if command else list(commands)
    shown = [o for o in options if any(o in commands[name][2] for name in names)]
    lines = [usage(commands, command), "",
             "Strongly chordal graphs and MAT-labelings", "", "commands:"]
    for name in names:
        lines += [f"  {usage(commands, name)[len('usage: matlabel '):]}",
                  f"      {commands[name][3]}"]
    lines += ["", "GRAPH is JSON if its text starts with { or [, and an edge list otherwise;",
              "LABELING is a labeling JSON file.", "", "options:"]
    lines += [f"  {_metavar(o):27} {options[o]}" for o in shown]
    lines += [f"  {'-h, --help':27} show this help and exit", "",
              "Exit codes: 0 success, 1 input or usage error, 2 rejection with a witness."]
    return "\n".join(lines) + "\n"


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
