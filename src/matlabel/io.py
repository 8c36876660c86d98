"""The file formats of a `label` call: edge-list text in, labeling JSON out.

Graph text format: one `u v` line per edge, `#` starts a comment, and an
optional `vertices: u1 u2 ...` line declares isolated vertices. Labeling
JSON: {"edges": [{"u": int, "v": int, "label": int}, ...]}, read by
`verify` and `exponents`. load_graph reads a file whose first
non-whitespace character is `{` or `[` as a JSON graph, {"vertices":
[...], "edges": [[u, v], ...]}, through matlabel.formats, which holds the
formats a `label` of an edge list never uses; no edge-list line starts
with either. Input files are read as UTF-8, with no byte-order mark. All
emitters sort keys and arrays so identical inputs serialize
byte-identically.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .graph import Graph

if TYPE_CHECKING:  # each command loads only the layers it runs
    from .labeling import EdgeLabeling


def parse_graph_text(text: str) -> Graph:
    vertices: list[int] = []
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        u, _, v = raw.partition(" ")
        try:
            if u.isdigit() and v.isdigit() and raw.isascii():  # a plain `u v` line
                edges.append((int(u), int(v)))
                continue
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
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


class _JsonObject(tuple):
    """A decoded JSON object: the tuple of its (key, value) pairs, in order,
    which an error message shows as the object. Decoding makes it with no
    Python call, as it defines no constructor."""

    __slots__ = ()

    def __repr__(self):
        return "{%s}" % ", ".join(f"{k!r}: {v!r}" for k, v in self)


def _load_json(text: str, what: str, keys: tuple[str, ...]) -> dict:
    """The top level of a `what` JSON document: an object of an "edges"
    array and no key outside `keys`, each once. Objects decode as
    _JsonObject tuples, by a hook that makes no Python call. A syntax
    error, decoder recursion on deep nesting or an int literal beyond
    int()'s digit limit is a ValueError that names the document."""
    import json

    try:
        data = json.loads(text, object_pairs_hook=_JsonObject)
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} JSON: {exc.msg} at line {exc.lineno} "
                         f"column {exc.colno}") from None
    except ValueError:  # int() refused a literal
        raise ValueError(f"{what} JSON has an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    top = dict(data) if type(data) is _JsonObject else {}
    has_edges = type(top.get("edges")) is list
    if not has_edges or len(top) != len(data) or top.keys() - set(keys):
        from .witness import _object_error

        raise _object_error(what, "", data, keys,
                            not has_edges and f'{what} JSON needs an "edges" array')
    return top


def read_input(path: str | Path) -> str:
    """The text of an input file, which must be UTF-8 with no byte-order
    mark: one is rejected, not skipped, as input is never coerced."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if text.startswith("\ufeff"):
        raise ValueError(f"{path}: starts with a UTF-8 byte-order mark")
    return text


def load_graph(path: str | Path) -> Graph:
    """Read a graph file: JSON if its text starts with `{` or `[`, after
    whitespace, and an edge list otherwise."""
    text = read_input(path)
    # the first character after whitespace, without the copy lstrip makes
    if next((c for c in text if not c.isspace()), "") in ("{", "["):
        from .formats import parse_graph_json

        return parse_graph_json(text)
    return parse_graph_text(text)


def parse_labeling_json(g: Graph, text: str) -> EdgeLabeling:
    """Labeling from JSON; the edge set must match the graph exactly.

    One loop reads the entries in order: keys other than "u", "v" and
    "label", an array or object endpoint or a (u, v) given twice is an
    error there, and EdgeLabeling checks the ids and labels. An entry of
    three ints makes no Python call."""
    from .labeling import EdgeLabeling

    labels = {}  # one per entry read so far: len(labels) is the next entry's index
    for item in _load_json(text, "labeling", ("edges",))["edges"]:
        entry = dict(item) if type(item) is _JsonObject else {}
        u, v, k = entry.get("u"), entry.get("v"), entry.get("label")
        if not (type(u) is type(v) is type(k) is int and len(item) == 3):
            from .witness import _check_labeling_entry

            _check_labeling_entry(len(labels), item)
        e = u, v
        if e in labels:
            raise ValueError(f"duplicate labeling entry for edge {e}")
        labels[e] = k
    return EdgeLabeling(g, labels)


# an entry of a labeling as json.dumps(..., sort_keys=True, indent=2) writes it
_ENTRY = '    {\n      "label": %d,\n      "u": %d,\n      "v": %d\n    }'


def labeling_json(lab: EdgeLabeling) -> str:
    """dump_json({"edges": [{"u": u, "v": v, "label": k}, ...]}) for lab,
    written without json: the same bytes, an entry per edge in ascending
    edge order."""
    entries = ",\n".join([_ENTRY % (k, u, v) for (u, v), k in lab.items()])
    return '{\n  "edges": [\n%s\n  ]\n}\n' % entries if entries else '{\n  "edges": []\n}\n'


def dump_json(data) -> str:
    import json

    return json.dumps(data, sort_keys=True, indent=2) + "\n"
