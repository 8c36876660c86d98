"""File formats and exports."""

import json
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matlabel import EdgeLabeling, Graph, build_poset
from matlabel.formats import labeling_to_dot, parse_graph_json, poset_to_dot, poset_to_json_dict
from matlabel.io import (
    _vertex_token,
    dump_json,
    labeling_json,
    load_graph,
    parse_graph_text,
    parse_labeling_json,
)

from .conftest import UI7_EDGES, UI7_LABELS
from .families import complete_graph
from .helpers import graph_to_json_dict
from .test_fuzz import _json_texts, edge_list_texts, labeling_objects


def test_parse_edge_list():
    text = """
    # a comment
    vertices: 9 1
    1 2
    2 3  # trailing comment
    """
    g = parse_graph_text(text)
    assert g.vertices == (1, 2, 3, 9)
    assert g.edges == ((1, 2), (2, 3))


def test_parse_edge_list_errors():
    with pytest.raises(ValueError) as err:
        parse_graph_text("1 2\n1 2 3\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ValueError):
        parse_graph_text("1 x\n")


@pytest.mark.parametrize("token", ["+3", "1_0", "\u00b2", "\u0663"])
def test_parse_edge_list_takes_ascii_digits_only(token):
    # int() would read each of these, or fail on them with another message
    for text, line in ((f"{token} 2\n", 1), (f"1 2\n2 {token}\n", 2),
                       (f"vertices: {token}\n", 1)):
        with pytest.raises(ValueError) as err:
            parse_graph_text(text)
        assert str(err.value) == f"line {line}: cannot parse {text.splitlines()[-1]!r}"


def test_graph_json_round_trip():
    g = Graph([5, 1, 2], [(1, 2)])
    data = graph_to_json_dict(g)
    assert data == {"vertices": [1, 2, 5], "edges": [[1, 2]]}
    assert parse_graph_json(json.dumps(data)) == g
    assert parse_graph_json('{"edges": [[1, 2]]}') == Graph.from_edges([(1, 2)])
    with pytest.raises(ValueError):
        parse_graph_json('{"vertices": [1]}')


def test_load_graph_formats(tmp_path):
    # the format is read off the text, whatever the file's name: JSON when
    # it starts with `{` or `[` after whitespace, an edge list otherwise
    cases = [("1 2\n", Graph.from_edges([(1, 2)])),
             ('{"vertices": [1, 2, 3], "edges": [[1, 2]]}', Graph([1, 2, 3], [(1, 2)])),
             ('\n \n\t{"edges": [[4, 5]]}\n', Graph.from_edges([(4, 5)])),
             ("# {a comment}\nvertices: 7\n", Graph([7])), ("", Graph()), (" \n", Graph())]
    for text, graph in cases:
        for name in ("g.txt", "g.json", "g"):
            path = tmp_path / name
            path.write_text(text)
            assert load_graph(path) == graph, (name, text)
    path.write_text("[]")
    with pytest.raises(ValueError, match='graph JSON needs an "edges" array'):
        load_graph(path)


def test_labeling_json_round_trip(ui7_labeling):
    text = labeling_json(ui7_labeling)
    parsed = parse_labeling_json(ui7_labeling.graph, text)
    assert parsed == ui7_labeling


def test_labeling_json_is_what_json_writes(corpus6_facts):
    # label writes its labeling without json; the text must stay the bytes
    # that json.dumps(..., sort_keys=True, indent=2) gives
    from matlabel import construct_mat_labeling

    from .families import height_labeling_complete, random_strongly_chordal

    labelings = [EdgeLabeling(Graph(), {}), EdgeLabeling(Graph([7]), {}),
                 EdgeLabeling(Graph.from_edges([(3, 10 ** 12)]), {(3, 10 ** 12): 10 ** 20}),
                 height_labeling_complete(30)]
    labelings += [construct_mat_labeling(random_strongly_chordal(n, seed=n))
                  for n in (50, 120)]
    labelings += [f.constructed for f in corpus6_facts if f.constructed is not None]
    for lab in labelings:
        data = {"edges": [{"u": u, "v": v, "label": k} for (u, v), k in lab.items()]}
        assert labeling_json(lab) == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_labeling_json_domain_mismatch():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        parse_labeling_json(g, '{"edges": [{"u": 1, "v": 2, "label": 1}]}')
    with pytest.raises(ValueError):
        parse_labeling_json(g, '{"nope": []}')


@pytest.mark.parametrize("entries, message", [
    ('{"u": [1], "v": 2, "label": 1}', "array or object endpoint"),
    ('{"u": 1, "v": {}, "label": 1}', "array or object endpoint"),
    ('{"u": true, "v": 2, "label": 1}', "vertex ids must be nonnegative integers"),
    ('{"u": 1, "v": 2, "label": 1}, {"u": 1, "v": 2, "label": 1}', "duplicate labeling entry"),
    ('{"u": 1, "v": 2, "label": 1}, {"u": 2, "v": 1, "label": 1}', "duplicate label entry"),
])
def test_labeling_json_bad_endpoints(entries, message):
    # endpoints are checked once, by EdgeLabeling; the parser only keeps
    # them hashable and catches repeated entries
    with pytest.raises(ValueError, match=message):
        parse_labeling_json(Graph.from_edges([(1, 2)]), f'{{"edges": [{entries}]}}')


def test_labeling_dot_colors(ui7_labeling):
    dot = labeling_to_dot(ui7_labeling)
    assert "1 -- 2 [label=3, color=blue];" in dot
    assert "4 -- 5 [label=1, color=black];" in dot
    assert "4 -- 6 [label=2, color=red];" in dot


def test_poset_json(ui7):
    p = build_poset(ui7)
    data = poset_to_json_dict(p)
    assert [frozenset(n) for n in data["nodes"]] == list(p.nodes)
    assert len(data["covers"]) == 12
    assert len(data["maximal"]) == 4
    # indices point at the right nodes
    for low, high in data["covers"]:
        assert set(data["nodes"][low]) < set(data["nodes"][high])


def test_poset_dot(ui7):
    dot = poset_to_dot(build_poset(ui7))
    assert dot.startswith("digraph poset {")
    assert 'label="{4,5}"' in dot
    assert "style=filled" in dot  # maximal cliques highlighted


def test_dump_json_deterministic():
    a = dump_json({"b": [3, 1], "a": True})
    b = dump_json({"a": True, "b": [3, 1]})
    assert a == b
    assert a.endswith("\n")


# -- the labeling reader against the two-pass reader it replaced ------------

def _reference_labeling(g, text):
    """The canonical {edge: label} table of the earlier reader, or its
    ValueError: json.loads with a checking hook on every object, the shape
    of each entry, then every check of EdgeLabeling in a second pass."""
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
            raise ValueError(f"labeling JSON repeats the key {key!r} in one object")
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ValueError("labeling JSON is nested too deeply") from None
    except json.JSONDecodeError as exc:  # worded since, with the document and position
        raise ValueError(f"labeling JSON: {exc.msg} at line {exc.lineno} "
                         f"column {exc.colno}") from None
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise ValueError('labeling JSON needs an "edges" array')
    labels = {}
    for i, item in enumerate(data["edges"]):
        if not isinstance(item, dict) or not item.keys() >= {"u", "v", "label"}:
            raise ValueError(f'labeling JSON edges[{i}] must be an object with '
                             f'"u", "v" and "label", got {item!r}')
        u, v = e = item["u"], item["v"]
        if isinstance(u, (list, dict)) or isinstance(v, (list, dict)):
            raise ValueError(f"labeling JSON edges[{i}] has an array or object endpoint")
        if e in labels:
            raise ValueError(f"duplicate labeling entry for edge {e}")
        labels[e] = item["label"]
    canon = {}
    for (u, v), k in labels.items():
        for x in (u, v):
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise ValueError(f"vertex ids must be nonnegative integers, got {x!r}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"label of {e} must be a positive integer, got {k!r}")
        if e in canon:
            raise ValueError(f"duplicate label entry for edge {e}")
        canon[e] = k
    edges = set(g.edges)
    if canon.keys() != edges:
        raise ValueError(f"label domain must equal the edge set (missing "
                         f"{sorted(edges - canon.keys())}, extra {sorted(canon.keys() - edges)})")
    return canon


def _outcome(read, g, text):
    try:
        return "ok", read(g, text)
    except ValueError as exc:
        return "error", str(exc)


def _assert_read_alike(g, text):
    """parse_labeling_json's outcome, checked against the earlier reader's:
    the same labeling of a text it took with no key outside the format, an
    error naming the document for one with such a key, and an error for
    every text it rejected."""
    got = _outcome(parse_labeling_json, g, text)
    if got[0] == "ok":
        assert got[1] == EdgeLabeling(g, got[1].labels)
        got = ("ok", got[1].labels)
    expected = _outcome(_reference_labeling, g, text)
    if expected[0] == "error":
        assert got[0] == "error", (text, got)
    elif _has_unknown_key(text):
        assert got[0] == "error" and got[1].startswith("labeling JSON"), (text, got)
    else:
        assert got == expected
    return got


def _has_unknown_key(text):
    """Whether a labeling the earlier reader took has a key outside the
    format, at the top level or in an entry."""
    data = json.loads(text)
    return data.keys() != {"edges"} or any(e.keys() != {"u", "v", "label"}
                                           for e in data["edges"])


UI7 = Graph.from_edges(UI7_EDGES)


def _entry_text(pairs):
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"


def _labeling_text(entries, top=None):
    body = "[" + ", ".join(e if isinstance(e, str) else _entry_text(e) for e in entries) + "]"
    return "{" + ", ".join(top or [f'"edges": {body}']) + "}"


def _entries(orders, flips):
    """The ui7 labeling as lists of (key, JSON value) pairs, each entry in
    the key order and the orientation drawn for it."""
    out = []
    for ((u, v), k), order, flip in zip(sorted(UI7_LABELS.items()), orders, flips):
        if flip:
            u, v = v, u
        values = {"u": str(u), "v": str(v), "label": str(k)}
        out.append([(key, values[key]) for key in order])
    return out


KEY_ORDERS = [("label", "u", "v"), ("u", "v", "label"), ("v", "label", "u"),
              ("u", "label", "v"), ("v", "u", "label"), ("label", "v", "u")]

# one fault each: (where, replacement); "id" and "label" replace a value
SINGLE_FAULTS = (
    [("id", bad) for bad in ("true", "2.0", "-1", '"1"', "null", "{}", "[1]",
                             '{"a": 1}', '{"a": 1, "a": 2}')]
    + [("label", bad) for bad in ("true", "2.0", "0", "-1", '"1"', "null", "{}", "[1]")]
    + [("drop-key", key) for key in ("u", "v", "label")]
    + [("repeat-key", key) for key in ("u", "v", "label")]
    + [("entry", bad) for bad in ("5", "null", "[1, 2]", "[]", '"u"', "{}")]
    + [(kind, None) for kind in ("self-loop", "same-orientation", "both-orientations",
                                 "missing-edge", "extra-edge", "non-edge",
                                 "nested-repeat", "extra-key")]
)


def _with_fault(entries, fault, i, rng):
    where, bad = fault
    entries = [e if isinstance(e, str) else list(e) for e in entries]
    entry = entries[i]
    if isinstance(entry, str):  # an earlier fault made it no object
        return entries
    if where in ("id", "label"):
        key = rng.choice("uv") if where == "id" else "label"
        entry[:] = [(k, v) for k, v in entry if k != key]
        entry.insert(rng.randrange(len(entry) + 1), (key, bad))
    elif where == "drop-key":
        entry[:] = [(k, v) for k, v in entry if k != bad]
    elif where == "repeat-key":
        value = dict(entry).get(bad, "1")
        entry.insert(rng.randrange(len(entry) + 1), (bad, value))
    elif where == "entry":
        entries[i] = bad
    elif where == "self-loop":
        values = dict(entry)
        entry[:] = [(k, values.get("u", v) if k == "v" else v) for k, v in entry]
    elif where == "same-orientation":
        entries.insert(rng.randrange(len(entries) + 1), list(entry))
    elif where == "both-orientations":
        values = dict(entry)
        flipped = [(k, values.get("v", v) if k == "u" else values.get("u", v) if k == "v"
                    else v) for k, v in entry]
        entries.insert(rng.randrange(len(entries) + 1), flipped)
    elif where == "missing-edge":
        del entries[i]
    elif where == "extra-edge":
        entries.insert(i, [("u", "1"), ("v", "7"), ("label", "1")])
    elif where == "non-edge":
        entries[i] = [("u", "1"), ("v", "7"), ("label", "1")]
    elif where == "nested-repeat":
        entry.insert(rng.randrange(len(entry) + 1), ("note", '{"a": 1, "a": 1}'))
    elif where == "extra-key":
        entry.insert(rng.randrange(len(entry) + 1), ("note", "0"))
    return entries


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(KEY_ORDERS), min_size=13, max_size=13),
       st.lists(st.booleans(), min_size=13, max_size=13),
       st.sampled_from(SINGLE_FAULTS), st.integers(0, 12), st.randoms())
def test_a_single_fault_keeps_its_message(orders, flips, fault, i, rng):
    entries = _entries(orders, flips)
    got = _assert_read_alike(UI7, _labeling_text(entries))
    assert got == ("ok", UI7_LABELS)  # every key order and orientation is read
    faulty = _labeling_text(_with_fault(entries, fault, i, rng))
    assert _assert_read_alike(UI7, faulty)[0] == "error"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(KEY_ORDERS), min_size=13, max_size=13),
       st.lists(st.booleans(), min_size=13, max_size=13),
       st.lists(st.tuples(st.sampled_from(SINGLE_FAULTS), st.integers(0, 12)),
                min_size=2, max_size=4),
       st.randoms())
def test_several_faults_are_named_as_before(orders, flips, faults, rng):
    # the one-pass reader words the fault it meets as the two-pass reader
    # did, which first checked the shape of every entry
    entries = _entries(orders, flips)
    for fault, i in faults:
        entries = _with_fault(entries, fault, min(i, len(entries) - 1), rng)
    _assert_read_alike(UI7, _labeling_text(entries))


@settings(max_examples=200, deadline=None)
@given(_json_texts(labeling_objects))
def test_any_labeling_text_is_read_as_the_two_pass_reader_reads_it(text):
    _assert_read_alike(parse_graph_text("0 1\n1 2\n0 2\n2 3\n"), text)


@pytest.mark.parametrize("text", [
    '{"edges": [{"label": 1, "u": 1, "v": 2}, {"label": 2, "u": 2, "v": 3}]}',
    '{"edges": [{"u": 1, "v": 2, "label": 1}, {"u": 2, "v": 3, "label": 2}]}',
    '{"edges": [{"u": 2, "v": 1, "label": 1}, {"v": 2, "label": 2, "u": 3}]}',
    '{"edges": [{"label": 1, "u": 1, "v": 2}, {"v": 2, "u": 3, "label": 2}]}',
    '{"edges":[{"u":2,"v":1,"label":1},{"u":2,"v":3,"label":2}]}',
])
def test_labeling_json_in_any_key_order_and_orientation(text):
    assert _assert_read_alike(P3, text) == ("ok", {(1, 2): 1, (2, 3): 2})


P3 = Graph.from_edges([(1, 2), (2, 3)])


@pytest.mark.parametrize("text, message", [
    ('{"edges": [{"u": true, "v": 2, "label": 1}, {"u": 2, "v": 3, "label": 1}]}',
     "vertex ids must be nonnegative integers, got True"),
    ('{"edges": [{"u": 2.0, "v": 1, "label": 1}, {"u": 2, "v": 3, "label": 1}]}',
     "vertex ids must be nonnegative integers, got 2.0"),
    ('{"edges": [{"u": 1, "v": 2, "label": true}, {"u": 2, "v": 3, "label": 1}]}',
     "label of (1, 2) must be a positive integer, got True"),
    ('{"edges": [{"u": 1, "v": 2, "label": 2.0}, {"u": 2, "v": 3, "label": 1}]}',
     "label of (1, 2) must be a positive integer, got 2.0"),
    ('{"edges": [{"u": 1, "v": 2, "label": {"x": [1, {"y": 2}]}}, '
     '{"u": 2, "v": 3, "label": 1}]}',
     "label of (1, 2) must be a positive integer, got {'x': [1, {'y': 2}]}"),
    ('{"edges": [{"u": {"w": 1}, "v": 2, "label": 1}, {"u": 2, "v": 3, "label": 1}]}',
     "labeling JSON edges[0] has an array or object endpoint"),
    ('{"edges": [{"u": 1, "v": 2, "u": 1, "label": 1}, {"u": 2, "v": 3, "label": 1}]}',
     "labeling JSON repeats the key 'u' in one object"),
    ('{"edges": [{"u": 1, "v": 2, "label": 1}, {"u": 2, "v": 1, "label": 1}]}',
     "duplicate label entry for edge (1, 2)"),
    ('{"edges": [{"u": 2, "v": 1, "label": 1}, {"u": 2, "v": 1, "label": 1}]}',
     "duplicate labeling entry for edge (2, 1)"),
    ('{"edges": [{"u": 1, "v": 2, "label": 1}]}',
     "label domain must equal the edge set (missing [(2, 3)], extra [])"),
    ('{"edges": [{"u": 1, "v": 2, "label": 1}, {"u": 2, "v": 3, "label": 1}, '
     '{"u": 1, "v": 3, "label": 1}]}',
     "label domain must equal the edge set (missing [], extra [(1, 3)])"),
    ('{"edges": [{"u": 1, "v": 2, "label": 1}, {"u": 1, "v": 3, "label": 1}]}',
     "label domain must equal the edge set (missing [(2, 3)], extra [(1, 3)])"),
    ('{"edges": [{"u": 1, "v": 2}, {"u": 2, "v": 3, "label": 1}]}',
     """labeling JSON edges[0] must be an object with "u", "v" and "label", """
     """got {'u': 1, 'v': 2}"""),
    ('{"edges": [[], {"u": 2, "v": 3, "label": 1}]}',
     """labeling JSON edges[0] must be an object with "u", "v" and "label", got []"""),
    ("null", 'labeling JSON needs an "edges" array'),
    ("[]", 'labeling JSON needs an "edges" array'),
    ("[[]]", 'labeling JSON needs an "edges" array'),
    ('[{"a": 1, "a": 2}]', 'labeling JSON needs an "edges" array'),
    ('{"edges": 5}', 'labeling JSON needs an "edges" array'),
    ('{"edges": [], "edges": []}', "labeling JSON repeats the key 'edges' in one object"),
    # every fault EdgeLabeling words: a label 0, a self-loop, a negative id,
    # and a domain mismatch
    ('{"edges": [{"u": 1, "v": 2, "label": 0}, {"u": 2, "v": 3, "label": 2}]}',
     "label of (1, 2) must be a positive integer, got 0"),
    ('{"edges": [{"u": 1, "v": 1, "label": 1}, {"u": 2, "v": 3, "label": 2}]}',
     "self-loop at vertex 1"),
    ('{"edges": [{"u": -1, "v": 2, "label": 1}, {"u": 2, "v": 3, "label": 2}]}',
     "vertex ids must be nonnegative integers, got -1"),
    ('{"edges": [{"u": 1, "v": 3, "label": 1}, {"u": 2, "v": 3, "label": 1}]}',
     "label domain must equal the edge set (missing [(1, 2)], extra [(1, 3)])"),
    # a key outside the format, in an entry or at the top level; an object
    # is checked before the objects inside it
    ('{"edges": [{"u": 1, "v": 2, "label": 1, "note": 0}, {"u": 2, "v": 3, "label": 2}]}',
     "labeling JSON edges[0] has an unknown key 'note'"),
    ('{"edges": [{"u": 1, "v": 2, "label": 1}, {"u": 2, "v": 3, "label": 2}], "meta": 0}',
     "labeling JSON has an unknown key 'meta'"),
    ('{"edges": [{"u": 1, "v": 2, "label": 1, "note": {"a": [1]}}, '
     '{"u": 2, "v": 3, "label": 2}], "meta": {"b": null}}',
     "labeling JSON has an unknown key 'meta'"),
    ('{"edges": [{"u": 2, "v": 1, "label": 1}, {"u": 2, "v": 1, "label": 2}]}',
     "duplicate labeling entry for edge (2, 1)"),
])
def test_labeling_json_faults_keep_their_messages(text, message):
    assert _assert_read_alike(P3, text) == ("error", message)


def test_the_loop_builds_its_labeling_through_edgelabeling(monkeypatch):
    # EdgeLabeling.__init__ is the one owner of the entry checks
    built = []
    init = EdgeLabeling.__init__

    def counted(self, graph, labels):
        built.append(dict(labels))
        init(self, graph, labels)

    monkeypatch.setattr(EdgeLabeling, "__init__", counted)
    text = '{"edges": [{"u": 2, "v": 1, "label": 1}, {"label": 2, "u": 2, "v": 3}]}'
    assert parse_labeling_json(P3, text).labels == {(1, 2): 1, (2, 3): 2}
    assert built == [{(2, 1): 1, (2, 3): 2}]


def _python_calls(fn, *args):
    """The number of Python function calls made while fn(*args) runs."""
    import sys

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def test_labeling_json_makes_no_python_call_per_entry():
    from .families import height_labeling_complete

    for ell in (10, 40):
        lab = height_labeling_complete(ell)
        text = labeling_json(lab)
        parsed, calls = _python_calls(parse_labeling_json, lab.graph, text)
        assert parsed == lab
        assert calls < 20, (ell, calls)  # 45 and 780 entries


def _reference_graph_text(text):
    """The edge-list reader before plain lines took a fast path, under the
    line rule since: a line ends at a line feed, a carriage return just
    before one is dropped, and only spaces and tabs separate tokens."""
    vertices, edges = [], []
    for lineno, raw in enumerate(re.split(r"\r?\n", text), start=1):
        line = raw.split("#", 1)[0].strip(" \t")
        if not line:
            continue
        try:
            if line.startswith("vertices:"):
                vertices.extend(_vertex_token(tok) for tok in
                                re.split(r"[ \t]+", line[len("vertices:"):].strip(" \t")) if tok)
            else:
                u, v = re.split(r"[ \t]+", line)
                edges.append((_vertex_token(u), _vertex_token(v)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}") from exc
    return Graph(vertices, edges)


# what str.splitlines also breaks a line at, and Unicode spaces that
# str.split also separates tokens at
LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]
UNICODE_SPACES = ["\xa0", "\u2003", "\u3000"]


@settings(max_examples=300, deadline=None)
@given(edge_list_texts)
@example("1 2\f2 3\n3 x\n")
@example("1 2\r\n2 3\r\nvertices:\t9\r\n")
@example("1\t2\n\t2 \t3\t# c\f\n")
@example("1\xa02\n")
@example("1 2\r")
def test_edge_list_is_read_as_before(text):
    # the fast path takes a line of two ASCII-digit tokens and one space;
    # every other line gets the comment, `vertices:` and error handling
    got = _outcome(lambda _, t: parse_graph_text(t), None, text)
    assert got == _outcome(lambda _, t: _reference_graph_text(t), None, text)


@pytest.mark.parametrize("separator", LINE_BREAKS + UNICODE_SPACES)
def test_edge_list_lines_end_at_line_feeds_and_ids_part_at_spaces_and_tabs(separator):
    # each of these once split "1 2<sep>2 3" into two edges, or "1<sep>2"
    # into two ids; now each is a parse error on the line that holds it,
    # and lines are counted by their line feeds
    for text, line, bad in ((f"1 2{separator}2 3\n3 4\n", 1, f"1 2{separator}2 3"),
                            (f"1 2\n3{separator}4\n", 2, f"3{separator}4"),
                            (f"# {separator}\n1 2\n3 x\n", 3, "3 x"),
                            (f"vertices: 1{separator}2\n", 1, f"vertices: 1{separator}2")):
        with pytest.raises(ValueError) as err:
            parse_graph_text(text)
        assert str(err.value) == f"line {line}: cannot parse {bad!r}"


def test_crlf_and_tab_edge_lists_read_as_before():
    text = "# a graph\nvertices: 9 1\n1 2\n2 3  # an edge\n\n3 4"
    g = parse_graph_text(text)
    assert g == Graph([1, 2, 3, 4, 9], [(1, 2), (2, 3), (3, 4)])
    assert parse_graph_text(text.replace("\n", "\r\n")) == g
    assert parse_graph_text(text.replace(" ", "\t")) == g
    assert parse_graph_text(text.replace(" ", " \t ").replace("\n", "\r\n")) == g
    with pytest.raises(ValueError) as err:
        parse_graph_text("1 2\r\n\r\n2 x\r\n")
    assert str(err.value) == "line 3: cannot parse '2 x'"


def test_crlf_edge_lists_keep_the_fast_path():
    # a plain `u v` line makes no Python call, ended by LF or CRLF
    for ending in ("\n", "\r\n"):
        for n in (10, 400):
            text = "".join(f"{i} {i + 1}{ending}" for i in range(n))
            g, calls = _python_calls(parse_graph_text, text)
            assert g.m == n
            assert calls < 10, (ending, n, calls)
