"""File formats and exports."""

import json

import pytest

from matlabel import Graph, build_poset
from matlabel.families import complete_graph
from matlabel.io import (
    dump_json,
    graph_to_json_dict,
    labeling_to_dot,
    labeling_to_json_dict,
    load_graph,
    parse_graph_json,
    parse_graph_text,
    parse_labeling_json,
    poset_to_dot,
    poset_to_json_dict,
)



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
    txt = tmp_path / "g.txt"
    txt.write_text("1 2\n")
    assert load_graph(txt) == Graph.from_edges([(1, 2)])
    js = tmp_path / "g.json"
    js.write_text('{"vertices": [1, 2, 3], "edges": [[1, 2]]}')
    assert load_graph(js).n == 3
    assert load_graph(txt, fmt="edgelist").m == 1
    with pytest.raises(ValueError):
        load_graph(txt, fmt="weird")


def test_labeling_json_round_trip(ui7_labeling):
    data = labeling_to_json_dict(ui7_labeling)
    text = dump_json(data)
    parsed = parse_labeling_json(ui7_labeling.graph, text)
    assert parsed == ui7_labeling


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
