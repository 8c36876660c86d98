"""Fuzzed parsers and command line: every input gets an answer or a clean error."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from matlabel.cli import main
from matlabel.formats import parse_graph_json
from matlabel.io import parse_graph_text, parse_labeling_json

from .helpers import graph_to_json_dict

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

ids = st.integers(0, 9)
tokens = st.one_of(
    ids.map(str),
    st.sampled_from(["-1", "+3", "1_0", "١", "0x1", "1.0", "1e2", "", "#",
                     "vertices:", "x", "²", " ", "\t", "99999999999999999999"]),
)
edge_list_lines = st.one_of(
    st.tuples(ids, ids).map(lambda e: f"{e[0]} {e[1]}"),
    st.lists(tokens, max_size=4).map(" ".join),
    st.text(max_size=12),
)
edge_list_texts = st.one_of(
    st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1])
             .map(lambda e: f"{e[0]} {e[1]}  # edge"), max_size=12),
    st.lists(edge_list_lines, max_size=12),
).map("\n".join)

json_scalars = st.one_of(st.none(), st.booleans(), ids, st.floats(allow_nan=False),
                         st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=12,
)
graph_objects = st.fixed_dictionaries(
    {"edges": st.lists(st.one_of(st.lists(ids, min_size=2, max_size=2), json_values),
                       max_size=10)},
    optional={"vertices": st.one_of(st.lists(ids, max_size=6), json_values)},
)
labeling_objects = st.fixed_dictionaries({"edges": st.lists(
    st.one_of(st.fixed_dictionaries({"u": ids, "v": ids, "label": st.integers(-1, 4)}),
              json_values),
    max_size=12)})

SUN3 = "1 2\n1 3\n2 3\n1 4\n2 4\n2 5\n3 5\n1 6\n3 6\n"


def _json_texts(objects):
    """JSON text of `objects` or of any value: whole, cut short, or with an
    "edges" key put first in its first object (a repeated key when that
    object has one), or any text."""
    dumped = st.one_of(objects, json_values).map(json.dumps)
    return st.one_of(
        dumped,
        st.tuples(dumped, st.integers(0, 40)).map(lambda t: t[0][:t[1]]),
        dumped.map(lambda s: s.replace("{", '{"edges": [], ', 1) if "{" in s else s),
        st.text(max_size=20),
    )


def _parses_or_rejects(parse, *args):
    """The parse result, or None when it raises ValueError (and nothing else)."""
    try:
        return parse(*args)
    except ValueError:
        return None


@FUZZ
@given(edge_list_texts)
def test_edge_list_round_trips_or_is_rejected(text):
    g = _parses_or_rejects(parse_graph_text, text)
    if g is not None:
        assert parse_graph_json(json.dumps(graph_to_json_dict(g))) == g


@FUZZ
@given(_json_texts(graph_objects))
def test_graph_json_round_trips_or_is_rejected(text):
    g = _parses_or_rejects(parse_graph_json, text)
    if g is not None:
        assert parse_graph_json(json.dumps(graph_to_json_dict(g))) == g


@FUZZ
@given(_json_texts(labeling_objects))
def test_labeling_json_is_parsed_or_rejected(text):
    g = parse_graph_text("0 1\n1 2\n0 2\n2 3\n")
    _parses_or_rejects(parse_labeling_json, g, text)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(FUZZ, max_examples=120)
@given(st.sampled_from(["classify", "label", "poset", "exponents", "verify"]),
       st.one_of(edge_list_texts.map(lambda t: (".txt", t)),
                 _json_texts(graph_objects).map(lambda t: (".json", t))),
       st.one_of(st.none(), _json_texts(labeling_objects)))
@example("poset", (".txt", "1 2\n2 3\n3 4\n4 1\n"), None)
@example("label", (".txt", SUN3), None)
@example("verify", (".txt", SUN3), '{"edges": []}')
def test_main_exits_cleanly(command, graph, labeling):
    """Commands that take a labeling get the fuzzed one, or when it is None
    the output of `matlabel label` on the same graph."""
    suffix, text = graph
    with tempfile.TemporaryDirectory() as tmp:
        graph_file = os.path.join(tmp, "g" + suffix)
        lab_file = os.path.join(tmp, "lab.json")
        with open(graph_file, "w", encoding="utf-8") as f:
            f.write(text)
        if labeling is None:
            _run_main(["label", graph_file, "--out", lab_file])
        else:
            with open(lab_file, "w", encoding="utf-8") as f:
                f.write(labeling)
        argv = [command, graph_file]
        if command == "verify" or command == "exponents" and os.path.exists(lab_file):
            argv.append(lab_file)
        code, out, err = _run_main(argv)
    assert code in (0, 1, 2)
    if code in (0, 2):
        json.loads(out)
    else:
        assert out == "" and err.startswith("matlabel: error: ")
    assert "Traceback" not in err


def _file_bodies(texts):
    """The bytes of a file: one of `texts` as UTF-8, with or without a
    byte-order mark in front, or any bytes."""
    return st.one_of(texts.map(str.encode),
                     texts.map(lambda t: b"\xef\xbb\xbf" + t.encode()),
                     st.binary(max_size=24))


@settings(FUZZ, max_examples=120)
@given(st.sampled_from(["classify", "label", "verify"]),
       _file_bodies(st.one_of(edge_list_texts, _json_texts(graph_objects))),
       st.one_of(st.none(), _file_bodies(_json_texts(labeling_objects))))
@example("classify", b"{bad", None)
@example("verify", b"1 2\n", b"\xef\xbb\xbf{}")
def test_an_input_error_is_one_stderr_line(command, graph, labeling):
    """`verify` reads the generated labeling, or when it is None the output
    of `matlabel label` on the same graph."""
    with tempfile.TemporaryDirectory() as tmp:
        graph_file = os.path.join(tmp, "g")
        lab_file = os.path.join(tmp, "lab.json")
        with open(graph_file, "wb") as f:
            f.write(graph)
        if labeling is None:
            _run_main(["label", graph_file, "--out", lab_file])
        else:
            with open(lab_file, "wb") as f:
                f.write(labeling)
        argv = [command, graph_file] + ([lab_file] if command == "verify" else [])
        code, out, err = _run_main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == "" and err.startswith("matlabel: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


class _Object(list):
    """A JSON object as the list of its (key, value) pairs, so a key can repeat."""


def _object_text(value) -> str:
    """The JSON text of a value whose objects are _Object pair lists."""
    if isinstance(value, _Object):
        return "{" + ", ".join(f"{json.dumps(k)}: {_object_text(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_object_text, value)) + "]"
    return json.dumps(value)


# each object of the two formats: its keys, and those of them it needs
TOP_KEYS = {"graph": (("vertices", "edges"), ("edges",)), "labeling": (("edges",), ("edges",))}
ENTRY_KEYS = (("u", "v", "label"), ("u", "v", "label"))


def _break_keys(data, doc, draw) -> None:
    """Give one object of a decoded graph or labeling document (the top
    level or an entry, at any depth the format has) an unknown key, take
    away a key it needs, or repeat one of its keys; then maybe another."""
    objects = [(data, *TOP_KEYS[doc])]
    if doc == "labeling":
        objects += [(entry, *ENTRY_KEYS) for entry in dict(data)["edges"]]
    for _ in range(draw(st.integers(1, 3))):
        obj, keys, needs = draw(st.sampled_from(objects))
        kinds = ["unknown"] + ["missing"] * any(k in needs for k, _ in obj)
        kinds += ["repeated"] * bool(obj)
        kind = draw(st.sampled_from(kinds))
        at = draw(st.integers(0, len(obj)))
        if kind == "unknown":
            key = draw(st.text(max_size=5).filter(lambda k: k not in keys))
            obj.insert(at, (key, draw(json_values)))
        elif kind == "missing":
            key = draw(st.sampled_from([k for k, _ in obj if k in needs]))
            obj[:] = [(k, v) for k, v in obj if k != key]
        else:
            key, value = draw(st.sampled_from(obj))
            obj.insert(at, (key, draw(st.one_of(st.just(value), json_values))))


@settings(FUZZ, max_examples=60)
@given(st.integers(1, 9), st.integers(0, 10 ** 6), st.sampled_from(["graph", "labeling"]),
       st.data())
def test_a_key_outside_either_format_is_one_error_naming_the_document(n, seed, doc, data):
    """An unknown, missing or repeated key in any object of a graph or a
    labeling is an input error that names the document; the labeling that
    `label` writes verifies."""
    from .families import random_strongly_chordal

    graph = json.dumps(graph_to_json_dict(random_strongly_chordal(n, seed=seed)))
    with tempfile.TemporaryDirectory() as tmp:
        graph_file = os.path.join(tmp, "g.json")
        lab_file = os.path.join(tmp, "lab.json")
        with open(graph_file, "w", encoding="utf-8") as f:
            f.write(graph)
        assert _run_main(["label", graph_file, "--out", lab_file]) == (0, "", "")
        assert _run_main(["verify", graph_file, lab_file])[:2] == (0, '{\n  "ok": true\n}\n')
        path = graph_file if doc == "graph" else lab_file
        with open(path, encoding="utf-8") as f:
            decoded = json.loads(f.read(), object_pairs_hook=_Object)
        _break_keys(decoded, doc, data.draw)
        with open(path, "w", encoding="utf-8") as f:
            f.write(_object_text(decoded))
        command = data.draw(st.sampled_from(
            ["verify", "exponents"] + ["classify", "label"] * (doc == "graph")))
        argv = [command, graph_file] + [lab_file] * (command in ("verify", "exponents"))
        code, out, err = _run_main(argv)
    assert (code, out) == (1, "")
    assert err.startswith("matlabel: error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert f"{doc} JSON" in err
