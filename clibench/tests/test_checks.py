"""Each independent checker accepts a known-good output and rejects a
hand-broken one. Run with `python3 -m pytest clibench/tests`."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import gen  # noqa: E402
from checks import CheckError  # noqa: E402


def op(cmd, adj, **truth):
    return gen.Op("t", cmd, adj, [cmd], truth)


def labeling_json(labels):
    return {"edges": [{"u": u, "v": v, "label": k} for (u, v), k in labels.items()]}


def rejects(o, code, data):
    with pytest.raises(CheckError):
        checks.check_op(o, code, json.dumps(data))


K3 = gen.complete(3)
P3 = gen.path(3)


# -- generator ground truth --------------------------------------------------

def test_sc_graph_reverse_insertion_is_simple_elimination():
    adj, peo = gen.sc_graph(60, 0.6, random.Random(1))
    for i, v in enumerate(peo):
        prefix = set(peo[: i + 1])
        sub = {u: adj[u] & prefix for u in prefix}
        assert gen.is_simple(sub, v)


def test_height_labeling_is_mat_and_relabeling_is_not():
    adj = gen.unit_interval(80, 1, 6, random.Random(2))
    labels = gen.height_labeling(adj)
    assert checks.mat_violation(adj, labels) is None
    assert checks.dual_partition(labels, 80) == checks.peo_exponents(adj, sorted(adj))
    bad = gen.relabel_one(labels, random.Random(3))
    assert checks.mat_violation(adj, bad) is not None


def test_attached_sun_order_extends_a_peo():
    adj, peo = gen.sc_graph(20, 0.6, random.Random(4))
    peo += gen.attach_sun(adj, 5)
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        earlier = [u for u in adj[v] if pos[u] < pos[v]]
        assert all(b in adj[a] for a in earlier for b in earlier if a != b)


# -- labelings -----------------------------------------------------------------

def test_labeling_domain_must_equal_edge_set():
    good = {(1, 2): 1, (1, 3): 1, (2, 3): 2}
    checks.read_labeling(K3, labeling_json(good))
    with pytest.raises(CheckError):
        checks.read_labeling(K3, labeling_json({(1, 2): 1, (1, 3): 1}))
    duplicate = labeling_json(good)
    duplicate["edges"].append({"u": 2, "v": 1, "label": 1})
    with pytest.raises(CheckError):
        checks.read_labeling(K3, duplicate)
    with pytest.raises(CheckError):
        checks.read_labeling(K3, labeling_json({(1, 2): 1, (1, 3): 1, (2, 3): 2.0}))


@pytest.mark.parametrize("adj, labels, condition", [
    (K3, {(1, 2): 1, (1, 3): 1, (2, 3): 1}, "ML1"),
    (K3, {(1, 2): 1, (1, 3): 2, (2, 3): 2}, "ML2"),
    (P3, {(1, 2): 1, (2, 3): 2}, "ML3"),
])
def test_mat_violation_names_the_broken_condition(adj, labels, condition):
    assert checks.mat_violation(adj, labels).startswith(condition)


def test_label_check_rejects_broken_labeling_and_wrong_exit():
    o = op("label", K3, sc=True, peo=[1, 2, 3])
    good = {(1, 2): 1, (1, 3): 2, (2, 3): 1}
    checks.check_op(o, 0, json.dumps(labeling_json(good)))
    rejects(o, 0, labeling_json({(1, 2): 1, (1, 3): 1, (2, 3): 1}))
    rejects(o, 2, labeling_json(good))


# -- verify and exponents ----------------------------------------------------------

def test_verify_check_rejects_wrong_answer_and_foreign_violation_edges():
    rejects(op("verify", K3, mat=True), 2, {"ok": False, "violation": {}})
    bad = op("verify", P3, mat=False)
    checks.check_op(bad, 2, json.dumps({"ok": False, "violation": {"edges": [[2, 3]]}}))
    rejects(bad, 2, {"ok": False, "violation": {"edges": [[1, 3]]}})
    rejects(bad, 2, {"ok": False, "violation": {"edges": []}})
    rejects(bad, 0, {"ok": True})


def test_exponents_check_rejects_wrong_exponents_and_failed_factorization():
    labels = gen.height_labeling(K3)
    o = op("exponents", K3, mat=True, peo=[1, 2, 3], labels=labels)
    checks.check_op(o, 0, json.dumps({"exponents": [0, 1, 2], "chromatic_factors_check": True}))
    rejects(o, 0, {"exponents": [0, 1, 1], "chromatic_factors_check": True})
    rejects(o, 0, {"exponents": [0, 1, 2], "chromatic_factors_check": False})
    # exponents matching the PEO but not the labeling's blocks
    skewed = op("exponents", K3, mat=True, peo=[1, 2, 3], labels={(1, 2): 1, (1, 3): 1, (2, 3): 1})
    rejects(skewed, 0, {"exponents": [0, 1, 2], "chromatic_factors_check": True})


# -- classify witnesses ----------------------------------------------------------

C5 = {1: {2, 5}, 2: {1, 3}, 3: {2, 4}, 4: {3, 5}, 5: {4, 1}}
SUN3 = {1: {2, 3, 4, 6}, 2: {1, 3, 4, 5}, 3: {1, 2, 5, 6}, 4: {1, 2}, 5: {2, 3}, 6: {3, 1}}
CLAW = {1: {2, 3, 4}, 2: {1}, 3: {1}, 4: {1}}
NET = {1: {2, 3, 4}, 2: {1, 3, 5}, 3: {1, 2, 6}, 4: {1}, 5: {2}, 6: {3}}


def test_classify_flags_must_match_truth():
    o = op("classify", CLAW, chordal=True, sc=True, ui=False)
    good = {"chordal": True, "strongly_chordal": True, "unit_interval": False,
            "witness": {"kind": "claw", "center": 1, "leaves": [2, 3, 4]}}
    checks.check_op(o, 0, json.dumps(good))
    rejects(o, 0, dict(good, strongly_chordal=False))
    rejects(o, 0, dict(good, unit_interval=True, witness=None))


def test_witness_checks_reject_broken_structures():
    assert checks.is_induced_cycle(C5, [1, 2, 3, 4, 5])
    chorded = {v: set(n) for v, n in C5.items()}
    chorded[1].add(3)
    chorded[3].add(1)
    assert not checks.is_induced_cycle(chorded, [1, 2, 3, 4, 5])
    assert not checks.is_induced_cycle(C5, [1, 2, 3])

    assert checks.is_induced_sun(SUN3, [1, 2, 3], [4, 5, 6])
    assert not checks.is_induced_sun(SUN3, [1, 2, 3], [5, 6, 4])  # outer misplaced
    extra = {v: set(n) for v, n in SUN3.items()}
    extra[4].add(5)
    extra[5].add(4)
    assert not checks.is_induced_sun(extra, [1, 2, 3], [4, 5, 6])

    assert checks.is_claw(CLAW, 1, [2, 3, 4])
    assert not checks.is_claw(K3, 1, [2, 3, 3])
    assert checks.is_net(NET, [1, 2, 3], [4, 5, 6])
    assert not checks.is_net(NET, [1, 2, 3], [5, 4, 6])


def test_classify_rejects_witness_of_the_wrong_kind():
    o = op("classify", SUN3, chordal=True, sc=False, ui=False)
    report = {"chordal": True, "strongly_chordal": False, "unit_interval": False}
    checks.check_op(o, 0, json.dumps(dict(
        report, witness={"kind": "sun", "n": 3, "inner": [1, 2, 3], "outer": [4, 5, 6]})))
    # a claw does not prove that a graph is not strongly chordal
    rejects(o, 0, dict(report, witness={"kind": "claw", "center": 1, "leaves": [2, 3, 4]}))


# -- poset and crowns --------------------------------------------------------------

def test_crown_check_requires_exact_comparabilities():
    nodes = gen.intersection_closure(gen.maximal_cliques(SUN3, [1, 2, 3, 4, 5, 6]))
    sun_crown = {"kind": "crown", "k": 3, "lower": [[2], [3], [1]],
                 "upper": [[1, 2, 4], [2, 3, 5], [1, 3, 6]]}
    assert checks.is_crown(SUN3, nodes, sun_crown)
    # upper[0] and upper[1] swapped: {3} is then below upper[2] only
    crown = dict(sun_crown, upper=[[2, 3, 5], [1, 2, 4], [1, 3, 6]])
    assert not checks.is_crown(SUN3, nodes, crown)
    assert not checks.is_crown(SUN3, nodes, dict(sun_crown, lower=[[2], [3], [1, 4]]))
    o = op("label", SUN3, sc=False, peo=[1, 2, 3, 4, 5, 6])
    checks.check_op(o, 2, json.dumps({"witness": sun_crown}))
    rejects(o, 2, {"witness": crown})
    rejects(o, 0, {"witness": sun_crown})


def test_poset_check_rejects_missing_node_wrong_cover_and_crown():
    peo = [1, 2, 3]
    p3 = {"nodes": [[2], [1, 2], [2, 3]], "covers": [[0, 1], [0, 2]], "maximal": [1, 2],
          "crown_free": True, "crown": None}
    o = op("poset", P3, peo=peo)
    checks.check_op(o, 0, json.dumps(p3))
    rejects(o, 0, dict(p3, nodes=[[2], [1, 2], [1, 2, 3]]))
    rejects(o, 0, dict(p3, covers=[[0, 1]]))
    rejects(o, 0, dict(p3, maximal=[1]))
    rejects(o, 0, dict(p3, crown_free=False))
