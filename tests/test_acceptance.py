"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; without -s pytest shows them for failing criteria only.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

import pytest

from matlabel import (
    EdgeLabeling,
    Graph,
    build_poset,
    check_terao_factorization,
    construct_mat_labeling,
    detect_induced_sun,
    exponents_from_labeling,
    extend_labeling_complete,
    find_any_crown,
    find_crown,
    find_mat_peo,
    is_chordal,
    is_strongly_chordal,
    verify_mat_labeling,
)
from matlabel.cli import main as cli_main

from .brute import brute_force_mat_labeling
from .chromatic import contract_edge, deletion_contraction
from .conftest import UI7_EDGES, UI7_EXPONENTS, UI7_POSET_COVERS, UI7_POSET_NODES
from .families import (
    RISING_SUN_MARKED_EDGE,
    complete_graph,
    enumerate_graphs,
    height_labeling_complete,
    n_sun,
    path_graph,
    random_strongly_chordal,
    rising_sun,
)
from .helpers import band, from_roots, product, with_label


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sc_test_set():
    """The designated strongly chordal test graphs for criteria 8 and 9:
    named fixtures, every connected strongly chordal graph on up to 5
    vertices, a deterministic slice of the 6-vertex ones, and seeded
    random strongly chordal graphs up to 30 vertices."""
    graphs = [
        Graph(range(1, 8), UI7_EDGES),
        rising_sun(),
        path_graph(7),
        complete_graph(2), complete_graph(5), complete_graph(7),
    ]
    for n in range(1, 6):
        graphs.extend(
            g for g in enumerate_graphs(n, connected=True) if is_strongly_chordal(g)
        )
    six = [g for g in enumerate_graphs(6, connected=True) if is_strongly_chordal(g)]
    graphs.extend(six[::40])
    rng = random.Random(3)
    for _ in range(25):
        graphs.append(random_strongly_chordal(
            rng.randint(2, 30), rng=rng, grow_bias=rng.choice([0.4, 0.6, 0.8])))
    return graphs


def test_criterion_1_example_reproduction(tmp_path, capsys):
    graph_file = tmp_path / "example7.txt"
    graph_file.write_text("".join(f"{u} {v}\n" for u, v in UI7_EDGES))
    out_file = tmp_path / "labeling.json"
    start = time.perf_counter()
    code = cli_main(["label", str(graph_file), "--out", str(out_file)])
    elapsed = time.perf_counter() - start
    assert code == 0
    g = Graph(range(1, 8), UI7_EDGES)
    data = json.loads(out_file.read_text())
    lab = EdgeLabeling(
        g, {(e["u"], e["v"]): e["label"] for e in data["edges"]}
    )
    exps = exponents_from_labeling(lab)
    expected_chrom = product(
        from_roots([0]), from_roots([1]), from_roots([2, 2, 2]), from_roots([3, 3]))
    ok = (
        lab.block_sizes() == (6, 5, 2)
        and verify_mat_labeling(lab) is None
        and exps == UI7_EXPONENTS
        and deletion_contraction(g) == expected_chrom
        and elapsed < 1.0
    )
    report(1, "worked-example labeling via cmd_label", ok,
           f"blocks {lab.block_sizes()}, {elapsed:.3f}s")


def test_criterion_2_poset_reproduction():
    g = Graph(range(1, 8), UI7_EDGES)
    start = time.perf_counter()
    p = build_poset(g)
    elapsed = time.perf_counter() - start
    nodes_ok = set(p.nodes) == set(UI7_POSET_NODES)
    covers_ok = all(
        set(p.covers[x]) == UI7_POSET_COVERS[x] for x in p.nodes
    ) if nodes_ok else False
    report(2, "clique intersection poset of the reference graph",
           nodes_ok and covers_ok and elapsed < 1.0,
           f"{len(p.nodes)} nodes, {elapsed:.3f}s")


def test_criterion_3_complete_graphs():
    ok = True
    for ell in range(2, 9):
        expected_blocks = tuple(ell - k for k in range(1, ell))
        expected_exps = tuple(range(ell))
        for lab in (
            height_labeling_complete(ell),
            extend_labeling_complete(ell, (), EdgeLabeling(Graph(), {})),
        ):
            ok = ok and verify_mat_labeling(lab) is None
            ok = ok and lab.block_sizes() == expected_blocks
            ok = ok and exponents_from_labeling(lab) == expected_exps
    report(3, "complete graphs 2..8, height and extension labelings", ok)


def test_criterion_4_sun_obstruction():
    s3 = n_sun(3)
    start = time.perf_counter()
    exhausted = brute_force_mat_labeling(s3, max_label=3)
    elapsed = time.perf_counter() - start
    ok = exhausted is None and elapsed < 300.0
    ok = ok and not is_strongly_chordal(s3)
    ok = ok and find_crown(build_poset(s3), 3) is not None
    s4 = n_sun(4)
    witness = detect_induced_sun(s4)
    ok = ok and not is_strongly_chordal(s4)
    ok = ok and witness is not None and witness.n == 4
    ok = ok and find_any_crown(build_poset(s4)) is not None
    report(4, "sun obstruction (exhaustive labels <= 3 on the 3-sun)", ok,
           f"exhaustion {elapsed:.1f}s")


def test_criterion_5_main_equivalence(corpus6_facts, random78_facts):
    mismatches = 0
    construct_failures = 0
    for facts in corpus6_facts + random78_facts:
        if facts.strongly_chordal != (facts.brute is not None):
            mismatches += 1
        if facts.strongly_chordal:
            if facts.constructed is None or verify_mat_labeling(facts.constructed):
                construct_failures += 1
    total = len(corpus6_facts) + len(random78_facts)
    report(5, "recognizer vs exhaustive labeling search",
           mismatches == 0 and construct_failures == 0,
           f"{total} graphs, {mismatches} mismatches")


# sha256 over one line per corpus graph, repr(lab.items()) or repr(None), of
# the exhaustive search's outputs; 14,473 of the 28,476 graphs have none
CORPUS_BRUTE_DIGEST = "01c68dd67cf153f4dae86e36238dc80fa9d10f909f421f665a4f1685bd564fda"


def test_exhaustive_search_outputs_are_pinned(corpus6_facts, random78_facts):
    # the lexicographically least labelings, also on 7 and 8 vertices where
    # naive enumeration cannot reach; a faster search must keep every one
    corpus = corpus6_facts + random78_facts
    digest = hashlib.sha256()
    for facts in corpus:
        out = None if facts.brute is None else facts.brute.items()
        digest.update((repr(out) + "\n").encode())
    assert sum(facts.brute is None for facts in corpus) == 14_473
    assert digest.hexdigest() == CORPUS_BRUTE_DIGEST


# the same over the constructor's outputs; 14,003 corpus graphs are strongly
# chordal and get one
CORPUS_CONSTRUCT_DIGEST = "51e7e7a2dbd50b0264e65e9c99338a38cd0e52d86f4b66d73a64ebc01d304739"


def test_constructor_outputs_are_pinned(corpus6_facts, random78_facts):
    # the constructor is a deterministic function of the graph; a change to
    # how it reads its orders must keep every labeling
    corpus = corpus6_facts + random78_facts
    digest = hashlib.sha256()
    for facts in corpus:
        out = None if facts.constructed is None else facts.constructed.items()
        digest.update((repr(out) + "\n").encode())
    assert sum(facts.constructed is not None for facts in corpus) == 14_003
    assert digest.hexdigest() == CORPUS_CONSTRUCT_DIGEST


# the same over dense graphs, where the greedy MAT-PEOs walk many steps:
# bands band(n, n // 2) and band(60, w), complete graphs and SC graphs on 80
# vertices at bias 0.9, 35 graphs and 14,547 edges in all
DENSE_CONSTRUCT_DIGEST = "e9dd953749ec8bec338e5d2de7278064cab9bbcbccc7e33543e109e14cf199a4"


def test_dense_constructor_outputs_are_pinned():
    graphs = [band(n, n // 2) for n in range(4, 61, 4)]
    graphs += [band(60, w) for w in (5, 10, 20, 40)]
    graphs += [complete_graph(n) for n in (5, 10, 20, 30)]
    graphs += [random_strongly_chordal(80, seed=s, grow_bias=0.9) for s in range(12)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update((repr(construct_mat_labeling(g).items()) + "\n").encode())
    assert (len(graphs), sum(g.m for g in graphs)) == (35, 14_547)
    assert digest.hexdigest() == DENSE_CONSTRUCT_DIGEST


def test_criterion_6_factorization(corpus6_facts, random78_facts):
    bad = 0
    checked = 0
    for facts in corpus6_facts + random78_facts:
        if facts.constructed is None:
            continue
        checked += 1
        exps = exponents_from_labeling(facts.constructed)
        if not check_terao_factorization(facts.graph, exps):
            bad += 1
    report(6, "chromatic factorization of constructed labelings",
           bad == 0, f"{checked} labelings")


def test_criterion_7_mat_peo_equivalence(corpus6_facts, random78_facts):
    pools: list[EdgeLabeling] = []
    for ell in range(2, 9):
        pools.append(height_labeling_complete(ell))
        pools.append(extend_labeling_complete(ell, (), EdgeLabeling(Graph(), {})))
    for facts in corpus6_facts + random78_facts:
        pools.extend(lab for lab in (facts.brute, facts.constructed) if lab)
    mismatches = sum(
        1 for lab in pools
        if (verify_mat_labeling(lab) is None) != (find_mat_peo(lab) is not None)
    )
    rng = random.Random(99)
    candidates = [lab for lab in pools if lab.graph.m]
    mutations = 0
    while mutations < 1000:
        lab = rng.choice(candidates)
        (u, v), old = rng.choice(lab.items())
        new = rng.choice([k for k in range(1, lab.max_label + 2) if k != old])
        mutant = with_label(lab, u, v, new)
        if (verify_mat_labeling(mutant) is None) != (find_mat_peo(mutant) is not None):
            mismatches += 1
        mutations += 1
    report(7, "verifier agrees with MAT-PEO search",
           mismatches == 0, f"{len(pools)} labelings + {mutations} mutations")


def test_criterion_8_restriction_to_nodes(sc_test_set):
    bad = 0
    nodes_checked = 0
    for g in sc_test_set:
        lab = construct_mat_labeling(g)
        for node in build_poset(g).nodes:
            nodes_checked += 1
            if verify_mat_labeling(lab.restrict_vertices(node)) is not None:
                bad += 1
    report(8, "restrictions to poset nodes stay valid",
           bad == 0, f"{len(sc_test_set)} graphs, {nodes_checked} nodes")


def test_criterion_9_localization_closure(sc_test_set):
    rng = random.Random(17)
    bad = 0
    for g in sc_test_set:
        for _ in range(20):
            subset = [v for v in g.vertices if rng.random() < 0.5]
            sub = g.induced_subgraph(subset)
            if not is_strongly_chordal(sub):
                bad += 1
                continue
            if verify_mat_labeling(construct_mat_labeling(sub)) is not None:
                bad += 1
    report(9, "induced subgraphs stay strongly chordal and labelable",
           bad == 0, f"{len(sc_test_set)} graphs x 20 subsets")


def test_criterion_10_rising_sun():
    rs = rising_sun()
    ok = is_strongly_chordal(rs)
    lab = construct_mat_labeling(rs)
    ok = ok and verify_mat_labeling(lab) is None
    contracted = contract_edge(rs, RISING_SUN_MARKED_EDGE)
    witness = detect_induced_sun(contracted)
    ok = ok and is_chordal(contracted)
    ok = ok and not is_strongly_chordal(contracted)
    ok = ok and witness is not None and witness.n == 3
    report(10, "rising sun labels, its contraction does not", ok)


def test_criterion_11_recognizer_agreement(corpus6_facts, random78_facts):
    mismatches = 0
    for facts in corpus6_facts + random78_facts:
        via_sun = facts.chordal and facts.sun_free
        via_crown = facts.chordal and bool(facts.crown_free)
        if not (facts.strongly_chordal == via_sun == via_crown):
            mismatches += 1
    total = len(corpus6_facts) + len(random78_facts)
    report(11, "simple-elimination, sun and crown recognizers agree",
           mismatches == 0, f"{total} graphs")
