"""The lazily loaded package namespace, and the immutable result values."""

import sys
from importlib.util import find_spec

import pytest

import matlabel
from matlabel import CrownWitness, MatViolation, SunWitness


@pytest.mark.parametrize("name", matlabel.__all__)
def test_exported_name_is_its_home_modules_object(name):
    value = getattr(matlabel, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("matlabel.") and getattr(home, name) is value
    assert name in dir(matlabel)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from matlabel import *", namespace)
    for name in matlabel.__all__:
        assert namespace[name] is getattr(matlabel, name)
    assert len(set(matlabel.__all__)) == len(matlabel.__all__)


def test_all_is_the_public_api():
    assert set(matlabel.__all__) == {
        "CliquePoset", "CrownWitness", "EdgeLabeling", "Graph", "MatViolation",
        "NoLeafPairError", "NotChordalError", "NotStronglyChordalError", "SunWitness",
        "build_poset", "canonical_edge", "check_terao_factorization",
        "chromatic_polynomial", "construct_mat_labeling", "crown_from_sun",
        "detect_induced_sun", "exponents_from_labeling", "extend_labeling_complete",
        "find_any_crown", "find_chordless_cycle", "find_crown", "find_induced_subgraph",
        "find_mat_peo", "find_peo", "find_simple_elimination_ordering", "find_sun",
        "is_chordal", "is_crown_free", "is_mat_peo", "is_mat_simplicial", "is_peo",
        "is_simple_vertex", "is_simplicial", "is_strongly_chordal", "is_unit_interval",
        "leaf_pair", "mat_simplicial_violation", "maximal_cliques", "merge_complete",
        "node_family", "peo_exponents", "unit_interval_obstruction",
        "verify_mat_labeling",
    }
    assert len(matlabel.__all__) == 43


def test_the_package_ships_no_test_harness():
    # the exhaustive labeling search and the graph families live in tests/;
    # oracle stays, as the benchmark's traced runs span its searches
    assert find_spec("matlabel.brute") is None
    assert find_spec("matlabel.families") is None
    assert find_spec("matlabel.oracle") is not None


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        matlabel.frobnicate  # noqa: B018
    assert "frobnicate" not in dir(matlabel)


def _refuses_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("make, other, as_json", [
    (lambda: SunWitness(3, (1, 2, 3), (4, 5, 6)), SunWitness(3, (1, 2, 3), (4, 6, 5)),
     {"kind": "sun", "n": 3, "inner": [1, 2, 3], "outer": [4, 5, 6]}),
    (lambda: CrownWitness(2, (frozenset({2}), frozenset({1})),
                          (frozenset({1, 2, 3}), frozenset({1, 2, 4}))),
     CrownWitness(2, (frozenset({1}), frozenset({2})),
                  (frozenset({1, 2, 3}), frozenset({1, 2, 4}))),
     {"kind": "crown", "k": 2, "lower": [[2], [1]], "upper": [[1, 2, 3], [1, 2, 4]]}),
    (lambda: MatViolation("MS1", 0, vertices=(4, 1, 2), detail="nonadjacent"),
     MatViolation("MS1", 0, vertices=(4, 1, 2)),
     {"kind": "MS1", "level": 0, "edges": [], "vertices": [4, 1, 2],
      "detail": "nonadjacent"}),
], ids=["sun", "crown", "violation"])
def test_witness_values(make, other, as_json):
    value = make()
    assert value.as_json() == as_json
    assert value == make() and hash(value) == hash(make()) and value != other
    for field in as_json.keys() - {"kind"}:
        _refuses_assignment(value, field)

