"""Strongly chordal graphs, MAT-labelings, and graphic arrangement exponents.

The package recognizes strongly chordal graphs, constructs and verifies
MAT-labelings of their edges, builds clique intersection posets with crown
witnesses, and computes the exponents and chromatic polynomial cross-checks
of the associated graphic arrangements.

Each exported name is read from its home module when it is accessed (PEP
562), so importing the package, or running one command of the CLI, loads
only the modules in use.
"""

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "arrangement": ("IntPolynomial", "check_terao_factorization",
                    "chromatic_polynomial", "exponents_from_labeling"),
    "brute": ("brute_force_mat_labeling",),
    "chordal": ("find_chordless_cycle", "find_peo", "is_chordal", "is_peo",
                "is_simplicial", "peo_exponents"),
    "construct": ("construct_mat_labeling", "extend_labeling_complete",
                  "height_labeling_complete", "merge_complete", "node_family"),
    "errors": ("NoLeafPairError", "NotChordalError", "NotStronglyChordalError"),
    "graph": ("Graph", "canonical_edge"),
    "labeling": ("EdgeLabeling", "MatViolation", "find_mat_peo", "is_mat_peo",
                 "is_mat_simplicial", "mat_simplicial_violation", "verify_mat_labeling"),
    "oracle": ("detect_induced_sun", "find_any_crown", "find_crown", "is_crown_free"),
    "poset": ("CliquePoset", "CrownWitness", "build_poset", "crown_from_sun",
              "leaf_pair", "maximal_cliques"),
    "strong_chordal": ("SunWitness", "find_induced_subgraph",
                       "find_simple_elimination_ordering", "find_sun",
                       "is_simple_vertex", "is_strongly_chordal", "is_unit_interval",
                       "unit_interval_obstruction"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
