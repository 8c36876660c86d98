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
    "arrangement": ("check_terao_factorization", "chromatic_polynomial",
                    "exponents_from_labeling"),
    "chordal": ("find_chordless_cycle", "find_peo", "is_chordal", "peo_exponents"),
    "construct": ("construct_mat_labeling", "extend_labeling_complete", "merge_complete",
                  "node_family"),
    "graph": ("Graph", "canonical_edge"),
    "labeling": ("EdgeLabeling", "is_mat_simplicial", "verify_mat_labeling"),
    "oracle": ("detect_induced_sun", "find_any_crown", "find_crown",
               "find_induced_subgraph", "find_mat_peo", "is_crown_free", "is_mat_peo",
               "is_peo", "is_simplicial", "mat_simplicial_violation"),
    "poset": ("CliquePoset", "NoLeafPairError", "NotChordalError", "NotStronglyChordalError",
              "build_poset", "leaf_pair", "maximal_cliques"),
    "strong_chordal": ("find_simple_elimination_ordering", "find_sun",
                       "is_simple_vertex", "is_strongly_chordal"),
    "unit_interval": ("is_unit_interval", "unit_interval_obstruction"),
    "witness": ("CrownWitness", "MatViolation", "SunWitness", "crown_from_sun"),
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
