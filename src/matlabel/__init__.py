"""Strongly chordal graphs, MAT-labelings, and graphic arrangement exponents.

The package recognizes strongly chordal graphs, constructs and verifies
MAT-labelings of their edges, builds clique intersection posets with crown
witnesses, and computes the exponents and chromatic polynomial cross-checks
of the associated graphic arrangements.
"""

from .arrangement import (
    IntPolynomial,
    check_terao_factorization,
    chromatic_polynomial,
    exponents_from_labeling,
    separator_product_check,
)
from .brute import brute_force_mat_labeling
from .chordal import (
    find_chordless_cycle,
    find_peo,
    is_chordal,
    is_peo,
    is_simplicial,
    minimal_separator_decomposition,
    peo_exponents,
)
from .construct import (
    construct_mat_labeling,
    extend_labeling_complete,
    height_labeling_complete,
    merge_complete,
    node_family,
)
from .errors import NoLeafPairError, NotChordalError, NotStronglyChordalError
from .graph import Graph, canonical_edge
from .labeling import (
    EdgeLabeling,
    LabelBlocks,
    MatViolation,
    find_mat_peo,
    is_mat_peo,
    is_mat_simplicial,
    largest_clique_edges,
    mat_simplicial_violation,
    verify_mat_labeling,
)
from .oracle import detect_induced_sun, find_any_crown, find_crown, is_crown_free
from .poset import (
    CliquePoset,
    CrownWitness,
    build_poset,
    crown_from_sun,
    leaf_pair,
    maximal_cliques,
)
from .strong_chordal import (
    SunWitness,
    find_induced_subgraph,
    find_simple_elimination_ordering,
    find_sun,
    is_simple_vertex,
    is_strongly_chordal,
    is_unit_interval,
    unit_interval_obstruction,
)

__version__ = "0.1.0"

__all__ = [
    "CliquePoset",
    "CrownWitness",
    "EdgeLabeling",
    "Graph",
    "IntPolynomial",
    "LabelBlocks",
    "MatViolation",
    "NoLeafPairError",
    "NotChordalError",
    "NotStronglyChordalError",
    "SunWitness",
    "brute_force_mat_labeling",
    "build_poset",
    "canonical_edge",
    "check_terao_factorization",
    "chromatic_polynomial",
    "construct_mat_labeling",
    "crown_from_sun",
    "detect_induced_sun",
    "exponents_from_labeling",
    "extend_labeling_complete",
    "find_any_crown",
    "find_chordless_cycle",
    "find_crown",
    "find_induced_subgraph",
    "find_mat_peo",
    "find_peo",
    "find_simple_elimination_ordering",
    "find_sun",
    "height_labeling_complete",
    "is_chordal",
    "is_crown_free",
    "is_mat_peo",
    "is_mat_simplicial",
    "is_peo",
    "is_simple_vertex",
    "is_simplicial",
    "is_strongly_chordal",
    "is_unit_interval",
    "largest_clique_edges",
    "leaf_pair",
    "mat_simplicial_violation",
    "maximal_cliques",
    "merge_complete",
    "minimal_separator_decomposition",
    "node_family",
    "peo_exponents",
    "separator_product_check",
    "unit_interval_obstruction",
    "verify_mat_labeling",
]
