"""Command line interface.

Subcommands: classify, label, verify, exponents, poset, selftest. Machine
readable JSON goes to stdout (or --out); human summaries go to stderr
under --verbose. Exit codes: 0 success, 1 input or usage error (or an
internal error, reported in one stderr line), 2 mathematical rejection
with a machine-checkable witness.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .io import dump_json, load_graph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REJECT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are input errors: exit 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _witness_json(witness) -> dict:
    if hasattr(witness, "as_json"):  # a SunWitness or a CrownWitness
        return witness.as_json()
    if isinstance(witness, tuple):
        return {"kind": "chordless-cycle", "vertices": list(witness)}
    raise TypeError(f"unknown witness {witness!r}")


def _obstruction_json(kind: str, hit) -> dict:
    if kind == "claw":
        return {"kind": "claw", "center": hit[1],
                "leaves": sorted(hit[v] for v in (2, 3, 4))}
    if kind == "net":
        return {"kind": "net", "triangle": [hit[v] for v in (1, 2, 3)],
                "pendants": [hit[v] for v in (4, 5, 6)]}
    return _witness_json(hit)


def _emit(args, data: dict) -> None:
    text = dump_json(data)
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _say(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _load(args):
    return load_graph(args.graph, args.format)


def cmd_classify(args) -> int:
    from .strong_chordal import unit_interval_obstruction

    g = _load(args)
    kind, hit = unit_interval_obstruction(g) or (None, None)
    report = {
        "chordal": kind != "chordless-cycle",
        "strongly_chordal": kind in (None, "claw", "net"),
        "unit_interval": kind is None,
        "witness": None if kind is None else _obstruction_json(kind, hit),
    }
    _emit(args, report)
    _say(args, f"{args.graph}: chordal={report['chordal']} "
               f"strongly_chordal={report['strongly_chordal']}")
    return EXIT_OK


def cmd_label(args) -> int:
    from .construct import construct_mat_labeling
    from .errors import NotStronglyChordalError
    from .io import labeling_to_dot, labeling_to_json_dict

    g = _load(args)
    try:
        lab = construct_mat_labeling(g)
    except NotStronglyChordalError as exc:
        _emit(args, {"error": "graph is not strongly chordal",
                     "witness": _witness_json(exc.witness)})
        _say(args, f"{args.graph}: rejected ({exc.kind} witness)")
        return EXIT_REJECT
    if args.dot:  # before the JSON, so that a failed write leaves stdout empty
        Path(args.dot).write_text(labeling_to_dot(lab))
    _emit(args, labeling_to_json_dict(lab))
    _say(args, f"{args.graph}: labeled, block sizes {lab.block_sizes()}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .io import parse_labeling_json
    from .labeling import verify_mat_labeling

    g = _load(args)
    lab = parse_labeling_json(g, Path(args.labeling).read_text())
    violation = verify_mat_labeling(lab)
    if violation is None:
        _emit(args, {"ok": True})
        _say(args, f"{args.labeling}: valid MAT-labeling")
        return EXIT_OK
    _emit(args, {"ok": False, "violation": violation.as_json()})
    _say(args, f"{args.labeling}: invalid ({violation.kind} at level {violation.level})")
    return EXIT_REJECT


def cmd_exponents(args) -> int:
    g = _load(args)
    if args.labeling:
        from .arrangement import check_terao_factorization, dual_partition_exponents
        from .io import parse_labeling_json
        from .labeling import verify_mat_labeling

        lab = parse_labeling_json(g, Path(args.labeling).read_text())
        violation = verify_mat_labeling(lab)
        if violation is not None:
            _emit(args, {"error": "labeling is not a MAT-labeling",
                         "violation": violation.as_json()})
            return EXIT_REJECT
        exps = dual_partition_exponents(lab)
        factors_check = check_terao_factorization(g, exps)
    else:
        from .chordal import peo_exponents

        maybe = peo_exponents(g)
        if maybe is None:
            _emit(args, {"error": "graph is not chordal and no labeling given"})
            return EXIT_REJECT
        exps = maybe
        # chi(G) is prod (t - e) over the exponents along a PEO, so these
        # factor it (see check_terao_factorization)
        factors_check = True
    report = {
        "exponents": list(exps),
        "chromatic_factors_check": factors_check,
    }
    _emit(args, report)
    _say(args, f"{args.graph}: exponents {list(exps)}")
    return EXIT_OK


def cmd_poset(args) -> int:
    from .chordal import find_chordless_cycle
    from .errors import NotChordalError
    from .io import poset_to_dot, poset_to_json_dict
    from .poset import build_poset, crown_from_sun
    from .strong_chordal import find_sun

    g = _load(args)
    try:
        p = build_poset(g)
    except NotChordalError:
        _emit(args, {"error": "graph is not chordal",
                     "witness": _witness_json(find_chordless_cycle(g))})
        return EXIT_REJECT
    # a chordal graph's clique intersection poset is crown-free exactly when
    # the graph is strongly chordal; otherwise a sun of it gives a crown
    sun = find_sun(g)
    crown = None if sun is None else crown_from_sun(p, sun)
    if args.out and args.out.endswith(".dot"):
        Path(args.out).write_text(poset_to_dot(p))
    else:
        report = poset_to_json_dict(p)
        report["crown_free"] = crown is None
        report["crown"] = None if crown is None else crown.as_json()
        _emit(args, report)
    _say(args, f"{args.graph}: {len(p.nodes)} poset nodes, "
               f"crown_free={crown is None}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    import random

    from . import families
    from .arrangement import (IntPolynomial, check_terao_factorization,
                              chromatic_polynomial, dual_partition_exponents)
    from .brute import brute_force_mat_labeling
    from .chordal import is_chordal
    from .construct import construct_mat_labeling
    from .labeling import find_mat_peo, verify_mat_labeling
    from .oracle import detect_induced_sun, find_any_crown
    from .poset import build_poset
    from .strong_chordal import is_strongly_chordal

    rng = random.Random(args.seed)
    mismatches = []
    checked = 0
    # recognizer three-way agreement on random graphs
    for _ in range(60):
        n = rng.randint(4, 7)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 14))
        g = families.random_graph(n, m, rng)
        checked += 1
        sc = is_strongly_chordal(g)
        via_sun = is_chordal(g) and detect_induced_sun(g) is None
        via_crown = is_chordal(g) and find_any_crown(build_poset(g)) is None
        if not (sc == via_sun == via_crown):
            mismatches.append({"graph": [list(e) for e in g.edges],
                               "check": "recognizers"})
    # construct and verify round trip on random strongly chordal graphs
    for _ in range(20):
        g = families.random_strongly_chordal(rng.randint(2, 12), rng=rng)
        checked += 1
        lab = construct_mat_labeling(g)
        if verify_mat_labeling(lab) is not None or find_mat_peo(lab) is None:
            mismatches.append({"graph": [list(e) for e in g.edges],
                               "check": "construct"})
        else:
            # the root-multiset check against the deletion-contraction identity
            exps = dual_partition_exponents(lab)
            if not (check_terao_factorization(g, exps)
                    and chromatic_polynomial(g, method="deletion-contraction")
                    == IntPolynomial.from_roots(exps)):
                mismatches.append({"graph": [list(e) for e in g.edges],
                                   "check": "factorization"})
    # existence oracle agreement on small graphs
    for _ in range(15):
        n = rng.randint(3, 6)
        m = rng.randint(0, min(n * (n - 1) // 2, args.max_brute_edges))
        g = families.random_graph(n, m, rng)
        checked += 1
        found = brute_force_mat_labeling(g, max_edges=args.max_brute_edges)
        if (found is not None) != is_strongly_chordal(g):
            mismatches.append({"graph": [list(e) for e in g.edges],
                               "check": "brute-force"})
    _emit(args, {"checked": checked, "mismatches": mismatches,
                 "seed": args.seed})
    _say(args, f"selftest: {checked} checks, {len(mismatches)} mismatches")
    return EXIT_OK if not mismatches else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="matlabel",
                     description="Strongly chordal graphs and MAT-labelings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, labeling=False, out=True, dot=False):
        p.add_argument("graph", help="graph file (.txt edge list or .json)")
        if labeling:
            p.add_argument("labeling", nargs="?" if labeling == "optional" else None,
                           default=None, help="labeling JSON file")
        p.add_argument("--format", choices=["edgelist", "json"], default=None,
                       help="override input format detection")
        if out:
            p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        if dot:
            p.add_argument("--dot", default=None, help="also write a DOT rendering here")
        p.add_argument("--verbose", action="store_true",
                       help="human-readable summary on stderr")

    p = sub.add_parser("classify", help="chordal / strongly chordal / unit interval")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("label", help="construct a MAT-labeling")
    common(p, dot=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("verify", help="check a labeling against the three conditions")
    common(p, labeling=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exponents", help="arrangement exponents and factorization check")
    common(p, labeling="optional")
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("poset", help="clique intersection poset (JSON, or DOT via --out x.dot)")
    common(p)
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("selftest", help="sampled cross-checks of the recognizers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-brute-edges", type=int, default=18)
    p.add_argument("--out", default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"matlabel: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:  # a broken invariant: one line, no traceback
        print(f"matlabel: internal error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

# Each command imports the layers it runs when it is called, so `python -m
# matlabel.cli` loads only those and exits above. A library import goes on
# to load every layer: clibench/layers.py looks each one up in sys.modules
# after `import matlabel.cli`, to wrap its functions for a traced run.
from . import arrangement, chordal, construct, labeling, poset, strong_chordal  # noqa: E402,F401
