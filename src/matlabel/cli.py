"""Command line interface.

Subcommands: classify, label, verify, exponents, poset; options: --out,
--dot. Machine readable JSON goes to stdout (or --out); stderr carries
only errors. A graph file is read as JSON or as an edge list by its text
(see io.load_graph). Exit codes: 0 success, 1 input or usage error (or an
internal error, reported in one stderr line), 2 mathematical rejection
with a machine-checkable witness.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

from .io import dump_json, load_graph, read_input

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REJECT = 2


def _emit(args, data: dict) -> None:
    _write(args, dump_json(data))


def _write(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _reject(args, exc) -> int:
    """Emit a NotStronglyChordalError as the one rejection of label and poset."""
    from .witness import _witness_json

    _emit(args, {"error": "graph is not strongly chordal",
                 "witness": _witness_json(exc.kind, exc.witness)})
    return EXIT_REJECT


def cmd_classify(args) -> int:
    from .unit_interval import unit_interval_obstruction

    g = load_graph(args.graph)
    kind, hit = unit_interval_obstruction(g) or (None, None)
    witness = None
    if kind is not None:
        from .witness import _witness_json

        witness = _witness_json(kind, hit)
    report = {
        "chordal": kind != "chordless-cycle",
        "strongly_chordal": kind in (None, "claw", "net"),
        "unit_interval": kind is None,
        "witness": witness,
    }
    _emit(args, report)
    return EXIT_OK


def cmd_label(args) -> int:
    from .construct import construct_mat_labeling
    from .io import labeling_json
    from .poset import NotStronglyChordalError

    g = load_graph(args.graph)
    try:
        lab = construct_mat_labeling(g)
    except NotStronglyChordalError as exc:
        return _reject(args, exc)
    if args.dot:  # before the JSON, so that a failed write leaves stdout empty
        from .formats import labeling_to_dot

        Path(args.dot).write_text(labeling_to_dot(lab))
    _write(args, labeling_json(lab))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .io import parse_labeling_json
    from .labeling import verify_mat_labeling

    g = load_graph(args.graph)
    lab = parse_labeling_json(g, read_input(args.labeling))
    violation = verify_mat_labeling(lab)
    if violation is None:
        _emit(args, {"ok": True})
        return EXIT_OK
    _emit(args, {"ok": False, "violation": violation.as_json()})
    return EXIT_REJECT


def cmd_exponents(args) -> int:
    g = load_graph(args.graph)
    if args.labeling:
        from .arrangement import check_terao_factorization, dual_partition_exponents
        from .io import parse_labeling_json
        from .labeling import verify_mat_labeling

        lab = parse_labeling_json(g, read_input(args.labeling))
        violation = verify_mat_labeling(lab)
        if violation is not None:
            _emit(args, {"error": "labeling is not a MAT-labeling",
                         "violation": violation.as_json()})
            return EXIT_REJECT
        exps = dual_partition_exponents(lab)
        factors_check = check_terao_factorization(g, exps)
    else:
        from .chordal import find_chordless_cycle, peo_exponents

        maybe = peo_exponents(g)
        if maybe is None:
            from .witness import _witness_json

            _emit(args, {"error": "graph is not chordal and no labeling given",
                         "witness": _witness_json("chordless-cycle",
                                                  find_chordless_cycle(g))})
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
    return EXIT_OK


def cmd_poset(args) -> int:
    from .formats import poset_to_dot, poset_to_json_dict
    from .poset import NotStronglyChordalError, strongly_chordal_poset

    g = load_graph(args.graph)
    try:
        p = strongly_chordal_poset(g)
    except NotStronglyChordalError as exc:
        return _reject(args, exc)
    if args.out and Path(args.out).suffix.lower() == ".dot":
        Path(args.out).write_text(poset_to_dot(p))
    else:
        report = poset_to_json_dict(p)
        report.update(crown_free=True, crown=None)  # as strongly_chordal_poset's are
        _emit(args, report)
    return EXIT_OK


# option -> help; `--name VALUE` sets args.name, which is None when not given
_OPTIONS = {
    "--out": "write JSON here instead of stdout",
    "--dot": "also write a DOT rendering here",
}

# command -> (handler, positionals, options, help); a positional in brackets
# may be left out
_COMMANDS = {
    "classify": (cmd_classify, ("graph",), ("--out",),
                 "chordal / strongly chordal / unit interval"),
    "label": (cmd_label, ("graph",), ("--out", "--dot"), "construct a MAT-labeling"),
    "verify": (cmd_verify, ("graph", "labeling"), ("--out",),
               "check a labeling against the three conditions"),
    "exponents": (cmd_exponents, ("graph", "[labeling]"), ("--out",),
                  "arrangement exponents and factorization check"),
    "poset": (cmd_poset, ("graph",), ("--out",),
              "clique intersection poset (JSON, or DOT via --out x.dot)"),
}


class _UsageError(Exception):
    """A command line that names no command, or that its command rejects."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


def _help(command: str | None) -> None:
    from .formats import help_text

    sys.stdout.write(help_text(_COMMANDS, _OPTIONS, command))


def _is_option(word: str) -> bool:
    """A word that names an option; `-` and negative numbers are values."""
    return word.startswith("-") and word != "-" and not word[1:].isdigit()


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The command, its handler (func) and its arguments, or None after
    printing the help that -h or --help asks for. Options go before or
    after the positionals, as `--opt value` or `--opt=value`, and are
    named in full; `--` ends them.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _help(None)
        return None
    if command not in _COMMANDS:
        raise _UsageError(f"unknown command {command!r}" if argv else "no command given")
    func, positionals, options, _ = _COMMANDS[command]
    args = {"command": command, "func": func}
    args.update((o[2:], None) for o in options)
    given = []
    rest = iter(argv[1:])
    for word in rest:
        if word == "--":
            given.extend(rest)
        elif word in ("-h", "--help"):
            _help(command)
            return None
        elif _is_option(word):
            name, eq, value = word.partition("=")
            if name not in options:
                raise _UsageError(f"unrecognized option {name!r}", command)
            if not eq:
                value = next(rest, None)
            if not value or not eq and _is_option(value):  # None, "" or the next option
                raise _UsageError(f"option {name} expects a value", command)
            args[name[2:]] = value
        else:
            given.append(word)
    required = [p for p in positionals if not p.startswith("[")]
    if len(given) < len(required):
        missing = " ".join(p.upper() for p in required[len(given):])
        raise _UsageError(f"missing {missing}", command)
    if len(given) > len(positionals):
        raise _UsageError(f"unexpected argument {given[len(positionals)]!r}", command)
    for name, value in zip(positionals, given + [None] * len(positionals)):
        args[name.strip("[]")] = value
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:  # usage errors are input errors: exit 1
        from .formats import usage

        print(usage(_COMMANDS, exc.command), file=sys.stderr)
        print(f"matlabel: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args is None:
        return EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"matlabel: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:  # a broken invariant: one line, no traceback
        print(f"matlabel: internal error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> NoReturn:
    """The `matlabel` executable: main, then a checked flush and a hard exit.

    stdout and stderr are flushed here, where a failed write (a full disk,
    a reader that closed the pipe) is an input error: one `matlabel:
    error:` line on stderr and exit 1, or exit 1 alone when stderr fails
    too. os._exit then skips the interpreter's teardown, which would
    otherwise finalize every module that `site` imported, and whose own
    flush would turn such a failure into a traceback and exit 120. main is
    for in-process callers, and leaves the streams to them.
    """
    gc.disable()  # os._exit ends the process; passes over decoded input cost verify time
    code, error = EXIT_INPUT, None
    try:
        code = main()
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_INPUT:  # main has reported its own error, a failed write too
            code, error = EXIT_INPUT, f"matlabel: error: {exc}"
    if sys.stderr is not None:
        try:
            if error:
                print(error, file=sys.stderr)
            sys.stderr.flush()
        except OSError:  # nowhere is left to report it
            code = EXIT_INPUT
    os._exit(code)


if __name__ == "__main__":
    entry()

# Each command imports the layers it runs when it is called, so `python -m
# matlabel.cli` loads only those and exits above. A library import goes on
# to load every layer: clibench/layers.py looks each one up in sys.modules
# after `import matlabel.cli`, to wrap its functions for a traced run
# (unit_interval's rung and oracle's two searches through strong_chordal's __getattr__).
from . import (arrangement, chordal, construct, labeling, poset,  # noqa: E402,F401
               strong_chordal, unit_interval)
