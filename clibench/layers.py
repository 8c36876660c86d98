"""In-process traced run: per-layer self times and counts.

The benchmark wraps the public functions of each layer from here, at
every `matlabel` module where the function is bound, and calls
`matlabel.cli.main(argv)` in this process over the workload's operations.
Nothing in the program itself is changed. A span's self time is its
duration minus the durations of the spans it called directly, so the self
times of all spans add up to the time spent in `main`.
"""

from __future__ import annotations

import contextlib
import functools
import io as _io
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# layer module -> public functions that get a span; `graph` holds the
# primitives under every layer and gets none, so as not to swamp the trace
SPANS = {
    "cli": ["main"],
    "io": ["load_graph", "parse_labeling_json", "dump_json"],
    "chordal": ["find_peo", "find_chordless_cycle"],
    "strong_chordal": ["find_simple_elimination_ordering", "detect_induced_sun",
                       "unit_interval_obstruction", "find_induced_subgraph"],
    "poset": ["maximal_cliques", "build_poset", "leaf_pair", "find_any_crown"],
    "construct": ["construct_mat_labeling", "node_family", "merge_complete",
                  "extend_labeling_complete"],
    "labeling": ["verify_mat_labeling", "is_mat_simplicial"],
    "arrangement": ["exponents_from_labeling", "check_terao_factorization",
                    "chromatic_polynomial"],
}

CALL_COUNTS = ["chordal.find_peo", "chordal.find_chordless_cycle",
               "strong_chordal.unit_interval_obstruction", "poset.leaf_pair",
               "construct.merge_complete", "construct.extend_labeling_complete",
               "labeling.verify_mat_labeling", "labeling.is_mat_simplicial"]


class Tracer:
    """Self time and call count per span name, plus result-derived counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_s: list[float] = []

    def wrap(self, name: str, fn):
        stack = self._child_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                self.total_s[name] += took
                self.self_s[name] += took - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += took
            self.count(name, result)
            return result

        return span

    def count(self, name: str, result) -> None:
        if name == "poset.build_poset":
            self.counts["poset.nodes"] += len(result.nodes)
            self.counts["poset.covers"] += sum(len(c) for c in result.covers.values())
            self.counts["poset.cliques"] += len(result.maximal_nodes)
        elif name == "io.dump_json":
            self.counts["io.output_bytes"] += len(result.encode())


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace each spanned function by its wrapper wherever it is bound."""
    import matlabel.cli  # noqa: F401  (loads every layer the CLI uses)

    modules = [m for name, m in sys.modules.items()
               if name == "matlabel" or name.startswith("matlabel.")]
    undo = []
    for layer, names in SPANS.items():
        home = sys.modules[f"matlabel.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
    try:
        yield
    finally:
        for mod, attr, original in undo:
            setattr(mod, attr, original)


def call_main(argv: list[str]) -> tuple[int, str]:
    """Run `matlabel.cli.main(argv)` here, capturing stdout."""
    import matlabel.cli

    out = _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_io.StringIO()):
        try:
            code = matlabel.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def import_seconds(env: dict, repeats: int = 5) -> float:
    """Median time of `import matlabel.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import matlabel.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def largest_inputs(argvs: list[list[str]]) -> list[list[str]]:
    """Per command, the call whose input files are largest in bytes."""
    best: dict[str, tuple[int, list[str]]] = {}
    for argv in argvs:
        size = sum(os.path.getsize(a) for a in argv[1:] if os.path.isfile(a))
        if argv[0] not in best or size > best[argv[0]][0]:
            best[argv[0]] = (size, argv)
    return [argv for _, argv in best.values()]


def traced_run(argvs: list[list[str]], env: dict):
    """Each operation untraced and traced, then tracemalloc on the largest.

    The untraced and traced calls of an operation run back to back, in
    alternating order, so that drift in the machine's speed cancels out of
    `trace.overhead_s`. tracemalloc slows these calls about fourfold, so its
    pass covers only the largest input of each command, where the peak is
    reached. Returns the traced calls' (exit code, stdout) and the
    per-layer metrics as {name: (value, unit)}.
    """
    import matlabel.cli  # noqa: F401  (import cost is not a call's cost)

    tracer = Tracer()
    spent = {False: 0.0, True: 0.0}
    results = []
    for i, argv in enumerate(argvs):
        for traced in (False, True) if i % 2 else (True, False):
            start = time.perf_counter()
            if traced:
                with installed(tracer):
                    results.append(call_main(argv))
            else:
                call_main(argv)
            spent[traced] += time.perf_counter() - start
    tracemalloc.start()
    peak = 0
    try:
        for argv in largest_inputs(argvs):
            tracemalloc.reset_peak()
            call_main(argv)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()

    metrics = {
        "cli.import_s": (import_seconds(env), "s"),
        "cli.main_s": (tracer.total_s["cli.main"], "s"),
        "cli.unaccounted_s": (tracer.self_s["cli.main"], "s"),
    }
    for layer, names in SPANS.items():
        for fname in names:
            if layer != "cli":
                metrics[f"{layer}.{fname}_s"] = (tracer.self_s[f"{layer}.{fname}"], "s")
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in ("poset.nodes", "poset.covers", "poset.cliques"):
        metrics[name] = (tracer.counts[name], "count")
    metrics["io.output_bytes"] = (tracer.counts["io.output_bytes"], "bytes")
    metrics["trace.tracemalloc_peak_mb"] = (peak / 2**20, "MB")
    metrics["trace.overhead_s"] = (spent[True] - spent[False], "s")
    return results, metrics
