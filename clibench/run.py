"""CLI benchmark of `matlabel`: one workload, one seed, one JSON result line.

Run from the root of a matlabel checkout:

    python3 clibench/run.py --workload label --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from the seed (see gen.py) under
clibench/_inputs/. With --trace 0 each operation runs `python -m
matlabel.cli` as a subprocess, one at a time (a single closed-loop
client), and the end-to-end metrics are reported. With --trace 1 the same
operations run in-process through `matlabel.cli.main` with per-layer spans
(see layers.py). Every output is checked by checks.py. The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; a fuller record,
with each operation's time, goes to clibench/_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402

# One round is a workload's fixed list of operations, sized to take 8-12 s
# on 2 cores. An untraced run makes seconds // ROUND_SECONDS rounds (at
# least one), so its work is fixed by its arguments, never by a clock. The
# speed of the shared machine drifts by up to 2x over periods of 5-10 s,
# and medians over rounds spaced apart absorb part of that drift. A traced
# run makes one round.
ROUND_SECONDS = 10
OP_TIMEOUT_S = 60


def spawn(argv: list[str], env: dict, cwd: Path):
    """Run one CLI call; returns (exit code or None on timeout, stdout, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "matlabel.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    try:
        out, _ = proc.communicate(timeout=OP_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        code = None
    return code, out.decode(), time.perf_counter() - start


def setup_op(workload: str, out: Path) -> gen.Op:
    """The workload's command on a one-vertex graph."""
    b = gen.Builder(out)
    adj = {1: set()}
    graph = b.graph("one-vertex", adj)
    if workload == "verify":
        b.op("one-vertex", "verify", adj, [graph, b.labeling("one-vertex", {})],
             mat=True, labels={})
    elif workload == "classify":
        b.op("one-vertex", "classify", adj, [graph], chordal=True, sc=True, ui=True)
    else:
        b.op("one-vertex", "label", adj, [graph], sc=True, peo=[1])
    return b.ops[0]


def cli_run(ops, rounds, setup, env, root):
    """Closed loop over the rounds; a setup call before every other operation."""
    spawn(setup.args, env, root)  # warm the bytecode cache; not timed
    setup_times, results, records, round_s = [], [], [], []
    for _ in range(rounds):
        round_s.append(0.0)
        for i, op in enumerate(ops):
            if i % 2 == 0:
                code, out, took = spawn(setup.args, env, root)
                setup_times.append(took)
                results.append((setup, code, out))
            code, out, took = spawn(op.args, env, root)
            round_s[-1] += took
            results.append((op, code, out))
            records.append({"op": op.name, "cmd": op.cmd, "exit": code, "s": took})
    done = [r["s"] for r in records if r["exit"] in (0, 2)]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "ops_per_s": (len(done) / rounds / statistics.median(round_s), "1/s"),
        "op_p50_s": (statistics.median(done) if done else float("nan"), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return results, records, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="matlabel CLI benchmark")
    p.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "matlabel" / "cli.py").is_file():
        print(f"clibench: {src}/matlabel/cli.py not found; run from the root "
              "of a matlabel checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(src))

    work = HERE / "_inputs" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    ops = gen.build(args.workload, args.seed, work)
    setup = setup_op(args.workload, work)

    if args.trace:
        outputs, metrics = layers.traced_run([op.args for op in ops], env)
        results = [(op, code, out) for op, (code, out) in zip(ops, outputs)]
        records = [{"op": op.name, "cmd": op.cmd, "exit": code} for op, code, _ in results]
        self_s = sum(v for k, (v, _) in metrics.items() if k.endswith("_s")
                     and k not in ("cli.import_s", "cli.main_s", "trace.overhead_s"))
        main_s = metrics["cli.main_s"][0]
        layer_sum_ok = abs(self_s - main_s) <= 1e-6 * max(1.0, main_s)
    else:
        rounds = max(1, args.seconds // ROUND_SECONDS)
        results, records, metrics = cli_run(ops, rounds, setup, env, root)
        layer_sum_ok = True

    errors = [] if layer_sum_ok else ["layer self times do not add up to cli.main_s"]
    failed = sum(1 for r in records if r["exit"] not in (0, 2))
    for op, code, out in results:
        if code in (0, 2) or op is setup:
            try:
                checks.check_op(op, code, out)
            except Exception as exc:  # a malformed output is a wrong one
                errors.append(f"{op.name} ({op.cmd}): {exc!r}")
    for line in errors[:10]:
        print(f"clibench: check failed: {line}", file=sys.stderr)

    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = HERE / "_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, ops=records, errors=errors), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
