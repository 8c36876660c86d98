"""Two sets of runs of the same code, checked against the bounds in BENCHMARK.json.

    python3 clibench/compare.py --runs 10 [--workloads label verify classify]

Run from the root of a matlabel checkout. Set A uses seeds 1..runs and
set B seeds 101..100+runs. For each end-to-end metric on each workload it
reports both medians, each set's spread (the distance between the first
and third quartile as a share of the median) and whether the two sets
agree: every spread but that of setup_s within the metric's bound, B's
median no worse than A's by more than the bound, and the same share of
failed operations in both sets. Results go to clibench/_results/compare.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SET_SEEDS = {"A": 1, "B": 101}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(spec: dict, runs: dict[str, list[dict]]) -> list[dict]:
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sets = {k: [r["metrics"][name]["value"] for r in rs] for k, rs in runs.items()}
        med = {k: statistics.median(v) for k, v in sets.items()}
        spreads = {k: spread(v) for k, v in sets.items()}
        sign = 1 if metric["better"] == "lower" else -1
        worse = sign * (med["B"] - med["A"]) / med["A"]
        ok = worse <= bound and (name == "setup_s" or max(spreads.values()) <= bound)
        rows.append({"metric": name, "bound": bound, "median": med, "spread": spreads,
                     "b_worse_by": worse, "agree": ok, "values": sets})
    return rows


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)

    report, all_ok = {}, True
    for workload in args.workloads:
        runs = {k: [] for k in SET_SEEDS}
        for k, first in SET_SEEDS.items():
            for seed in range(first, first + args.runs):
                r = run_once(workload, seed, spec["run_seconds"])
                print(f"{workload} set {k} seed {seed}: {json.dumps(r)}", file=sys.stderr)
                runs[k].append(r)
        shares = {k: sorted({r["failed"] / r["attempted"] for r in rs}) for k, rs in runs.items()}
        correct = all(r["correct"] for rs in runs.values() for r in rs)
        rows = summarize(spec, runs)
        ok = correct and shares["A"] == shares["B"] and all(r["agree"] for r in rows)
        all_ok &= ok
        report[workload] = {"agree": ok, "correct": correct, "failed_share": shares,
                            "metrics": rows}
        print(f"\n{workload}: {'AGREE' if ok else 'DISAGREE'} (all correct: {correct}, "
              f"failed share A {shares['A']} B {shares['B']})")
        print(f"  {'metric':12s} {'bound':>6s} {'median A':>10s} {'median B':>10s} "
              f"{'spread A':>9s} {'spread B':>9s} {'B worse':>8s}")
        for r in rows:
            print(f"  {r['metric']:12s} {r['bound']:6.2f} {r['median']['A']:10.4f} "
                  f"{r['median']['B']:10.4f} {r['spread']['A']:9.3f} {r['spread']['B']:9.3f} "
                  f"{r['b_worse_by']:8.3f}  {'ok' if r['agree'] else 'OUT OF BOUND'}")
    out = HERE / "_results"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
