"""Steadiness report: run the benchmark on many seeds, per workload.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seeds 1-10 --sets 2
    python3 perfbench/steadiness.py --workloads fleet-zipf --seeds 1-5

Each run is one fresh ``perfbench/run.py`` process, one at a time.  For
every end-to-end metric the report gives the spread of its values, the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from ``BENCHMARK.json``; with ``--sets 2`` it
repeats the seeds and compares the second set's median with the
first's.  Runs whose value sits further than the bound from the median
are listed with their tier choices, so a bimodal timing can be traced
to the cost model settling differently.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    elapsed = time.perf_counter() - began
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    runs = sorted(
        (ROOT / ".perfbench" / "runs").glob(f"{workload}-seed{seed}-trace0-*.json"),
        key=lambda p: p.stat().st_mtime,
    )
    record = json.loads(runs[-1].read_text())
    return {
        "seed": seed,
        "elapsed_s": elapsed,
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "tiers": record["tiers"]["settled"],
    }


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default=".perfbench/steadiness.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    names = (
        [w["name"] for w in bench["workloads"]]
        if args.workloads == "all" else args.workloads.split(",")
    )
    seeds = parse_seeds(args.seeds)
    report = {}
    ok = True
    for workload in names:
        sets = []
        for number in range(args.sets):
            runs = [run_once(workload, seed, bench["run_seconds"]) for seed in seeds]
            sets.append(runs)
            took = sum(r["elapsed_s"] for r in runs)
            print(f"{workload} set {number}: {len(runs)} runs, {took:.0f} s "
                  f"({took / len(runs):.1f} s/run)", flush=True)
        rows = {}
        for metric, bound in bounds.items():
            per_set = [[r["metrics"][metric] for r in runs] for runs in sets]
            spreads = [spread(values) for values in per_set]
            medians = [statistics.median(values) for values in per_set]
            row = {"bound": bound, "spreads": spreads, "medians": medians}
            if len(medians) > 1:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if better[metric] == "lower" else -change
                row["second_median_worse_by"] = worse
                if worse > bound:
                    ok = False
            if metric != "setup_s" and max(spreads) > bound:
                ok = False
            outliers = []
            for runs, values, median in zip(sets, per_set, medians):
                settled = [json.dumps(r["tiers"], sort_keys=True) for r in runs]
                common = Counter(settled).most_common(1)[0][0]
                for r, tiers, value in zip(runs, settled, values):
                    if abs(value - median) > bound * median:
                        outliers.append({
                            "seed": r["seed"],
                            "value": value,
                            "tiers_differ": tiers != common,
                            "tiers": r["tiers"],
                        })
            row["outliers"] = outliers
            rows[metric] = row
            flag = "ok" if max(spreads) <= bound / 3 else (
                "within bound" if max(spreads) <= bound else "TOO WIDE")
            text = " ".join(f"{s:.3f}" for s in spreads)
            extra = (
                f" | 2nd median worse by {row['second_median_worse_by']:+.3f}"
                if "second_median_worse_by" in row else ""
            )
            print(f"  {metric:16s} median {medians[0]:.6g} spread {text} "
                  f"(bound {bound}, {flag}){extra}")
            for o in outliers:
                print(f"    outlier seed {o['seed']}: {o['value']:.6g}, "
                      f"tier choices {'differ' if o['tiers_differ'] else 'same'}"
                      f" {o['tiers']}")
        report[workload] = {"sets": sets, "metrics": rows}
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("steady" if ok else "NOT steady", f"- report in {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
