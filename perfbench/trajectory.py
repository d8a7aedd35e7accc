"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/trajectory.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                    [--out FILE.json] [--against EARLIER.json]

Run from the root of a checkout.  Runs perfbench/run.py once per
(workload, seed), one at a time, and prints per workload and metric the
median, the quartiles as statistics.quantiles(values, n=4) gives them, the
spread (Q3 - Q1) / median, and the sample count.  --out also writes every
run's values as JSON.  --against adds, per metric, the gap between this
set's median and the median in an earlier --out file, as a share of the
earlier one (positive: this set is higher).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    earlier = json.loads(Path(args.against).read_text())["summary"] if args.against else {}

    contract = json.loads(Path("BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in contract["workloads"]])
    runs = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(contract["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            counts = re.search(r"^jobs (\d+), set-ups (\d+)$", proc.stdout, re.M)
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "jobs": int(counts[1]) if counts else None,
                         "setups": int(counts[2]) if counts else None,
                         "result": result})
            status = "ok" if result and result["correct"] else f"FAILED (exit {proc.returncode})"
            print(f"{workload} seed {seed}: {status}", file=sys.stderr)

    summary = {}
    for workload in workloads:
        per_metric = {}
        for run in runs:
            if run["workload"] == workload and run["result"]:
                for name, m in run["result"]["metrics"].items():
                    per_metric.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        summary[workload] = {name: dict(summarise(values), unit=unit)
                             for name, (values, unit) in per_metric.items()}

    for workload in workloads:
        jobs = [r["jobs"] for r in runs if r["workload"] == workload and r["jobs"]]
        if jobs:
            print(f"{workload}: {min(jobs)}-{max(jobs)} jobs per run", file=sys.stderr)
    gap_head = " gap |" if earlier else ""
    print("| workload | metric | median | Q1 | Q3 | spread | n |" + gap_head)
    print("|---|---|---|---|---|---|---|" + ("---|" if earlier else ""))
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            gap = ""
            before = earlier.get(workload, {}).get(name)
            if earlier:
                gap = (f" {100 * (s['median'] / before['median'] - 1):+.1f} % |"
                       if before and before["median"] else " - |")
            print(f"| {workload} | {name} ({s['unit']}) | {s['median']:.6g} | {s['q1']:.6g} "
                  f"| {s['q3']:.6g} | {100 * s['spread']:.1f} % | {s['n']} |" + gap)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    failed = sum(1 for r in runs if not (r["result"] and r["result"]["correct"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
