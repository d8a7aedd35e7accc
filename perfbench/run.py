"""zpoly benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every job runs in a fresh single-threaded
process (perfbench/worker.py, ZPOLY_THREADS removed from its environment);
this process schedules them, checks them, and prints a report whose last
line is one JSON object with the keys correct, attempted, failed, metrics.

--trace 0 starts jobs while fewer than S seconds have passed (at least
MIN_JOBS) and reports the end-to-end metrics of BENCHMARK.json as medians:
job_s, kl_s and peak_rss_mib over the jobs, setup_s over at least
SETUP_SAMPLES set-ups.  Times are calibrated to the host's speed
(hostclock.py), because on a shared host other tenants slow a CPU-bound
process by up to 1.7x in phases from under a second to minutes.  Medians,
not minima, so that a faster commit, which fits more jobs into a run, is
not also credited with more chances at a low value.
--trace 1 runs untraced and traced jobs in pairs (at least MIN_PAIRS, and
for S seconds) and reports the per-layer metrics; the spans are written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import CAL_REF_S
from spans import span_totals, top_level_seconds

MIN_JOBS = 1
MIN_PAIRS = 3
SETUP_SAMPLES = 20
RUN_BUDGET_S = 170          # the whole run must end within 180 s
HERE = Path(__file__).resolve().parent


class ChildFailed(Exception):
    pass


class Runner:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("ZPOLY_THREADS", "PYTHONPATH")}
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, mode: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} process killed at the {RUN_BUDGET_S} s run budget") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{mode} process exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        out = json.loads(lines[-1])
        out["wall_s"] = time.monotonic() - start
        return out


def run_untraced(runner: Runner, seconds: int, contract: dict):
    runner.child("setup")           # untimed: lets the bytecode cache fill
    jobs = []
    start = time.monotonic()
    while len(jobs) < MIN_JOBS or time.monotonic() - start < seconds:
        jobs.append(runner.child("job"))
    setups = [j["setup_s"] for j in jobs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])
    values = {"setup_s": statistics.median(setups)}
    for name in ("job_s", "kl_s", "peak_rss_mib", "job_raw_s", "calibration_s"):
        values[name] = statistics.median(j[name] for j in jobs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in contract["end_to_end"]}
    notes = [f"jobs {len(jobs)}, set-ups {len(setups)}",
             f"uncalibrated job_s {values['job_raw_s']:.4f} s, "
             f"calibration loop {values['calibration_s']:.5f} s (reference {CAL_REF_S} s)"]
    return jobs, metrics, notes


def run_traced(runner: Runner, seconds: int, contract: dict):
    """Untraced and traced jobs in pairs: span times and tracing overhead
    are medians over the pairs."""
    runner.child("setup")
    plain, traced = [], []
    start = time.monotonic()
    while len(plain) < MIN_PAIRS or time.monotonic() - start < seconds:
        plain.append(runner.child("job"))
        traced.append(runner.child("traced"))
    per_job = [span_totals(t["spans"]) for t in traced]
    values = dict(traced[0]["counters"])
    values["bench.unattributed_s"] = statistics.median(
        t["job_raw_s"] - top_level_seconds(t["spans"]) for t in traced)
    values["bench.trace_overhead_s"] = statistics.median(
        t["job_s"] - p["job_s"] for p, t in zip(plain, traced))
    values["bench.calibration_s"] = statistics.median(t["calibration_s"] for t in traced)
    metrics = {}
    for m in contract["per_layer"]:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.endswith(".s"):
            value = statistics.median(t.get(name[:-2], (0.0, 0))[0] for t in per_job)
        elif name.endswith(".calls"):
            value = per_job[0].get(name[:-len(".calls")], (0.0, 0))[1]
        else:
            value = 0
        metrics[name] = {"value": value, "unit": m["unit"]}

    out_dir = runner.root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{runner.workload}-seed{runner.seed}.json", "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
                   "spans": [span for t in traced for span in t["spans"]]}, fh)

    job_s = statistics.median(t["job_raw_s"] for t in traced)
    notes = [f"pairs {len(plain)}; traced job_s {statistics.median(t['job_s'] for t in traced):.4f} s, "
             f"untraced {statistics.median(p['job_s'] for p in plain):.4f} s (calibrated); "
             f"traced uncalibrated {job_s:.4f} s"]
    totals = span_totals(traced[0]["spans"])
    for name, (secs, count) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        notes.append(f"  {name:45s} {secs:10.4f} s {100 * secs / traced[0]['job_raw_s']:6.1f} %"
                     f"  calls {count}  (first traced job)")
    return plain + traced, metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="zpoly benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "zpoly" / "__init__.py").is_file():
        print(f"error: no zpoly sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    contract = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r} (one of {names})", file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            jobs, metrics, notes = run_traced(runner, args.seconds, contract)
        else:
            jobs, metrics, notes = run_untraced(runner, args.seconds, contract)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    checksums = {j["checksum"] for j in jobs}    # traced and untraced alike
    if len(checksums) != 1:
        failed += 1
        jobs[-1]["failures"]["checksum"] = f"jobs disagree: {sorted(checksums)}"

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'fail_ratio':45s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print(f"checksum {jobs[0]['checksum']}")
    print(f"inputs {jobs[0]['inputs']}")
    for job in jobs:
        for item, reason in job["failures"].items():
            print(f"FAILED {item}: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
