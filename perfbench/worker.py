"""One benchmark process: import zpoly from the checkout's src/, generate the
seeded inputs, optionally run and check one job, and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|job|traced

Run from the root of a checkout; perfbench/run.py starts these processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from hostclock import CAL_REF_S, calibrate
from spans import Direct, Tracer

KL_PHASE_REPEATS = 60


def run_job(workload, inputs, calls) -> dict:
    """Run, time and check one job.  A library call that raises or answers
    wrongly becomes a counted failed item.  job_s and kl_s are calibrated
    to the host's speed by calls.clock; job_raw_s is the plain wall time."""
    clock = calls.clock
    clock.cut()
    t0 = time.perf_counter()
    answers, kl_windows, state = workload.run(calls, inputs)
    t1 = time.perf_counter()
    clock.cut()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kl_reps = []
    if workload.kl_phase is not None:
        for _ in range(KL_PHASE_REPEATS):
            clock.tick()
            a = time.perf_counter()
            kl_answers = workload.kl_phase(inputs)
            kl_reps.append((a, time.perf_counter()))
        clock.cut()
        answers.update(kl_answers)
    if kl_windows:
        kl_s = sum(clock.seconds(a, b) for a, b in kl_windows)
    else:
        kl_s = statistics.median(clock.seconds(a, b) for a, b in kl_reps)
    failures = workload.check(inputs, answers, state)
    out = {"job_s": clock.seconds(t0, t1), "job_raw_s": clock.seconds(t0, t1, scaled=False),
           "kl_s": kl_s, "calibration_s": clock.median_calibration(),
           "peak_rss_mib": peak_rss_mib,
           "attempted": len(workload.items(inputs)), "failed": len(failures),
           "failures": dict(sorted(failures.items())[:5]),
           "checksum": workload.checksum(answers)}
    if calls.tracing:
        out["spans"] = calls.spans
        out["counters"] = workload.counters(inputs, answers, state)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "job", "traced"), required=True)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    calibrate()                     # untimed warm-up
    cal_before = calibrate()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import zpoly
    if Path(zpoly.__file__).resolve().parent != (src / "zpoly").resolve():
        print(f"error: zpoly imported from {zpoly.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    setup_raw_s = time.perf_counter() - t0
    scale = 2 * CAL_REF_S / (cal_before + calibrate())
    out = {"setup_s": setup_raw_s * scale, "setup_raw_s": setup_raw_s,
           "inputs": workloads.inputs_digest(inputs)}

    if args.mode != "setup":
        calls = Tracer(f"{args.workload}/seed{args.seed}") if args.mode == "traced" else Direct()
        out.update(run_job(workload, inputs, calls))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
