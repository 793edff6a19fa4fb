"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 [--workload W ...]
                                [--traced-seed N] [--write perfbench/baseline.json]
                                [--host "hardware description"]

Each run is a fresh ``perfbench/run.py`` process, one after another.  For
every end-to-end metric it prints the median of the runs and the spread, the
distance between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median.  ``--write`` stores the runs, their failing jobs
and one traced run per workload as a baseline record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Parsed output of one benchmark run."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    record = next(json.loads(l.split(": ", 1)[1]) for l in lines
                  if l.startswith("# run record: "))
    reported = {l.split()[0]: (float(l.split()[1]), l.split()[2])
                for l in lines if l.endswith("(not gated)")}
    failing = [l[4:] for l in lines if l.startswith("#   ")]
    return {"result": json.loads(lines[-1]), "record": record,
            "reported": reported, "failing": failing}


def quartiles(values: list, unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def summarize(runs: dict) -> dict:
    results = [r["result"] for r in runs.values()]
    units = {k: v["unit"] for k, v in results[0]["metrics"].items()}
    reported = {name: {"unit": unit, "median": statistics.median(
                    r["reported"][name][0] for r in runs.values())}
                for name, (_, unit) in next(iter(runs.values()))["reported"].items()}
    return {
        "seeds": list(runs),
        "end_to_end": {k: quartiles([r["metrics"][k]["value"] for r in results], u)
                       for k, u in units.items()},
        "reported_medians": reported,
        "jobs_per_run": [r["attempted"] for r in results],
        "failed_per_run": [r["failed"] for r in results],
        "correct": all(r["correct"] for r in results),
        "job_s_tail_percentile": statistics.median(
            r["record"]["job_s_tail_percentile"] for r in runs.values()),
        "job_s_tail_samples": statistics.median(
            r["record"]["job_s_tail_samples"] for r in runs.values()),
        "failing_jobs": {str(seed): r["failing"] for seed, r in runs.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--write", type=Path)
    ap.add_argument("--host", default="", help="hardware, for the --write record")
    args = ap.parse_args()
    names = args.workload or list(workloads.WORKLOADS)
    summary = {}
    for name in names:
        runs = {}
        for seed in args.seeds:
            runs[seed] = run(name, seed, args.seconds, 0)
            r = runs[seed]["result"]
            print(f"{name} seed {seed}: {r['failed']} of {r['attempted']} failed, " +
                  ", ".join(f"{k} {v['value']:.5g}" for k, v in r["metrics"].items()),
                  flush=True)
        summary[name] = summarize(runs)
        for metric, q in summary[name]["end_to_end"].items():
            print(f"{name} {metric}: median {q['median']:.5g} {q['unit']}, "
                  f"spread {q['spread']:.3f}", flush=True)
        if args.traced_seed is not None:
            t = run(name, args.traced_seed, args.seconds, 1)
            summary[name]["traced"] = {
                "seed": args.traced_seed, "jobs": t["result"]["attempted"],
                "traced_s": t["record"]["traced_s"],
                "untraced_s": t["record"]["untraced_s"],
                "per_layer": {k: v["value"] for k, v in t["result"]["metrics"].items()}}
    if args.write:
        machine = {k: v for k, v in run(names[0], args.seeds[0], 0.1, 0)["record"].items()
                   if k in ("python", "numpy", "scipy", "mpmath", "nproc", "blas_threads")}
        machine["host"] = args.host
        args.write.write_text(json.dumps({
            "what": "netwave measured with this benchmark: untraced runs on each "
                    "seed, then one traced run per workload. Quartiles are over "
                    "the runs; spread is (q3 - q1) / median. Times are CPU seconds.",
            "command": f"python3 perfbench/spread.py --seeds {args.seeds[0]}-"
                       f"{args.seeds[-1]} --seconds {args.seconds:g}",
            "machine": machine,
            "workloads": summary,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
