"""The benchmark loop, its metrics and its report.

One client, one process, closed loop: each job is a `netwave.cli.main(argv)`
call on a freshly generated config, started when the previous one has been
checked.  A run is a fixed batch: the jobs of as many schedule indices as the
workload gets through in ``--seconds`` CPU seconds on the reference host
(``Workload.indices``).  So every run of a seed attempts the same jobs and
meets the same failures, whatever the speed of the host; a run on a slow
host takes longer, and one that passes ``WALL_LIMIT_S`` stops early.  The
untraced run (``--trace 0``) gives the end-to-end metrics.  The traced run
(``--trace 1``) runs every job of half the batch twice, once with the
tracer's wrappers installed and once with the originals restored,
alternating which goes first; the per-layer metrics come from the traced
half and the tracing overhead is the difference of the two halves.

Times are CPU seconds (user + system) of the process doing the work, not
wall seconds.  The loop is single-threaded (one BLAS thread) and in-process,
so the two agree on an idle machine; on a shared virtual machine the host
steals a varying share of the CPU (up to 30% of a vCPU on a 2-vCPU cloud VM),
which inflates wall times by that share but leaves CPU times alone.  CPU
times still move with the load of whatever shares the core: on such a VM one
mpmath `counterexample` job took from 75 to 160 ms at different moments, and
whole runs of the same batch differ by 5-15%.  The run record prints the wall
seconds as well.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import workloads
from .checks import check_job
from .tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_RUNS = 5  # fresh interpreters per run; the median is reported
WALL_LIMIT_S = 150.0  # a run stops early past this, to exit within 180 s
TAIL_BEYOND = 10  # job_s_tail: the highest percentile with this many jobs beyond

# What a `netwave ...` call pays before any work: import the CLI and parse
# one workload config into a MetricGraph, in a fresh interpreter.
SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import netwave.cli
from netwave.graph import build_graph
with open(sys.argv[2]) as fh:
    build_graph(json.load(fh)["graph"])
"""

END_TO_END = {  # gated: steady enough across seeds to hold a bound
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "peak_rss_mb": "MB",
}
SUBCOMMAND_METRICS = {
    "simulate": "simulate_s",
    "sweep": "sweep_s",
    "spectrum": "spectrum_s",
    "check": "check_s",
    "chain-check": "chain_check_s",
    "counterexample": "counterexample_s",
}
# printed but not gated: a per-subcommand median exists only on the workloads
# that run the subcommand; on mesh-free the tail moves with the random graphs
# the root search fails on (quartile spread 0.3-0.45 of the median), and
# verdicts_per_s with how many of them fail (a third of the root searches,
# 6-11 jobs of a run), which the result's "failed" count already reports
REPORTED = {"failed_frac": "ratio", "verdicts_per_s": "1/s", "job_s_tail": "s",
            **{name: "s" for name in SUBCOMMAND_METRICS.values()}}
PER_LAYER = {
    "graph.build_ms": "ms",
    "graph.incident_calls": "count",
    "simulate.steps": "count",
    "simulate.step_us": "us",
    "simulate.dof_steps_per_s": "1/s",
    "simulate.init_s": "s",
    "simulate.energy_s": "s",
    "spectral.find_s": "s",
    "spectral.char_matrix_calls.contour": "count",
    "spectral.char_matrix_calls.newton": "count",
    "spectral.char_matrix_us": "us",
    "spectral.newton_calls": "count",
    "spectral.newton_hit_ratio": "ratio",
    "spectral.calls_per_root": "count",
    "resolvent.assemble_s": "s",
    "resolvent.dim": "count",
    "resolvent.norm_ms": "ms",
    "resolvent.splu_per_beta": "count",
    "resolvent.splu_ms": "ms",
    "resolvent.solves_per_beta": "count",
    "chaincrit.chain_stable_us": "us",
    "counterexample.convergents_ms": "ms",
    "counterexample.circuit_solve_ms": "ms",
    "counterexample.star_probe_ms": "ms",
    "cli.emit_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_s": "s",
}


@dataclass
class Result:
    key: str
    subcommand: str
    seconds: float  # CPU
    wall: float
    rc: int | None  # None when the CLI raised
    status: str  # ok | failed | wrong
    detail: str
    size: float

    @property
    def completed(self) -> bool:
        """The CLI returned a verdict (exit 0 or 1)."""
        return self.rc in (0, 1)


def call_cli(argv):
    """(exit code or None, last stderr line or exception) of one CLI call."""
    from netwave.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception as exc:  # a leaked error fails the job, not the run
        return None, f"{type(exc).__name__}: {exc}"
    lines = err.getvalue().strip().splitlines()
    return rc, lines[-1] if lines else ""


def run_job(job, work: Path, tracer: Tracer | None = None) -> Result:
    config, out = work / f"{job.key}.json", work / job.key
    if job.config is not None:
        config.write_text(json.dumps(job.config))
    argv = job.argv(config, out)
    if tracer is not None:
        tracer.recording = True
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            rc, error = call_cli(argv)
        else:
            rc, error = tracer.span("cli.main", call_cli, argv)
    finally:
        seconds, wall = time.process_time() - c0, time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
    status, detail = check_job(job, rc, error, out)
    shutil.rmtree(out, ignore_errors=True)
    config.unlink(missing_ok=True)
    return Result(job.key, job.subcommand, seconds, wall, rc, status, detail,
                  job.size)


def closed_loop(workload: str, seed: int, indices: int, body) -> list:
    """body(job) for each job of the batch in turn (at least one)."""
    results = []
    start = time.perf_counter()
    for job in workloads.jobs(workload, seed, indices):
        if results and time.perf_counter() - start >= WALL_LIMIT_S:
            print(f"# stopped early: past {WALL_LIMIT_S} wall seconds")
            break
        results.append(body(job))
    return results


def measure_setup(config: Path, runs: int) -> list:
    """CPU seconds of `runs` fresh interpreters, after one warm-up that
    compiles the bytecode a real installation already has."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)]

    def children_cpu():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    times = []
    for k in range(runs + 1):
        c0 = children_cpu()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        if k:
            times.append(children_cpu() - c0)
    return times


def tail(times: list) -> tuple:
    """(value, percentile, samples): the highest percentile with TAIL_BEYOND
    jobs beyond it, or the maximum when there are too few jobs."""
    times = sorted(times)
    n = len(times)
    if n <= TAIL_BEYOND:
        return times[-1], 100.0, n
    idx = n - TAIL_BEYOND - 1
    return times[idx], 100.0 * (idx + 1) / n, n


def subcommand_medians(results: list) -> dict:
    """Median time of the completed jobs of each subcommand."""
    times = {}
    for r in results:
        if r.completed:
            times.setdefault(r.subcommand, []).append(r.seconds)
    return {sub: statistics.median(t) for sub, t in times.items()}


def charged_seconds(results: list) -> float:
    """CLI seconds, with a job that fails charged at least what a correct job
    of its subcommand and size takes (the median seconds per unit of size of
    the correct ones): a failure that returns early must not read as
    throughput, nor a fix that makes it finish as a slowdown.  Scaling by
    size keeps the total from moving with which sizes happen to fail."""
    per_size = {}
    for r in results:
        if r.status == "ok":
            per_size.setdefault(r.subcommand, []).append(r.seconds / r.size)

    def charge(r):
        rates = per_size.get(r.subcommand)
        return r.size * statistics.median(rates) if rates else 0.0

    return sum(r.seconds if r.status == "ok" else max(r.seconds, charge(r))
               for r in results)


def end_to_end(results: list, setup: list) -> tuple:
    """(gated metrics, reported metrics, run-record entries)."""
    done = [r.seconds for r in results if r.completed]
    if not done:
        raise SystemExit("error: no job completed, so there are no job timings")
    value, pct, n = tail(done)
    # a job without a correct verdict counts as slower than any, so the
    # median sits at the same rank of the batch whatever share fails
    p50 = statistics.median(r.seconds if r.status == "ok" else math.inf
                            for r in results)
    if p50 == math.inf:
        raise SystemExit("error: half the jobs or more failed, so there is no median")
    medians = subcommand_medians(results)
    charged = charged_seconds(results)
    gated = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(results) / charged,
        "job_s_p50": p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    reported = {"failed_frac": sum(r.status != "ok" for r in results) / len(results),
                "verdicts_per_s": sum(r.status == "ok" for r in results) / charged,
                "job_s_tail": value}
    reported.update({name: medians[sub] for sub, name in SUBCOMMAND_METRICS.items()
                     if sub in medians})
    record = {"job_s_tail_percentile": pct, "job_s_tail_samples": n,
              "setup_runs_s": setup,
              "busy_cpu_s": sum(r.seconds for r in results),
              "busy_wall_s": sum(r.wall for r in results)}
    return gated, reported, record


def per_layer(tracer: Tracer, jobs: int, overhead: float) -> dict:
    sp, c = tracer.spans, tracer.counts

    def calls(name):
        return sp[name][0] if name in sp else 0

    def total(name):
        return sp[name][1] if name in sp else 0.0

    def own(name):
        return sp[name][2] if name in sp else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    find = calls("spectral.find_eigenvalues")
    norms = calls("resolvent.resolvent_norm")
    return {
        "graph.build_ms": 1e3 * ratio(total("graph.build"), calls("graph.build")),
        "graph.incident_calls": ratio(c["graph.incident"], jobs),
        "simulate.steps": ratio(calls("simulate.step"), calls("simulate.run")),
        "simulate.step_us": 1e6 * ratio(own("simulate.step"), calls("simulate.step")),
        "simulate.dof_steps_per_s": ratio(c["simulate.dof_steps"], total("simulate.step")),
        "simulate.init_s": ratio(total("simulate.init_state"), calls("simulate.init_state")),
        "simulate.energy_s": ratio(own("simulate.run"), calls("simulate.run")),
        "spectral.find_s": ratio(total("spectral.find_eigenvalues"), find),
        "spectral.char_matrix_calls.contour": ratio(c["spectral.char_matrix.contour"], find),
        "spectral.char_matrix_calls.newton": ratio(c["spectral.char_matrix.newton"], find),
        "spectral.char_matrix_us":
            1e6 * ratio(own("spectral.char_matrix"), calls("spectral.char_matrix")),
        "spectral.newton_calls": ratio(calls("spectral.newton_refine"), find),
        "spectral.newton_hit_ratio":
            ratio(c["spectral.newton_hits"], calls("spectral.newton_refine")),
        "spectral.calls_per_root": ratio(calls("spectral.char_matrix"), c["spectral.roots"]),
        "resolvent.assemble_s":
            ratio(total("resolvent.assemble_generator"), calls("resolvent.assemble_generator")),
        "resolvent.dim": ratio(c["resolvent.dim"], calls("resolvent.assemble_generator")),
        "resolvent.norm_ms": 1e3 * ratio(total("resolvent.resolvent_norm"), norms),
        "resolvent.splu_per_beta": ratio(calls("resolvent.splu"), norms),
        "resolvent.splu_ms": 1e3 * ratio(total("resolvent.splu"), calls("resolvent.splu")),
        "resolvent.solves_per_beta": ratio(c["resolvent.solve"], norms),
        "chaincrit.chain_stable_us":
            1e6 * ratio(total("chaincrit.chain_stable"), calls("chaincrit.chain_stable")),
        "counterexample.convergents_ms": 1e3 * ratio(
            total("counterexample.dirichlet_convergents"),
            calls("counterexample.dirichlet_convergents")),
        "counterexample.circuit_solve_ms": 1e3 * ratio(
            total("counterexample.circuit_solve"), calls("counterexample.circuit_solve")),
        "counterexample.star_probe_ms": 1e3 * ratio(
            total("counterexample.star_probe"), calls("counterexample.star_probe")),
        "cli.emit_ms": 1e3 * ratio(total("cli.emit"), calls("cli.main")),
        "cli.self_ms": 1e3 * ratio(own("cli.main"), calls("cli.main")),
        "trace.overhead_s": overhead,
    }


def run_record(results: list, extra: dict) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "jobs": len(results),
        "jobs_by_subcommand": dict(Counter(r.subcommand for r in results)),
        **extra,
    }


def report(args, results, gated, units, reported, record):
    failing = [r for r in results if r.status != "ok"]
    print(f"# netwave benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# run record: " + json.dumps(record, sort_keys=True))
    for name, value in reported.items():
        print(f"{name:36s} {value:14.6g} {REPORTED[name]}  (not gated)")
    for name, value in gated.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(f"# failing jobs: {len(failing)} of {len(results)}")
    for r in failing:
        print(f"#   {r.key} {r.status}: {r.detail}")
    line = {
        "correct": not any(r.status == "wrong" for r in results),
        "attempted": len(results),
        "failed": len(failing),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in gated.items()},
    }
    print(json.dumps(line))


def untraced(args, work: Path, setup_runs: int):
    indices = workloads.WORKLOADS[args.workload].indices(args.seconds)
    first = next(j for j in workloads.jobs(args.workload, args.seed, indices)
                 if j.config is not None and "graph" in j.config)
    config = work / "setup.json"
    config.write_text(json.dumps(first.config))
    setup = measure_setup(config, setup_runs)
    results = closed_loop(args.workload, args.seed, indices,
                          lambda job: run_job(job, work))
    gated, reported, record = end_to_end(results, setup)
    return results, gated, END_TO_END, reported, record


def traced(args, work: Path):
    tracer = Tracer()
    halves = {"traced_s": 0.0, "untraced_s": 0.0}
    pairs = itertools.count()

    def traced_run(job):
        with tracer:
            return run_job(job, work, tracer)

    def pair(job):
        if next(pairs) % 2:
            plain, traced = run_job(job, work), traced_run(job)
        else:
            traced, plain = traced_run(job), run_job(job, work)
        halves["traced_s"] += traced.seconds
        halves["untraced_s"] += plain.seconds
        return traced if traced.status != "ok" else plain

    indices = workloads.WORKLOADS[args.workload].indices(args.seconds / 2)
    results = closed_loop(args.workload, args.seed, indices, pair)
    overhead = halves["traced_s"] - halves["untraced_s"]
    return results, per_layer(tracer, len(results), overhead), PER_LAYER, {}, halves


def main(argv=None, setup_runs: int = SETUP_RUNS) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.trace:
            results, gated, units, reported, record = traced(args, work)
        else:
            results, gated, units, reported, record = untraced(args, work, setup_runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, results, gated, units, reported, run_record(results, record))
    return 0
