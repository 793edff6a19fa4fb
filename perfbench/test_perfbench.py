"""Self-tests of the benchmark harness: tracer hygiene, checker sensitivity,
seeded inputs and the printed result.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from netwave.graph import build_graph
from netwave.spectral import find_eigenvalues
from perfbench import checks, harness, tracer, workloads
from perfbench.workloads import Job

TREE = {
    "variant": "tree",
    "vertices": [{"id": "a1", "kind": "root"},
                 {"id": "a2", "kind": "mass", "mass": 1.0},
                 {"id": "a3", "kind": "controlled"}],
    "edges": [{"id": "e1", "tail": "a1", "head": "a2", "length": "1"},
              {"id": "e2", "tail": "a2", "head": "a3", "length": "9/10"}],
}
TRUTH = {"variant": "tree", "stable": True, "unit_masses": True, "graph": TREE}


def run_cli(job, tmp_path):
    """Run a job's CLI call and return its output directory."""
    config, out = tmp_path / "config.json", tmp_path / "out"
    if job.config is not None:
        config.write_text(json.dumps(job.config))
    rc, error = harness.call_cli(job.argv(config, out))
    assert rc == 0, error
    return out


def patched_names():
    names = {}
    for module, path, _ in tracer.TARGETS + tracer.COUNTED:
        owner, attr = tracer._owner(module, path)
        names[(module, path)] = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
    return names


def test_every_patched_name_is_restored(tmp_path):
    before = patched_names()
    job = Job("t", "simulate", {"graph": TREE, "T": 2.0, "cells-per-unit-length": 16},
              truth={**TRUTH, "cells": 16})
    tr = tracer.Tracer()
    with tr:
        assert all(patched_names()[k] is not v for k, v in before.items())
        result = harness.run_job(job, tmp_path, tr)
    assert result.status == "ok", result.detail
    assert patched_names() == before
    assert tr.spans["simulate.step"][0] > 0 and tr.counts["graph.incident"] > 0
    with pytest.raises(RuntimeError), tr:
        raise RuntimeError("a failing job")
    assert patched_names() == before


def test_install_rolls_back_on_a_missing_target(monkeypatch):
    before = patched_names()
    monkeypatch.setattr(tracer, "COUNTED", (("netwave.graph", "MetricGraph.gone", "x"),))
    with pytest.raises(KeyError):
        tracer.Tracer().install()
    monkeypatch.undo()
    assert patched_names() == before


def test_a_perturbed_root_is_caught(tmp_path):
    job = Job("t", "spectrum", {"graph": TREE, "box": [-3.0, 0.5, -3.0, 3.0]},
              truth=TRUTH)
    out = run_cli(job, tmp_path)
    assert checks.check_job(job, 0, "", out) == ("ok", "")
    csv_path = out / "spectrum.csv"
    header, first, *rest = csv_path.read_text().splitlines()
    re, im, *tail = first.split(",")
    csv_path.write_text("\n".join([header, ",".join([re, str(float(im) + 1e-3), *tail]),
                                   *rest]) + "\n")
    status, detail = checks.check_job(job, 0, "", out)
    assert status == "wrong" and "residual" in detail


def test_a_genuine_root_outside_the_box_fails_the_job(tmp_path):
    job = Job("t", "spectrum", {"graph": TREE, "box": [-3.0, 0.5, -3.0, 3.0]},
              truth=TRUTH)
    out = run_cli(job, tmp_path)
    wider = find_eigenvalues(build_graph(TREE), (-3.0, 0.5, -6.0, 6.0)).roots
    lam = next(r.lam for r in wider if abs(r.lam.imag) > 3.0)
    with (out / "spectrum.csv").open("a") as fh:
        fh.write(f"{lam.real:.12e},{lam.imag:.12e},0,1\n")
    summary = json.loads((out / "summary.json").read_text())
    summary["count"] += 1
    (out / "summary.json").write_text(json.dumps(summary))
    status, detail = checks.check_job(job, 0, "", out)
    assert status == "failed" and "outside the box" in detail


@pytest.mark.parametrize("subcommand, config", [
    ("check", {"graph": TREE}),
    ("chain-check", {"lengths": [1.0, 3.141592653589793], "masses": [1.0]}),
])
def test_a_flipped_verdict_is_caught(tmp_path, subcommand, config):
    truth = TRUTH if subcommand == "check" else {**TRUTH, "stable": False}
    job = Job("t", subcommand, config, truth=truth)
    out = run_cli(job, tmp_path)
    assert checks.check_job(job, 0, "", out) == ("ok", "")
    verdict = json.loads((out / "verdict.json").read_text())
    verdict["stable"] = not verdict["stable"]
    (out / "verdict.json").write_text(json.dumps(verdict))
    assert checks.check_job(job, 0, "", out)[0] == "wrong"


def test_a_wrong_delta_is_caught(tmp_path):
    job = Job("t", "chain-check", {"lengths": [1.0, 0.7, 1.2], "masses": [1.5, 0.8]},
              truth={**TRUTH, "variant": "chain"})
    out = run_cli(job, tmp_path)
    verdict = json.loads((out / "verdict.json").read_text())
    verdict["deltas"][0]["delta"] *= 1.001
    (out / "verdict.json").write_text(json.dumps(verdict))
    assert checks.check_job(job, 0, "", out)[0] == "wrong"


def test_a_bare_graph_config_fails_the_echo_guard(tmp_path):
    """A graph spec without the "graph" key drops T to its default."""
    job = Job("t", "simulate", {**TREE, "T": 2.0}, truth={**TRUTH, "cells": 16})
    out = run_cli(job, tmp_path)
    status, detail = checks.check_job(job, 0, "", out)
    assert status == "wrong" and "echo" in detail


def test_probe_ladders_are_checked_exactly():
    assert checks._is_dirichlet(12, checks._radicand("sqrt(2)"))  # 17/12
    assert not checks._is_dirichlet(11, checks._radicand("sqrt(2)"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_jobs_are_seeded_and_distinct(name):
    def first(seed, indices=40):
        return list(workloads.jobs(name, seed, indices))

    a, b, c = first(1), first(1), first(2)
    assert [j.identity() for j in a] == [j.identity() for j in b]
    assert [j.identity() for j in a] != [j.identity() for j in c]
    assert len({j.identity() for j in a}) == len(a)
    for job in a:
        if job.config and "graph" in job.config:
            assert checks.predicate_stable(job.truth) is job.truth["stable"]


def test_balanced_lengths_sum_to_their_count():
    rng = random.Random(3)
    for n in range(1, 7):
        lengths = [Fraction(l) for l in workloads._lengths(rng, n, balanced=True)]
        assert sum(lengths) == n
        assert all(Fraction(1, 2) <= l <= Fraction(3, 2) for l in lengths)


def test_a_run_is_a_fixed_batch():
    w = workloads.WORKLOADS["mesh-free"]
    assert w.indices(0.2) == 1
    keys = {j.key[:5] for j in workloads.jobs(w.name, 0, w.indices(10.0))}
    assert len(keys) == w.indices(10.0)
    sizes = {len(list(workloads.jobs(w.name, seed, 25))) for seed in range(5)}
    assert len(sizes) == 1  # no chance repeats, so the job count is the seed's


def test_a_failed_job_is_charged_by_its_size():
    def result(status, seconds, size):
        return harness.Result("k", "spectrum", seconds, seconds, 0, status, "", size)

    results = [result("ok", 1.0, 1.0), result("ok", 3.0, 2.0), result("failed", 0.1, 4.0)]
    assert harness.charged_seconds(results) == 1.0 + 3.0 + 4.0 * 1.25


def test_tail_percentile():
    assert harness.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 3)
    times = [float(k) for k in range(1, 41)]
    assert harness.tail(times) == (30.0, 75.0, 40)  # ten jobs beyond the value


@pytest.mark.parametrize("name, trace", [("mesh-free", 0), ("wide-transient", 1),
                                         ("fine-mesh", 1), ("mesh-free", 1)])
def test_smoke_run_prints_every_metric(name, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = harness.main(["--workload", name, "--seed", "0", "--seconds", "0.2",
                           "--trace", str(trace)], setup_runs=1)
    assert rc == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    units = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = units if trace else {**units, "failed_frac": "ratio",
                                   "verdicts_per_s": "1/s", "job_s_tail": "s"}
    for metric, unit in printed.items():
        assert any(l.split()[:3:2] == [metric, unit] for l in lines)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(harness.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER

