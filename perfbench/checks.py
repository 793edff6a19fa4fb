"""Independent checks of one CLI job's output.

Each check returns (status, detail) with status one of

* ``"ok"``     -- the output holds up against the job's independent truth,
* ``"failed"`` -- no verdict: a raise, exit code 2, or an undecided verdict,
* ``"wrong"``  -- a verdict or number that contradicts the truth.

The truth never comes from the code path under test: roots are re-verified
with ``char_matrix``, axis roots and sweep verdicts are compared with the
combinatorial predicates (``chain_stable``, ``pi_tree_check``), `check`
verdicts with how the generator built the graph, chain determinants with the
enumeration oracle ``delta_closed``, and probe frequencies with exact integer
arithmetic.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from netwave.chaincrit import ChainSpec, chain_stable, delta_closed, mass_groups
from netwave.graph import build_graph, pi_tree_check
from netwave.spectral import char_matrix

# The energy budget E(0) - E(t) - D(t) of the leapfrog run has a first-order
# quadrature error in the cell width; measured values stay below 2 h.
RESIDUAL_PER_CELL_WIDTH = 4.0
ROOT_TOL = 1e-9  # the CLI's default Newton tolerance
# computed axis roots lie within 1e-27 of the axis; a chain with repeated
# masses can carry a weakly damped mode at Re(lam) ~ -3e-11, which is not one
AXIS_SLACK = 1e-12
BOX_SLACK = 1e-7
DELTA_RTOL = 1e-8
EQCIR_MAX = 1e-10
ECHO_RTOL = 1e-11  # the CLI rounds floats to 12 significant digits


def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_csv(path: Path) -> list:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def _same(a, b) -> bool:
    """Structural equality with a relative tolerance on numbers."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=ECHO_RTOL, abs_tol=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def intended_parameters(job) -> dict:
    """What the run manifest must echo back for this job."""
    if job.subcommand == "counterexample":
        t = job.truth
        return {"variant": t["variant"], "length": t["length"], "probes": t["probes"]}
    if job.subcommand == "chain-check":
        return dict(job.config)
    return {k: v for k, v in job.config.items() if k != "graph"}


def check_manifest(job, out_dir: Path):
    """Config-echo guard: a silently dropped parameter falls back to a default."""
    manifest = _read_json(out_dir / "manifest.json")
    if manifest["subcommand"] != job.subcommand:
        return "wrong", f"manifest subcommand {manifest['subcommand']!r}"
    if not _same(manifest["parameters"], intended_parameters(job)):
        return "wrong", f"manifest parameters {manifest['parameters']} do not echo the config"
    missing = [f for f in manifest["outputs"] if not (out_dir / f).is_file()]
    if missing:
        return "wrong", f"manifest lists missing outputs {missing}"
    return "ok", ""


def predicate_stable(truth) -> bool:
    """Stability by the combinatorial predicate of the graph's variant."""
    spec = truth["graph"]
    if truth["variant"] == "chain":
        return chain_stable(_chain_spec(spec)).stable
    return pi_tree_check(build_graph(spec))[0]


def _chain_spec(spec) -> ChainSpec:
    graph = build_graph(spec)
    return ChainSpec(tuple(e.ell for e in graph.edges),
                     tuple(v.mass for v in graph.mass_vertices))


def check_simulate(job, out_dir: Path):
    s = _read_json(out_dir / "summary.json")
    if not s["e_final"] <= s["e0"]:
        return "wrong", f"energy grew: e_final {s['e_final']} > e0 {s['e0']}"
    bound = RESIDUAL_PER_CELL_WIDTH / job.truth["cells"]
    if not s["max_rel_residual"] <= bound:
        return "wrong", f"energy budget residual {s['max_rel_residual']:.3g} > {bound:.3g}"
    return "ok", ""


def check_spectrum(job, out_dir: Path):
    """Every row is a root; axis roots agree with the predicate.  A genuine
    root outside the requested box (the contour search widens a box whose
    edge passes near a root) fails the job without making it wrong."""
    truth = job.truth
    box = job.config["box"]
    rows = _read_csv(out_dir / "spectrum.csv")
    summary = _read_json(out_dir / "summary.json")
    if summary["count"] != len(rows):
        return "wrong", f"summary count {summary['count']} != {len(rows)} csv rows"
    graph = build_graph(truth["graph"])
    roots = [complex(float(row["re"]), float(row["im"])) for row in rows]
    for lam in roots:
        res = char_matrix(graph, lam).residual()
        if not res <= ROOT_TOL:
            return "wrong", f"root {lam} has residual {res:.3g} > {ROOT_TOL}"
    axis = any(lam.real >= -AXIS_SLACK for lam in roots)
    if truth["variant"] == "chain" or truth["unit_masses"]:
        stable = predicate_stable(truth)
        if axis == stable:
            return "wrong", (f"axis roots {'found' if axis else 'missing'} but "
                             f"the predicate says {'stable' if stable else 'unstable'}")
    for lam in roots:
        if not (box[0] - BOX_SLACK <= lam.real <= box[1] + BOX_SLACK
                and box[2] - BOX_SLACK <= lam.imag <= box[3] + BOX_SLACK):
            return "failed", f"root {lam} outside the box"
    return "ok", ""


def check_sweep(job, out_dir: Path):
    verdict = _read_json(out_dir / "verdict.json")["verdict"]
    expected = "bounded" if predicate_stable(job.truth) else "unbounded"
    if verdict == expected:
        return "ok", ""
    if verdict == "inconclusive":
        return "failed", f"inconclusive where the predicate says {expected}"
    return "wrong", f"{verdict} where the predicate says {expected}"


def check_check(job, out_dir: Path):
    stable = _read_json(out_dir / "verdict.json")["stable"]
    if stable is not job.truth["stable"]:
        return "wrong", f"stable={stable} for a graph built {'stable' if job.truth['stable'] else 'unstable'}"
    return "ok", ""


def check_chain_check(job, out_dir: Path):
    payload = _read_json(out_dir / "verdict.json")
    if payload["stable"] is not job.truth["stable"]:
        return "wrong", f"stable={payload['stable']} for a chain built otherwise"
    chain = ChainSpec(tuple(job.config["lengths"]), tuple(job.config["masses"]))
    oracle = {(g.mass, r): delta_closed(g, r, chain)
              for g in mass_groups(chain) for r in range(1, g.k + 1)}
    reported = {(d["mass"], d["r"]): d["delta"] for d in payload["deltas"]}
    if len(reported) != len(oracle):
        return "wrong", f"{len(reported)} span determinants, the oracle has {len(oracle)}"
    for (mass, r), want in oracle.items():
        got = next((v for (m, rr), v in reported.items()
                    if rr == r and math.isclose(m, mass, rel_tol=ECHO_RTOL)), None)
        if got is None or abs(got - want) > DELTA_RTOL * max(1.0, abs(want)):
            return "wrong", f"delta(m={mass}, r={r}) = {got}, enumeration gives {want}"
    return "ok", ""


def _radicand(length: str) -> Fraction:
    return Fraction(length[len("sqrt("):-1])


def _is_dirichlet(q: int, r: Fraction) -> bool:
    """Exact test of |q sqrt(r) - p| < 1/q for the nearest integer p."""
    n, d = r.numerator, r.denominator
    lhs = q ** 4 * n
    base = math.isqrt(q * q * n // d)
    return any(d * (p * q - 1) ** 2 < lhs < d * (p * q + 1) ** 2
               for p in (base, base + 1) if p * q >= 1)


def check_counterexample(job, out_dir: Path):
    truth = job.truth
    rows = _read_csv(out_dir / "probes.csv")
    if len(rows) != truth["probes"]:
        return "wrong", f"{len(rows)} probes, asked for {truth['probes']}"
    qs = [int(r["q_n"]) for r in rows]
    if any(b < a for a, b in zip(qs, qs[1:])):
        return "wrong", "probe denominators descend"
    r = _radicand(truth["length"])
    for q, row in zip(qs, rows):
        if not _is_dirichlet(q, r):
            return "wrong", f"q={q} violates |q l - p| < 1/q"
        beta = 2 * math.pi * q + 2 * math.pi / q ** 0.25
        if not math.isclose(float(row["beta_n"]), beta, rel_tol=1e-9):
            return "wrong", f"beta_n {row['beta_n']} at q={q}, expected {beta}"
    summary = _read_json(out_dir / "summary.json")
    if truth["variant"] == "circuit":
        diff = summary["eqcir_max_rel_diff"]
        if not diff <= EQCIR_MAX:
            return "wrong", f"eqcir_max_rel_diff {diff:.3g} > {EQCIR_MAX}"
    elif not 0 < summary["max_norm_ratio"] < math.inf:
        return "wrong", f"max_norm_ratio {summary['max_norm_ratio']}"
    return "ok", ""


CHECKS = {
    "simulate": check_simulate,
    "spectrum": check_spectrum,
    "sweep": check_sweep,
    "check": check_check,
    "chain-check": check_chain_check,
    "counterexample": check_counterexample,
}


def check_job(job, rc: int | None, error: str, out_dir: Path):
    """Judge one finished job; rc is None when the CLI raised."""
    if rc is None:
        return "failed", f"raised {error}"
    if rc != 0:
        return "failed", f"exit {rc}: {error}"
    try:
        status, detail = check_manifest(job, out_dir)
        if status == "ok":
            status, detail = CHECKS[job.subcommand](job, out_dir)
    except (OSError, KeyError, ValueError) as exc:
        return "wrong", f"unreadable output: {type(exc).__name__}: {exc}"
    return status, detail
