"""Command-line front end: config ingestion, dispatch, deterministic output.

Subcommands: check, simulate, spectrum, sweep, chain-check, counterexample.
Exit codes: 0 success, 1 analysis verdict "unstable"/"unbounded" under
--expect-stable, 2 usage or config errors.

Every run writes its artifacts plus a manifest.json listing them into the
output directory.  All floats are rounded to 12 significant digits before
serialization, so identical inputs yield byte-identical files and emitted
JSON re-parses to exactly the reported values.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .chaincrit import ChainSpec, chain_stable
from .counterexample import (
    AxisEigenvalue,
    CounterexampleError,
    asymptotic_defects,
    circuit_solve,
    dirichlet_convergents,
    growth_law,
    star_probe,
)
from .graph import GraphError, MetricGraph, build_graph, pi_tree_check
from .resolvent import HUGE, ResolventError, sweep
from .simulate import SimulationError, run
from .spectral import SpectralError, find_eigenvalues
from .svgplot import line_plot, scatter_plot

EXIT_OK = 0
EXIT_UNSTABLE = 1
EXIT_USAGE = 2


class ConfigError(RuntimeError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.12e}"


def _round12(obj):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, complex):
        return {"re": float(_fmt(obj.real)), "im": float(_fmt(obj.imag))}
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(_fmt(float(obj)))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


class Emitter:
    """Collects output files and finishes with a run manifest."""

    def __init__(self, outdir: Path, subcommand: str, config_path, params):
        self.outdir = outdir
        self.subcommand = subcommand
        self.config_path = str(config_path) if config_path else None
        self.params = params
        self.files = []
        self.t0 = time.monotonic()
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {outdir}: {exc}")

    def _write(self, name: str, text: str):
        path = self.outdir / name
        try:
            path.write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}")
        self.files.append(name)
        return path

    def csv(self, name: str, header, rows):
        import io

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
        return self._write(name, buf.getvalue())

    def json(self, name: str, payload):
        text = json.dumps(_round12(payload), sort_keys=True, indent=2) + "\n"
        return self._write(name, text)

    def svg(self, name: str, text: str):
        return self._write(name, text)

    def manifest(self):
        files = sorted(self.files + ["manifest.json"])
        payload = {
            "subcommand": self.subcommand,
            "config": self.config_path,
            "parameters": _round12(self.params),
            "output_dir": str(self.outdir),
            "tool_version": __version__,
            "wall_clock_s": float(_fmt(time.monotonic() - self.t0)),
            "outputs": files,
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        (self.outdir / "manifest.json").write_text(text)
        return files


def _load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        )
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _graph_from_config(cfg: dict, config_dir: Path) -> tuple:
    """(graph, params) from either a bare graph spec or {"graph": ...}.

    The params are the config's keys other than the graph's own.
    """
    if "vertices" in cfg:
        graph_keys = ("variant", "vertices", "edges")
        return build_graph(cfg), {k: v for k, v in cfg.items()
                                  if k not in graph_keys}
    if "graph" not in cfg:
        raise ConfigError('config needs a graph spec or a "graph" key')
    g = cfg["graph"]
    if isinstance(g, str):
        sub = _load_config(config_dir / g)
        graph = build_graph(sub)
    elif isinstance(g, dict):
        graph = build_graph(g)
    else:
        raise ConfigError('"graph" must be an object or a path string')
    params = {k: v for k, v in cfg.items() if k != "graph"}
    return graph, params


def _opt(params: dict, *names, default=None):
    """First present key among spelling variants (hyphen or underscore)."""
    for name in names:
        if name in params:
            return params[name]
        alt = name.replace("-", "_")
        if alt in params:
            return params[alt]
    return default


def _check_keys(params: dict, *names):
    """Reject any key that is not one of names in a spelling `_opt` accepts."""
    known = set(names) | {n.replace("-", "_") for n in names}
    for key in params:
        if key not in known:
            close = difflib.get_close_matches(key, sorted(known), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")


def _float(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


# -- subcommand handlers ----------------------------------------------------


def _cmd_check(args) -> int:
    cfg = _load_config(args.config)
    graph, params = _graph_from_config(cfg, Path(args.config).parent)
    _check_keys(params)
    verdict: dict = {"variant": graph.variant, "vertices": len(graph.vertices),
                     "edges": len(graph.edges)}
    stable = None
    if graph.variant == "tree":
        ok, witnesses = pi_tree_check(graph)
        verdict["pi_tree"] = ok
        verdict["pi_length_edges"] = witnesses
        stable = ok
    elif graph.variant == "chain":
        lengths = [e.ell for e in graph.edges]
        masses = [v.mass for v in graph.mass_vertices]
        cv = chain_stable(ChainSpec(tuple(lengths), tuple(masses)))
        verdict["chain_stable"] = cv.stable
        verdict["witnesses"] = [list(w) for w in cv.witnesses]
        stable = cv.stable
    verdict["stable"] = stable
    em = Emitter(Path(args.out), "check", args.config, params)
    em.json("verdict.json", verdict)
    em.manifest()
    print(json.dumps(_round12(verdict), sort_keys=True))
    if args.expect_stable and stable is False:
        return EXIT_UNSTABLE
    return EXIT_OK


def _initial_data(graph: MetricGraph, spec: dict):
    """Initial condition from config: a smooth interior bump per listed edge.

    spec keys: kind ("bump" | "sine"), edges (default all), amplitude,
    velocity (bool: load v instead of y), oscillators {id: [s, s']}.
    """
    spec = spec or {}
    if not isinstance(spec, dict):
        raise ConfigError('"initial" must be an object')
    _check_keys(spec, "kind", "edges", "amplitude", "velocity", "oscillators")
    kind = spec.get("kind", "bump")
    edges = spec.get("edges")
    amp = _float(spec.get("amplitude", 1.0), '"initial" amplitude')
    osc = {k: (_float(v[0], f"oscillator {k!r}"), _float(v[1], f"oscillator {k!r}"))
           for k, v in (spec.get("oscillators") or {}).items()}

    def profile(ell):
        if kind == "bump":
            return lambda x: amp * (x * (ell - x) / (ell * ell / 4.0)) ** 2
        if kind == "sine":
            import math

            return lambda x: amp * math.sin(math.pi * x / ell)
        raise ConfigError(f"unknown initial-data kind {kind!r}")

    fields = {}
    for e in graph.edges:
        if edges is not None and e.id not in edges:
            continue
        fields[e.id] = profile(e.ell)
    if spec.get("velocity", False):
        return None, fields, osc
    return fields, None, osc


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    graph, params = _graph_from_config(cfg, Path(args.config).parent)
    _check_keys(params, "T", "cfl", "cells-per-unit-length", "cells_per_unit",
                "sample-stride", "initial")
    run_cfg = {
        "T": _opt(params, "T", default=10.0),
        "cfl": _opt(params, "cfl", default=0.9),
        "cells_per_unit": _opt(params, "cells-per-unit-length",
                               "cells_per_unit", default=16.0),
        "sample_stride": _opt(params, "sample-stride", default=1),
    }
    y0, v0, osc = _initial_data(graph, _opt(params, "initial", default={}))
    series = run(graph, run_cfg, y0=y0, v0=v0, osc=osc)
    em = Emitter(Path(args.out), "simulate", args.config, params)
    em.csv("energy.csv", ["t", "E", "D", "R"],
           zip(series.t.tolist(), series.E.tolist(),
               series.D.tolist(), series.R.tolist()))
    if args.svg:
        em.svg("energy.svg", line_plot(
            series.t.tolist(), [series.E.tolist()], labels=["E(t)"],
            title="energy decay", xlabel="t", ylabel="log10 E", logy=True))
    decaying = series.fit_ok and series.omega > 1e-3
    summary = {
        "T": float(run_cfg["T"]),
        "e0": series.e0,
        "e_final": float(series.E[-1]),
        "omega": series.omega,
        "fit_residual": series.fit_residual,
        "fit_ok": series.fit_ok,
        "max_rel_residual": float(np.max(np.abs(series.R)) / series.e0)
        if series.e0 > 0 else 0.0,
        "verdict": "decaying" if decaying else "plateau",
    }
    em.json("summary.json", summary)
    em.manifest()
    print(json.dumps(_round12(summary), sort_keys=True))
    if args.expect_stable and not decaying:
        return EXIT_UNSTABLE
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args.config)
    graph, params = _graph_from_config(cfg, Path(args.config).parent)
    _check_keys(params, "box", "tol")
    box = _opt(params, "box", default=[-5.0, 0.5, -20.0, 20.0])
    if not (isinstance(box, list) and len(box) == 4):
        raise ConfigError('"box" must be [re_min, re_max, im_min, im_max]')
    report = find_eigenvalues(graph, tuple(_float(b, '"box" entry') for b in box),
                              tol=_float(_opt(params, "tol", default=1e-9), '"tol"'))
    em = Emitter(Path(args.out), "spectrum", args.config, params)
    rows = [(r.lam.real, r.lam.imag, r.residual, r.box_count)
            for r in report.roots]
    em.csv("spectrum.csv", ["re", "im", "residual", "box_count"], rows)
    if args.svg:
        em.svg("spectrum.svg", scatter_plot(
            [r.lam.real for r in report.roots],
            [r.lam.imag for r in report.roots],
            title="characteristic roots", xlabel="Re", ylabel="Im"))
    on_axis = [r for r in report.roots if r.lam.real >= -1e-9]
    summary = {
        "box": [float(b) for b in box],
        "count": len(report.roots),
        "axis_roots": len(on_axis),
        "verdict": "unstable" if on_axis else "no axis roots in box",
    }
    em.json("summary.json", summary)
    em.manifest()
    print(json.dumps(_round12(summary), sort_keys=True))
    if args.expect_stable and on_axis:
        return EXIT_UNSTABLE
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    graph, params = _graph_from_config(cfg, Path(args.config).parent)
    _check_keys(params, "beta", "mesh-ladder")
    beta = _opt(params, "beta", default={"min": 0.0, "max": 50.0, "count": 51})
    try:
        if isinstance(beta, dict):
            grid = np.linspace(float(beta.get("min", 0.0)),
                               float(beta.get("max", 50.0)),
                               int(beta.get("count", 51)))
        else:
            grid = np.asarray([float(b) for b in beta])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f'bad "beta": {exc}') from None
    ladder = _opt(params, "mesh-ladder")
    report = sweep(graph, grid, ladder)
    em = Emitter(Path(args.out), "sweep", args.config, params)
    rows = []
    for curve in report.curves:
        for b, n in zip(curve.beta.tolist(), curve.norm.tolist()):
            sigma = 0.0 if n >= HUGE else (1.0 / n if n > 0 else HUGE)
            rows.append((b, float(curve.cells_per_unit), sigma, n))
    em.csv("sweep.csv", ["beta", "mesh", "sigma_min", "norm"], rows)
    if args.svg and report.curves:
        em.svg("sweep.svg", line_plot(
            report.curves[0].beta.tolist(),
            [c.norm.tolist() for c in report.curves],
            labels=[f"mesh {c.cells_per_unit:.6g}" for c in report.curves],
            title="resolvent norm on the axis", xlabel="beta",
            ylabel="log10 norm", logy=True))
    summary = {
        "verdict": report.verdict,
        "sup_change": report.sup_change,
        "peak_beta": report.peak_beta,
        "sups": report.sups,
        "meshes": [c.cells_per_unit for c in report.curves],
    }
    em.json("verdict.json", summary)
    em.manifest()
    print(json.dumps(_round12(summary), sort_keys=True))
    if args.expect_stable and report.verdict == "unbounded":
        return EXIT_UNSTABLE
    return EXIT_OK


def _cmd_chain_check(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, "lengths", "masses")
    try:
        chain = ChainSpec(tuple(float(l) for l in cfg["lengths"]),
                          tuple(float(m) for m in cfg["masses"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad chain config: {exc}")
    verdict = chain_stable(chain)
    payload = {
        "lengths": list(chain.lengths),
        "masses": list(chain.masses),
        "stable": verdict.stable,
        "tol": verdict.tol,
        "witnesses": [
            {"mass": m, "r": r, "delta": d} for m, r, d in verdict.witnesses
        ],
        "deltas": [
            {"mass": m, "r": r, "delta": d} for m, r, d in verdict.deltas
        ],
    }
    em = Emitter(Path(args.out), "chain-check", args.config, dict(cfg))
    em.json("verdict.json", payload)
    em.manifest()
    print(json.dumps(_round12(payload), sort_keys=True))
    if args.expect_stable and not verdict.stable:
        return EXIT_UNSTABLE
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    params = {"variant": args.variant, "length": args.length,
              "probes": args.probes}
    if args.probes < 1:
        raise ConfigError("--probes must be at least 1")
    pairs = dirichlet_convergents(args.length, args.probes)
    em = Emitter(Path(args.out), "counterexample", None, params)
    rows = []
    if args.variant == "circuit":
        probes = [circuit_solve(None, args.length, pair=c) for c in pairs]
        for pr in probes:
            ratio = abs(pr.growth_ratio())
            rows.append((pr.q, float(pr.beta), float(pr.b1.real),
                         float(pr.b1.imag), float(ratio)))
        report = growth_law(probes, args.length)
        summary = {
            "variant": "circuit",
            "length": args.length,
            "limit": complex(report.limit),
            "predicted_modulus": report.predicted,
            "verdict": report.verdict,
            "eqcir_max_rel_diff": max(p.eqcir_rel_diff for p in probes),
            "asymptotic_defects": asymptotic_defects(probes[-1]),
        }
    else:
        sps = [star_probe(None, args.length, pair=c) for c in pairs]
        for c, pr in zip(pairs, sps):
            rows.append((c.q, float(pr.beta), pr.center_value.real,
                         pr.center_value.imag, float(pr.norm_ratio)))
        ratios = [pr.norm_ratio for pr in sps]
        growing = all(b > a for a, b in zip(ratios[-4:], ratios[-3:]))
        summary = {
            "variant": "star",
            "length": args.length,
            "max_norm_ratio": max(ratios),
            "verdict": "unbounded" if growing and ratios[-1] > 10 * ratios[0]
            else "inconclusive",
        }
    em.csv("probes.csv", ["q_n", "beta_n", "b1_re", "b1_im", "ratio"], rows)
    em.json("summary.json", summary)
    em.manifest()
    print(json.dumps(_round12(summary), sort_keys=True))
    if args.expect_stable and summary["verdict"] == "unbounded":
        return EXIT_UNSTABLE
    return EXIT_OK


# -- dispatch ---------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="netwave",
        description="damped wave networks: simulation and stability analysis")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--expect-stable", action="store_true",
                       help="exit 1 on an unstable/unbounded verdict")
        p.add_argument("--svg", action="store_true", help="emit SVG plots")

    common(sub.add_parser("check", help="validate a graph, stability verdict"))
    common(sub.add_parser("simulate", help="time-domain run, energy budget"))
    common(sub.add_parser("spectrum", help="characteristic roots in a box"))
    common(sub.add_parser("sweep", help="resolvent norms on the axis"))
    common(sub.add_parser("chain-check", help="chain determinant predicate"))
    pc = sub.add_parser("counterexample",
                        help="Diophantine probe sequences")
    pc.add_argument("--variant", choices=("circuit", "star"), required=True)
    pc.add_argument("--length", required=True,
                    help='edge length, e.g. "sqrt(2)" or "pi*3/2"')
    pc.add_argument("--probes", type=int, default=8)
    common(pc, config=False)
    return ap


_HANDLERS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "chain-check": _cmd_chain_check,
    "counterexample": _cmd_counterexample,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and EXIT_USAGE
    try:
        return _HANDLERS[args.subcommand](args)
    except (ConfigError, GraphError, AxisEigenvalue, CounterexampleError,
            SimulationError, SpectralError, ResolventError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
