"""Command-line front end: config ingestion, dispatch, deterministic output.

Subcommands: check, simulate, spectrum, sweep, chain-check, counterexample.
Exit codes: 0 success, 1 analysis verdict "unstable"/"unbounded" under
--expect-stable, 2 usage or config errors.

Every run writes its artifacts plus a manifest.json listing them, with the
run's own counts and margins under "stats", into the output directory.  All
floats are rounded to 12 significant digits before serialization, and one
that is not finite is written as null, so identical inputs yield
byte-identical files and emitted JSON re-parses to exactly the reported values.

The front end itself loads neither numpy nor mpmath: each subcommand
imports its computing module at its first call (see `_lazy`), so check and
chain-check run on the standard library, simulate, spectrum and sweep load
numpy and counterexample alone loads mpmath.  Every error the package raises
on bad input derives from `NetwaveError`, which `main` maps to exit code 2.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import importlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .chaincrit import ChainSpec, chain_stable
from .graph import (
    DEFAULT_CELLS,
    DEFAULT_CFL,
    DEFAULT_STRIDE,
    DET_TOL,
    Length,
    MetricGraph,
    NetwaveError,
    build_graph,
    pi_tree_check,
)
from .svgplot import line_plot, scatter_plot

EXIT_OK = 0
EXIT_UNSTABLE = 1
EXIT_USAGE = 2


class ConfigError(NetwaveError, RuntimeError):
    pass


def _lazy(module: str, name: str):
    """`netwave.<module>.<name>`, its module imported at the first call."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__),
                       name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# The computing entry points.  The handlers look them up here at call time,
# so a caller that replaces one of these names of `netwave.cli` sees every
# call, and no module (with numpy or mpmath) loads before its subcommand runs.
run = _lazy("simulate", "run")
find_eigenvalues = _lazy("spectral", "find_eigenvalues")
sweep = _lazy("resolvent", "sweep")
dirichlet_convergents = _lazy("counterexample", "dirichlet_convergents")
circuit_solve = _lazy("counterexample", "circuit_solve")
star_probe = _lazy("counterexample", "star_probe")
growth_law = _lazy("counterexample", "growth_law")
asymptotic_defects = _lazy("counterexample", "asymptotic_defects")


def _fmt(x) -> str:
    return f"{float(x):.12e}"


def _round12(obj):
    """Round every float in a JSON-ready structure to 12 significant digits,
    and write one that is not finite as None (JSON null), since JSON has no
    Infinity or NaN.

    numpy's float64 and complex128 are a float and a complex; its other
    scalars are converted only when numpy is loaded, as none exists before.
    """
    if obj is None or isinstance(obj, (str, int)):  # a bool is an int
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": _round12(obj.real), "im": _round12(obj.imag)}
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.floating):
            return _round12(float(obj))
        if isinstance(obj, np.integer):
            return int(obj)
    return obj


class Emitter:
    """Collects output files and finishes with a run manifest.

    The output directory is created at the first write, so a run that fails
    before writing anything leaves none behind.
    """

    def __init__(self, outdir: Path, subcommand: str, config_path, params,
                 resolved):
        self.outdir = outdir
        self.subcommand = subcommand
        self.config_path = str(config_path) if config_path else None
        self.params = params  # as given
        self.resolved = resolved  # as read, defaults filled in
        self.stats = {}  # what the run did, set by the handler
        self.files = []
        self.t0 = time.monotonic()

    def _write(self, name: str, text: str):
        path = self.outdir / name
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}")
        self.files.append(name)
        return path

    def csv(self, name: str, header, rows):
        """Comma-separated numeric rows under a header of plain names:
        floats to 12 significant digits, integers as written."""
        lines = [",".join(header)]
        lines.extend(",".join([f"{v:.12e}" if isinstance(v, float) else str(v)
                               for v in row]) for row in rows)
        return self._write(name, "\n".join(lines) + "\n")

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
            "resolved": _round12(self.resolved),
            "stats": _round12(self.stats),
            "output_dir": str(self.outdir),
            "tool_version": __version__,
            "wall_clock_s": float(_fmt(time.monotonic() - self.t0)),
            "outputs": files,
        }
        self._write("manifest.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
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
        g = _load_config(config_dir / g)
    elif not isinstance(g, dict):
        raise ConfigError('"graph" must be an object or a path string')
    return build_graph(g), {k: v for k, v in cfg.items() if k != "graph"}


def _read(params, defaults: dict, what: str) -> dict:
    """The keys of `defaults` read from the object params, defaults filled in.

    A key may be spelled with hyphens or underscores; where both spellings
    are given, the one in `defaults` wins.  An unknown key raises
    ConfigError naming the closest known key.
    """
    if not isinstance(params, dict):
        raise ConfigError(f"{what} must be an object, got {params!r}")
    names = {key.replace("_", "-"): key for key in defaults}
    out = dict(defaults)
    # the spelling of `defaults` comes last, so it overrides the other
    for key, value in sorted(params.items(), key=lambda kv: kv[0] in defaults):
        spelled = key.replace("_", "-")
        if spelled not in names:
            close = difflib.get_close_matches(spelled, sorted(names), n=1)
            hint = f"; did you mean {names[close[0]]!r}?" if close else ""
            raise ConfigError(f"unknown {what} key {key!r}{hint}")
        out[names[spelled]] = value
    return out


def _float(value, what: str) -> float:
    """A finite config number, never a boolean (JSON's true would otherwise
    read as 1.0)."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return x


def _int(value, what: str) -> int:
    """A config integer: a whole number, never a boolean (JSON's true would
    otherwise read as 1) nor a fraction (2.7 would truncate to 2)."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    x = _float(value, what)
    if not x.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(x)


def _floats(value, what: str, count: int | None = None) -> tuple:
    """A config list of numbers, of exactly `count` entries when given."""
    if not isinstance(value, list) or count not in (None, len(value)):
        size = f"{count} " if count else ""
        raise ConfigError(f"{what} must be a list of {size}numbers, got {value!r}")
    return tuple(_float(v, what) for v in value)


# -- subcommand handlers ----------------------------------------------------
#
# Each takes (graph or None, run parameters with defaults, emitter, svg) and
# returns (summary file name, summary, whether the verdict is unstable).


def _cmd_check(graph: MetricGraph, p, em, svg):
    verdict: dict = {"variant": graph.variant, "vertices": len(graph.vertices),
                     "edges": len(graph.edges)}
    stable = None
    if graph.variant == "tree":
        ok, witnesses = pi_tree_check(graph)
        verdict["pi_tree"] = ok
        verdict["pi_length_edges"] = witnesses
        stable = ok
    elif graph.variant == "chain":
        cv = chain_stable(_chain_spec(graph))
        verdict["chain_stable"] = cv.stable
        verdict["witnesses"] = [list(w) for w in cv.witnesses]
        stable = cv.stable
    verdict["stable"] = stable
    return "verdict.json", verdict, stable is False


def _chain_spec(graph: MetricGraph) -> ChainSpec:
    """The chain's lengths and masses in path order from its controlled
    leaf, as chain_stable reads them, whatever order or orientation its
    edges are listed in."""
    controlled = graph.controlled_vertices
    if len(controlled) != 1:
        raise ConfigError("check reads a chain as a path from one controlled "
                          f"leaf, not {len(controlled)}")
    vertex, edge, lengths, masses = controlled[0], None, [], []
    while True:
        (edge,) = [e for e, _ in graph.incident(vertex.id) if e is not edge]
        lengths.append(edge.ell)
        vertex = graph.vertex(edge.tail if edge.head == vertex.id else edge.head)
        if vertex.kind != "mass":
            return ChainSpec(tuple(lengths), tuple(masses))
        masses.append(vertex.mass)


# keys of the "initial" object of simulate
INITIAL = {"kind": "bump", "edges": None, "amplitude": 1.0, "velocity": False,
           "oscillators": {}}


def _initial_data(graph: MetricGraph, spec):
    """Initial condition from config: a smooth interior bump per listed edge.

    spec keys (INITIAL): kind ("bump" | "sine"), edges (default all),
    amplitude, velocity (bool: load v instead of y), oscillators {id: [s, s']}.
    """
    spec = _read(spec or {}, INITIAL, '"initial"')
    kind, edges = spec["kind"], spec["edges"]
    if kind not in ("bump", "sine"):
        raise ConfigError(f"unknown initial-data kind {kind!r}")
    amp = _float(spec["amplitude"], '"initial" amplitude')
    velocity = spec["velocity"]
    if not isinstance(velocity, bool):
        raise ConfigError(f'"initial" velocity must be true or false, got {velocity!r}')
    if not (edges is None or isinstance(edges, list)
            and all(isinstance(eid, str) for eid in edges)):
        raise ConfigError(f'"initial" edges must be a list of edge ids, got {edges!r}')
    oscillators = spec["oscillators"] or {}
    if not isinstance(oscillators, dict):
        raise ConfigError(f'"initial" oscillators must be an object, got {oscillators!r}')
    osc = {k: _floats(v, f"oscillator {k!r}", 2) for k, v in oscillators.items()}

    def profile(ell):
        if kind == "bump":
            return lambda x: amp * (x * (ell - x) / (ell * ell / 4.0)) ** 2
        return lambda x: amp * math.sin(math.pi * x / ell)

    # an id that names no edge is passed on, for init_state to refuse
    lengths = {e.id: e.ell for e in graph.edges}
    fields = {eid: profile(lengths.get(eid))
              for eid in (lengths if edges is None else edges)}
    if velocity:
        return None, fields, osc
    return fields, None, osc


def _cmd_simulate(graph: MetricGraph, p, em, svg):
    y0, v0, osc = _initial_data(graph, p["initial"])
    series = run(graph, {"T": p["T"], "cfl": p["cfl"],
                         "cells_per_unit": p["cells-per-unit-length"],
                         "sample_stride": p["sample-stride"]},
                 y0=y0, v0=v0, osc=osc)
    em.stats = {"steps": series.steps, "dt": series.dt,
                "min_guard_margin": series.guard_margin}
    em.csv("energy.csv", ["t", "E", "D", "R"],
           zip(series.t.tolist(), series.E.tolist(),
               series.D.tolist(), series.R.tolist()))
    if svg:
        em.svg("energy.svg", line_plot(
            series.t.tolist(), [series.E.tolist()], labels=["E(t)"],
            title="energy decay", xlabel="t", ylabel="log10 E", logy=True))
    decaying = series.fit_ok and series.omega > 1e-3
    summary = {
        "T": float(p["T"]),
        "e0": series.e0,
        "e_final": float(series.E[-1]),
        "omega": series.omega,
        "fit_residual": series.fit_residual,
        "fit_ok": series.fit_ok,
        "max_rel_residual": float(abs(series.R).max() / series.e0)
        if series.e0 > 0 else 0.0,
        "verdict": "decaying" if decaying else "plateau",
    }
    return "summary.json", summary, not decaying


def _cmd_spectrum(graph: MetricGraph, p, em, svg):
    box = _floats(p["box"], '"box"', 4)
    report = find_eigenvalues(graph, box, tol=_float(p["tol"], '"tol"'))
    em.stats = {"strips": report.strips, "mirrored": report.mirrored,
                "roots": len(report.roots)}
    rows = [(r.lam.real, r.lam.imag, r.residual, r.box_count)
            for r in report.roots]
    em.csv("spectrum.csv", ["re", "im", "residual", "box_count"], rows)
    if svg:
        em.svg("spectrum.svg", scatter_plot(
            [r.lam.real for r in report.roots],
            [r.lam.imag for r in report.roots],
            title="characteristic roots", xlabel="Re", ylabel="Im"))
    on_axis = [r for r in report.roots if r.lam.real >= -1e-9]
    summary = {
        "box": list(box),
        "count": len(report.roots),
        "axis_roots": len(on_axis),
        "verdict": "unstable" if on_axis else "no axis roots in box",
    }
    return "summary.json", summary, bool(on_axis)


# keys of a "beta": {...} grid of sweep
BETA_GRID = {"min": 0.0, "max": 50.0, "count": 51}
# most beta a grid may count, checked before it is allocated: each costs one
# resolvent norm per mesh of the ladder
MAX_BETA_COUNT = 100_000


def _cmd_sweep(graph: MetricGraph, p, em, svg):
    import numpy as np

    from .resolvent import HUGE, SWEEP_ORDER

    beta = p["beta"]
    if isinstance(beta, dict):
        beta = _read(beta, BETA_GRID, '"beta"')
        count = _int(beta["count"], '"beta" count')
        try:
            if count > MAX_BETA_COUNT:
                raise ValueError(f"count {count} is above the cap of {MAX_BETA_COUNT}")
            grid = np.linspace(_float(beta["min"], '"beta" min'),
                               _float(beta["max"], '"beta" max'), count)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f'bad "beta": {exc}') from None
    else:
        grid = np.asarray(_floats(beta, '"beta"'), dtype=float)
    ladder = p["mesh-ladder"]
    if ladder is not None:
        ladder = _floats(ladder, '"mesh-ladder"')
    report = sweep(graph, grid, ladder)
    em.stats = {"order": SWEEP_ORDER, "dims": [c.dim for c in report.curves],
                "norms": sum(len(c.norm) for c in report.curves)}
    rows = []
    for curve in report.curves:
        for b, n in zip(curve.beta.tolist(), curve.norm.tolist()):
            sigma = 0.0 if n >= HUGE else (1.0 / n if n > 0 else HUGE)
            rows.append((b, float(curve.cells_per_unit), sigma, n))
    em.csv("sweep.csv", ["beta", "mesh", "sigma_min", "norm"], rows)
    if svg:
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
    return "verdict.json", summary, report.verdict == "unbounded"


def _cmd_chain_check(graph, p, em, svg):
    try:
        chain = ChainSpec(_floats(p["lengths"], '"lengths"'),
                          _floats(p["masses"], '"masses"'))
    except ValueError as exc:
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
    return "verdict.json", payload, not verdict.stable


# the largest convergent denominator q_n whose probe frequency beta_n is a
# finite double, as probes.csv prints it and growth_law fits q_n^(-1/4)
MAX_PROBE_Q = int(sys.float_info.max / (2 * math.pi))
# convergent denominators grow at least as fast as the Fibonacci numbers,
# q_k >= phi^(k-1), and probes take k >= 1: no length has more probes with
# q_k <= MAX_PROBE_Q than this
MAX_PROBES = int(1 + math.log(MAX_PROBE_Q, (1 + math.sqrt(5)) / 2))


def _cmd_counterexample(graph, p, em, svg):
    if p["probes"] < 1:
        raise ConfigError("--probes must be at least 1")
    if p["probes"] > MAX_PROBES:
        raise ConfigError(
            f"--probes {p['probes']} is past the cap of {MAX_PROBES}: no length has "
            f"more probes with beta_n = 2 pi q_n + 2 pi q_n^(-1/4) in the double range")
    length = Length.parse(p["length"])
    # q = 1 and q = 16 probes are degenerate (sin theta_1 = 0); at most two
    # convergents have q = 1 and one has q = 16
    convergents = dirichlet_convergents(length, p["probes"] + 3)
    from .counterexample import DEGENERATE_Q, CounterexampleError

    pairs = [c for c in convergents if c.q not in DEGENERATE_Q][:p["probes"]]
    fit = sum(c.q <= MAX_PROBE_Q for c in pairs)
    if fit < len(pairs):
        raise CounterexampleError(
            f"only {fit} of the {len(pairs)} probes of length {p['length']} have "
            f"beta_n = 2 pi q_n + 2 pi q_n^(-1/4) within the double range")
    if p["variant"] == "circuit":
        probes = [circuit_solve(None, length, pair=c) for c in pairs]
        rows = [(pr.q, float(pr.beta), float(pr.b1.real), float(pr.b1.imag),
                 float(abs(pr.ratio))) for pr in probes]
        report = growth_law(probes, length)
        summary = {
            "variant": "circuit",
            "length": p["length"],
            "limit": complex(report.limit),
            "predicted_modulus": report.predicted,
            "verdict": report.verdict,
            "eqcir_max_rel_diff": max(pr.eqcir_rel_diff for pr in probes),
            "asymptotic_defects": asymptotic_defects(probes[-1]),
        }
    else:
        sps = [star_probe(None, length, pair=c) for c in pairs]
        rows = [(c.q, float(pr.beta), pr.center_value.real,
                 pr.center_value.imag, float(pr.norm_ratio))
                for c, pr in zip(pairs, sps)]
        ratios = [pr.norm_ratio for pr in sps]
        tail = ratios[-4:]
        growing = all(b > a for a, b in zip(tail, tail[1:]))
        summary = {
            "variant": "star",
            "length": p["length"],
            "max_norm_ratio": max(ratios),
            "verdict": "unbounded" if growing and ratios[-1] > 10 * ratios[0]
            else "inconclusive",
        }
    em.csv("probes.csv", ["q_n", "beta_n", "b1_re", "b1_im", "ratio"], rows)
    return "summary.json", summary, summary["verdict"] == "unbounded"


# -- dispatch ---------------------------------------------------------------

# subcommand -> (handler, reads a graph, {run parameter: default}).  A config
# key may use hyphens or underscores; counterexample's parameters are its
# command-line options.
COMMANDS = {
    "check": (_cmd_check, True, {}),
    "simulate": (_cmd_simulate, True, {
        "T": 10.0, "cfl": DEFAULT_CFL, "cells-per-unit-length": DEFAULT_CELLS,
        "sample-stride": DEFAULT_STRIDE, "initial": {}}),
    "spectrum": (_cmd_spectrum, True, {
        "box": [-5.0, 0.5, -20.0, 20.0], "tol": DET_TOL}),
    "sweep": (_cmd_sweep, True, {"beta": {}, "mesh-ladder": None}),
    "chain-check": (_cmd_chain_check, False, {"lengths": None, "masses": None}),
    "counterexample": (_cmd_counterexample, False, {
        "variant": None, "length": None, "probes": 8}),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs as much as some 40 parses."""
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
    pc.add_argument("--probes", type=int,
                    default=COMMANDS["counterexample"][2]["probes"])
    common(pc, config=False)
    return ap


def _run(args) -> int:
    """Load, read the run parameters, compute, emit, map the verdict."""
    handler, reads_graph, defaults = COMMANDS[args.subcommand]
    config = getattr(args, "config", None)
    if config is None:
        params = {key: getattr(args, key) for key in defaults}
    else:
        params = _load_config(config)
    graph = None
    if reads_graph:
        graph, params = _graph_from_config(params, Path(config).parent)
    resolved = _read(params, defaults, "config")
    em = Emitter(Path(args.out), args.subcommand, config, params, resolved)
    name, summary, unstable = handler(graph, resolved, em, args.svg)
    em.json(name, summary)
    em.manifest()
    print(json.dumps(_round12(summary), sort_keys=True))
    return EXIT_UNSTABLE if args.expect_stable and unstable else EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and EXIT_USAGE
    try:
        return _run(args)
    except NetwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
