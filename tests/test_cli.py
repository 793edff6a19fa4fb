import copy
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netwave
from netwave import cli
from netwave.cli import BETA_GRID, COMMANDS, INITIAL, main
from netwave.graph import GraphError, Length, NetwaveError, build_graph
from netwave.resolvent import HUGE, assemble_generator

TREE_SPEC = {
    "variant": "tree",
    "vertices": [
        {"id": "a1", "kind": "root"},
        {"id": "a2", "kind": "mass", "mass": 1.0},
        {"id": "a3", "kind": "controlled"},
    ],
    "edges": [
        {"id": "e1", "tail": "a1", "head": "a2", "length": "1"},
        {"id": "e2", "tail": "a2", "head": "a3", "length": "9/10"},
    ],
}

PI_TREE_SPEC = {
    "variant": "tree",
    "vertices": [
        {"id": "a1", "kind": "root"},
        {"id": "a2", "kind": "mass", "mass": 1.0},
        {"id": "a3", "kind": "mass", "mass": 1.0},
        {"id": "a4", "kind": "controlled"},
    ],
    "edges": [
        {"id": "e1", "tail": "a1", "head": "a2", "length": "1"},
        {"id": "e2", "tail": "a2", "head": "a3", "length": "pi*1"},
        {"id": "e3", "tail": "a3", "head": "a4", "length": "1"},
    ],
}


def tree_with(path, value):
    """TREE_SPEC with the field at path (keys and list indices) set to value."""
    spec = copy.deepcopy(TREE_SPEC)
    *outer, last = path
    node = spec
    for key in outer:
        node = node[key]
    node[last] = value
    return spec


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_check_pi_tree_exit_zero(tmp_path, capsys):
    cfg = write(tmp_path, "tree.json", TREE_SPEC)
    rc = main(["check", "--config", cfg, "--out", str(tmp_path / "out"),
               "--expect-stable"])
    assert rc == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["pi_tree"] is True


def test_check_non_pi_tree_expect_stable_exit_one(tmp_path, capsys):
    cfg = write(tmp_path, "tree.json", PI_TREE_SPEC)
    rc = main(["check", "--config", cfg, "--out", str(tmp_path / "out"),
               "--expect-stable"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["pi_tree"] is False


# controlled a1 -- mass a2 -- ... -- fixed end, listed from the controlled end
def chain_spec(lengths, masses):
    n = len(lengths)
    kinds = ["controlled", *["mass"] * (n - 1), "fixed"]
    return {
        "variant": "chain",
        "vertices": [{"id": f"a{k + 1}", "kind": kind,
                      **({"mass": masses[k - 1]} if kind == "mass" else {})}
                     for k, kind in enumerate(kinds)],
        "edges": [{"id": f"e{j + 1}", "tail": f"a{j + 1}", "head": f"a{j + 2}",
                   "length": length} for j, length in enumerate(lengths)],
    }


def reoriented(edges):
    return [{**e, "tail": e["head"], "head": e["tail"]} for e in edges]


@pytest.mark.parametrize("lengths, masses, stable", [
    # lambda = i is an eigenvalue: the unit mass sits a length pi from the
    # fixed end, and the witness delta is sin(pi) in double
    (["1", "pi*1"], [1.0], False),
    (["1", "pi*1", "1/2"], [1.0, 4.0], True),
], ids=["unit-mass-pi", "two-masses"])
@pytest.mark.parametrize("relist", [
    lambda spec: {**spec, "edges": spec["edges"][::-1]},
    lambda spec: {**spec, "edges": reoriented(spec["edges"])},
    lambda spec: {**spec, "edges": reoriented(spec["edges"][::-1])},
    lambda spec: {**spec, "vertices": spec["vertices"][::-1]},
], ids=["edges-reversed", "edges-reoriented", "edges-reversed-reoriented",
        "vertices-reversed"])
def test_check_reads_a_chain_from_its_controlled_end(tmp_path, capsys, lengths,
                                                      masses, stable, relist):
    def verdict(spec):
        assert main(["check", "--config", write(tmp_path, "chain.json", spec),
                     "--out", str(tmp_path / "out")]) == 0
        return json.loads(capsys.readouterr().out)

    forward = verdict(chain_spec(lengths, masses))
    assert forward["stable"] is stable
    chain = {"lengths": [Length.parse(l).value for l in lengths], "masses": masses}
    assert main(["chain-check", "--config", write(tmp_path, "cc.json", chain),
                 "--out", str(tmp_path / "cc")]) == 0
    by_lengths = json.loads(capsys.readouterr().out)
    assert forward["witnesses"] == [[w["mass"], w["r"], w["delta"]]
                                    for w in by_lengths["witnesses"]]
    assert verdict(relist(chain_spec(lengths, masses))) == forward


def test_malformed_config_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variant": "tree",')
    rc = main(["check", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_sweep_manifest_reports_its_stats(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.json", {"graph": TREE_SPEC, "beta": [0.0, 0.5, 2.0],
                                         "mesh-ladder": [16, 24]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    graph = build_graph(TREE_SPEC)
    # one norm per beta and mesh, on generators of order-8 elements
    assert stats == {"order": 8, "norms": 6,
                     "dims": [assemble_generator(graph, cells, 8).dim for cells in (16, 24)]}
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "beta,mesh,sigma_min,norm" and len(rows) == 7


def test_unknown_subcommand_exit_two(capsys):
    assert main(["frobnicate"]) == 2


def test_sweep_pi_chain_expect_stable_exit_one(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.json", {
        "graph": PI_TREE_SPEC,
        "beta": {"min": 0.5, "max": 1.5, "count": 7},
        "mesh-ladder": [16, 32, 64],
    })
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
               "--expect-stable"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "unbounded"


def test_deterministic_output(tmp_path, capsys):
    cfg = write(tmp_path, "sim.json", {
        "graph": TREE_SPEC, "T": 2.0, "cells-per-unit-length": 24,
        "sample-stride": 4,
    })
    outs = []
    for sub in ("o1", "o2"):
        rc = main(["simulate", "--config", cfg, "--out",
                   str(tmp_path / sub), "--svg"])
        assert rc == 0
        outs.append(tmp_path / sub)
    for name in ("energy.csv", "energy.svg", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_manifest_lists_exactly_the_outputs(tmp_path, capsys):
    cfg = write(tmp_path, "spec.json", {
        "graph": TREE_SPEC, "box": [-3.0, 0.5, -10.0, 10.0]})
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", cfg, "--out", str(out), "--svg"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == sorted(os.listdir(out))


def test_json_round_trip(tmp_path, capsys):
    cfg = write(tmp_path, "chain.json", {"lengths": [1.0, 0.9],
                                         "masses": [1.0]})
    out = tmp_path / "out"
    rc = main(["chain-check", "--config", cfg, "--out", str(out)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((out / "verdict.json").read_text())
    assert printed == on_disk
    assert json.loads(json.dumps(on_disk)) == on_disk


def test_spectrum_empty_box_header_only_csv(tmp_path, capsys):
    cfg = write(tmp_path, "spec.json", {
        "graph": TREE_SPEC, "box": [-0.01, 0.0, 40.0, 40.1]})
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", cfg, "--out", str(out)])
    assert rc == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines == ["re,im,residual,box_count"]
    assert json.loads((out / "manifest.json").read_text())["outputs"]


def test_csv_bytes_are_pinned(tmp_path):
    # the text that csv.writer(lineterminator="\n") wrote for these rows,
    # floats through "%.12e" and everything else through str
    rows = [(0.0, -0.0, 1, -3),
            (np.float64(1.0) / 3, np.float64(-2.5e-7), 12, 0),
            (1e300, -1e-300, 9.999999999999e299, 2 ** 70),
            (HUGE, 1.0 / HUGE, -HUGE, 5),
            (np.float64(1e-300), np.float64(-1.7976931348623157e308), 5e-324, -7),
            (math.inf, -math.inf, math.nan, 1)]
    em = cli.Emitter(tmp_path, "test", None, {}, {})
    em.csv("rows.csv", ["a", "b", "c", "d"], rows)
    em.csv("empty.csv", ["re", "im"], [])
    assert (tmp_path / "rows.csv").read_bytes() == (
        b"a,b,c,d\n"
        b"0.000000000000e+00,-0.000000000000e+00,1,-3\n"
        b"3.333333333333e-01,-2.500000000000e-07,12,0\n"
        b"1.000000000000e+300,-1.000000000000e-300,9.999999999999e+299,"
        b"1180591620717411303424\n"
        b"1.000000000000e+30,1.000000000000e-30,-1.000000000000e+30,5\n"
        b"1.000000000000e-300,-1.797693134862e+308,4.940656458412e-324,-7\n"
        b"inf,-inf,nan,1\n")
    assert (tmp_path / "empty.csv").read_bytes() == b"re,im\n"


def test_svg_is_self_contained(tmp_path, capsys):
    cfg = write(tmp_path, "sim.json", {
        "graph": TREE_SPEC, "T": 1.0, "cells-per-unit-length": 24})
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out), "--svg"])
    svg = (out / "energy.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_counterexample_circuit_csv(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["counterexample", "--variant", "circuit", "--length",
               "sqrt(2)", "--probes", "6", "--out", str(out)])
    assert rc == 0
    lines = (out / "probes.csv").read_text().splitlines()
    assert lines[0] == "q_n,beta_n,b1_re,b1_im,ratio"
    assert len(lines) == 7
    summary = json.loads((out / "summary.json").read_text())
    assert summary["eqcir_max_rel_diff"] <= 1e-10
    assert summary["verdict"] in ("non-exponential", "inconclusive")


def test_counterexample_circuit_skips_q_one(tmp_path, capsys):
    # sqrt(3) has two convergents with q = 1: 1/1 and 2/1; both the circuit
    # and the star ladder skip them
    for variant in ("circuit", "star"):
        out = tmp_path / variant
        assert main(["counterexample", "--variant", variant, "--length",
                     "sqrt(3)", "--probes", "5", "--out", str(out)]) == 0
        rows = (out / "probes.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        assert rows[0].split(",")[0] == "3"


def test_counterexample_star_runs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["counterexample", "--variant", "star", "--length", "sqrt(2)",
               "--probes", "6", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_norm_ratio"] > 0


def test_counterexample_rational_length_exit_two(tmp_path, capsys):
    rc = main(["counterexample", "--variant", "circuit", "--length", "1/2",
               "--probes", "5", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "eigenvalue" in capsys.readouterr().err


def test_bare_graph_spec_keeps_run_parameters(tmp_path, capsys):
    cfg = write(tmp_path, "sim.json", {**TREE_SPEC, "T": 0.5,
                                       "cells-per-unit-length": 24})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["T"] == 0.5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"] == {"T": 0.5, "cells-per-unit-length": 24}


def test_manifest_resolves_the_defaults(tmp_path, capsys):
    cfg = write(tmp_path, "sim.json", {"graph": TREE_SPEC, "T": 0.5})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"] == {"T": 0.5}
    assert manifest["resolved"] == {**COMMANDS["simulate"][2], "T": 0.5}
    assert manifest["resolved"]["cfl"] == 0.9
    assert manifest["resolved"]["sample-stride"] == 1


def test_simulate_manifest_reports_its_stats(tmp_path, capsys):
    cfg = write(tmp_path, "sim.json", {"graph": TREE_SPEC, "T": 0.5,
                                       "cells-per-unit-length": 24})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    assert set(stats) == {"steps", "dt", "min_guard_margin"}
    # the loop steps once past T for its centered samples
    assert stats["steps"] == round(0.5 / stats["dt"]) + 1
    assert 0.0 < stats["dt"] <= 0.9 / 24 * (1 + 1e-12)
    # a dissipative run keeps at least the guard's own 1% headroom
    assert 1.0 - 1.0 / 1.01 - 1e-12 <= stats["min_guard_margin"] <= 1.0


@pytest.mark.parametrize("argv, config, message", [
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "sample-stride": 0}, ""),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "cfl": 0}, ""),
    (["simulate"], {"graph": TREE_SPEC, "T": "abc"}, ""),
    (["sweep"], {"graph": TREE_SPEC, "beta": {"count": -1}}, ""),
    (["counterexample", "--variant", "star", "--length", "sqrt(2)",
      "--probes", "0"], None, ""),
    (["spectrum"], {"graph": TREE_SPEC, "box": ["a", 0, 0, 1]}, "box"),
    (["spectrum"], {"graph": TREE_SPEC, "tol": "abc"}, "tol"),
    (["sweep"], {"graph": TREE_SPEC, "beta": [1.0], "mesh-ladder": [0]}, "mesh"),
    (["sweep"], {"graph": TREE_SPEC, "beta": [1.0], "mesh-ladder": ["x"]}, "mesh"),
    (["sweep"], {"graph": TREE_SPEC, "beta": [1.0], "mesh-ladder": [60]}, "mesh"),
    (["sweep"], {"graph": TREE_SPEC, "beta": [1.0], "mesh-ladder": [60, 60]}, "mesh"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "initial": {"amplitude": "x"}},
     "amplitude"),
    (["spectrum"], {"graph": TREE_SPEC, "bx": [-3.0, 0.5, -10.0, 10.0]}, "box"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "circuit-coupling": "first-node"},
     "circuit-coupling"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "initial": {"amplitud": 2.0}},
     "amplitude"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0,
                    "initial": {"oscillators": {"a2": 1.0}}}, "oscillator"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0,
                    "initial": {"oscillators": [1, 2]}}, "oscillators"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "initial": {"edges": 5}}, "edges"),
    (["chain-check"], {"lengths": 5, "masses": [1.0]}, "lengths"),
    (["chain-check"], {"lengths": [1.0, 0.9], "masses": 1.0}, "masses"),
    (["chain-check"], {"masses": [1.0]}, "lengths"),
    (["chain-check"], {"lengths": [1.0, 0.9]}, "masses"),
    (["sweep"], {"graph": TREE_SPEC, "beta": {"min": 0, "max": 1, "count": 2,
                                              "cnt": 5}}, "count"),
    (["check"], {"vertices": [{"id": "a"}], "edges": []}, "kind"),
    (["sweep"], {"graph": TREE_SPEC, "beta": [float("nan")]}, "finite"),
    (["spectrum"], {"graph": TREE_SPEC, "tol": -1}, "tol"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "cells_per_unit": 24},
     "cells-per-unit-length"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0,
                    "initial": {"amplitude": float("nan")}}, "finite"),
    (["check"], {"graph": tree_with(("vertices", 1, "mass"), "abc")}, "mass"),
    (["spectrum"], {"graph": tree_with(("vertices", 1, "mass"), [1])}, "mass"),
    (["check"], {"graph": tree_with(("vertices",), 5)}, "vertices"),
    (["simulate"], {"graph": tree_with(("edges",), 5), "T": 0.5}, "edges"),
    (["check"], {"graph": tree_with(("vertices", 0, "id"), ["a1"])}, "id"),
    (["check"], {"graph": tree_with(("edges", 1, "length"), "1e400")}, "length"),
    (["sweep"], {"graph": tree_with(("edges", 1, "length"), "sqrt(1e400)")},
     "length"),
    (["check"], {"graph": tree_with(("edges", 1, "length"), "pi*1e400")}, "length"),
    (["check"], {"graph": tree_with(("edges", 1, "length"), math.inf)}, "length"),
    (["counterexample", "--variant", "star", "--length", "1e400"], None, "length"),
    (["check"], {"graph": tree_with(("vertices", 1, "mass"), math.inf)}, "mass"),
    (["simulate"], {"graph": tree_with(("vertices", 1, "mass"), math.inf),
                    "T": 0.5}, "mass"),
    (["sweep"], {"graph": tree_with(("vertices", 1, "mass"), math.inf)}, "mass"),
    (["spectrum"], {"graph": tree_with(("vertices", 1, "mass"), math.inf)}, "mass"),
    (["check"], {"graph": tree_with(("edges", 1, "length"), True)}, "length"),
    (["check"], {"graph": tree_with(("vertices", 1, "mass"), True)}, "mass"),
    (["counterexample", "--variant", "circuit", "--length", "0"], None, "positive"),
    (["counterexample", "--variant", "star", "--length", "-1"], None, "positive"),
    (["simulate"], {"graph": tree_with(("edges", 1, "length"), "1e300"), "T": 0.5},
     "grid nodes"),
    (["sweep"], {"graph": tree_with(("edges", 1, "length"), "1e300")}, "grid nodes"),
    (["chain-check"], {"lengths": [1.0, 1e400], "masses": [1.0]}, "length"),
    (["chain-check"], {"lengths": [1.0, 0.9], "masses": [1e400]}, "mass"),
    (["sweep"], {"graph": TREE_SPEC, "beta": []}, "empty"),
    (["sweep"], {"graph": TREE_SPEC, "beta": {"count": 0}}, "empty"),
    (["sweep"], {"graph": TREE_SPEC, "beta": {"max": math.inf}}, "finite"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "initial": {"amplitude": "1e400"}},
     "finite"),
    (["spectrum"], {"graph": TREE_SPEC, "tol": 10**400}, "tol"),
    (["sweep"], {"graph": TREE_SPEC, "beta": {"count": 1e12}}, "cap"),
    (["sweep"], {"graph": TREE_SPEC, "beta": {"max": 1.0, "count": 2.7},
                 "mesh-ladder": [16, 24]}, "integer"),
    (["sweep"], {"graph": TREE_SPEC, "beta": {"max": 1.0, "count": True},
                 "mesh-ladder": [16, 24]}, "integer"),
    (["simulate"], {"graph": TREE_SPEC, "T": 0.5, "sample-stride": 2.5}, "integer"),
    (["simulate"], {"graph": TREE_SPEC, "T": 0.5, "sample-stride": True}, "integer"),
    (["spectrum"], {"graph": TREE_SPEC, "box": [-1000.0, -990.0, -1.0, 1.0]},
     "contour node"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "initial": {"edges": ["E1"]}},
     "'E1'"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "initial": {
        "edges": ["e1"], "velocity": True, "oscillators": {"zz": [1, 0]}}}, "'zz'"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0,
                    "initial": {"oscillators": {"a3": [1, 0]}}}, "'a3'"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0,
                    "initial": {"kind": "x", "edges": []}}, "kind"),
    (["simulate"], {"graph": TREE_SPEC, "T": True}, "T"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "initial": {"amplitude": True}},
     "amplitude"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "initial": {"velocity": "false"}},
     "velocity"),
    (["spectrum"], {"graph": TREE_SPEC, "box": [-1.0, True, -3.0, 3.0]}, "box"),
    (["spectrum"], {"graph": TREE_SPEC, "box": [-1.0, 0.5, -3.0, 3.0], "tol": True},
     "tol"),
    (["sweep"], {"graph": TREE_SPEC, "beta": [0.0, True], "mesh-ladder": [16, 24]},
     "beta"),
    (["chain-check"], {"lengths": [True, 1.0], "masses": [1.0]}, "lengths"),
    # numbers that leave the double range: dt * dt underflows to 0, the step
    # coefficients overflow, the energy overflows
    (["simulate"], {"graph": TREE_SPEC, "T": 1e-300}, "too small"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1e-160}, "too small"),
    (["simulate"], {"graph": TREE_SPEC, "initial": {"amplitude": 1e200}},
     "double range"),
    # the CLI asks for two convergents past --probes, so 9999 is already
    # past the cap of 10000; a horizon past MAX_STEPS leapfrog steps, and a
    # cfl whose dt underflows to 0
    (["counterexample", "--variant", "circuit", "--length", "sqrt(2)",
      "--probes", "9999"], None, "cap"),
    # q_n ~ 3e307 puts beta_n = 2 pi q_n + ... past the largest double
    (["counterexample", "--variant", "circuit", "--length", "pi*1e-308",
      "--probes", "3"], None, "double range"),
    (["counterexample", "--variant", "star", "--length", "pi*1e-308",
      "--probes", "3"], None, "double range"),
    # |Y| ~ 1e-351 at q ~ 1e200 would print as a false zero
    (["counterexample", "--variant", "star", "--length", "pi*1e-200",
      "--probes", "3"], None, "below the double range"),
    # the Hankel singular values of a 1e-300-wide box underflow
    (["spectrum"], {"graph": TREE_SPEC, "box": [1e-300, 2e-300, 1e-300, 2e-300]},
     "not finite"),
    # two controlled leaves branch the chain
    (["check"], {"variant": "chain", "vertices": [
        {"id": "a1", "kind": "controlled"}, {"id": "a2", "kind": "mass", "mass": 1.0},
        {"id": "a3", "kind": "controlled"}, {"id": "a4", "kind": "fixed"}],
      "edges": [{"id": f"e{k}", "tail": "a2", "head": f"a{k}", "length": "1"}
                for k in (1, 3, 4)]}, "controlled leaf"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1e12}, "leapfrog steps"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "cfl": 5e-324}, "leapfrog steps"),
    # on edges of length 5, true would read as a mesh of 5 cells per edge
    (["sweep"], {"graph": {**TREE_SPEC, "edges": [
        {**e, "length": "5"} for e in TREE_SPEC["edges"]]}, "beta": [0.5],
        "mesh-ladder": [True, 16]}, "mesh-ladder"),
], ids=["sample-stride-0", "cfl-0", "T-abc", "beta-count-negative",
        "probes-0", "box-not-numeric", "tol-abc", "mesh-ladder-0", "mesh-ladder-x",
        "mesh-ladder-single", "mesh-ladder-repeated", "amplitude-x",
        "unknown-key-bx", "unknown-key-circuit-coupling", "unknown-initial-key",
        "oscillator-not-a-pair", "oscillators-not-an-object", "initial-edges-5",
        "lengths-5", "masses-1", "lengths-missing", "masses-missing",
        "unknown-beta-key", "vertex-without-kind", "beta-nan", "tol-negative",
        "alias-cells_per_unit", "amplitude-nan", "mass-abc", "mass-list",
        "vertices-5", "edges-5", "vertex-id-list", "length-1e400",
        "length-sqrt-1e400", "length-pi-1e400", "length-infinity",
        "counterexample-length-1e400", "mass-infinity-check",
        "mass-infinity-simulate", "mass-infinity-sweep", "mass-infinity-spectrum",
        "length-true", "mass-true", "counterexample-length-0",
        "counterexample-length-negative", "length-1e300-simulate",
        "length-1e300-sweep", "chain-length-1e400", "chain-mass-1e400",
        "beta-empty-list", "beta-count-0", "beta-max-infinity", "amplitude-1e400",
        "tol-huge-integer", "beta-count-1e12", "beta-count-2.7", "beta-count-true",
        "sample-stride-2.5", "sample-stride-true", "box-far-left",
        "initial-unknown-edge", "initial-unknown-oscillator",
        "initial-oscillator-not-a-mass", "initial-unknown-kind", "T-true",
        "amplitude-true", "velocity-string", "box-entry-true", "tol-true",
        "beta-entry-true", "chain-length-true", "T-1e-300", "T-1e-160",
        "amplitude-1e200", "probes-9999", "circuit-beta-past-double",
        "star-beta-past-double", "star-centre-below-double", "box-1e-300",
        "check-branched-chain", "T-1e12", "cfl-5e-324",
        "mesh-ladder-entry-true"])
def test_bad_input_exit_two(tmp_path, capsys, argv, config, message):
    if config is not None:
        argv = argv + ["--config", write(tmp_path, "cfg.json", config)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


# Fuzzing: one run parameter or graph spec field at a time takes a malformed
# value while the others keep small valid ones; the CLI must answer with an
# exit code.
MALFORMED = [None, True, False, "abc", "1e400", [], {}, [1], {"a": 1},
             math.nan, math.inf, -math.inf, -1, 0]
VALID = {
    "check": {"graph": TREE_SPEC},
    "simulate": {"graph": TREE_SPEC, "T": 0.5},
    "spectrum": {"graph": TREE_SPEC, "box": [-1.0, 0.5, -3.0, 3.0]},
    "sweep": {"graph": TREE_SPEC, "beta": [0.0, 0.5, 1.0], "mesh-ladder": [16, 24]},
    "chain-check": {"lengths": [1.0, 0.9], "masses": [1.0]},
    "counterexample": {"variant": "star", "length": "sqrt(2)", "probes": 3},
}
NESTED = {("simulate", "initial"): INITIAL,
          ("sweep", "beta"): {"min": 0.0, "max": 1.0, "count": 3}}
# graph spec fields, as paths into TREE_SPEC, fuzzed under every subcommand
# that reads a graph
GRAPH_FIELDS = [("vertices", 1, "id"), ("vertices", 1, "kind"),
                ("vertices", 1, "mass"), ("edges", 0, "tail"),
                ("edges", 1, "length"), ("vertices",), ("edges",), ("variant",)]
FUZZ_KEYS = ([(sub, key, None) for sub, (_, _, keys) in COMMANDS.items()
              for key in keys]
             + [(sub, outer, key) for (sub, outer), keys in NESTED.items()
                for key in keys]
             + [(sub, "graph", path) for sub, (_, reads_graph, _) in COMMANDS.items()
                if reads_graph for path in GRAPH_FIELDS])


def test_fuzz_covers_every_key():
    assert set(NESTED[("sweep", "beta")]) == set(BETA_GRID)
    assert {(sub, key) for sub, key, inner in FUZZ_KEYS if inner is None} == {
        (sub, key) for sub, (_, _, keys) in COMMANDS.items() for key in keys}


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.sampled_from(FUZZ_KEYS), st.sampled_from(MALFORMED))
def test_malformed_values_give_an_exit_code(tmp_path_factory, target, value):
    sub, key, inner = target
    params = dict(VALID[sub])
    if key == "graph":
        params[key] = tree_with(inner, value)
    elif inner is None:
        params[key] = value
    else:
        params[key] = {inner: value} if sub == "simulate" else {
            **NESTED[(sub, key)], inner: value}
    tmp = tmp_path_factory.mktemp("fuzz")
    argv = [sub, "--out", str(tmp / "out")]
    if sub == "counterexample":
        argv += [a for k, v in params.items()
                 for a in (f"--{k}", v if isinstance(v, str) else json.dumps(v))]
    else:
        argv += ["--config", write(tmp, "cfg.json", params)]
    assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize("ratios, verdict", [
    ([1.0, 5.0, 20.0], "unbounded"),
    ([1.0, 20.0, 5.0], "inconclusive"),
])
def test_star_verdict_with_three_probes(tmp_path, capsys, monkeypatch, ratios,
                                        verdict):
    # fewer than four probes: the verdict compares the consecutive ratios
    # it has, not each ratio with itself
    probes = iter(types.SimpleNamespace(beta=1.0, norm_ratio=r, center_value=0j)
                  for r in ratios)
    monkeypatch.setattr("netwave.cli.star_probe", lambda *a, **k: next(probes))
    rc = main(["counterexample", "--variant", "star", "--length", "sqrt(2)",
               "--probes", "3", "--expect-stable", "--out", str(tmp_path / "out")])
    assert json.loads(capsys.readouterr().out)["verdict"] == verdict
    assert rc == (1 if verdict == "unbounded" else 0)


def test_repeated_main_calls_match_separate_calls(tmp_path, capsys):
    # one process keeps one parser: a run of different subcommands, with a
    # usage error and --version in between, prints what each call prints on
    # a parser of its own
    out = str(tmp_path / "out")
    tree = write(tmp_path, "tree.json", TREE_SPEC)
    pi = write(tmp_path, "pi.json", PI_TREE_SPEC)
    chain = write(tmp_path, "chain.json", {"lengths": [1.0, 0.9], "masses": [1.0]})
    calls = [
        ["check", "--config", tree, "--out", out],
        ["check", "--out", out],  # --config is required
        ["chain-check", "--config", chain, "--out", out],
        ["--version"],
        ["counterexample", "--variant", "star", "--length", "sqrt(2)",
         "--probes", "3", "--out", out],
        ["bogus"],
        ["check", "--config", pi, "--out", out, "--expect-stable"],
    ]

    def outputs(argv):
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    kept = [outputs(argv) for argv in calls]
    assert cli._parser.cache_info().misses <= 1
    separate = []
    for argv in calls:
        cli._parser.cache_clear()
        separate.append(outputs(argv))
    assert kept == separate
    assert [rc for rc, _, _ in kept] == [0, 2, 0, 0, 0, 2, 1]
    assert kept[3][1] == netwave.__version__ + "\n"


def test_import_leaves_the_solver_unloaded(tmp_path):
    # scipy's sparse solver (which loads scipy.linalg) is imported with the
    # resolvent module by the first sweep, not by importing the package or
    # the CLI; mpmath, which only counterexample computes with, never is
    cfg = write(tmp_path, "sweep.json", {"graph": TREE_SPEC, "beta": [0.5, 2.0],
                                         "mesh-ladder": [16, 24]})
    script = textwrap.dedent("""\
        import json, sys
        solver = ("scipy.sparse.linalg", "scipy.linalg")
        def loaded():
            return [name for name in solver if name in sys.modules]
        import netwave
        after_package = loaded()
        import netwave.cli
        after_cli = loaded()
        rc = netwave.cli.main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2]])
        print(json.dumps([after_package, after_cli, rc, loaded(), "mpmath" in sys.modules]))
        """)
    # a fresh interpreter, with the package under test on its path
    src = str(Path(netwave.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    after_package, after_cli, rc, after_sweep, mpmath = json.loads(
        done.stdout.splitlines()[-1])
    assert after_package == [] and after_cli == []
    assert rc == 0
    assert after_sweep == ["scipy.sparse.linalg", "scipy.linalg"]
    assert not mpmath


def test_only_sweep_loads_the_sparse_stack(tmp_path):
    # numpy is imported with the first numerical subcommand, mpmath with the
    # first counterexample and scipy.sparse with the resolvent module by the
    # first sweep: the package, the CLI and the subcommands before them run
    # without them.  Pytest's own filterwarnings setting imports numpy and
    # scipy here, hence a fresh interpreter
    chain = {"lengths": [1.0, 0.9], "masses": [1.0]}
    configs = {
        "check": {"graph": TREE_SPEC},
        "chain-check": chain,
        "spectrum": {"graph": TREE_SPEC, "box": [-3.0, 0.5, -5.0, 5.0]},
        "simulate": {"graph": TREE_SPEC, "T": 1.0, "cells-per-unit-length": 16},
        "sweep": {"graph": TREE_SPEC, "beta": [0.5, 2.0], "mesh-ladder": [16, 24]},
    }
    runs = [[sub, "--config", write(tmp_path, f"{sub}.json", cfg)]
            for sub, cfg in configs.items()]
    runs.insert(2, ["counterexample", "--variant", "circuit", "--length", "sqrt(2)",
                    "--probes", "3"])
    script = textwrap.dedent("""\
        import json, sys
        def loaded():
            return [name for name in ("numpy", "scipy.sparse", "mpmath")
                    if name in sys.modules]
        import netwave
        seen = [["import netwave", loaded()]]
        import netwave.cli
        seen.append(["import netwave.cli", loaded()])
        for k, argv in enumerate(json.loads(sys.argv[1])):
            rc = netwave.cli.main([*argv, "--out", f"{sys.argv[2]}/{k}"])
            seen.append([argv[0], rc, loaded()])
        print(json.dumps(seen))
        """)
    # a fresh interpreter, with the package under test on its path
    src = str(Path(netwave.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs), str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == [["import netwave", []], ["import netwave.cli", []],
                    ["check", 0, []], ["chain-check", 0, []],
                    ["counterexample", 0, ["mpmath"]],
                    ["spectrum", 0, ["numpy", "mpmath"]],
                    ["simulate", 0, ["numpy", "mpmath"]],
                    ["sweep", 0, ["numpy", "scipy.sparse", "mpmath"]]]


def test_numerical_entry_points_are_looked_up_at_call_time(tmp_path, capsys,
                                                           monkeypatch):
    # the benchmark's tracer replaces these names of the CLI module, so each
    # subcommand must call through them; the package's own names stay the
    # submodules' objects
    calls = []
    names = ("run", "find_eigenvalues", "sweep", "dirichlet_convergents",
             "circuit_solve", "star_probe", "growth_law", "asymptotic_defects")
    for name in names:
        def spy(*args, _name=name, _through=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _through(*args, **kwargs)
        monkeypatch.setattr(f"netwave.cli.{name}", spy)
    configs = {
        "simulate": {"graph": TREE_SPEC, "T": 1.0},
        "spectrum": {"graph": TREE_SPEC, "box": [-3.0, 0.5, -5.0, 5.0]},
        "sweep": {"graph": TREE_SPEC, "beta": [0.5, 2.0], "mesh-ladder": [16, 24]},
    }
    for sub, cfg in configs.items():
        argv = [sub, "--config", write(tmp_path, f"{sub}.json", cfg)]
        assert main(argv + ["--out", str(tmp_path / sub)]) == 0
    for variant in ("circuit", "star"):
        assert main(["counterexample", "--variant", variant, "--length", "sqrt(2)",
                     "--probes", "3", "--out", str(tmp_path / variant)]) == 0
    assert calls == ["run", "find_eigenvalues", "sweep",
                     "dirichlet_convergents", *["circuit_solve"] * 3, "growth_law",
                     "asymptotic_defects",
                     "dirichlet_convergents", *["star_probe"] * 3]

    from netwave import counterexample, graph, resolvent, simulate, spectral
    owners = [simulate, spectral, resolvent] + [counterexample] * 5
    for name, module in zip(names, owners):
        assert getattr(netwave, name) is getattr(module, name)
    assert netwave.make_tree_chain is graph.make_tree_chain


def _package_errors():
    """Every exception class the package's modules define."""
    found = []
    for info in pkgutil.iter_modules(netwave.__path__):
        module = importlib.import_module(f"netwave.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and obj.__module__ == module.__name__]
    return found


@pytest.mark.parametrize("error", _package_errors(), ids=lambda cls: cls.__name__)
def test_every_error_is_a_netwave_error(error):
    # main maps exactly these to exit code 2; each keeps its builtin base
    assert issubclass(error, NetwaveError)
    if error is not NetwaveError:
        assert issubclass(error, ValueError if error is GraphError else RuntimeError)


def test_round12_rounds_numpy_scalars_and_keeps_the_rest():
    payload = {"f": 1 / 3, "c": 1j / 3, "f32": np.float32(0.1), "i64": np.int64(7),
               "f64": np.float64(2 / 3), "list": [1, "x", None, True, (0.5,)]}
    assert cli._round12(payload) == {
        "f": 0.3333333333333, "c": {"re": 0.0, "im": 0.3333333333333},
        "f32": 0.1000000014901, "i64": 7, "f64": 0.6666666666667,
        "list": [1, "x", None, True, [0.5]]}
    assert type(cli._round12(np.int64(7))) is int
