import json
import os

import pytest

from netwave.cli import main

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


def test_malformed_config_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variant": "tree",')
    rc = main(["check", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


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
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "initial": {"amplitude": "x"}},
     "amplitude"),
    (["spectrum"], {"graph": TREE_SPEC, "bx": [-3.0, 0.5, -10.0, 10.0]}, "box"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "circuit-coupling": "first-node"},
     "circuit-coupling"),
    (["simulate"], {"graph": TREE_SPEC, "T": 1.0, "initial": {"amplitud": 2.0}},
     "amplitude"),
], ids=["sample-stride-0", "cfl-0", "T-abc", "beta-count-negative",
        "probes-0", "box-not-numeric", "tol-abc", "mesh-ladder-0", "mesh-ladder-x",
        "amplitude-x", "unknown-key-bx", "unknown-key-circuit-coupling",
        "unknown-initial-key"])
def test_bad_input_exit_two(tmp_path, capsys, argv, config, message):
    if config is not None:
        argv = argv + ["--config", write(tmp_path, "cfg.json", config)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
