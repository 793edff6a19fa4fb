"""Seeded job streams for the three benchmark workloads.

A job is one `netwave` CLI call: a subcommand, the config it reads (if any),
extra arguments, the independent truth its output is checked against, and
its size, what its cost is proportional to among jobs of its subcommand.
Every input comes from the workload seed.  What a job's cost depends on
(edges, shape, mesh, horizon, beta grid, probe count) cycles through a fixed
schedule, while topology, lengths, masses and probe lengths are drawn at
random, so the work mix of a run does not drift with the seed.  A run is a
fixed number of schedule indices, so every run of a seed attempts the same
jobs and meets the same failures.

The truth of a graph is known by construction: lengths are drawn as exact
rationals in [0.5, 1.5], far from pi*N, so a tree or chain is unstable only
when the generator plants a destabilizing edge (a `pi*1` edge between two
unit masses in a tree, a `pi*1` last edge behind a unit mass in a chain).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class Job:
    key: str
    subcommand: str
    config: dict | None  # written to a file and passed as --config
    args: tuple = ()  # extra CLI arguments
    truth: dict = field(default_factory=dict)
    size: float = 1.0  # cost relative to other jobs of the subcommand

    def argv(self, config_path, out_dir) -> list:
        argv = [self.subcommand, *self.args, "--out", str(out_dir)]
        if self.config is not None:
            argv += ["--config", str(config_path)]
        return argv

    def identity(self) -> str:
        """The job's input; no two jobs of a run share it."""
        return json.dumps([self.subcommand, self.config, self.args], sort_keys=True)


# -- graphs -----------------------------------------------------------------


def _length(rng) -> str:
    """Exact rational length in [0.5, 1.5]."""
    return str(Fraction(rng.randint(500, 1500), 1000))


def _lengths(rng, n, balanced=False) -> list:
    """n exact lengths in [0.5, 1.5]; balanced ones sum to exactly n, which
    fixes the number of roots per box height (it grows with total length)
    while every single length stays random."""
    if not balanced:
        return [_length(rng) for _ in range(n)]
    while True:
        milli = [rng.randint(500, 1500) for _ in range(n - 1)]
        last = 1000 * n - sum(milli)
        if 500 <= last <= 1500:
            return [str(Fraction(m, 1000)) for m in milli + [last]]


def _length_value(length: str) -> float:
    return math.pi if length == "pi*1" else float(Fraction(length))


def _mass(rng) -> float:
    return round(rng.uniform(0.5, 2.0), 2)


def random_tree(rng, n_edges, unit_masses=False, pi_edge=False,
                balanced=False) -> tuple:
    """(spec, masses_are_unit, has_pi_edge) for a tree with one root leaf,
    controlled leaves and point masses at every interior vertex.

    A planted pi edge joins the first two interior vertices; every mass is
    then 1, which is the destabilizing configuration of the pi predicate.
    """
    if pi_edge and n_edges < 3:
        raise ValueError("a pi edge between two masses needs 3 edges")
    parent = {1: 0}  # vertex 0 is the root, vertex 1 its only neighbour
    if pi_edge:
        parent[2] = 1
        parent[3] = 2  # vertex 2 is interior too
    for v in range(len(parent) + 1, n_edges + 1):
        parent[v] = rng.randint(1, v - 1)
    children = {v: 0 for v in range(n_edges + 1)}
    for v, p in parent.items():
        children[p] += 1
    unit = unit_masses or pi_edge
    vertices = [{"id": "v0", "kind": "root"}]
    for v in range(1, n_edges + 1):
        if children[v]:
            vertices.append({"id": f"v{v}", "kind": "mass",
                             "mass": 1.0 if unit else _mass(rng)})
        else:
            vertices.append({"id": f"v{v}", "kind": "controlled"})
    edges = []
    drawn = iter(_lengths(rng, n_edges - pi_edge, balanced))
    for v, p in sorted(parent.items()):
        length = "pi*1" if pi_edge and (p, v) == (1, 2) else next(drawn)
        edges.append({"id": f"e{v}", "tail": f"v{p}", "head": f"v{v}",
                      "length": length})
    spec = {"variant": "tree", "vertices": vertices, "edges": edges}
    return spec, unit, pi_edge


def random_chain(rng, n_edges, resonant=False, balanced=False) -> tuple:
    """(spec, masses, resonant) for a chain: controlled near end,
    interior masses, fixed far end.  A resonant chain ends in a unit mass
    followed by a `pi*1` edge, which puts i on the imaginary axis."""
    if resonant and n_edges < 2:
        raise ValueError("a resonant chain needs an interior mass")
    lengths = _lengths(rng, n_edges - resonant, balanced)
    masses = [_mass(rng) for _ in range(n_edges - 1)]
    if resonant:
        lengths.append("pi*1")
        masses[-1] = 1.0
    vertices = [{"id": "a1", "kind": "controlled"}]
    vertices += [{"id": f"a{k}", "kind": "mass", "mass": m}
                 for k, m in enumerate(masses, start=2)]
    vertices.append({"id": f"a{n_edges + 1}", "kind": "fixed"})
    edges = [{"id": f"e{j + 1}", "tail": f"a{j + 1}", "head": f"a{j + 2}",
              "length": l} for j, l in enumerate(lengths)]
    spec = {"variant": "chain", "vertices": vertices, "edges": edges}
    return spec, masses, resonant


def _draw_graph(rng, shape, n_edges, unit=False, planted=False,
                balanced=False) -> dict:
    """Truth record of a fresh tree or chain: a planted tree carries a pi
    edge between unit masses, a planted chain is resonant."""
    if shape == "tree":
        spec, unit, planted = random_tree(rng, n_edges, unit, planted, balanced)
    else:
        spec, masses, planted = random_chain(rng, n_edges, planted, balanced)
        unit = all(m == 1.0 for m in masses)
    return {"variant": shape, "stable": not planted, "unit_masses": unit,
            "graph": spec}


def _sum_lengths(spec) -> float:
    return sum(_length_value(e["length"]) for e in spec["edges"])


# -- workloads --------------------------------------------------------------
#
# Job i of a workload takes its size class (edges, shape, mesh, probes) from
# i alone, so every seed runs the same mix of work in the same order and the
# seed moves only what the class leaves free.  The classes are what the cost
# depends on; the drawn parts are what the verdicts depend on.

PI_RESONANCE = 1.0  # beta of the axis eigenvalue that a unit-mass pi edge carries
SIM_STEPS = 300  # leapfrog steps of a fine-mesh simulate job (dt = 0.9 / cells)


def wide_transient(rng, i) -> list:
    """`simulate` on trees and chains of 16-48 edges, 16-24 cells per unit
    length and T = 20."""
    shape = ("tree", "chain")[i % 2]
    n_edges = (16, 24, 32, 40, 48)[i // 2 % 5]
    cells = (16, 20, 24)[i // 10 % 3]
    g = _draw_graph(rng, shape, n_edges)
    config = {"graph": g["graph"], "T": 20.0, "cells-per-unit-length": cells,
              "sample-stride": 1}
    # per step cost grows with edges, the step count with cells
    return [("simulate", config, (), {**g, "cells": cells}, n_edges * cells)]


def fine_mesh(rng, i) -> list:
    """Two `simulate` jobs of 8192 DOFs per edge (4096-16384 cells per unit)
    and one `sweep` of 41-51 beta on [0, beta_max], beta_max in 50-200, on
    networks of 1-3 edges.  The mesh of a simulate job and the beta_max of a
    sweep scale with 1 / total length, so a job's size depends only on i."""
    jobs = []
    for k, shape in enumerate(("tree", "chain")):
        n_edges = 1 + (i + k) % 3
        g = _draw_graph(rng, shape, n_edges)
        cells = round(8192 * n_edges / _sum_lengths(g["graph"]))
        config = {"graph": g["graph"], "T": round(0.9 * SIM_STEPS / cells, 9),
                  "cells-per-unit-length": cells, "sample-stride": 1,
                  "initial": {"kind": "sine"}}
        jobs.append(("simulate", config, (), {**g, "cells": cells}, n_edges))
    n_edges = 1 + i % 3
    shape = ("tree", "chain")[i // 3 % 2]
    # every fourth 3-edge tree carries a pi edge: the sweep must find it unbounded
    g = _draw_graph(rng, shape, n_edges, unit=True,
                    planted=shape == "tree" and n_edges == 3 and i // 6 % 2 == 1)
    beta_max = round(100.0 * n_edges / _sum_lengths(g["graph"]), 2)
    count = (41, 46, 51)[i // 6 % 3]
    # the grid also samples beta = 1, where a planted tree's axis eigenvalue sits
    grid = [beta_max * j / (count - 1) for j in range(count)]
    beta = sorted({round(b, 9) for b in grid} | {PI_RESONANCE})
    # the generator's dimension grows with beta_max times total length
    jobs.append(("sweep", {"graph": g["graph"], "beta": beta}, (), g,
                 n_edges * len(beta)))
    return jobs


def _is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


# n/d with n/d not the square of a rational, so sqrt(n/d) is irrational
IRRATIONAL_RADICANDS = sorted({
    Fraction(n, d) for d in range(1, 6) for n in range(2, 13)
    if not (_is_square(Fraction(n, d).numerator)
            and _is_square(Fraction(n, d).denominator))})


# mesh-free graph kinds, cycled with period 8 against the edge count's 5, so
# that any 8 consecutive indices hold every kind and 40 every pairing:
# (shape, unit masses, planted)
MESH_FREE_KINDS = (("tree", False, False), ("chain", False, False),
                   ("tree", True, False), ("chain", False, False),
                   ("tree", False, False), ("chain", False, True),
                   ("tree", True, True), ("chain", False, False))


def mesh_free(rng, i) -> list:
    """`spectrum` in the box (-3, 0.5, -12, 12), `check` and (on chains)
    `chain-check` on one tree or chain of 2-6 edges, plus a circuit and a
    star `counterexample` ladder of 12-40 probes on random sqrt lengths.
    With two ladders per graph the median job is a ladder whatever share of
    the root searches fails.

    Half the trees have unit masses and half of those (3 edges and up) a pi
    edge; a quarter of the chains are resonant.  The random lengths of a
    graph sum to its count of random edges, so the cost of its root search
    depends on its size class, not on the draw."""
    n_edges = 2 + i % 5
    shape, unit, planted = MESH_FREE_KINDS[i % 8]
    g = _draw_graph(rng, shape, n_edges, unit,
                    planted and (shape == "chain" or n_edges >= 3), balanced=True)
    # the roots in the box grow with total length, the characteristic
    # matrix with the edge count
    jobs = [("spectrum", {"graph": g["graph"], "box": [-3.0, 0.5, -12.0, 12.0]},
             (), g, n_edges * _sum_lengths(g["graph"])),
            ("check", {"graph": g["graph"]}, (), g, 1)]
    if shape == "chain":
        lengths = [_length_value(e["length"]) for e in g["graph"]["edges"]]
        masses = [v["mass"] for v in g["graph"]["vertices"] if v["kind"] == "mass"]
        jobs.append(("chain-check", {"lengths": lengths, "masses": masses}, (), g, 1))
    for k, variant in enumerate(("circuit", "star")):
        probes = (12, 19, 26, 33, 40)[(i + 2 * k) % 5]
        length = f"sqrt({rng.fresh_choice((variant, probes), IRRATIONAL_RADICANDS)})"
        args = ("--variant", variant, "--length", length, "--probes", str(probes))
        jobs.append(("counterexample", None, args,
                     {"variant": variant, "length": length, "probes": probes}, probes))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object  # (rng, i) -> list of (subcommand, config, args, truth, size)
    # schedule indices per CPU second on a 2-vCPU x86-64 cloud VM: the run
    # length is fixed in indices, not in seconds, so it sets the batch size
    indices_per_s: float

    def indices(self, seconds: float) -> int:
        """Schedule indices of a run meant to take about `seconds`."""
        return max(1, math.ceil(seconds * self.indices_per_s))


WORKLOADS = {w.name: w for w in (
    Workload("wide-transient",
             "simulate on 16-48-edge trees and chains at a coarse mesh: cost "
             "scales with edges and vertices, not DOFs (stepper and energy "
             "accounting)", wide_transient, 1.6),
    Workload("fine-mesh",
             "1-3-edge networks at fine meshes: resolvent sweeps (splu, power "
             "iteration) and simulate where arithmetic over many DOFs dominates",
             fine_mesh, 0.62),
    Workload("mesh-free",
             "verdicts that need no mesh: spectrum root search, check, "
             "chain-check and mpmath counterexample probes",
             mesh_free, 1.0),
)}


class RunRandom(random.Random):
    """The random draws of one run."""

    def __init__(self, seed):
        super().__init__(seed)
        self._used = {}

    def fresh_choice(self, key, options):
        """A random option not yet drawn for `key` in this run (any option
        once all are used), so that the run's job count does not depend on
        chance repeats."""
        used = self._used.setdefault(key, set())
        if len(used) == len(options):
            used.clear()
        choice = self.choice([o for o in options if o not in used])
        used.add(choice)
        return choice


def jobs(workload: str, seed: int, indices: int):
    """The jobs of schedule indices 0 .. indices - 1, with pairwise
    distinct inputs."""
    make = WORKLOADS[workload].make
    rng = RunRandom(f"{workload}/{seed}")
    seen = set()
    for i in range(indices):
        for sub, config, args, truth, size in make(rng, i):
            job = Job(f"{i:05d}-{sub}-{len(seen)}", sub, config, args, truth, size)
            if job.identity() in seen:
                continue
            seen.add(job.identity())
            yield job
