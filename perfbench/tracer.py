"""Per-layer spans and counters, recorded from outside the program.

The netwave modules import each other's functions by name, so each wrapper
replaces the name where its caller looks it up (``netwave.cli.run``, not
``netwave.simulate.run``).  A span aggregates call count, total CPU time and
self time (total minus the time of spans opened inside it); counters record
work that is too fine-grained for a span.  Nothing is recorded while
``recording`` is off, so the harness's own checks do not count.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute path, span name); a dotted attribute patches a method
TARGETS = (
    ("netwave.cli", "build_graph", "graph.build"),
    ("netwave.cli", "pi_tree_check", "graph.pi_tree_check"),
    ("netwave.cli", "run", "simulate.run"),
    ("netwave.simulate", "init_state", "simulate.init_state"),
    ("netwave.simulate", "step", "simulate.step"),
    ("netwave.cli", "find_eigenvalues", "spectral.find_eigenvalues"),
    ("netwave.spectral", "char_matrix", "spectral.char_matrix"),
    ("netwave.spectral", "newton_refine", "spectral.newton_refine"),
    ("netwave.cli", "sweep", "resolvent.sweep"),
    ("netwave.resolvent", "assemble_generator", "resolvent.assemble_generator"),
    ("netwave.resolvent", "resolvent_norm", "resolvent.resolvent_norm"),
    ("netwave.resolvent", "splu", "resolvent.splu"),
    ("netwave.cli", "chain_stable", "chaincrit.chain_stable"),
    ("netwave.cli", "dirichlet_convergents", "counterexample.dirichlet_convergents"),
    ("netwave.cli", "circuit_solve", "counterexample.circuit_solve"),
    ("netwave.cli", "star_probe", "counterexample.star_probe"),
    ("netwave.cli", "growth_law", "counterexample.growth_law"),
    ("netwave.cli", "asymptotic_defects", "counterexample.asymptotic_defects"),
    ("netwave.cli", "Emitter.csv", "cli.emit"),
    ("netwave.cli", "Emitter.json", "cli.emit"),
    ("netwave.cli", "Emitter.svg", "cli.emit"),
    ("netwave.cli", "Emitter.manifest", "cli.emit"),
)
COUNTED = (("netwave.graph", "MetricGraph.incident", "graph.incident"),)


def _owner(module: str, path: str):
    """(object holding the attribute, attribute name)."""
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        obj = getattr(obj, p)
    return obj, attr


class _CountingFactor:
    """An LU factor whose solves are counted."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, *args, **kwargs):
        self._counts["resolvent.solve"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> count, total, self
        self.counts = Counter()
        self.recording = False
        self._stack = []  # [name, child time] of the open spans
        self._saved = []

    # -- spans --------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.process_time() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dt
            agg = self.spans[name]
            agg[0] += 1
            agg[1] += dt
            agg[2] += dt - frame[1]

    def inside(self, name) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _observe(self, name, args, kwargs, result):
        """Counters that need a call's arguments or result."""
        c = self.counts
        if name == "simulate.step":
            c["simulate.dof_steps"] += args[0].layout.ndof
        elif name == "spectral.char_matrix":
            where = "newton" if self.inside("spectral.newton_refine") else "contour"
            c[f"spectral.char_matrix.{where}"] += 1
        elif name == "spectral.newton_refine":
            tol = args[2] if len(args) > 2 else kwargs.get("tol", 1e-9)
            c["spectral.newton_hits"] += result[1] <= tol
        elif name == "spectral.find_eigenvalues":
            c["spectral.roots"] += len(result.roots)
        elif name == "resolvent.assemble_generator":
            c["resolvent.dim"] += result.dim
        elif name == "resolvent.splu":
            return _CountingFactor(result, c)
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            result = self.span(name, fn, *args, **kwargs)
            return self._observe(name, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            if self.recording:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching -----------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for targets, wrap in ((TARGETS, self._wrap), (COUNTED, self._count)):
                for module, path, name in targets:
                    owner, attr = _owner(module, path)
                    original = owner.__dict__[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(name, original))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
