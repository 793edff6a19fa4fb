"""Metric-graph data model: vertices, edges with lengths, incidence bookkeeping.

A network is a graph whose edges are intervals [0, l_j] carrying a 1-d wave
field, coupled at the vertices.  Vertex kinds:

* ``root``       -- Dirichlet anchor (y = 0), degree 1,
* ``mass``       -- interior vertex carrying a point-mass oscillator,
* ``controlled`` -- leaf with absorbing feedback d*y_x = -y_t,
* ``fixed``      -- Dirichlet leaf (only in the star and chain variants).

Edges are always parametrized tail -> head with x in [0, l_j]; the incidence
entry d_kj is +1 if edge j ends at vertex k and -1 if it starts there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

VERTEX_KINDS = ("root", "mass", "controlled", "fixed")
VARIANTS = ("tree", "circuit", "star", "chain")


class GraphError(ValueError):
    """Invalid network description."""


@dataclass(frozen=True)
class Length:
    """Edge length with its exact provenance when known.

    kind is one of "rational" (value = frac), "pi" (value = frac * pi),
    "sqrt" (value = sqrt(frac)) or "float" (value only).
    """

    value: float
    kind: str = "float"
    frac: Fraction | None = None

    @staticmethod
    def parse(spec) -> "Length":
        if isinstance(spec, Length):
            return spec
        if isinstance(spec, (int, float)):
            return Length(float(spec))
        if not isinstance(spec, str):
            raise GraphError(f"cannot parse length {spec!r}")
        text = spec.strip()
        try:
            if text.startswith("pi*"):
                frac = Fraction(text[3:])
                return Length(float(frac) * math.pi, "pi", frac)
            if text == "pi":
                return Length(math.pi, "pi", Fraction(1))
            if text.startswith("sqrt(") and text.endswith(")"):
                frac = Fraction(text[5:-1])
                if frac < 0:
                    raise GraphError(f"negative radicand in {text!r}")
                return Length(math.sqrt(float(frac)), "sqrt", frac)
            frac = Fraction(text)
            return Length(float(frac), "rational", frac)
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphError(f"cannot parse length {spec!r}: {exc}") from None

    @property
    def is_rational(self) -> bool:
        """True when the length is an exactly known rational number."""
        return self.kind == "rational"

    def pi_multiple(self) -> int | None:
        """The integer m with value == m*pi, when exactly known."""
        if self.kind == "pi" and self.frac is not None and self.frac.denominator == 1:
            m = int(self.frac)
            return m if m >= 1 else None
        return None

    def mpf(self) -> mpmath.mpf:
        """High-precision value at the current mpmath working precision."""
        if self.kind == "pi":
            return mpmath.pi * mpmath.mpf(self.frac.numerator) / self.frac.denominator
        if self.kind == "sqrt":
            return mpmath.sqrt(
                mpmath.mpf(self.frac.numerator) / self.frac.denominator
            )
        if self.kind == "rational":
            return mpmath.mpf(self.frac.numerator) / self.frac.denominator
        return mpmath.mpf(self.value)


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: str
    mass: float | None = None


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    length: Length

    @property
    def ell(self) -> float:
        return self.length.value


@dataclass(frozen=True)
class MetricGraph:
    """Validated, immutable network: vertices, edges, variant and incidence."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    variant: str
    _vindex: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_vindex", {v.id: v for v in self.vertices}
        )

    def vertex(self, vid: str) -> Vertex:
        return self._vindex[vid]

    def incident(self, vid: str) -> list[tuple[Edge, int]]:
        """Edges meeting vertex vid with their incidence entry d_kj."""
        out = []
        for e in self.edges:
            if e.head == vid:
                out.append((e, +1))
            if e.tail == vid:
                out.append((e, -1))
        return out

    def degree(self, vid: str) -> int:
        return len(self.incident(vid))

    @property
    def mass_vertices(self) -> list[Vertex]:
        return [v for v in self.vertices if v.kind == "mass"]

    @property
    def controlled_vertices(self) -> list[Vertex]:
        return [v for v in self.vertices if v.kind == "controlled"]

    @property
    def dirichlet_vertices(self) -> list[Vertex]:
        return [v for v in self.vertices if v.kind in ("root", "fixed")]

    def total_length(self) -> float:
        return sum(e.ell for e in self.edges)


def build_graph(spec: dict) -> MetricGraph:
    """Validate a structured description and return a MetricGraph.

    spec keys: ``variant``, ``vertices`` (list of {id, kind, mass?}) and
    ``edges`` (list of {id, tail, head, length}).
    """
    variant = spec.get("variant", "tree")
    if variant not in VARIANTS:
        raise GraphError(f"unknown variant {variant!r}")

    vertices = []
    seen = set()
    for vs in spec.get("vertices", []):
        vid, kind = vs["id"], vs["kind"]
        if vid in seen:
            raise GraphError(f"duplicate vertex id {vid!r}")
        seen.add(vid)
        if kind not in VERTEX_KINDS:
            raise GraphError(f"unknown vertex kind {kind!r}")
        mass = vs.get("mass")
        if kind == "mass":
            mass = 1.0 if mass is None else float(mass)
            if not mass > 0:
                raise GraphError(f"vertex {vid!r}: mass must be positive")
        elif mass is not None:
            raise GraphError(f"vertex {vid!r}: only mass vertices carry a mass")
        vertices.append(Vertex(vid, kind, mass))

    edges = []
    eseen = set()
    for es in spec.get("edges", []):
        eid = es["id"]
        if eid in eseen:
            raise GraphError(f"duplicate edge id {eid!r}")
        eseen.add(eid)
        if es["tail"] not in seen or es["head"] not in seen:
            raise GraphError(f"edge {eid!r}: unknown endpoint")
        length = Length.parse(es["length"])
        if not length.value > 0:
            raise GraphError(f"edge {eid!r}: nonpositive length")
        edges.append(Edge(eid, es["tail"], es["head"], length))

    graph = MetricGraph(tuple(vertices), tuple(edges), variant)
    _validate(graph)
    return graph


def _validate(graph: MetricGraph):
    if not graph.edges:
        raise GraphError("graph has no edges")

    # connectivity
    adj: dict[str, set[str]] = {v.id: set() for v in graph.vertices}
    for e in graph.edges:
        adj[e.tail].add(e.head)
        adj[e.head].add(e.tail)
    start = graph.vertices[0].id
    reached = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    if reached != set(adj):
        raise GraphError("graph is disconnected")

    nv, ne = len(graph.vertices), len(graph.edges)
    if graph.variant == "circuit":
        if ne != nv:
            raise GraphError("circuit variant must contain exactly one cycle")
    else:
        if ne != nv - 1:
            raise GraphError(f"{graph.variant} variant must be acyclic")

    roots = [v for v in graph.vertices if v.kind == "root"]
    fixed = [v for v in graph.vertices if v.kind == "fixed"]
    if graph.variant in ("tree", "circuit"):
        if len(roots) != 1:
            raise GraphError("tree/circuit variant needs exactly one root")
        if fixed:
            raise GraphError("fixed leaves are only allowed in star/chain variants")
    elif graph.variant == "star":
        if roots:
            raise GraphError("star variant anchors through fixed leaves, not a root")
        if not fixed:
            raise GraphError("star variant needs at least one fixed leaf")
    else:  # chain
        if len(roots) + len(fixed) != 1:
            raise GraphError("chain variant needs exactly one Dirichlet end")

    # multiplicity rules: degree 1 <=> exterior
    for v in graph.vertices:
        deg = graph.degree(v.id)
        if v.kind in ("root", "controlled", "fixed"):
            if deg != 1:
                raise GraphError(f"exterior vertex {v.id!r} has multiplicity {deg}")
        else:
            if deg < 2:
                raise GraphError(
                    f"mass vertex {v.id!r} has multiplicity 1; should be exterior"
                )


def load_graph(path) -> MetricGraph:
    """Read a JSON network config file."""
    with open(path) as fh:
        return build_graph(json.load(fh))


PI_TOL = 1e-9


def pi_tree_check(graph: MetricGraph, tol: float = PI_TOL):
    """Check that no edge away from the controlled leaves has length in pi*N.

    Returns (verdict, witnesses): verdict False iff some edge whose endpoints
    are both uncontrolled has dist(l_j, pi*N) <= tol * max(1, l_j); witnesses
    lists the offending edge ids.  Edges touching a controlled leaf are exempt.
    """
    if graph.variant != "tree":
        raise GraphError("pi-length predicate applies to the tree variant only")
    if not tol > 0:
        raise GraphError("tol must be positive")
    witnesses = []
    for e in graph.edges:
        if (
            graph.vertex(e.tail).kind == "controlled"
            or graph.vertex(e.head).kind == "controlled"
        ):
            continue
        if _near_pi_multiple(e.length, tol):
            witnesses.append(e.id)
    return (not witnesses), witnesses


def _near_pi_multiple(length: Length, tol: float) -> bool:
    if length.pi_multiple() is not None:
        return True
    if length.kind in ("pi", "rational"):
        # exact non-integer multiple of pi, or exact rational (pi irrational)
        return False
    m = round(length.value / math.pi)
    return m >= 1 and abs(length.value - m * math.pi) <= tol * max(1.0, length.value)


# -- convenience builders ---------------------------------------------------

def make_tree_chain(lengths, masses=None, variant: str = "tree") -> MetricGraph:
    """Chain-shaped network: root -- a2 -- ... -- aN -- controlled leaf.

    Interior vertices carry unit masses unless given.
    """
    lengths = [Length.parse(l) for l in lengths]
    n = len(lengths)
    if masses is None:
        masses = [1.0] * (n - 1)
    if len(masses) != n - 1:
        raise GraphError("need one mass per interior vertex")
    vertices = [{"id": "a1", "kind": "root"}]
    for k, m in enumerate(masses, start=2):
        vertices.append({"id": f"a{k}", "kind": "mass", "mass": m})
    vertices.append({"id": f"a{n + 1}", "kind": "controlled"})
    edges = [
        {"id": f"e{j + 1}", "tail": f"a{j + 1}", "head": f"a{j + 2}", "length": l}
        for j, l in enumerate(lengths)
    ]
    return build_graph({"variant": variant, "vertices": vertices, "edges": edges})


def make_chain(lengths, masses) -> MetricGraph:
    """Feedback-at-the-near-end chain: controlled a1, masses m_2..m_N, fixed far end."""
    lengths = [Length.parse(l) for l in lengths]
    n = len(lengths)
    if len(masses) != n - 1:
        raise GraphError("need one mass per interior vertex")
    vertices = [{"id": "a1", "kind": "controlled"}]
    for k, m in enumerate(masses, start=2):
        vertices.append({"id": f"a{k}", "kind": "mass", "mass": m})
    vertices.append({"id": f"a{n + 1}", "kind": "fixed"})
    edges = [
        {"id": f"e{j + 1}", "tail": f"a{j + 1}", "head": f"a{j + 2}", "length": l}
        for j, l in enumerate(lengths)
    ]
    return build_graph({"variant": "chain", "vertices": vertices, "edges": edges})


def make_star(l1=1.0, l2=1.0, l3=1.0) -> MetricGraph:
    """Three-edge star: center mass, one controlled end, two fixed ends."""
    return build_graph(
        {
            "variant": "star",
            "vertices": [
                {"id": "c", "kind": "mass", "mass": 1.0},
                {"id": "s1", "kind": "controlled"},
                {"id": "s2", "kind": "fixed"},
                {"id": "s3", "kind": "fixed"},
            ],
            "edges": [
                {"id": "e1", "tail": "c", "head": "s1", "length": l1},
                {"id": "e2", "tail": "c", "head": "s2", "length": l2},
                {"id": "e3", "tail": "c", "head": "s3", "length": l3},
            ],
        }
    )


def make_circuit(l4) -> MetricGraph:
    """One-cycle network: root hanging off a triangle A-B-C with masses at all
    three corners; cycle edges have lengths 1, 1, l4 and feedback acts at every
    inner node (circuit variant vertex law)."""
    return build_graph(
        {
            "variant": "circuit",
            "vertices": [
                {"id": "r", "kind": "root"},
                {"id": "A", "kind": "mass", "mass": 1.0},
                {"id": "B", "kind": "mass", "mass": 1.0},
                {"id": "C", "kind": "mass", "mass": 1.0},
            ],
            "edges": [
                {"id": "e1", "tail": "A", "head": "r", "length": 1.0},
                {"id": "e2", "tail": "A", "head": "B", "length": 1.0},
                {"id": "e3", "tail": "A", "head": "C", "length": 1.0},
                {"id": "e4", "tail": "B", "head": "C", "length": l4},
            ],
        }
    )
