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

import math
import numbers
import sys
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
    "sqrt" (value = sqrt(frac), frac not the square of a rational) or
    "float" (value only).
    """

    value: float
    kind: str = "float"
    frac: Fraction | None = None

    @staticmethod
    def parse(spec) -> "Length":
        """A Length from a number or from "p/q", "pi", "pi*p/q" or
        "sqrt(p/q)"; booleans and values that are not finite are refused."""
        if isinstance(spec, Length):
            return spec
        if isinstance(spec, bool) or not isinstance(spec, (int, float, str)):
            raise GraphError(f"cannot parse length {spec!r}")
        text = spec.strip() if isinstance(spec, str) else None
        try:
            if text is None:
                length = Length(float(spec))
            elif text.startswith("pi*"):
                frac = Fraction(text[3:])
                length = Length(float(frac) * math.pi, "pi", frac)
            elif text == "pi":
                length = Length(math.pi, "pi", Fraction(1))
            elif text.startswith("sqrt(") and text.endswith(")"):
                frac = Fraction(text[5:-1])
                if frac < 0:
                    raise GraphError(f"negative radicand in {text!r}")
                root = Fraction(math.isqrt(frac.numerator), math.isqrt(frac.denominator))
                if root * root == frac:  # the square root of a square is rational
                    length = Length(float(root), "rational", root)
                else:
                    length = Length(math.sqrt(float(frac)), "sqrt", frac)
            else:
                frac = Fraction(text)
                length = Length(float(frac), "rational", frac)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise GraphError(f"cannot parse length {spec!r}: {exc}") from None
        if not math.isfinite(length.value):
            raise GraphError(f"length {spec!r} is not finite")
        return length

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
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_vindex", {v.id: v for v in self.vertices}
        )
        # hashed once: cached per-graph tables look the graph up on every call
        object.__setattr__(
            self, "_hash", hash((self.vertices, self.edges, self.variant))
        )

    def __hash__(self):
        return self._hash

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

    @property
    def damped_vertices(self) -> list[Vertex]:
        """The controlled leaves, and in the circuit variant the masses too."""
        kinds = ("controlled", "mass") if self.variant == "circuit" else ("controlled",)
        return [v for v in self.vertices if v.kind in kinds]

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

    for key in ("vertices", "edges"):
        if not isinstance(spec.get(key, []), list):
            raise GraphError(f"{key!r} must be a list")

    vertices = []
    seen = set()
    for vs in spec.get("vertices", []):
        vid = _field(vs, "id", "vertex", str)
        kind = _field(vs, "kind", f"vertex {vid!r}")
        if vid in seen:
            raise GraphError(f"duplicate vertex id {vid!r}")
        seen.add(vid)
        if kind not in VERTEX_KINDS:
            raise GraphError(f"unknown vertex kind {kind!r}")
        mass = vs.get("mass")
        if kind == "mass":
            mass = 1.0 if mass is None else mass
            if (isinstance(mass, bool) or not isinstance(mass, numbers.Real)
                    or not 0 < mass <= sys.float_info.max):
                raise GraphError(
                    f"vertex {vid!r}: mass must be a finite positive number, "
                    f"not {mass!r}")
            mass = float(mass)
        elif mass is not None:
            raise GraphError(f"vertex {vid!r}: only mass vertices carry a mass")
        vertices.append(Vertex(vid, kind, mass))

    edges = []
    eseen = set()
    for es in spec.get("edges", []):
        eid = _field(es, "id", "edge", str)
        if eid in eseen:
            raise GraphError(f"duplicate edge id {eid!r}")
        eseen.add(eid)
        tail, head = (_field(es, key, f"edge {eid!r}", str)
                      for key in ("tail", "head"))
        length = _field(es, "length", f"edge {eid!r}")
        if tail not in seen or head not in seen:
            raise GraphError(f"edge {eid!r}: unknown endpoint")
        length = Length.parse(length)
        if not length.value > 0:
            raise GraphError(f"edge {eid!r}: nonpositive length")
        edges.append(Edge(eid, tail, head, length))

    graph = MetricGraph(tuple(vertices), tuple(edges), variant)
    _validate(graph)
    return graph


def _field(spec, key: str, what: str, kind=object):
    """spec[key] of a vertex or edge description, or a GraphError naming it
    when it is missing or not an instance of kind."""
    try:
        value = spec[key]
    except (KeyError, TypeError):
        raise GraphError(f"{what} needs a {key!r} field") from None
    if not isinstance(value, kind):
        raise GraphError(f"{what}: {key!r} must be a {kind.__name__}, "
                         f"not {value!r}")
    return value


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


PI_TOL = 1e-9


def pi_tree_check(graph: MetricGraph):
    """Check that no edge away from the controlled leaves has length in pi*N.

    Returns (verdict, witnesses): verdict False iff some edge whose endpoints
    are both uncontrolled has dist(l_j, pi*N) <= PI_TOL * max(1, l_j);
    witnesses lists the offending edge ids.  Edges touching a controlled leaf
    are exempt.
    """
    if graph.variant != "tree":
        raise GraphError("pi-length predicate applies to the tree variant only")
    witnesses = []
    for e in graph.edges:
        if (
            graph.vertex(e.tail).kind == "controlled"
            or graph.vertex(e.head).kind == "controlled"
        ):
            continue
        if _near_pi_multiple(e.length):
            witnesses.append(e.id)
    return (not witnesses), witnesses


def _near_pi_multiple(length: Length) -> bool:
    if length.pi_multiple() is not None:
        return True
    if length.kind in ("pi", "rational"):
        # exact non-integer multiple of pi, or exact rational (pi irrational)
        return False
    m = round(length.value / math.pi)
    return m >= 1 and abs(length.value - m * math.pi) <= PI_TOL * max(1.0, length.value)


# -- convenience builders ---------------------------------------------------

def _path(variant: str, first: str, last: str, lengths, masses) -> MetricGraph:
    """The path first a1 -- a2 -- ... -- aN -- last a(N+1) of the given
    variant, with edge e_j = (a_j, a_(j+1)) and one mass per interior vertex."""
    lengths = [Length.parse(l) for l in lengths]
    n = len(lengths)
    if len(masses) != n - 1:
        raise GraphError("need one mass per interior vertex")
    vertices = [{"id": "a1", "kind": first}]
    for k, m in enumerate(masses, start=2):
        vertices.append({"id": f"a{k}", "kind": "mass", "mass": m})
    vertices.append({"id": f"a{n + 1}", "kind": last})
    edges = [
        {"id": f"e{j + 1}", "tail": f"a{j + 1}", "head": f"a{j + 2}", "length": l}
        for j, l in enumerate(lengths)
    ]
    return build_graph({"variant": variant, "vertices": vertices, "edges": edges})


def make_tree_chain(lengths, masses=None) -> MetricGraph:
    """Chain-shaped network: root -- a2 -- ... -- aN -- controlled leaf.

    Interior vertices carry unit masses unless given.
    """
    lengths = list(lengths)
    if masses is None:
        masses = [1.0] * (len(lengths) - 1)
    return _path("tree", "root", "controlled", lengths, masses)


def make_chain(lengths, masses) -> MetricGraph:
    """Feedback-at-the-near-end chain: controlled a1, masses m_2..m_N, fixed far end."""
    return _path("chain", "controlled", "fixed", lengths, masses)


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
