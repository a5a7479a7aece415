"""Metric graphs: the ambient length space, points on it, curves, and the
intrinsic (shortest-path) metric.

Conventions used throughout the package:

* every edge carries an arc-length coordinate ``s`` in ``[0, L]`` measured
  from the edge's ``src`` endpoint;
* points with ``s == 0`` or ``s == L`` are canonicalized to ``Vertex`` so that
  point equality is decidable;
* a ``Germ`` is a direction of departure from a point — on a graph every way
  of approaching a point is eventually a walk along one incident edge germ,
  which is what makes one-sided directional calculus exact here.
"""
from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import InputError, UnreachableError


@dataclass(frozen=True)
class VertexRec:
    """Static vertex record: identifier plus the Dirichlet-boundary flag."""

    id: str
    boundary: bool = False


@dataclass(frozen=True)
class EdgeRec:
    """Static edge record. ``length`` is the arc length, strictly positive."""

    id: str
    src: str
    dst: str
    length: float


@dataclass(frozen=True)
class Vertex:
    """A point sitting exactly on a graph vertex."""

    id: str


@dataclass(frozen=True)
class EdgeInterior:
    """A point strictly inside an edge at arc-length offset ``s`` from ``src``."""

    edge: str
    s: float


GraphPoint = Union[Vertex, EdgeInterior]


@dataclass(frozen=True)
class Germ:
    """A departure direction: from offset ``base`` on ``edge``, offsets move in
    direction ``sign`` (+1 toward ``dst``, -1 toward ``src``)."""

    edge: str
    base: float
    sign: int


class MetricGraph:
    """A finite connected multigraph with positive edge lengths.

    Self-loops and parallel edges are permitted.  Immutable after
    construction; all validation (positive finite lengths, endpoint ids,
    connectivity) happens here so queries can assume a well-formed space.
    """

    def __init__(self, vertices: Iterable, edges: Iterable):
        self.vertices: Dict[str, VertexRec] = {}
        self.edges: Dict[str, EdgeRec] = {}
        for v in vertices:
            rec = v if isinstance(v, VertexRec) else VertexRec(*v)
            if rec.id in self.vertices:
                raise InputError("duplicate vertex id %r" % rec.id)
            self.vertices[rec.id] = rec
        if not self.vertices:
            raise InputError("graph needs at least one vertex")
        for e in edges:
            rec = e if isinstance(e, EdgeRec) else EdgeRec(*e)
            if rec.id in self.edges:
                raise InputError("duplicate edge id %r" % rec.id)
            if rec.src not in self.vertices:
                raise InputError("edge %r references unknown vertex %r" % (rec.id, rec.src))
            if rec.dst not in self.vertices:
                raise InputError("edge %r references unknown vertex %r" % (rec.id, rec.dst))
            if not (isinstance(rec.length, (int, float)) and math.isfinite(rec.length) and rec.length > 0):
                raise InputError("edge %r must have a positive finite length (got %r)" % (rec.id, rec.length))
            self.edges[rec.id] = EdgeRec(rec.id, rec.src, rec.dst, float(rec.length))

        # adjacency: vertex id -> [(edge id, end)] with end 0 = src side, 1 = dst side.
        # _nbrs holds the same incidences as (edge id, vertex at the far end) for
        # the kernel; a self-loop leads back to its own vertex.
        self._adj: Dict[str, List[Tuple[str, int]]] = {vid: [] for vid in self.vertices}
        self._nbrs: Dict[str, List[Tuple[str, str]]] = {vid: [] for vid in self.vertices}
        for rec in self.edges.values():
            self._adj[rec.src].append((rec.id, 0))
            self._adj[rec.dst].append((rec.id, 1))
            self._nbrs[rec.src].append((rec.id, rec.dst))
            self._nbrs[rec.dst].append((rec.id, rec.src))

        # point_cost's one-entry memo: (source, segcost, edge_weight) of the
        # last query and the map seeded there
        self._last_source: Optional[tuple] = None
        self._last_map: Optional[SeedMap] = None

        self._check_connected()

    def _check_connected(self):
        seen = set()
        start = next(iter(self.vertices))
        stack = [start]
        while stack:
            vid = stack.pop()
            if vid in seen:
                continue
            seen.add(vid)
            for eid, end in self._adj[vid]:
                rec = self.edges[eid]
                other = rec.dst if end == 0 else rec.src
                if other not in seen:
                    stack.append(other)
        if len(seen) != len(self.vertices):
            missing = sorted(set(self.vertices) - seen)
            raise InputError("graph is not connected; unreachable vertices: %s" % ", ".join(missing))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def boundary_ids(self) -> List[str]:
        return [vid for vid, rec in self.vertices.items() if rec.boundary]

    def edge(self, eid: str) -> EdgeRec:
        try:
            return self.edges[eid]
        except KeyError:
            raise InputError("unknown edge id %r" % eid) from None

    def adjacency(self, vid: str) -> List[Tuple[str, int]]:
        try:
            return self._adj[vid]
        except KeyError:
            raise InputError("unknown vertex id %r" % vid) from None

    def point(self, edge_id: str, s: float) -> GraphPoint:
        """Canonical point at offset ``s`` on ``edge_id`` (endpoints become Vertex)."""
        rec = self.edge(edge_id)
        if not (0.0 <= s <= rec.length):
            raise InputError("offset %r outside [0, %r] on edge %r" % (s, rec.length, edge_id))
        if s == 0.0:
            return Vertex(rec.src)
        if s == rec.length:
            return Vertex(rec.dst)
        return EdgeInterior(edge_id, float(s))

    def vertex_point(self, vid: str) -> Vertex:
        if vid not in self.vertices:
            raise InputError("unknown vertex id %r" % vid)
        return Vertex(vid)

    def is_boundary(self, p: GraphPoint) -> bool:
        return isinstance(p, Vertex) and self.vertices[p.id].boundary

    def validate_point(self, p: GraphPoint):
        if isinstance(p, Vertex):
            if p.id not in self.vertices:
                raise InputError("unknown vertex id %r" % p.id)
        elif isinstance(p, EdgeInterior):
            rec = self.edge(p.edge)
            if not (0.0 < p.s < rec.length):
                raise InputError("interior offset %r outside (0, %r) on edge %r" % (p.s, rec.length, p.edge))
        else:
            raise InputError("not a graph point: %r" % (p,))

    # ------------------------------------------------------------------
    # germs
    # ------------------------------------------------------------------

    def germs(self, p: GraphPoint) -> List[Germ]:
        """All departure directions from ``p``, one per incident edge end."""
        self.validate_point(p)
        if isinstance(p, EdgeInterior):
            return [Germ(p.edge, p.s, +1), Germ(p.edge, p.s, -1)]
        out = []
        for eid, end in self._adj[p.id]:
            rec = self.edges[eid]
            if end == 0:
                out.append(Germ(eid, 0.0, +1))
            else:
                out.append(Germ(eid, rec.length, -1))
        if not out:
            raise InputError("vertex %r is isolated; no direction to move in" % p.id)
        return out

    def germ_available(self, germ: Germ) -> float:
        rec = self.edge(germ.edge)
        return rec.length - germ.base if germ.sign > 0 else germ.base

    def germ_point(self, germ: Germ, t: float) -> GraphPoint:
        """The point at arc distance ``t`` along ``germ`` (t within the edge)."""
        if t < 0 or t > self.germ_available(germ) * (1 + 1e-15):
            raise InputError("walk of %r exceeds the germ's edge" % t)
        t = min(t, self.germ_available(germ))
        return self.point(germ.edge, germ.base + germ.sign * t)

    def half_min_incident(self, p: GraphPoint) -> float:
        """Half the shortest incident edge length; the default slope/DPP radius."""
        lengths = [self.edge(g.edge).length for g in self.germs(p)]
        return 0.5 * min(lengths)

    # ------------------------------------------------------------------
    # shortest-path kernel
    # ------------------------------------------------------------------

    def shortest_from_seeds(self, seeds: Dict[str, float],
                            edge_weight: Callable[[str], float]) -> Dict[str, float]:
        """Multi-seed Dijkstra over vertices.

        ``seeds`` maps vertex id -> initial cost; ``edge_weight`` gives the
        (nonnegative) traversal cost of a whole edge.  Ties are broken by
        (cost, vertex id), which makes relaxation order — and therefore any
        downstream report — deterministic.  An offer is pushed only when it
        strictly lowers the best cost known for its vertex; the entries that
        are left out could never be the first to settle it.
        """
        for vid in seeds:
            if vid not in self.vertices:
                raise InputError("seed at unknown vertex %r" % vid)
        if not seeds:
            raise InputError("empty seed set")
        done: Dict[str, float] = {}
        best = dict(seeds)
        heap = sorted((c, vid) for vid, c in seeds.items())
        nbrs = self._nbrs
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            cost, vid = pop(heap)
            if vid in done:
                continue
            done[vid] = cost
            for eid, other in nbrs[vid]:
                if other not in done:
                    c = cost + edge_weight(eid)
                    known = best.get(other)
                    if known is None or c < known:
                        best[other] = c
                        push(heap, (c, other))
        if len(done) != len(self.vertices):
            missing = sorted(set(self.vertices) - set(done))
            raise UnreachableError("vertices unreachable from seeds: %s" % ", ".join(missing))
        return done

    def point_cost(self, x: GraphPoint, y: GraphPoint,
                   segcost: Callable[[str, float, float], float],
                   edge_weight: Callable[[str], float]) -> float:
        """Generic shortest cost between two points for any additive edge cost.

        ``segcost(eid, s0, s1)`` must be the cost of the monotone within-edge
        segment; ``edge_weight(eid)`` the full-edge cost.  Used with unit
        costs this is the intrinsic metric, with cumulative-profile costs the
        optical length.

        The map of the last source is kept: a query with an equal ``x`` and
        equal cost callables reads it instead of running Dijkstra again, so a
        loop over targets from one source costs one run.  The graph is
        immutable, and the callables must be too (a bound method compares
        equal only to the same method of the same object).
        """
        self.validate_point(x)
        self.validate_point(y)
        source = (x, segcost, edge_weight)
        if source != self._last_source:
            self._last_map = SeedMap(self, {x: 0.0}, segcost, edge_weight)
            self._last_source = source
        return self._last_map._value(y)

    def _length(self, eid: str) -> float:
        return self.edges[eid].length

    def distance(self, x: GraphPoint, y: GraphPoint) -> float:
        """The intrinsic metric: length of a shortest path between x and y."""
        return self.point_cost(x, y, _unit_segment, self._length)


def _unit_segment(eid: str, s0: float, s1: float) -> float:
    """Unit-cost segcost: a within-edge segment costs its arc length."""
    return abs(s1 - s0)


class SeedMap:
    """u(p) = min over seeds q of (seed value + c(q, p)), with c the least
    cost of a path from q to p under an additive edge cost.

    ``segcost(eid, s0, s1)`` is the cost of the within-edge segment between
    offsets s0 and s1, ``edge_weight(eid)`` that of the whole edge.  A seed
    inside an edge is projected onto the edge's two ends, and one Dijkstra
    run gives ``vertex_values``.  On edge (a, b) of length L the map is the
    least of its branches: u(a) + c(0, s), u(b) + c(s, L), and for each seed
    at offset s0 inside that edge its value + c(s0, s).  Unit costs give the
    distance to the seeds, profile integrals the optical length.
    """

    def __init__(self, graph: MetricGraph, seeds: Dict[GraphPoint, float],
                 segcost: Callable[[str, float, float], float],
                 edge_weight: Callable[[str], float]):
        if not seeds:
            raise InputError("an optical map needs at least one seed")
        vseeds: Dict[str, float] = {}
        interior: Dict[str, List[Tuple[float, float]]] = {}
        for p, val in seeds.items():
            graph.validate_point(p)
            if isinstance(p, Vertex):
                ends = ((p.id, val),)
            else:
                rec = graph.edge(p.edge)
                ends = ((rec.src, val + segcost(p.edge, 0.0, p.s)),
                        (rec.dst, val + segcost(p.edge, p.s, rec.length)))
                interior.setdefault(p.edge, []).append((p.s, val))
            for vid, c in ends:
                if vid not in vseeds or c < vseeds[vid]:
                    vseeds[vid] = c
        self.graph = graph
        self._segcost = segcost
        self._interior_seeds = interior
        self.vertex_values: Dict[str, float] = graph.shortest_from_seeds(vseeds, edge_weight)

    def _branches(self, eid: str, s: float) -> Tuple[List[float], List[int]]:
        """The branch values at offset ``s`` on edge ``eid``, whose least is
        the map there, and the sign of each branch's slope in +s.  A seed's
        own branch has sign 0 at the seed, where both departures ascend."""
        rec = self.graph.edge(eid)
        segcost = self._segcost
        values = [self.vertex_values[rec.src] + segcost(eid, 0.0, s),
                  self.vertex_values[rec.dst] + segcost(eid, s, rec.length)]
        signs = [1, -1]
        for s0, val in self._interior_seeds.get(eid, ()):
            values.append(val + segcost(eid, min(s, s0), max(s, s0)))
            signs.append((s > s0) - (s < s0))
        return values, signs

    def _value(self, p: GraphPoint) -> float:
        """``evaluate`` at a point the caller has already validated."""
        if isinstance(p, Vertex):
            return self.vertex_values[p.id]
        return min(self._branches(p.edge, p.s)[0])

    def evaluate(self, p: GraphPoint) -> float:
        self.graph.validate_point(p)
        return self._value(p)

    __call__ = evaluate

    def germ_sign(self, germ: Germ) -> int:
        """-1 if the map descends along ``germ`` and +1 if it ascends: the
        steepest of the branches that are least at the germ's base (to a
        relative 1e-12)."""
        values, signs = self._branches(germ.edge, germ.base)
        m = min(values)
        tol = 1e-12 * (1.0 + abs(m))
        for v, sign in zip(values, signs):
            if v <= m + tol and germ.sign * sign < 0:
                return -1
        return 1


class DistanceField(SeedMap):
    """d(., x0): the unit-cost map seeded at x0, with the exact one-sided
    germ derivatives (+1 or -1) that distance-type test functions need."""

    def __init__(self, graph: MetricGraph, x0: GraphPoint):
        super().__init__(graph, {x0: 0.0}, _unit_segment, graph._length)

    def germ_derivative(self, p: GraphPoint, germ: Germ) -> float:
        return float(self.germ_sign(germ))


def _default_samples(graph: MetricGraph, n_per_edge: int = 3) -> List[GraphPoint]:
    """The interior vertices, then ``n_per_edge`` evenly spaced points inside
    each edge, in graph order."""
    pts: List[GraphPoint] = [Vertex(vid) for vid, rec in graph.vertices.items()
                             if not rec.boundary]
    for eid, rec in graph.edges.items():
        for k in range(1, n_per_edge + 1):
            pts.append(EdgeInterior(eid, rec.length * k / (n_per_edge + 1)))
    return pts


def _as_evaluator(u: Union[float, Callable[[GraphPoint], float]]) -> Callable[[GraphPoint], float]:
    """p -> u(p) for a number (a constant function), an object with
    ``evaluate``, or a plain callable."""
    if isinstance(u, (int, float)):
        c = float(u)
        return lambda p: c
    if hasattr(u, "evaluate"):
        return u.evaluate
    return u


class _Composed:
    """p -> outer(u(p)): a scalar map put outside a function on the graph.

    ``check(v, p)``, when given, vets each inner value before it is used.
    ``graph`` is copied from u when u has one.
    """

    def __init__(self, u, outer: Callable[[float], float],
                 chain: Callable[[float, float], float],
                 check: Optional[Callable[[float, GraphPoint], None]] = None):
        self._u = u
        self._inner = _as_evaluator(u)
        self._outer = outer
        self._chain = chain
        self._check = check
        g = getattr(u, "graph", None)
        if g is not None:
            self.graph = g

    def _inner_value(self, p: GraphPoint) -> float:
        v = self._inner(p)
        if self._check is not None:
            self._check(v, p)
        return v

    def evaluate(self, p: GraphPoint) -> float:
        return self._outer(self._inner_value(p))

    __call__ = evaluate


class _ComposedDiff(_Composed):
    """A composition whose inner function has one-sided germ derivatives:
    ∂(outer ∘ u) = chain(u(p), ∂u) germ-wise."""

    def germ_derivative(self, p: GraphPoint, germ: Germ) -> float:
        return self._chain(self._inner_value(p), self._u.germ_derivative(p, germ))


def _compose(u, outer: Callable[[float], float], chain: Callable[[float, float], float],
             check: Optional[Callable[[float, GraphPoint], None]] = None) -> _Composed:
    """outer ∘ u, with ``germ_derivative`` exactly when u has one, so a
    sampled slope falls back to evaluation for an evaluate-only u."""
    cls = _ComposedDiff if hasattr(u, "germ_derivative") else _Composed
    return cls(u, outer, chain, check)


# ----------------------------------------------------------------------
# curves
# ----------------------------------------------------------------------

def _point_offsets_on_edge(graph: MetricGraph, p: GraphPoint, eid: str) -> List[float]:
    rec = graph.edge(eid)
    if isinstance(p, EdgeInterior):
        return [p.s] if p.edge == eid else []
    out = []
    if rec.src == p.id:
        out.append(0.0)
    if rec.dst == p.id:
        out.append(rec.length)
    return out


def _resolve_step(graph: MetricGraph, p: GraphPoint, q: GraphPoint,
                  hint: Optional[str]) -> Tuple[str, float, float]:
    """Pick the (edge, s0, s1) realization of one polyline step."""
    if hint is not None:
        offs_p = _point_offsets_on_edge(graph, p, hint)
        offs_q = _point_offsets_on_edge(graph, q, hint)
        if not offs_p or not offs_q:
            raise InputError("curve step does not lie on the annotated edge %r" % hint)
        if p == q and isinstance(p, Vertex) and len(offs_p) == 2:
            # full traversal of a self-loop
            return hint, 0.0, graph.edge(hint).length
        s0 = min(offs_p, key=lambda s: min(abs(s - t) for t in offs_q))
        s1 = min(offs_q, key=lambda t: abs(t - s0))
        return hint, s0, s1
    candidates: List[Tuple[float, str, float, float]] = []
    edge_pool = set()
    for point in (p, q):
        if isinstance(point, EdgeInterior):
            edge_pool.add(point.edge)
        else:
            edge_pool.update(eid for eid, _ in graph.adjacency(point.id))
    for eid in sorted(edge_pool):
        for s0 in _point_offsets_on_edge(graph, p, eid):
            for s1 in _point_offsets_on_edge(graph, q, eid):
                candidates.append((abs(s1 - s0), eid, s0, s1))
    if not candidates:
        raise InputError("consecutive curve points %r and %r share no edge" % (p, q))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    return candidates[0][1], candidates[0][2], candidates[0][3]


class Curve:
    """A polyline path: an ordered sequence of points, consecutive points on a
    common edge.  ``edges`` may annotate each step explicitly, which is the
    only unambiguous way to traverse a specific parallel edge."""

    def __init__(self, graph: MetricGraph, points: Sequence[GraphPoint],
                 edges: Optional[Sequence[str]] = None):
        if len(points) < 2:
            raise InputError("a curve needs at least two points (got %d)" % len(points))
        for p in points:
            graph.validate_point(p)
        if edges is not None and len(edges) != len(points) - 1:
            raise InputError("curve edge annotations must have one entry per step")
        self.graph = graph
        self.points: Tuple[GraphPoint, ...] = tuple(points)
        segs: List[Tuple[str, float, float]] = []
        for i in range(len(points) - 1):
            hint = edges[i] if edges is not None else None
            segs.append(_resolve_step(graph, points[i], points[i + 1], hint))
        self.segments: Tuple[Tuple[str, float, float], ...] = tuple(segs)
        self._cum = [0.0]
        for _eid, s0, s1 in segs:
            self._cum.append(self._cum[-1] + abs(s1 - s0))

    @property
    def length(self) -> float:
        return self._cum[-1]

    def locate(self, t: float) -> Tuple[int, float]:
        """The segment k that holds curve time t (the later one at a
        breakpoint) and the edge offset of time t on it: the segment's end
        itself from its end time on, so the curve ends at its last point."""
        k = min(max(bisect.bisect_right(self._cum, t) - 1, 0), len(self.segments) - 1)
        _eid, s0, s1 = self.segments[k]
        if t >= self._cum[k + 1]:
            return k, s1
        step = t - self._cum[k]
        s = s0 + (step if s1 >= s0 else -step)
        return k, min(max(s, min(s0, s1)), max(s0, s1))

    def point_at(self, t: float) -> GraphPoint:
        """Arc-length parametrization: the point at curve time t in [0, length]."""
        if t < -1e-12 or t > self.length + 1e-12:
            raise InputError("curve time %r outside [0, %r]" % (t, self.length))
        k, s = self.locate(t)
        return self.graph.point(self.segments[k][0], s)

    def times(self) -> List[float]:
        """Curve times of the polyline breakpoints."""
        return list(self._cum)


def random_curve(graph: MetricGraph, rng: random.Random, steps: int = 6) -> Curve:
    """A random wandering polyline that avoids boundary vertices entirely, so
    it stays inside the open domain."""
    eids = sorted(graph.edges)
    for _attempt in range(64):
        eid = eids[rng.randrange(len(eids))]
        rec = graph.edges[eid]
        s = rng.uniform(0.2, 0.8) * rec.length
        pts: List[GraphPoint] = [EdgeInterior(eid, s)]
        hints: List[str] = []
        cur_eid, cur_s = eid, s
        for _ in range(steps):
            rec = graph.edges[cur_eid]
            go_up = rng.random() < 0.5
            if go_up:
                target_vid, vertex_s = rec.dst, rec.length
            else:
                target_vid, vertex_s = rec.src, 0.0
            if graph.vertices[target_vid].boundary:
                # stop short of the boundary vertex
                ns = cur_s + (vertex_s - cur_s) * rng.uniform(0.3, 0.9)
                if 0.0 < ns < rec.length and ns != cur_s:
                    pts.append(EdgeInterior(cur_eid, ns))
                    hints.append(cur_eid)
                    cur_s = ns
                continue
            if rng.random() < 0.35:
                # wander within the current edge
                ns = cur_s + (vertex_s - cur_s) * rng.uniform(0.2, 0.8)
                if 0.0 < ns < rec.length and ns != cur_s:
                    pts.append(EdgeInterior(cur_eid, ns))
                    hints.append(cur_eid)
                    cur_s = ns
                continue
            # pass through the vertex into a random incident edge
            pts.append(Vertex(target_vid))
            hints.append(cur_eid)
            nxt = graph.adjacency(target_vid)
            neid, nend = nxt[rng.randrange(len(nxt))]
            nrec = graph.edges[neid]
            base = 0.0 if nend == 0 else nrec.length
            direction = 1.0 if nend == 0 else -1.0
            ns = base + direction * rng.uniform(0.2, 0.8) * nrec.length
            pts.append(EdgeInterior(neid, ns))
            hints.append(neid)
            cur_eid, cur_s = neid, ns
        if len(pts) >= 2 and not any(graph.is_boundary(p) for p in pts):
            return Curve(graph, pts, hints)
    raise InputError("could not sample a curve avoiding the boundary; is every vertex a boundary vertex?")
