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
import functools
import heapq
import itertools
import math
import operator
import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InputError, RecordError, UnreachableError

#: branch values within BRANCH_TIE * (1 + |least|) of the least tie for it
BRANCH_TIE = 1e-12


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


class KnotBatch:
    """Points of ``graph`` taken together as the rows of one column, each row
    an (edge, offset) pair with the offset in [0, L].  An offset of 0 or L is
    the vertex at that end, as ``MetricGraph.point`` has it.  A Hamiltonian's
    ``fn`` broadcasts over a batch as it does over ``p``; ``SeedMap.evaluate``
    and ``germ_derivative``, ``CostField.edge_cost`` and ``value_at`` take one
    in place of a point and make one array pass over its rows, equal row by
    row to the scalar call.  Each refuses a batch built on another graph
    object, whose rows index that object's edges.

    ``KnotBatch(graph, runs)`` takes (edge id, offsets) pairs, each a run of
    consecutive rows on one edge: a whole edge's knots run from 0 to its
    length, so that its first and last knots are its two vertices.
    ``KnotBatch.of`` takes graph points.  ``edges`` (each row's edge as its
    index in graph order) and ``offsets`` are this batch's rows as arrays.
    ``batch[rows]`` is the sub-batch of the given rows of the whole batch (an
    integer array); ``points`` and ``point`` read the whole batch.  A column
    computed through ``column`` is computed once for the whole batch and
    shared with every sub-batch."""

    def __init__(self, graph: MetricGraph, runs: Sequence[Tuple[str, np.ndarray]]):
        index = graph._edge_order[1]
        self._setup(graph, np.repeat(np.array([index[eid] for eid, _ in runs], dtype=np.intp),
                                     [len(s) for _, s in runs]),
                    np.concatenate([np.empty(0)] + [s for _, s in runs]))

    @classmethod
    def of(cls, graph: MetricGraph, points: Iterable[GraphPoint]) -> KnotBatch:
        """The batch of ``points``, each checked by ``validate_point`` in
        order; a vertex is the row at its end of its first incident edge."""
        index, edges, adj = graph._edge_order[1], graph.edges, graph._adj
        rows, offsets = [], []
        for p in points:
            graph.validate_point(p)
            if isinstance(p, Vertex):
                eid, end = adj[p.id][0]
                rows.append(index[eid])
                offsets.append(edges[eid].length if end else 0.0)
            else:
                rows.append(index[p.edge])
                offsets.append(p.s)
        return cls._of_rows(graph, np.array(rows, dtype=np.intp), np.array(offsets, dtype=float))

    @classmethod
    def _of_rows(cls, graph: MetricGraph, edges: np.ndarray, offsets: np.ndarray) -> KnotBatch:
        """The batch of rows (edges[i], offsets[i]), each offset within its edge."""
        batch = cls.__new__(cls)
        batch._setup(graph, edges, offsets)
        return batch

    def _setup(self, graph: MetricGraph, edges: np.ndarray, offsets: np.ndarray):
        self.graph = graph
        self._edges = edges
        self._offsets = offsets
        self.rows: Optional[np.ndarray] = None
        self._memo: dict = {}
        self._germs: Optional[Tuple[np.ndarray, KnotBatch, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self._edges) if self.rows is None else len(self.rows)

    def __getitem__(self, rows: np.ndarray) -> KnotBatch:
        sub = KnotBatch._of_rows(self.graph, self._edges, self._offsets)
        sub.rows, sub._memo = rows, self._memo
        return sub

    @property
    def edges(self) -> np.ndarray:
        return self._edges if self.rows is None else self._edges[self.rows]

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets if self.rows is None else self._offsets[self.rows]

    def column(self, key: Hashable, compute: Callable[[KnotBatch], np.ndarray]) -> np.ndarray:
        """``compute`` of the whole batch, an (n, 1) column kept under
        ``key``: this batch's rows of it."""
        col = self._memo.get(key)
        if col is None:
            whole = self if self.rows is None else KnotBatch._of_rows(self.graph, self._edges,
                                                                      self._offsets)
            col = self._memo[key] = compute(whole)
        return col if self.rows is None else col[self.rows]

    def _on(self, graph: MetricGraph) -> KnotBatch:
        """This batch, refused unless it was built on ``graph`` itself: its
        rows index their edges in that object's order."""
        if self.graph is not graph:
            raise InputError("a KnotBatch is read only on the graph object it was built on")
        return self

    def vertices(self) -> np.ndarray:
        """Each row's vertex as its index in graph order, or -1 for a row
        inside its edge."""
        e, s = self.edges, self.offsets
        src, dst = self.graph._incidence[:2]
        return np.where(s == 0.0, src[e], np.where(s == self.graph._edge_order[2][e], dst[e], -1))

    def germs(self, vertex: Optional[np.ndarray] = None) -> Tuple[np.ndarray, KnotBatch, np.ndarray]:
        """Every departure from every row, row by row in ``MetricGraph.germs``
        order (a vertex's in ``adjacency`` order, an interior row's +1
        first): the row each leaves, the batch of their bases on their own
        edges, and their signs as +1.0 or -1.0.  Computed once per batch.
        ``vertex``, when given, is this batch's ``vertices()``, which the
        caller already holds."""
        if self._germs is None:
            start, adj_edge, adj_end = self.graph._incidence[3:]
            e, s = self.edges, self.offsets
            vertex = self.vertices() if vertex is None else vertex
            at_vertex = vertex >= 0
            n = np.where(at_vertex, start[vertex + 1] - start[vertex], 2)
            owner = np.arange(len(e)).repeat(n)
            rank = np.arange(len(owner)) - (n.cumsum() - n).repeat(n)
            from_vertex = at_vertex[owner]
            slot = np.where(from_vertex, start[vertex[owner]] + rank, 0)
            edge = np.where(from_vertex, adj_edge[slot], e[owner])
            forward = np.where(from_vertex, adj_end[slot] == 0, rank == 0)
            base = np.where(from_vertex, np.where(forward, 0.0, self.graph._edge_order[2][edge]),
                            s[owner])
            self._germs = (owner, KnotBatch._of_rows(self.graph, edge, base),
                           np.where(forward, 1.0, -1.0))
        return self._germs

    def points(self) -> List[GraphPoint]:
        """Every row of the whole batch as a graph point, in order."""
        ids, point = self.graph._edge_order[0], self.graph.point
        return [point(ids[e], s) for e, s in zip(self._edges.tolist(), self._offsets.tolist())]

    def point(self, i: int) -> GraphPoint:
        """Row ``i`` of the whole batch as a graph point."""
        return self.graph.point(self.graph._edge_order[0][self._edges[i]], float(self._offsets[i]))


@dataclass(frozen=True)
class Germ:
    """A departure direction: from offset ``base`` on ``edge``, offsets move in
    direction ``sign`` (+1 toward ``dst``, -1 toward ``src``)."""

    edge: str
    base: float
    sign: int


@dataclass(frozen=True)
class Constant:
    """f(s) = value on the whole edge."""

    value: float

    def check(self, length: float, fmin: float) -> "Constant":
        prof = self if type(self.value) is float else Constant(
            *_reals((self.value,), "constant profile value"))
        if not prof.value < math.inf:
            raise InputError("constant profile value %r is not finite" % (prof.value,))
        if prof.value < fmin:
            raise InputError("constant profile value %r below floor %r" % (prof.value, fmin))
        return prof

    def at(self, s: float) -> float:
        return self.value

    def integral(self, s0: float, s1: float) -> float:
        return self.value * (s1 - s0)

    # at and integral are one expression on floats or arrays, the value included (see _Rates)
    PARAMS = ("value",)

    def inverse_integral(self, target: float) -> float:
        """Smallest t >= 0 with ∫_0^t f = target (may exceed the edge)."""
        return target / self.value

    def bounds(self, length: float) -> Tuple[float, float]:
        return self.value, self.value


def _finite(x) -> bool:
    """Whether ``x`` is a finite real number, Python's or a numpy int, not a bool."""
    return (isinstance(x, (int, float, np.integer)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _reals(xs, what: str) -> Tuple[float, ...]:
    """``xs`` as floats, each finite by ``_finite``'s rule or a float, else InputError naming
    ``what``; one pass over the types suffices when all are exact ints and floats, and
    exact floats are kept as they are."""
    try:
        kinds = set(map(type, xs))
        if kinds <= {float}:
            return tuple(xs)
        if kinds <= {int, float}:
            return tuple(map(float, xs))
    except TypeError:
        raise InputError("%ss must be an array of numbers (got %r)" % (what, xs)) from None
    except OverflowError:
        pass  # an int past the float range, which the per-entry test names
    for x in xs:
        if not (_finite(x) or isinstance(x, float)):
            if type(x) is not int:
                raise InputError("%s %r is not a number" % (what, x))
            # an int past the float range is named by its length, not by its digits
            digits = int(abs(x).bit_length() * math.log10(2)) + 1  # exact, or one more
            raise InputError("%s (an int of %d digits) is not a number"
                             % (what, digits - (abs(x) < 10 ** (digits - 1))))
    return tuple(map(float, xs))


def _floats(xs) -> bool:
    """Whether ``xs`` is a list or tuple of Python floats, which ``_reals``
    keeps as they are, so that ``np.array`` of such lists is their table
    under ``_reals``' rule.  The types are counted in one pass in C:
    ``np.array`` turns True, numpy's float32 and a 0-d array into float64
    among floats, so no test on the table's values could see them."""
    return type(xs) in (list, tuple) and list(map(type, xs)).count(float) == len(xs)


def _count(n, least: int, what: str) -> int:
    """``n`` as an int if it is one, Python or numpy but not a bool, >= ``least``; else InputError."""
    try:
        if not isinstance(n, bool) and operator.index(n) >= least:
            return operator.index(n)
    except TypeError:
        pass
    raise InputError("%s must be an int >= %d (got %r)" % (what, least, n))


def _tolerance(tol) -> float:
    """``tol`` as a float if finite and >= 0: a NaN or negative one fails every check, inf passes all."""
    if not (_finite(tol) and tol >= 0):
        raise InputError("tolerance must be a nonnegative finite number (got %r)" % (tol,))
    return float(tol)


def _settle(seeds: Dict[Hashable, float], relax: Callable) -> Dict[Hashable, float]:
    """The package's one label-setting loop (Dijkstra): the settled cost of
    each node reached from ``seeds`` (node -> cost), in settling order,
    cheapest first with ties broken by (cost, node).  ``relax(node, cost,
    settled)`` gives a settling node's (neighbour, offered cost) pairs; an
    offer is pushed only when it strictly lowers its node's best known cost,
    for no other offer could settle it first."""
    done: Dict[Hashable, float] = {}
    best = dict(seeds)
    heap = sorted((c, node) for node, c in seeds.items())
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        cost, node = pop(heap)
        if node in done:
            continue
        done[node] = cost
        for other, c in relax(node, cost, done):
            known = best.get(other)
            if known is None or c < known:
                best[other] = c
                push(heap, (c, other))
    return done


class MetricGraph:
    """A finite connected multigraph with positive edge lengths.

    Self-loops and parallel edges are permitted.  Immutable after
    construction; all validation (record shapes, unique string ids, bool
    boundary flags, known ends, finite real lengths > 0, connectivity)
    happens here.  A vertex is a ``VertexRec`` or an (id,) or (id, boundary)
    tuple, an edge an ``EdgeRec`` or an (id, src, dst, length) tuple.  A
    refusal of one record is a ``RecordError``, which ``io.load_graph`` puts
    at its line; a record of the wrong shape, or with an id that is not a
    string, has no line to put it at and is an ``InputError``.
    """

    def __init__(self, vertices: Iterable, edges: Iterable):
        self.vertices: Dict[str, VertexRec] = {}
        self.edges: Dict[str, EdgeRec] = {}
        for v in vertices:
            try:
                rec = v if isinstance(v, VertexRec) else VertexRec(*v)
            except TypeError:
                raise InputError("a vertex must be an (id, boundary) pair or a VertexRec (got %r)"
                                 % (v,)) from None
            if not isinstance(rec.id, str):
                raise InputError("vertex id %r is not a string" % (rec.id,))
            if rec.id in self.vertices:
                raise RecordError("duplicate vertex id %r" % rec.id, "vertex", rec.id)
            if not isinstance(rec.boundary, bool):
                raise RecordError("vertex %r: 'boundary' must be true/false" % rec.id, "vertex", rec.id)
            self.vertices[rec.id] = rec
        if not self.vertices:
            raise InputError("graph needs at least one vertex")
        # adjacency: vertex id -> [(edge id, end)] with end 0 = src side, 1 = dst side.
        # _nbrs holds the same incidences as (edge id, vertex at the far end) for
        # the kernel; a self-loop leads back to its own vertex.
        adj: Dict[str, List[Tuple[str, int]]] = {vid: [] for vid in self.vertices}
        nbrs: Dict[str, List[Tuple[str, str]]] = {vid: [] for vid in self.vertices}
        for e in edges:
            try:
                eid, src, dst, length = (e.id, e.src, e.dst, e.length) if isinstance(e, EdgeRec) else e
            except (TypeError, ValueError):
                raise InputError("an edge must be an (id, src, dst, length) tuple or an EdgeRec "
                                 "(got %r)" % (e,)) from None
            if not isinstance(eid, str):
                raise InputError("edge id %r is not a string" % (eid,))
            if eid in self.edges:
                raise RecordError("duplicate edge id %r" % eid, "edge", eid)
            for end in (src, dst):
                if not isinstance(end, str) or end not in self.vertices:
                    raise RecordError("edge %r references unknown vertex %r" % (eid, end), "edge", eid)
            if not (_finite(length) and length > 0):
                raise RecordError("edge %r must have a positive finite length (got %r)" % (eid, length),
                                  "edge", eid)
            # the one record of the edge, its length made a float
            self.edges[eid] = EdgeRec(eid, src, dst, float(length))
            adj[src].append((eid, 0))
            adj[dst].append((eid, 1))
            nbrs[src].append((eid, dst))
            nbrs[dst].append((eid, src))
        if not self.edges:
            raise InputError("graph needs at least one edge")
        self._adj = adj
        self._nbrs = nbrs
        # the profile table of the intrinsic metric: rate 1 on every edge
        self.unit_profiles = dict.fromkeys(self.edges, Constant(1.0))

        # point_cost's one-entry memo: the source of the last query and the
        # map seeded there; and _rates', the last profile table read
        self._last_source: Optional[GraphPoint] = None
        self._last_map: Optional[SeedMap] = None
        self._last_rates: Optional[Tuple[Dict[str, "Profile"], _Rates]] = None

        self._check_connected()

    def _check_connected(self):
        seen = _settle({next(iter(self.vertices)): 0.0}, self._relax(lambda eid: 0.0))
        if len(seen) != len(self.vertices):
            missing = sorted(set(self.vertices) - set(seen))
            raise InputError("graph is not connected; unreachable vertices: %s" % ", ".join(missing))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @functools.cached_property
    def _edge_order(self) -> Tuple[List[str], Dict[str, int], np.ndarray]:
        """The edges in graph order, as batches index them: their ids, each
        id's index, and their lengths as an array."""
        ids = list(self.edges)
        return (ids, {eid: i for i, eid in enumerate(ids)},
                np.array([rec.length for rec in self.edges.values()]))

    @functools.cached_property
    def _incidence(self) -> Tuple[np.ndarray, ...]:
        """Vertices and germs as arrays over the graph order, for batches:
        each edge's src and dst as vertex indices, each vertex's boundary
        flag, and its departures in ``adjacency`` order, as the start of
        each vertex's run and the edge index and end (0 src, 1 dst) of each:
        the edges' ends, src before dst, stably sorted by vertex."""
        vindex = {vid: i for i, vid in enumerate(self.vertices)}
        ends = np.array([vindex[v] for rec in self.edges.values() for v in (rec.src, rec.dst)])
        order = ends.argsort(kind="stable")
        return (ends[0::2], ends[1::2], np.array([rec.boundary for rec in self.vertices.values()]),
                ends[order].searchsorted(np.arange(len(vindex) + 1)), order >> 1, order & 1)

    @functools.cached_property
    def _sorted_ids(self) -> List[str]:
        """The edge ids sorted, the order ``random_curve`` draws its first edge in."""
        return sorted(self.edges)

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
        """Canonical point at real offset ``s`` in [0, L] on ``edge_id`` (endpoints become Vertex)."""
        rec = self.edge(edge_id)
        if type(s) is not float:  # one test on the hot path, where s is a float
            (s,) = _reals((s,), "edge %r: offset" % (edge_id,))
        if not (0.0 <= s <= rec.length):
            raise InputError("offset %r outside [0, %r] on edge %r" % (s, rec.length, edge_id))
        if s == 0.0:
            return Vertex(rec.src)
        if s == rec.length:
            return Vertex(rec.dst)
        return EdgeInterior(edge_id, s)

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
        """Multi-seed Dijkstra over vertices by ``_settle``: ``seeds`` maps
        vertex id -> cost, ``edge_weight`` gives a whole edge's cost (>= 0)."""
        for vid in seeds:
            if vid not in self.vertices:
                raise InputError("seed at unknown vertex %r" % vid)
        if not seeds:
            raise InputError("empty seed set")
        done = _settle(seeds, self._relax(edge_weight))
        if len(done) != len(self.vertices):
            missing = sorted(set(self.vertices) - set(done))
            raise UnreachableError("vertices unreachable from seeds: %s" % ", ".join(missing))
        return done

    def _relax(self, edge_weight: Callable[[str], float]) -> Callable:
        """``_settle``'s relax over vertices: a settling vertex offers each
        unsettled neighbour its cost plus the weight of the joining edge."""
        nbrs = self._nbrs

        def relax(vid: str, cost: float, settled) -> Iterator[Tuple[str, float]]:
            for eid, other in nbrs[vid]:
                if other not in settled:
                    yield other, cost + edge_weight(eid)

        return relax

    def point_cost(self, x: GraphPoint, y: GraphPoint, profiles: Dict[str, "Profile"]) -> float:
        """The least cost of a path between two points when each edge runs
        at the rate of its profile in ``profiles``: with the unit table the
        intrinsic metric, with a cost field's the optical length.

        The map of the last source is kept: a query from an equal ``x`` over
        the same table (the same object) reads it instead of running
        Dijkstra again, so a loop over targets from one source costs one
        run.  The graph is immutable, and the table must be too.
        """
        self.validate_point(x)
        self.validate_point(y)
        last = self._last_map
        if last is None or last.profiles is not profiles or x != self._last_source:
            self._last_map = last = SeedMap(self, {x: 0.0}, profiles)
            self._last_source = x
        return last._value(y)

    def distance(self, x: GraphPoint, y: GraphPoint) -> float:
        """The intrinsic metric: length of a shortest path between x and y."""
        return self.point_cost(x, y, self.unit_profiles)

    def _rates(self, profiles: Dict[str, "Profile"]) -> _Rates:
        """``profiles`` read at batch rows, kept for the last table asked for
        (which must be immutable, as the graph is): a field and its maps share it."""
        if self._last_rates is None or self._last_rates[0] is not profiles:
            self._last_rates = profiles, _Rates(self, profiles)
        return self._last_rates[1]


class _Rates:
    """A profile table (edge id -> profile) read at a batch's rows, bit for
    bit as each row's profile's ``at`` and ``integral``: the one reader of
    profiles at batch rows.  The rows of a class that names its parameters
    in ``PARAMS`` make one profile of that class whose parameters are
    arrays gathered by edge, read by its own ``at`` and ``integral``.  Any
    other profile (``Samples``) is a row of a table (its ``_table``), and
    each table's rows are read together by its class's ``_table_at`` and
    ``_table_integral``, which search their segments in lockstep."""

    def __init__(self, graph: MetricGraph, profiles: Dict[str, "Profile"]):
        profs = list(map(profiles.__getitem__, graph._edge_order[0]))
        classes, n = list(map(type, profs)), len(profs)
        self._parts: List[Tuple[type, Sequence[np.ndarray]]] = []
        self._kind, self._row = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
        # the edges of each class are read in passes over their profiles
        for cls in dict.fromkeys(classes):
            on = np.flatnonzero(np.fromiter(map(operator.is_, classes, itertools.repeat(cls)), bool, n))
            mine = list(map(profs.__getitem__, on.tolist()))
            if hasattr(cls, "PARAMS"):
                self._kind[on] = len(self._parts)
                columns = [np.zeros(n) for _ in cls.PARAMS]
                for column, name in zip(columns, cls.PARAMS):
                    column[on] = np.fromiter(map(operator.attrgetter(name), mine), float, len(mine))
                self._parts.append((cls, columns))
                continue
            key = np.fromiter(map(id, map(operator.attrgetter("_table"), mine)), np.uintp, len(mine))
            if (key == id(None)).any():  # an unchecked profile builds its table of one row
                key = np.fromiter((id(p._rows() and p._table) for p in mine), np.uintp, len(mine))
            kind = np.empty(len(mine), dtype=np.intp)
            for first in np.sort(np.unique(key, return_index=True)[1]).tolist():
                kind[key == key[first]] = len(self._parts)
                self._parts.append((cls, mine[first]._table))
            self._kind[on] = kind
            self._row[on] = np.fromiter(map(operator.attrgetter("_row"), mine), np.intp, len(mine))

    def _read(self, edges: np.ndarray, method: Callable, table_method: Callable,
              *offsets: np.ndarray) -> np.ndarray:
        """``method(profile)`` or, for a table's rows, ``table_method(cls)`` at each row."""
        out = np.empty(len(edges))
        kind = self._kind[edges]
        for k, (cls, data) in enumerate(self._parts):
            rows = np.flatnonzero(kind == k) if len(self._parts) > 1 else slice(None)
            e, part = edges[rows], [s[rows] for s in offsets]
            if hasattr(cls, "PARAMS"):
                out[rows] = method(cls(*(p[e] for p in data)))(*part)
            elif len(e):
                out[rows] = table_method(cls)(data, self._row[e], *part)
        return out

    def at(self, edges: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self._read(edges, lambda prof: prof.at, lambda cls: cls._table_at, s)

    def at_rows(self, X: KnotBatch) -> np.ndarray:
        """``at`` at every row of ``X``, kept on it for this table unless it is a sub-batch."""
        memo = X._memo if X.rows is None else {}
        if self not in memo:
            memo[self] = self.at(X.edges, X.offsets)
        return memo[self]

    def integral(self, edges: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
        return self._read(edges, lambda prof: prof.integral, lambda cls: cls._table_integral, s0, s1)


class SeedMap:
    """u(p) = min over seeds q of (seed value + c(q, p)), with c the least
    cost of a path from q to p when each edge runs at the rate of its
    profile.

    ``profiles`` maps every edge id to a profile (a ``cost.Profile``): the
    cost of the within-edge segment between offsets s0 <= s1 on an edge is
    ``integral(s0, s1)``, and the rate at offset s is ``at(s)``.  A seed
    inside an edge is projected onto the edge's two ends, and one Dijkstra
    run gives ``vertex_values``.  On edge (a, b) of length L the map is the
    least of its branches: u(a) + c(0, s), u(b) + c(s, L), and for each
    seed at offset s0 inside that edge its value + c(s0, s).  The graph's unit table gives the distance to the
    seeds, a cost field's table the optical map, a constant rate C a cone.
    """

    def __init__(self, graph: MetricGraph, seeds: Dict[GraphPoint, float],
                 profiles: Dict[str, "Profile"]):
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
                integral = profiles[p.edge].integral
                ends = ((rec.src, val + integral(0.0, p.s)),
                        (rec.dst, val + integral(p.s, rec.length)))
                interior.setdefault(p.edge, []).append((p.s, val))
            for vid, c in ends:
                if vid not in vseeds or c < vseeds[vid]:
                    vseeds[vid] = c
        self.graph = graph
        self.profiles = profiles
        self._interior_seeds = interior
        edges = graph.edges
        self.vertex_values: Dict[str, float] = graph.shortest_from_seeds(
            vseeds, lambda eid: profiles[eid].integral(0.0, edges[eid].length))

    def _value(self, p: GraphPoint) -> float:
        """``evaluate`` at a point the caller has already validated: the
        least of ``_branches``' values, folded as each is made (the first
        least one wins, as with ``min``)."""
        if isinstance(p, Vertex):
            return self.vertex_values[p.id]
        eid, s = p.edge, p.s
        rec = self.graph.edges[eid]
        integral = self.profiles[eid].integral
        best = self.vertex_values[rec.src] + integral(0.0, s)
        v = self.vertex_values[rec.dst] + integral(s, rec.length)
        if v < best:
            best = v
        for s0, val in self._interior_seeds.get(eid, ()):
            v = val + integral(min(s, s0), max(s, s0))
            if v < best:
                best = v
        return best

    @functools.cached_property
    def _along_edges(self) -> Tuple[np.ndarray, np.ndarray, _Rates]:
        """u at each edge's src and at its dst, in graph order, and the
        profile table read at batch rows."""
        vv, recs = self.vertex_values, self.graph.edges.values()
        return (np.array([vv[rec.src] for rec in recs]), np.array([vv[rec.dst] for rec in recs]),
                self.graph._rates(self.profiles))

    def _branches(self, X: KnotBatch) -> Tuple[np.ndarray, list]:
        """The least branch at each row of ``X``, folded as ``_value`` folds,
        and the branches as (rows, values, slope sign in +s): u(src) + F(0, s)
        rising and u(dst) + F(s, L) falling, in one ``integral`` pass, then
        each interior seed's, of sign 0 at the seed.  Kept on ``X`` for this
        map unless it is a sub-batch."""
        memo = X._memo if X.rows is None else {}
        if self not in memo:
            e, s = X.edges, X.offsets
            index, lengths = self.graph._edge_order[1:]
            at_src, at_dst, rates = self._along_edges
            n, every = len(s), slice(None)
            cost = rates.integral(np.concatenate((e, e)), np.concatenate((np.zeros(n), s)),
                                  np.concatenate((s, lengths[e])))
            branches = [(every, at_src[e] + cost[:n], 1.0), (every, at_dst[e] + cost[n:], -1.0)]
            for eid, seeds in self._interior_seeds.items():
                rows = np.flatnonzero(e == index[eid])
                t, on = s[rows], e[rows]
                branches += [(rows, val + rates.integral(on, np.minimum(t, s0), np.maximum(t, s0)),
                              np.sign(t - s0)) for s0, val in seeds]
            (_, least, _), (_, v, _) = branches[:2]
            least = np.where(v < least, v, least)
            for rows, v, _ in branches[2:]:
                least[rows] = np.where(v < least[rows], v, least[rows])
            memo[self] = least, branches
        return memo[self]

    def _values(self, X: KnotBatch) -> np.ndarray:
        """``_value`` at every row of ``X``, bit for bit: the least of its
        ``_branches``, and at an end of its edge that vertex's own value."""
        e, s = X.edges, X.offsets
        at_src, at_dst, _ = self._along_edges
        return np.where(s == 0.0, at_src[e], np.where(s == self.graph._edge_order[2][e], at_dst[e],
                                                      self._branches(X)[0]))

    def evaluate(self, p: Union[GraphPoint, KnotBatch]) -> Union[float, np.ndarray]:
        """u at a point; at a ``KnotBatch``, u at each of its rows as an
        array, computed in one array pass and equal to the point's value
        bit for bit."""
        if isinstance(p, KnotBatch):
            return self._values(p._on(self.graph))
        self.graph.validate_point(p)
        return self._value(p)

    __call__ = evaluate

    def germ_derivative(self, p: Union[GraphPoint, KnotBatch],
                        germ: Union[Germ, np.ndarray]) -> Union[float, np.ndarray]:
        """Exact one-sided derivative of u along ``germ`` at its base point:
        the rate there, negative when a branch least at the base (to a
        relative BRANCH_TIE) falls along the germ.  At a ``KnotBatch`` of
        bases with an array of signs, as ``KnotBatch.germs`` gives them, an
        array of the scalar calls' values from one ``_branches`` pass."""
        if not isinstance(p, KnotBatch):
            self.graph.edge(germ.edge)  # refuses an unknown edge
            G = KnotBatch._of_rows(self.graph, np.array([self.graph._edge_order[1][germ.edge]]),
                                   np.array([germ.base], dtype=float))
            return float(self.germ_derivative(G, np.array([germ.sign], dtype=float))[0])
        least, branches = self._branches(p._on(self.graph))
        near = least + BRANCH_TIE * (1.0 + np.abs(least))
        descends = np.zeros(len(least), dtype=bool)
        for rows, v, slope in branches:
            descends[rows] |= (v <= near[rows]) & (germ[rows] * slope < 0)
        return np.where(descends, -1.0, 1.0) * self._along_edges[2].at_rows(p)


class DistanceField(SeedMap):
    """d(., x0): the map seeded at x0 over the graph's unit table, whose
    germ derivatives are +1 or -1."""

    def __init__(self, graph: MetricGraph, x0: GraphPoint):
        super().__init__(graph, {x0: 0.0}, graph.unit_profiles)


def _default_batch(graph: MetricGraph, n_per_edge: int = 3, boundary: bool = False) -> KnotBatch:
    """The interior vertices, then ``n_per_edge`` evenly spaced points inside
    each edge, in graph order, then with ``boundary`` the boundary vertices,
    as a batch built from arrays, no point object made: row for row the
    batch ``KnotBatch.of`` builds from the points.  A vertex is the row at
    its end of its first incident edge, and point k of an edge of length L
    sits at L * k / (n_per_edge + 1).  Only an offset that rounds onto its
    edge's end (a subnormal or near-overflow length) sends the edges' points
    through ``KnotBatch.of``, for its refusal."""
    ids, _, lengths = graph._edge_order
    is_boundary, start, adj_edge, adj_end = graph._incidence[2:]
    inner, outer = np.flatnonzero(~is_boundary), np.flatnonzero(is_boundary)
    with np.errstate(over="ignore"):
        on_edges = lengths[:, None] * np.arange(1, n_per_edge + 1) / (n_per_edge + 1)
    if not ((on_edges > 0.0) & (on_edges < lengths[:, None])).all():
        return KnotBatch.of(graph, [EdgeInterior(eid, s) for eid, row in zip(ids, on_edges.tolist())
                                    for s in row])
    vertex = np.concatenate((inner, outer)) if boundary else inner
    slot = start[vertex]
    v_edge = adj_edge[slot]
    n = len(inner)
    rows = np.concatenate((v_edge[:n], np.arange(len(ids)).repeat(n_per_edge), v_edge[n:]))
    v_offsets = np.where(adj_end[slot] == 1, lengths[v_edge], 0.0)
    offsets = np.concatenate((v_offsets[:n], on_edges.ravel(), v_offsets[n:]))
    return KnotBatch._of_rows(graph, rows, offsets)


def _default_samples(graph: MetricGraph, n_per_edge: int = 3) -> Tuple[List[GraphPoint], KnotBatch]:
    """``_default_batch``'s rows as graph points, and the batch."""
    X = _default_batch(graph, n_per_edge)
    ids, vids = graph._edge_order[0], list(graph.vertices)
    return [Vertex(vids[v]) if v >= 0 else EdgeInterior(ids[e], s) for v, e, s in
            zip(X.vertices().tolist(), X.edges.tolist(), X.offsets.tolist())], X


def _values_at(u, X: KnotBatch) -> np.ndarray:
    """u at every row of ``X``: one batched ``evaluate`` for a ``SeedMap``,
    ``u.evaluate`` point by point for any other candidate."""
    if isinstance(u, SeedMap):
        return u.evaluate(X)
    return np.array([u.evaluate(p) for p in X.points()], dtype=float)


def _per_row(fold: np.ufunc, values: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """``fold`` (say ``np.maximum``) over each row's run of germ values along
    the last axis, ``owner`` each germ's row as ``KnotBatch.germs`` gives it."""
    if not len(owner):
        return values
    return fold.reduceat(values, owner.searchsorted(np.arange(owner[-1] + 1)), axis=-1)


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


def _loop_end(length: float, s: float) -> float:
    """The end of a self-loop of ``length`` nearer offset ``s``, 0 on a tie:
    where a step between ``s`` and the loop's vertex meets the loop."""
    return length if length - s < s else 0.0


def _resolve_step(graph: MetricGraph, p: GraphPoint, q: GraphPoint,
                  hint: Optional[str]) -> Tuple[str, float, float]:
    """Pick the (edge, s0, s1) realization of one polyline step."""
    if hint is not None:
        offs_p = _point_offsets_on_edge(graph, p, hint)
        offs_q = _point_offsets_on_edge(graph, q, hint)
        if not offs_p or not offs_q:
            raise InputError("curve step does not lie on the annotated edge %r" % hint)
        # a vertex has two offsets on a self-loop, one on any other edge
        length = graph.edges[hint].length
        if len(offs_p) == len(offs_q) == 2:
            # full traversal of a self-loop
            return hint, 0.0, length
        s0 = offs_p[0] if len(offs_p) == 1 else _loop_end(length, offs_q[0])
        s1 = offs_q[0] if len(offs_q) == 1 else _loop_end(length, s0)
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
    only unambiguous way to traverse a specific parallel edge.  The points
    are validated and each step resolved to its (edge, s0, s1) segment;
    ``Curve._of_segments`` takes points whose segments are already known."""

    def __init__(self, graph: MetricGraph, points: Sequence[GraphPoint],
                 edges: Optional[Sequence[str]] = None):
        if len(points) < 2:
            raise InputError("a curve needs at least two points (got %d)" % len(points))
        for p in points:
            graph.validate_point(p)
        if edges is not None and len(edges) != len(points) - 1:
            raise InputError("curve edge annotations must have one entry per step")
        self._setup(graph, points, [
            _resolve_step(graph, points[i], points[i + 1], None if edges is None else edges[i])
            for i in range(len(points) - 1)])

    @classmethod
    def _of_segments(cls, graph: MetricGraph, points: Sequence[GraphPoint],
                     segments: Sequence[Tuple[str, float, float]]) -> Curve:
        """The curve through ``points`` along ``segments``, one (edge, s0, s1)
        per step, taken as given."""
        curve = cls.__new__(cls)
        curve._setup(graph, points, segments)
        return curve

    def _setup(self, graph: MetricGraph, points: Sequence[GraphPoint],
               segments: Sequence[Tuple[str, float, float]]):
        self.graph = graph
        self.points: Tuple[GraphPoint, ...] = tuple(points)
        self.segments: Tuple[Tuple[str, float, float], ...] = tuple(segments)
        self._cum = list(itertools.accumulate([abs(s1 - s0) for _eid, s0, s1 in segments],
                                              initial=0.0))

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
    it stays inside the open domain; ``rng`` must be a ``random.Random`` and
    ``steps`` an int >= 1.

    The walk keeps the (edge, s0, s1) segment of each step it takes, so its
    points are neither validated nor resolved again: a step onto a vertex
    ends at that vertex's offset on its edge, and one off it starts there,
    at the end of a self-loop nearer the step's other offset (``_loop_end``,
    ``_resolve_step``'s rule).  A step never ends on a boundary vertex."""
    if not isinstance(rng, random.Random):
        raise InputError("rng must be a random.Random (got %r)" % (rng,))
    steps = _count(steps, 1, "step count steps")
    eids, edges, vertices, adj = graph._sorted_ids, graph.edges, graph.vertices, graph._adj
    for _attempt in range(64):
        eid = eids[rng.randrange(len(eids))]
        rec = edges[eid]
        s = rng.uniform(0.2, 0.8) * rec.length
        pts: List[GraphPoint] = [EdgeInterior(eid, s)]
        segs: List[Tuple[str, float, float]] = []
        for _ in range(steps):
            go_up = rng.random() < 0.5
            if go_up:
                target_vid, vertex_s = rec.dst, rec.length
            else:
                target_vid, vertex_s = rec.src, 0.0
            boundary = vertices[target_vid].boundary
            if boundary or rng.random() < 0.35:
                # stop short of a boundary vertex, or wander within the edge
                ns = s + (vertex_s - s) * (rng.uniform(0.3, 0.9) if boundary
                                           else rng.uniform(0.2, 0.8))
                if 0.0 < ns < rec.length and ns != s:
                    pts.append(EdgeInterior(eid, ns))
                    segs.append((eid, s, ns))
                    s = ns
                continue
            # pass through the vertex into a random incident edge
            pts.append(Vertex(target_vid))
            segs.append((eid, s, _loop_end(rec.length, s) if rec.src == rec.dst else vertex_s))
            nxt = adj[target_vid]
            eid, nend = nxt[rng.randrange(len(nxt))]
            rec = edges[eid]
            base = 0.0 if nend == 0 else rec.length
            direction = 1.0 if nend == 0 else -1.0
            ns = base + direction * rng.uniform(0.2, 0.8) * rec.length
            pts.append(EdgeInterior(eid, ns))
            segs.append((eid, _loop_end(rec.length, ns) if rec.src == rec.dst else base, ns))
            s = ns
        if len(pts) >= 2:
            return Curve._of_segments(graph, pts, segs)
    raise InputError("could not sample a curve avoiding the boundary; is every vertex a boundary vertex?")
