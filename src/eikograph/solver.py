"""The Dirichlet solver and its verification battery.

The solver itself is one formula: with boundary data g on the boundary
vertices and optical length L_f,

    u(x) = min over boundary y of ( g(y) + L_f(x, y) ).

Everything else in this module is about *checking* a candidate: the exact
dynamic-programming principle on small balls, the sub-optimality inequality
along arbitrary curves, attainment of the boundary data with an explicit
modulus, and the compatibility condition on g that separates the two.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cost import CostField
from .errors import InputError, PreconditionError, RecordError
from .graph import (Constant, Curve, GraphPoint, KnotBatch, MetricGraph, SeedMap, Vertex,
                    _count, _default_batch, _default_samples, _finite, _per_row, _tolerance,
                    _values_at, random_curve)
from .optical import OpticalMap, optical_length


class BoundaryData:
    """Dirichlet data: a finite real number on each boundary vertex and on
    no other, checked in graph order.  Each refusal of one vertex is a
    ``RecordError`` naming it, which ``io.load_graph`` anchors at its line."""

    def __init__(self, graph: MetricGraph, values: Dict[str, float]):
        for vid in [*graph.vertices, *(vid for vid in values if vid not in graph.vertices)]:
            rec = graph.vertices.get(vid)
            if rec is None or not rec.boundary:
                if vid in values:
                    raise RecordError("vertex %r has 'g' but is not a boundary vertex" % vid,
                                      "vertex", vid)
            elif vid not in values:
                raise RecordError("boundary vertex %r is missing its value 'g'" % vid, "vertex", vid)
            elif not _finite(values[vid]):
                raise RecordError("vertex %r: 'g' must be a finite number (got %r)" % (vid, values[vid]),
                                  "vertex", vid)
        if not values:
            raise InputError("graph has no boundary vertices")
        self.graph = graph
        self.values = {vid: float(g) for vid, g in values.items()}

    def __getitem__(self, vid: str) -> float:
        return self.values[vid]

    def items(self):
        return self.values.items()


class ValueFunction(OpticalMap):
    """The optimal-control value of the Dirichlet problem, as an OpticalMap
    seeded at the boundary with g."""

    def __init__(self, field: CostField, data: BoundaryData):
        if data.graph is not field.graph:
            raise InputError("boundary data and cost field refer to different graphs")
        seeds = {Vertex(vid): g for vid, g in data.items()}
        super().__init__(field, seeds)
        self.data = data


def solve(field: CostField, data: BoundaryData) -> ValueFunction:
    """Solve the Dirichlet problem |∇u| = f, u = g on the boundary, by the
    optimal-control value formula.  The formula itself never fails; whether
    the result attains g is exactly the compatibility question."""
    return ValueFunction(field, data)


@dataclass
class CompatibilityReport:
    ok: bool
    worst_violation: float
    witness: Optional[Tuple[str, str]]  # (x, y) with g(x) > g(y) + L_f(x, y)


def check_compatibility(field: CostField, data: BoundaryData, tol: float = 1e-12,
                        u: Optional[ValueFunction] = None) -> CompatibilityReport:
    """g is compatible iff g(x) <= g(y) + L_f(x, y) for all boundary x, y.

    Equivalent statement: the value formula reproduces g at every boundary
    vertex, which is what is checked (the map already holds every pairwise
    minimum).  ``u``, when given, must be ``solve(field, data)``; it spares
    the check its own solve.  ``tol`` must be a finite number >= 0."""
    tol = _tolerance(tol)
    if u is None:
        u = ValueFunction(field, data)
    worst = 0.0
    witness = None
    for vid, g in data.items():
        gap = g - u.vertex_values[vid]  # >= 0 always; > 0 means violated at vid
        if gap > worst:
            worst = gap
            # find the y achieving the undercut, for the report
            best_y, best_val = None, math.inf
            for wid, gy in data.items():
                if wid == vid:
                    continue
                val = gy + optical_length(field, Vertex(vid), Vertex(wid))
                if val < best_val:
                    best_val, best_y = val, wid
            witness = (vid, best_y if best_y is not None else vid)
    return CompatibilityReport(ok=(worst <= tol), worst_violation=worst, witness=witness)


# ----------------------------------------------------------------------
# dynamic programming principle
# ----------------------------------------------------------------------

@dataclass
class DPPSample:
    point: GraphPoint
    tau: float
    residual: float          # min over germ candidates minus u(point); >= 0 and ~0 for the value
    skipped: bool = False
    reason: str = ""


@dataclass
class DPPReport:
    ok: bool
    tol: float
    max_defect: float        # max over samples of max(0, -residual) and residual magnitude
    samples: List[DPPSample] = dc_field(default_factory=list)


def verify_dpp(u: OpticalMap, points: Optional[Sequence[GraphPoint]] = None,
               tau: Optional[float] = None, tol: Optional[float] = None) -> DPPReport:
    """Check the exact dynamic programming principle

        u(x) = min over unit-speed departures of ( cost to y + u(y) ),

    with the minimum taken over walks of arc length min(tau_x, germ length
    available) along every germ at x.  For the optimal-control value this
    holds with equality; for a strict supersolution-side failure the residual
    goes negative.  Boundary points are recorded as skipped.  A walk runs
    along one edge, so it can stop on a boundary vertex but never pass one,
    and every other point is checked at any radius.  ``tau`` must be a
    finite real number > 0, and ``tol`` must be a finite number >= 0.

    The points make one ``KnotBatch`` and every walk from them another, so
    the check is a few array passes: one ``evaluate`` at the points, one
    ``edge_cost`` and one ``evaluate`` at the walks' ends.  Each residual
    equals the one a point-by-point loop makes, bit for bit.  The default
    samples are built as rows (``_default_samples``); given points go
    through ``KnotBatch.of``, each validated before any walk is taken.  A
    walk that takes its germ's whole length ends exactly at the edge's end;
    any other walk that rounds past it is refused as ``MetricGraph.point``
    refuses it, the first in point and germ order.  A ``u`` that is not a
    ``SeedMap`` is evaluated point by point.
    """
    graph = u.graph
    field = u.field
    if tau is not None:
        if not (_finite(tau) and tau > 0.0):
            raise InputError("walk radius tau must be a positive finite number (got %r)" % (tau,))
        tau = float(tau)
    tol = field.default_tol() if tol is None else _tolerance(tol)
    if points is None:
        points, X = _default_samples(graph)
    else:
        points = list(points)
        X = KnotBatch.of(graph, points)
    lengths = graph._edge_order[2]
    boundary, start, adj_edge = graph._incidence[2:5]
    vertex = X.vertices()
    skipped = (vertex >= 0) & boundary[vertex]
    check = np.flatnonzero(~skipped)
    C = KnotBatch._of_rows(graph, X.edges[check], X.offsets[check])
    vertex = vertex[check]
    if tau is None:
        half_min = 0.5 * np.minimum.reduceat(lengths[adj_edge], start[:-1])
        tau_x = np.where(vertex >= 0, half_min[vertex], 0.5 * lengths[C.edges])
    else:
        tau_x = np.full(len(check), tau)
    owner, G, sign = C.germs(vertex)
    g_edge, base = G.edges, G.offsets
    g_length = lengths[g_edge]
    forward = sign > 0.0
    available = np.where(forward, g_length - base, base)
    walk = tau_x[owner]
    whole = available <= walk
    walk = np.where(whole, available, walk)
    # a walk as long as its germ ends at the edge's end, which b + (L - b)
    # may round past
    end = np.where(whole, np.where(forward, g_length, 0.0), base + sign * walk)
    kept = np.flatnonzero(walk > 0.0)
    base, end = base[kept], end[kept]
    off = (end < 0.0) | (end > g_length[kept])
    if off.any():
        i = int(off.argmax())
        raise InputError("offset %r outside [0, %r] on edge %r"
                         % (end[i].item(), g_length[kept][i].item(),
                            graph._edge_order[0][g_edge[kept][i]]))
    Y = KnotBatch._of_rows(graph, g_edge[kept], end)
    offer = np.full(len(owner), math.inf)
    # a NaN offer is passed over, as min() passes over it
    offer[kept] = np.fmin(field.edge_cost(Y, base, end) + _values_at(u, Y), math.inf)
    residuals = (_per_row(np.minimum, offer, owner) - _values_at(u, C)).tolist()
    checked = zip(tau_x.tolist(), residuals)
    samples = [DPPSample(p, 0.0, 0.0, skipped=True, reason="boundary point") if skip
               else DPPSample(p, *next(checked)) for p, skip in zip(points, skipped.tolist())]
    defects = [abs(r) for r in residuals]
    return DPPReport(ok=not any(d > tol for d in defects), tol=tol,
                     max_defect=max([0.0] + defects), samples=samples)


# ----------------------------------------------------------------------
# sub-optimality along curves
# ----------------------------------------------------------------------

#: random times drawn on each curve besides its breakpoints
TIMES_PER_CURVE = 6


@dataclass
class SuboptimalityReport:
    ok: bool
    tol: float
    max_defect: float
    n_curves: int
    n_pairs: int


def verify_suboptimality(u: OpticalMap, curves: Optional[Iterable[Curve]] = None,
                         rng: Optional[random.Random] = None, n_random: int = 12,
                         tol: Optional[float] = None) -> SuboptimalityReport:
    """Check  u(γ(t1)) - u(γ(t0)) <= ∫_{t0}^{t1} f(γ) ds  for curves γ and
    time pairs t0 <= t1.  The value function satisfies this along *every*
    curve (it is 1-Lipschitz for the optical metric), so random wandering
    curves are a fair test set.  ``n_random`` must be an int >= 1, ``rng``
    a ``random.Random`` or None, and ``tol`` a finite number >= 0.

    The default curves are ``random_curve``'s, each keeping the segments
    its walk took, so none is validated or resolved again.  Drawing each
    curve's times and locating them by ``Curve.locate`` stays a loop over
    the curves, for it consumes ``rng``.  Then every curve's segments and
    times make one ``KnotBatch``: one ``edge_cost`` gives every segment's
    cost and every partial cost to a time, one ``evaluate`` u at every
    time, and the pairs of all curves are one array expression, each pair's
    defect ``(u_j - u_i) - (F_j - F_i)`` bit for bit.  A ``u`` that is not a
    ``SeedMap`` is evaluated point by point."""
    field = u.field
    graph = u.graph
    n_random = _count(n_random, 1, "curve count n_random")
    if rng is not None and not isinstance(rng, random.Random):
        raise InputError("rng must be a random.Random or None (got %r)" % (rng,))
    tol = field.default_tol() if tol is None else _tolerance(tol)
    if curves is None:
        rng = rng or random.Random(0)
        curves = []
        for _ in range(n_random):
            try:
                curves.append(random_curve(graph, rng, steps=rng.randrange(3, 9)))
            except InputError:
                break
    curves = list(curves)
    local_rng = rng or random.Random(1)
    index = graph._edge_order[1]
    # rows: every curve's segments (edge, start, end), then every curve's
    # times (edge, its segment's start, its offset) with its segment's number
    segments: List[Tuple[int, float, float]] = []
    times: List[Tuple[int, float, float]] = []
    segment_of: List[int] = []
    n_times: List[int] = []
    for curve in curves:
        first = len(segments)
        segments += [(index[eid], s0, s1) for eid, s0, s1 in curve.segments]
        ts = sorted(set(curve.times()) | {curve.length * local_rng.random()
                                          for _ in range(TIMES_PER_CURVE)})
        for t in ts:
            k, s = curve.locate(t)
            eid, s0, _s1 = curve.segments[k]
            times.append((index[eid], s0, s))
            segment_of.append(first + k)
        n_times.append(len(ts))
    rows = segments + times
    edges = np.array([r[0] for r in rows], dtype=np.intp)
    starts = np.array([r[1] for r in rows], dtype=float)
    ends = np.array([r[2] for r in rows], dtype=float)
    costs = field.edge_cost(KnotBatch._of_rows(graph, edges, ends), starts, ends)
    # each segment's running cost before it along its curve, summed in order
    seg_costs = iter(costs[:len(segments)].tolist())
    before: List[float] = []
    for curve in curves:
        total = 0.0
        for _ in curve.segments:
            before.append(total)
            total = total + next(seg_costs)
    fvals = np.array(before)[segment_of] + costs[len(segments):]
    uvals = _values_at(u, KnotBatch._of_rows(graph, edges[len(segments):], ends[len(segments):]))
    # every pair i < j of one curve's times, curve by curve and i-major
    sizes = np.array(n_times, dtype=np.intp)
    later = np.repeat(np.cumsum(sizes), sizes) - 1 - np.arange(len(fvals))
    i = np.repeat(np.arange(len(fvals)), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    defects = ((uvals[j] - uvals[i]) - (fvals[j] - fvals[i])).tolist()
    max_defect = max([0.0] + defects)
    n_pairs = len(defects)
    return SuboptimalityReport(ok=(max_defect <= tol), tol=tol, max_defect=max_defect,
                               n_curves=len(curves), n_pairs=n_pairs)


# ----------------------------------------------------------------------
# boundary attainment
# ----------------------------------------------------------------------

@dataclass
class BoundaryModulusReport:
    ok: bool
    upper_constant: float      # u(x) - g(y) <= C d(x,y) with this C (unconditional)
    modulus_constant: float    # |u(x) - g(y)| <= modulus(d(x,y)) under compatibility
    compatible: bool
    max_upper_defect: float
    max_abs_defect: float      # only meaningful when compatible
    n_checked: int


def _lipschitz_of_g(graph: MetricGraph, data: BoundaryData) -> float:
    """Least L with |g(x) - g(y)| <= L d(x, y) over boundary pairs."""
    bids = graph.boundary_ids
    best = 0.0
    for i, a in enumerate(bids[:-1]):  # the last vertex has no later partner
        for b in bids[i + 1:]:
            d = graph.distance(Vertex(a), Vertex(b))
            if d > 0:
                best = max(best, abs(data[a] - data[b]) / d)
    return best


def _cone(graph: MetricGraph, values: Dict[str, float], c: float) -> SeedMap:
    """p -> min over boundary y of (values[y] + c · d(y, p))."""
    return SeedMap(graph, {Vertex(vid): v for vid, v in values.items()},
                   dict.fromkeys(graph.edges, Constant(c)))


def boundary_modulus(u: ValueFunction, points: Optional[Sequence[GraphPoint]] = None,
                     tol: Optional[float] = None) -> BoundaryModulusReport:
    """How u meets its boundary data.

    Unconditionally  u(x) - g(y) <= max(sup f, Lip g) · d(x, y)  for every
    point x and boundary vertex y.  When g is compatible the two-sided bound
    |u(x) - g(y)| <= (2 sup f) d(x, y) + ω_g(2 d(x, y))  holds with
    ω_g(r) = (Lip g) r; incompatible data genuinely loses the lower side at
    the violated vertices, so then only the one-sided bound is asserted.
    ``tol`` defaults to 1e-9 and must be a finite number >= 0.

    The worst pair for a point x is read off a cone map: the largest
    u(x) - g(y) - C d(x, y) over y is u(x) - min over y of (g(y) + C d(y, x)),
    and that minimum is one map seeded with g at cost C per unit length.  The
    two-sided bound reads two such maps at cost K = 2 sup f + 2 Lip g, seeded
    with g and with -g.  Every pair is covered (``n_checked`` counts them) by
    one evaluation per point and map: the points make one ``KnotBatch`` (the
    default ones built as rows, given ones validated by ``KnotBatch.of``), and
    u and each cone map are one array pass over it (u point by point when it
    is not a ``SeedMap``), each defect equal to a point-by-point loop's.

    u must carry its boundary data (a ``ValueFunction`` does, a
    ``StoredSolution`` when given ``data``); without it this raises
    ``PreconditionError`` before any Dijkstra runs.

    Cost, in Dijkstra runs over the vertices with B boundary vertices: B - 1
    for Lip g, one cone map (three when g is compatible), and the
    compatibility check's witness searches, plus one solve when ``u`` is
    not a ``ValueFunction`` (a stored table is checked against the true
    solve, not against itself).  The number of points does not enter.
    """
    tol = 1e-9 if tol is None else _tolerance(tol)
    data = getattr(u, "data", None)
    if data is None:
        raise PreconditionError("boundary modulus needs boundary data, and u carries none "
                                "(give StoredSolution its data=)")
    graph = u.graph
    field = u.field
    supf = field.sup_value()
    lipg = _lipschitz_of_g(graph, data)
    upper_c = max(supf, lipg)
    modulus_c = 2.0 * supf + 2.0 * lipg
    # a solve's own map is the compatibility check's map; a stored table is
    # not, for an edited one must not stand in for the true solve
    comp = check_compatibility(field, data, u=u if isinstance(u, ValueFunction) else None).ok
    X = _default_batch(graph, boundary=True) if points is None else KnotBatch.of(graph, points)
    ux = _values_at(u, X)
    upper = _cone(graph, data.values, upper_c)
    max_upper = max((ux - upper.evaluate(X)).tolist(), default=-math.inf)
    max_abs = math.nan
    if comp:
        above = ux - _cone(graph, data.values, modulus_c).evaluate(X)
        below = -_cone(graph, {vid: -g for vid, g in data.items()}, modulus_c).evaluate(X) - ux
        max_abs = max(np.where(below > above, below, above).tolist(), default=-math.inf)
    ok = max_upper <= tol and (not comp or max_abs <= tol)
    return BoundaryModulusReport(ok=ok, upper_constant=upper_c, modulus_constant=modulus_c,
                                 compatible=comp, max_upper_defect=max_upper,
                                 max_abs_defect=max_abs,
                                 n_checked=len(X) * len(graph.boundary_ids))
