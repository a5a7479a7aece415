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

from .cost import CostField
from .errors import InputError
from .graph import (Curve, GraphPoint, MetricGraph, SeedMap, Vertex, _default_samples,
                    random_curve)
from .optical import OpticalMap, optical_length


class BoundaryData:
    """Dirichlet data: finite values on exactly the boundary vertices."""

    def __init__(self, graph: MetricGraph, values: Dict[str, float]):
        bids = set(graph.boundary_ids)
        if not bids:
            raise InputError("graph has no boundary vertices")
        given = set(values)
        if given != bids:
            missing = sorted(bids - given)
            extra = sorted(given - bids)
            parts = []
            if missing:
                parts.append("missing data at boundary vertices: %s" % ", ".join(missing))
            if extra:
                parts.append("data given at non-boundary vertices: %s" % ", ".join(extra))
            raise InputError("; ".join(parts))
        for vid, g in values.items():
            if not (isinstance(g, (int, float)) and math.isfinite(g)):
                raise InputError("boundary value at %r must be finite (got %r)" % (vid, g))
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
    the check its own solve."""
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
    and every other point is checked at any radius.
    """
    graph = u.graph
    field = u.field
    if tau is not None and not (math.isfinite(tau) and tau > 0.0):
        raise InputError("walk radius tau must be a positive finite number (got %r)" % tau)
    if tol is None:
        tol = field.default_tol()
    if points is None:
        points = _default_samples(graph)
    samples: List[DPPSample] = []
    max_defect = 0.0
    ok = True
    for p in points:
        graph.validate_point(p)
        if graph.is_boundary(p):
            samples.append(DPPSample(p, 0.0, 0.0, skipped=True, reason="boundary point"))
            continue
        tau_x = tau if tau is not None else graph.half_min_incident(p)
        ux = u.evaluate(p)
        best = math.inf
        for germ in graph.germs(p):
            t = min(tau_x, graph.germ_available(germ))
            if t <= 0.0:
                continue
            y = graph.germ_point(germ, t)
            run = field.edge_cost(germ.edge, germ.base, germ.base + germ.sign * t)
            best = min(best, run + u.evaluate(y))
        residual = best - ux
        defect = abs(residual)
        samples.append(DPPSample(p, tau_x, residual))
        max_defect = max(max_defect, defect)
        if defect > tol:
            ok = False
    return DPPReport(ok=ok, tol=tol, max_defect=max_defect, samples=samples)


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
    curves are a fair test set."""
    field = u.field
    graph = u.graph
    if tol is None:
        tol = field.default_tol()
    if curves is None:
        rng = rng or random.Random(0)
        curves = []
        for _ in range(n_random):
            try:
                curves.append(random_curve(graph, rng, steps=rng.randrange(3, 9)))
            except InputError:
                break
    curves = list(curves)
    max_defect = 0.0
    n_pairs = 0
    local_rng = rng or random.Random(1)
    for curve in curves:
        ts = sorted(set(curve.times()) | {curve.length * local_rng.random()
                                          for _ in range(TIMES_PER_CURVE)})
        # Cumulative running cost at the curve's breakpoints, computed once;
        # each query time then needs a single partial-edge integral, and the
        # pair loop below is plain arithmetic on cached arrays.
        csum = [0.0]
        for eid, s0, s1 in curve.segments:
            csum.append(csum[-1] + field.edge_cost(eid, s0, s1))
        fvals = []
        uvals = []
        for t in ts:
            k, s = curve.locate(t)
            eid, s0, _s1 = curve.segments[k]
            fvals.append(csum[k] + field.edge_cost(eid, s0, s))
            uvals.append(u.evaluate(graph.point(eid, s)))
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                max_defect = max(max_defect, (uvals[j] - uvals[i]) - (fvals[j] - fvals[i]))
                n_pairs += 1
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
                   lambda eid, s0, s1: c * abs(s1 - s0),
                   lambda eid: c * graph.edges[eid].length)


def boundary_modulus(u: ValueFunction, points: Optional[Sequence[GraphPoint]] = None,
                     tol: Optional[float] = None) -> BoundaryModulusReport:
    """How u meets its boundary data.

    Unconditionally  u(x) - g(y) <= max(sup f, Lip g) · d(x, y)  for every
    point x and boundary vertex y.  When g is compatible the two-sided bound
    |u(x) - g(y)| <= (2 sup f) d(x, y) + ω_g(2 d(x, y))  holds with
    ω_g(r) = (Lip g) r; incompatible data genuinely loses the lower side at
    the violated vertices, so then only the one-sided bound is asserted.
    ``tol`` defaults to 1e-9.

    The worst pair for a point x is read off a cone map: the largest
    u(x) - g(y) - C d(x, y) over y is u(x) - min over y of (g(y) + C d(y, x)),
    and that minimum is one map seeded with g at cost C per unit length.  The
    two-sided bound reads two such maps at cost K = 2 sup f + 2 Lip g, seeded
    with g and with -g.  Every pair is covered (``n_checked`` counts them) by
    one evaluation per point and map.

    Cost, in Dijkstra runs over the vertices with B boundary vertices: B - 1
    for Lip g, one cone map (three when g is compatible), and the
    compatibility check's own runs.  The number of points does not enter.
    """
    if tol is None:
        tol = 1e-9
    graph = u.graph
    field = u.field
    data = u.data
    supf = field.sup_value()
    lipg = _lipschitz_of_g(graph, data)
    upper_c = max(supf, lipg)
    modulus_c = 2.0 * supf + 2.0 * lipg
    comp = check_compatibility(field, data).ok
    if points is None:
        points = _default_samples(graph)
        points += [Vertex(vid) for vid in graph.boundary_ids]
    uvals = [(p, u.evaluate(p)) for p in points]
    upper = _cone(graph, data.values, upper_c)
    max_upper = max((ux - upper.evaluate(p) for p, ux in uvals), default=-math.inf)
    max_abs = math.nan
    if comp:
        above = _cone(graph, data.values, modulus_c)
        below = _cone(graph, {vid: -g for vid, g in data.items()}, modulus_c)
        max_abs = max((max(ux - above.evaluate(p), -below.evaluate(p) - ux)
                       for p, ux in uvals), default=-math.inf)
    ok = max_upper <= tol and (not comp or max_abs <= tol)
    return BoundaryModulusReport(ok=ok, upper_constant=upper_c, modulus_constant=modulus_c,
                                 compatible=comp, max_upper_defect=max_upper,
                                 max_abs_defect=max_abs,
                                 n_checked=len(uvals) * len(graph.boundary_ids))
