"""Local slopes on metric graphs and the steepest-descent characterization
of solutions.

Three quantities at a point x, all defined through difference quotients
|u(y) - u(x)| / d(x, y) as y → x:

* the slope |∇u|   — absolute quotients,
* the ascending part |∇⁺u| — positive part of u(y) - u(x),
* the descending part |∇⁻u| — positive part of u(x) - u(y).

On a graph every approach to x funnels along finitely many edge germs, so for
piecewise-closed-form functions the limsups collapse to exact one-sided
directional derivatives; for black-box functions a shrinking-radius sampler
stands in for the limit.  A function solves |∇u| = f in the steepest-descent
sense when |∇⁻u| = f away from the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cost import CostField
from .errors import InputError, PreconditionError, VerificationError
from .graph import (BRANCH_TIE, DistanceField, EdgeInterior, GraphPoint, KnotBatch, MetricGraph,
                    SeedMap, Vertex, _as_evaluator, _ComposedDiff, _default_samples, _finite,
                    _per_row, _reals, _tolerance)
from .optical import OpticalMap

#: radius schedule for the sampling estimator: r0 * 2^-k for k = 0..12,
#: with the reported value the max over the tail k >= TAIL_START.
N_RADII = 13
TAIL_START = 8

EXACT_TOL = 1e-8
SAMPLED_TOL = 1e-4
#: how far a second difference of u - K x² may rise and still read as concave
CONCAVITY_TOL = 1e-12


@dataclass(frozen=True)
class SlopeEstimate:
    point: GraphPoint
    total: float      # |∇u|
    up: float         # |∇⁺u|
    down: float       # |∇⁻u|
    method: str       # "exact-directional" | "shrinking-radius"
    radii: Tuple[float, ...] = ()

    def __post_init__(self):
        if min(self.total, self.up, self.down) < 0:
            raise VerificationError("negative slope in %r" % (self,))
        if self.total != max(self.up, self.down):
            raise VerificationError(
                "slope identity |∇u| = max(|∇⁺u|, |∇⁻u|) broken: %r" % (self,))

    @property
    def tol(self) -> float:
        return EXACT_TOL if self.method == "exact-directional" else SAMPLED_TOL


def slopes(u, x: Union[GraphPoint, KnotBatch], graph: Optional[MetricGraph] = None,
           method: str = "auto") -> Union[SlopeEstimate, Tuple[np.ndarray, np.ndarray]]:
    """Slope triple of ``u`` at ``x``.

    ``method`` is "exact" (one-sided germ derivatives; requires the function
    to expose ``germ_derivative``), "sampled" (shrinking-radius quotients
    needing only point evaluation), or "auto" to prefer exact when available.

    At a ``KnotBatch`` of a ``SeedMap``'s points: the exact |∇⁺u| and |∇⁻u|
    at each row as two arrays, from one ``germ_derivative`` call at all
    their germs (``KnotBatch.germs``), bit for bit as at each point.
    """
    if isinstance(x, KnotBatch):
        if not isinstance(u, SeedMap):
            raise PreconditionError("slopes at a batch of points need a SeedMap")
        owner, G, sign = x.germs()
        d = u.germ_derivative(G, sign)
        return tuple(_per_row(np.maximum, np.maximum(np.array((d, -d)), 0.0), owner))
    g = getattr(u, "graph", None) or graph
    if g is None:
        raise PreconditionError("no graph: pass graph= or use a graph-aware function")
    g.validate_point(x)
    if method == "auto":
        method = "exact" if hasattr(u, "germ_derivative") else "sampled"
    if method == "exact":
        if not hasattr(u, "germ_derivative"):
            raise PreconditionError("function has no germ_derivative; use method='sampled'")
        up = down = 0.0
        for germ in g.germs(x):
            d = u.germ_derivative(x, germ)
            up = max(up, d)
            down = max(down, -d)
        return SlopeEstimate(x, max(up, down), up, down, "exact-directional")
    if method != "sampled":
        raise InputError("unknown slope method %r" % method)
    r0 = g.half_min_incident(x)
    radii = tuple(r0 * 2.0 ** (-k) for k in range(N_RADII))
    ueval = _as_evaluator(u)
    ux = ueval(x)
    germs = g.germs(x)
    up = down = 0.0
    for k in range(TAIL_START, N_RADII):
        for germ in germs:
            t = min(radii[k], g.germ_available(germ))
            if t <= 0.0:
                continue
            # within this radius the germ parametrizes by arc length, so the
            # metric distance to the sampled point is exactly t
            q = (ueval(g.germ_point(germ, t)) - ux) / t
            up = max(up, q)
            down = max(down, -q)
    return SlopeEstimate(x, max(up, down), up, down, "shrinking-radius", radii)


# ----------------------------------------------------------------------
# steepest-descent (Monge-type) verification
# ----------------------------------------------------------------------

@dataclass
class MongeSample:
    point: GraphPoint
    kind: str            # "edge" | "edge-kink" | "vertex" | "skipped"
    down: float
    f_lo: float          # required f (min over incident germs at a vertex)
    f_hi: float
    residual: float      # down - f_lo
    sub_ok: bool
    super_ok: bool
    reason: str = ""


@dataclass
class MongeReport:
    ok: bool
    subsolution_ok: bool
    supersolution_ok: bool
    tol: float
    worst_violation: float
    worst_point: Optional[GraphPoint]
    sample_set: str      # "seeded" | "dense" | "given"
    samples: List[MongeSample] = dc_field(default_factory=list)


def _monge_seeded_samples(u: OpticalMap) -> List[GraphPoint]:
    """The steepest-descent samples of a seeded map: the interior vertices,
    then per edge its interior seeds and the crossing of its two endpoint
    branches, ascending.  Anywhere else inside an edge every branch has
    slope ±f, so one least branch descends at exactly f and the check holds."""
    graph = u.graph
    pts: List[GraphPoint] = [Vertex(vid) for vid, rec in graph.vertices.items()
                             if not rec.boundary]
    for eid in sorted(graph.edges):
        offsets = {s0 for s0, _val in u._interior_seeds.get(eid, ())}
        kink = u.kink(eid)
        if kink is not None:
            offsets.add(kink)
        pts.extend(EdgeInterior(eid, s) for s in sorted(offsets))
    return pts


def verify_monge(u, field: CostField, points: Optional[Sequence[GraphPoint]] = None,
                 tol: Optional[float] = None) -> MongeReport:
    """Check |∇⁻u| = f where u should solve, inequality-style where it can't.

    At an interior point strictly inside an edge where the two one-sided
    behaviours agree (|∇⁺u| = |∇⁻u|), equality with f is required.  At kinks
    of u inside an edge and at interior vertices — where several germs with
    possibly different f-values meet — the descending slope is only pinned to
    the interval [min, max] of the incident f-values: below it the
    supersolution half fails, above it the subsolution half fails.  Boundary
    vertices are outside the equation's jurisdiction and get skipped.

    At a vertex of a seeded map (an OpticalMap, a stored table included) the
    value must also equal the least branch there: a vertex above it jumps
    down, which fails the subsolution half by the jump's height.  Without
    ``points``, such a map over ``field`` is sampled where it can fail
    (``_monge_seeded_samples``), which makes a pass an exact Bellman
    certificate for its vertex table; any other candidate gets five points
    per edge besides the interior vertices.  Slopes are exact (``tol``
    EXACT_TOL) when u has ``germ_derivative``, else sampled (SAMPLED_TOL);
    a given ``tol`` must be a finite number >= 0.

    A ``SeedMap`` on the field's graph is checked in a few array passes over
    one ``KnotBatch`` of its points, all validated first
    (``_seeded_map_rows``); any other candidate point by point.  Both give
    the report of a loop over the points.
    """
    graph = field.graph
    tol = _tolerance((EXACT_TOL if hasattr(u, "germ_derivative") else SAMPLED_TOL)
                     if tol is None else tol)
    X = None
    if points is not None:
        sample_set, points = "given", list(points)
    elif isinstance(u, OpticalMap) and u.field is field:
        sample_set, points = "seeded", _monge_seeded_samples(u)
    else:
        sample_set, (points, X) = "dense", _default_samples(graph, 5)
    rows = (_seeded_map_rows(u, field, points, X) if isinstance(u, SeedMap) and u.graph is graph
            else (_point_row(u, field, p) for p in points))
    samples: List[MongeSample] = []
    sub_ok = super_ok = True
    worst = 0.0
    worst_point: Optional[GraphPoint] = None
    for p, row in zip(points, rows):
        if row is None:
            samples.append(MongeSample(p, "skipped", 0.0, 0.0, 0.0, 0.0, True, True,
                                       reason="boundary vertex"))
            continue
        up, down, f_lo, f_hi, jump = row
        kind = ("vertex" if isinstance(p, Vertex)
                else "edge" if abs(up - down) <= tol else "edge-kink")
        s_ok = down <= f_hi + tol and not jump
        p_ok = down >= f_lo - tol
        viol = max(down - f_hi, f_lo - down, jump, 0.0)
        if viol > worst:
            worst, worst_point = viol, p
        sub_ok &= s_ok
        super_ok &= p_ok
        reason = "jump: the vertex sits %.17g above its least incident branch" % jump if jump else ""
        samples.append(MongeSample(p, kind, down, f_lo, f_hi, down - f_lo, s_ok, p_ok, reason))
    return MongeReport(ok=(sub_ok and super_ok), subsolution_ok=sub_ok,
                       supersolution_ok=super_ok, tol=tol, worst_violation=worst,
                       worst_point=worst_point, sample_set=sample_set, samples=samples)


def _seeded_map_rows(u: SeedMap, field: CostField, points: List[GraphPoint],
                     X: Optional[KnotBatch] = None) -> list:
    """``verify_monge``'s (|∇⁺u|, |∇⁻u|, f_lo, f_hi, jump) at each point, None
    at a boundary vertex, from one batch of the points (``X`` when given,
    else ``KnotBatch.of`` the points): one ``slopes`` call, one read of f at
    their germs, and the least branches that gave the germs' signs, which a
    vertex's value may sit above (a jump)."""
    graph, vertex_values = u.graph, u.vertex_values
    X = KnotBatch.of(graph, points) if X is None else X
    owner, G, _ = X.germs()
    up, down = slopes(u, X)
    f = field._rates.at_rows(G)
    # each point's least f, least branch and, negated, greatest f
    f_lo, least, f_hi = _per_row(np.minimum, np.array((f, u._branches(G)[0], -f)), owner)
    rows = []
    for p, *row, m in zip(points, up.tolist(), down.tolist(), f_lo.tolist(), (-f_hi).tolist(),
                          least.tolist()):
        jump = vertex_values[p.id] - m if isinstance(p, Vertex) else 0.0
        rows.append(None if graph.is_boundary(p)
                    else (*row, jump if jump > BRANCH_TIE * (1.0 + abs(m)) else 0.0))
    return rows


def _point_row(u, field: CostField, p: GraphPoint) -> Optional[Tuple[float, ...]]:
    """``_seeded_map_rows``' row at one point of any candidate, the point
    validated first, its slopes by ``slopes``; it never jumps."""
    graph = field.graph
    graph.validate_point(p)
    if graph.is_boundary(p):
        return None
    est = slopes(u, p, graph=graph)
    if isinstance(p, Vertex):
        fvals = [field.germ_value(germ) for germ in graph.germs(p)]
        return est.up, est.down, min(fvals), max(fvals), 0.0
    f = field.value_at(p)
    return est.up, est.down, f, f, 0.0


def monge_samples_csv(report: MongeReport) -> str:
    """CSV rows (point, |∇⁻u|, required f, residual) for a MongeReport."""
    lines = ["point,down,f,residual"]
    for s in report.samples:
        if s.kind == "skipped":
            continue
        if isinstance(s.point, Vertex):
            loc = "vertex:%s" % s.point.id
        else:
            loc = "edge:%s@%.12g" % (s.point.edge, s.point.s)
        lines.append("%s,%.12g,%.12g,%.12g" % (loc, s.down, s.f_lo, s.residual))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# distance-type test functions
# ----------------------------------------------------------------------

def _no_h(r: float) -> float:
    raise PreconditionError("no h supplied; only derivatives are available")


class DistanceTestFunction(_ComposedDiff):
    """φ(x) = h(d(x, x₀)) with one-sided derivatives by the chain rule.

    The germ derivative of d(·, x₀) is ±1 exactly on a graph, so
    ∂φ = h'(d) · ∂d germ-wise; ``h`` itself is only needed for evaluation
    (the sampled slope path), not for the exact derivatives.
    """

    def __init__(self, graph: MetricGraph, x0: GraphPoint,
                 hprime: Callable[[float], float],
                 h: Optional[Callable[[float], float]] = None):
        self.dist = DistanceField(graph, x0)
        super().__init__(self.dist, _no_h if h is None else h, lambda r, dr: hprime(r) * dr)


def distance_test_slope(graph: MetricGraph, x0: GraphPoint,
                        hprime: Callable[[float], float], x: GraphPoint) -> float:
    """Slope of φ = h(d(·, x₀)) at x, which for nondecreasing h with
    h'(0) = 0 is h'(d(x, x₀)) — both the full slope and the descending part.

    Returns that value after checking it against the slope engine run on the
    composed function; a disagreement is a genuine defect in the slope
    machinery and raises.  Agreement is to EXACT_TOL.
    """
    h0 = hprime(0.0)
    if h0 != 0.0:
        raise PreconditionError("h'(0) must vanish, got %r" % h0)
    phi = DistanceTestFunction(graph, x0, hprime)
    r = phi.dist.evaluate(x)
    value = hprime(r)
    if value < 0.0:
        raise PreconditionError("h' must be nonnegative; h'(%r) = %r" % (r, value))
    est = slopes(phi, x, graph=graph, method="exact")
    if r == 0.0:
        agreed = est.total <= EXACT_TOL
    else:
        agreed = abs(est.total - value) <= EXACT_TOL and abs(est.down - value) <= EXACT_TOL
    if not agreed:
        raise VerificationError(
            "slope engine disagrees with h'(d): expected %r, got %r" % (value, est))
    return value


# ----------------------------------------------------------------------
# one-dimensional semiconcavity identity
# ----------------------------------------------------------------------

@dataclass
class SemiconcaveReport:
    ok: bool
    K: float
    max_gap: float        # max over interior points of |∇u| - |∇⁻u| (>= 0)
    gap_bound: float      # 2 K h_max, the kink convexity a K-semiconcave u allows
    points: List[Tuple[float, float, float]] = dc_field(default_factory=list)  # (x, total, down)


def semiconcave_slope_check(xs: Sequence[float], ys: Sequence[float],
                            K: float) -> SemiconcaveReport:
    """For K-semiconcave u (u - Kx² concave), the slope has no ascending
    excess: |∇u| = |∇⁻u|.  Checked on the piecewise-linear interpolant of the
    samples, whose one-sided derivatives at grid points are the chord slopes.

    The concavity precondition is verified first from second differences of
    u - Kx² and a violation names the offending triple.  ``xs`` and ``ys``
    must be real numbers by ``_reals``' rule and ``K`` a finite number.
    """
    xs, ys = _reals(xs, "sample abscissa"), _reals(ys, "sample value")
    if not _finite(K):
        raise InputError("K must be a finite number (got %r)" % (K,))
    K = float(K)
    if len(xs) != len(ys) or len(xs) < 3:
        raise InputError("need matching xs/ys with at least 3 samples")
    if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
        raise InputError("xs must be strictly increasing")
    zs = [y - K * x * x for x, y in zip(xs, ys)]
    for i in range(1, len(xs) - 1):
        hl = xs[i] - xs[i - 1]
        hr = xs[i + 1] - xs[i]
        bend = (zs[i + 1] - zs[i]) / hr - (zs[i] - zs[i - 1]) / hl
        if bend > CONCAVITY_TOL:
            raise PreconditionError(
                "u - K x² is not concave across x = (%r, %r, %r): chord slope rises by %r"
                % (xs[i - 1], xs[i], xs[i + 1], bend))
    h_max = max(xs[i + 1] - xs[i] for i in range(len(xs) - 1))
    bound = 2.0 * K * h_max
    pts: List[Tuple[float, float, float]] = []
    max_gap = 0.0
    for i in range(1, len(xs) - 1):
        ml = (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1])
        mr = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        total = max(abs(ml), abs(mr))
        down = max(ml, -mr, 0.0)
        max_gap = max(max_gap, total - down)
        pts.append((xs[i], total, down))
    return SemiconcaveReport(ok=(max_gap <= bound + CONCAVITY_TOL), K=K, max_gap=max_gap,
                             gap_bound=bound, points=pts)
