"""Slope triples, steepest-descent verification, distance-type test
functions, and the one-dimensional semiconcavity identity."""
import math
import random

import pytest
from hypothesis import given, strategies as st

from eikograph import (CostField, DistanceTestFunction, EdgeInterior,
                       InputError, MetricGraph, OpticalMap, PreconditionError,
                       SlopeEstimate, StoredSolution, Vertex, VerificationError,
                       distance_test_slope, dump_json, semiconcave_slope_check,
                       slopes, solve, verify_monge)
from eikograph.graph import _default_samples
from conftest import build_instance, interval_point, make_interval, random_graph_spec


def coord(p):
    """Interval coordinate x in [-1, 1] of a point on the fixture graph."""
    if isinstance(p, Vertex):
        return -1.0 if p.id == "L" else 1.0
    return p.s - 1.0


class PlainFn:
    """Pointwise-only candidate (forces the shrinking-radius slope path)."""

    def __init__(self, graph, fn):
        self.graph = graph
        self._fn = fn

    def evaluate(self, p):
        return self._fn(p)


class Negated:
    """-u with the germ derivatives negated alongside (keeps method='exact'
    available for the symmetry-swap property)."""

    def __init__(self, u):
        self.graph = u.graph
        self._u = u

    def evaluate(self, p):
        return -self._u.evaluate(p)

    def germ_derivative(self, p, germ):
        return -self._u.germ_derivative(p, germ)


# ----------------------------------------------------------------------
# the estimate type
# ----------------------------------------------------------------------

def test_estimate_enforces_max_identity(interval):
    graph, _, _ = interval
    p = interval_point(graph, 0.0)
    with pytest.raises(VerificationError, match="identity"):
        SlopeEstimate(p, total=2.0, up=1.0, down=1.0, method="exact-directional")
    with pytest.raises(VerificationError, match="negative"):
        SlopeEstimate(p, total=1.0, up=1.0, down=-1.0, method="exact-directional")
    est = SlopeEstimate(p, 1.0, 1.0, 0.5, "exact-directional")
    assert est.tol == 1e-8
    assert SlopeEstimate(p, 1.0, 1.0, 0.5, "shrinking-radius").tol == 1e-4


# ----------------------------------------------------------------------
# slope values on the canonical fixtures
# ----------------------------------------------------------------------

def test_tent_slopes_exact(interval):
    graph, field, data = interval
    u = solve(field, data)
    interior = slopes(u, interval_point(graph, 0.5))
    assert interior.method == "exact-directional"
    assert (interior.total, interior.up, interior.down) == (1.0, 1.0, 1.0)
    peak = slopes(u, interval_point(graph, 0.0))
    assert (peak.total, peak.up, peak.down) == (1.0, 0.0, 1.0)


def test_tent_slopes_sampled_agree(interval):
    graph, _, _ = interval
    u1 = PlainFn(graph, lambda p: 1.0 - abs(coord(p)))
    for x in (-0.75, -0.25, 0.0, 0.5):
        est = slopes(u1, interval_point(graph, x))
        assert est.method == "shrinking-radius"
        assert est.down == pytest.approx(1.0, abs=1e-12)
        assert est.total == pytest.approx(1.0, abs=1e-12)


def test_convex_kink_slopes(interval):
    graph, _, _ = interval
    u2 = PlainFn(graph, lambda p: abs(coord(p)) - 1.0)
    at0 = slopes(u2, interval_point(graph, 0.0))
    assert at0.down == 0.0
    assert at0.up == pytest.approx(1.0, abs=1e-12)
    assert at0.total == pytest.approx(1.0, abs=1e-12)


def test_slope_requires_some_method_support(interval):
    graph, _, _ = interval
    u = PlainFn(graph, lambda p: 0.0)
    with pytest.raises(PreconditionError, match="germ_derivative"):
        slopes(u, interval_point(graph, 0.0), method="exact")
    with pytest.raises(InputError, match="unknown slope method"):
        slopes(u, interval_point(graph, 0.0), method="bogus")


@given(st.integers(0, 10_000))
def test_symmetry_swap_and_lipschitz_bound(seed):
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    supf = field.sup_value()
    eids = sorted(graph.edges)
    for _ in range(4):
        eid = eids[rng.randrange(len(eids))]
        p = graph.point(eid, rng.random() * graph.edges[eid].length)
        est = slopes(u, p)
        neg = slopes(Negated(u), p)
        assert (neg.up, neg.down) == (est.down, est.up)
        assert neg.total == est.total
        assert est.total <= supf + 1e-9


@given(st.integers(0, 10_000))
def test_signed_quotient_characterization(seed):
    """The descending slope is the clamp of the signed descent limsup: for
    any a > 0 the two computable forms cross the threshold together, and for
    a >= 0 the upper comparisons agree as well."""
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    eid = sorted(graph.edges)[rng.randrange(len(graph.edges))]
    p = graph.point(eid, rng.random() * graph.edges[eid].length)
    signed = max(-u.germ_derivative(p, germ) for germ in graph.germs(p))
    down = slopes(u, p).down
    assert down == max(signed, 0.0)
    for a in (1e-6, 0.1, 0.5, 1.0, 2.0, 5.0):
        assert (down >= a) == (signed >= a)          # a > 0 case
    for a in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0):
        assert (down <= a) == (signed <= a or signed <= 0.0)


# ----------------------------------------------------------------------
# steepest-descent verification
# ----------------------------------------------------------------------

def test_monge_accepts_the_solution(interval):
    graph, field, data = interval
    u = solve(field, data)
    rep = verify_monge(u, field)
    assert rep.ok and rep.subsolution_ok and rep.supersolution_ok
    assert rep.worst_violation == 0.0
    # no interior vertex and no interior seed: a seeded map is sampled at its
    # one kink, the peak
    assert rep.sample_set == "seeded"
    assert [s.point for s in rep.samples] == [interval_point(graph, 0.0)]


def test_monge_classifies_the_peak_as_kink(interval):
    graph, field, data = interval
    u = solve(field, data)
    pts = [interval_point(graph, x) for x in (-0.5, 0.0, 0.5)]
    rep = verify_monge(u, field, points=pts)
    assert [s.kind for s in rep.samples] == ["edge", "edge-kink", "edge"]
    assert all(s.sub_ok and s.super_ok for s in rep.samples)


def test_monge_skips_boundary_vertices(interval):
    graph, field, data = interval
    u = solve(field, data)
    rep = verify_monge(u, field, points=[Vertex("L"), interval_point(graph, 0.5)])
    assert rep.samples[0].kind == "skipped"
    assert rep.samples[0].reason == "boundary vertex"
    assert rep.ok
    assert "null" not in dump_json(rep.samples[0])


def test_monge_convex_kink_fails_supersolution_with_unit_residual(interval):
    graph, field, _ = interval
    u2 = PlainFn(graph, lambda p: abs(coord(p)) - 1.0)
    pts = [interval_point(graph, x) for x in (-0.5, 0.0, 0.5)]
    rep = verify_monge(u2, field, points=pts)
    assert rep.subsolution_ok and not rep.supersolution_ok
    bad = [s for s in rep.samples if not s.super_ok]
    assert len(bad) == 1 and coord(bad[0].point) == 0.0
    assert bad[0].residual == pytest.approx(-1.0, abs=1e-12)
    assert coord(rep.worst_point) == 0.0
    assert rep.worst_violation == pytest.approx(1.0, abs=1e-12)


def test_monge_scaled_tent_fails_supersolution_everywhere(interval):
    graph, field, _ = interval
    half = PlainFn(graph, lambda p: 0.5 * (1.0 - abs(coord(p))))
    pts = [interval_point(graph, x) for x in (-0.75, -0.25, 0.25, 0.75)]
    rep = verify_monge(half, field, points=pts)
    assert rep.subsolution_ok and not rep.supersolution_ok
    for s in rep.samples:
        assert s.residual == pytest.approx(-0.5, abs=1e-12)
        assert not s.super_ok


def test_monge_vertex_band_uses_incident_f_range():
    # two edges with different constant f meet at an interior vertex: the
    # descending slope there may lie anywhere inside the incident band
    g = MetricGraph([("a", True), ("m",), ("b", True)],
                    [("e0", "a", "m", 1.0), ("e1", "m", "b", 1.0)])
    from eikograph import BoundaryData, Constant
    field = CostField(g, {"e0": Constant(1.0), "e1": Constant(2.0)})
    u = solve(field, BoundaryData(g, {"a": 0.0, "b": 0.0}))
    rep = verify_monge(u, field, points=[Vertex("m")])
    s = rep.samples[0]
    assert s.kind == "vertex"
    assert (s.f_lo, s.f_hi) == (1.0, 2.0)
    assert s.sub_ok and s.super_ok, (s.down, s.f_lo, s.f_hi)


def bellman_ok(spec, table):
    """The Bellman conditions on a vertex table, from the spec alone: every
    interior vertex's value is the least over its incident edges of the far
    end's value plus the edge's cost, to a relative 1e-12."""
    offers = {v: [] for v in spec["vertices"]}
    for e in spec["edges"]:
        L = e["length"]
        cost = e["a"] * L + 0.5 * e["b"] * L * L
        offers[e["src"]].append(table[e["dst"]] + cost)
        offers[e["dst"]].append(table[e["src"]] + cost)
    for v in spec["vertices"]:
        if v in spec["boundary"]:
            continue
        m = min(offers[v])
        if abs(table[v] - m) > 1e-12 * (1.0 + abs(m)):
            return False
    return True


def doctored_tables(n):
    """(spec, field, table, raised) for n random graphs with an interior
    vertex: the solved table, then one interior vertex moved by 1e-3 to 10."""
    rng = random.Random(97)
    out = []
    while len(out) < 2 * n:
        spec = random_graph_spec(rng, max_vertices=15, max_extra_edges=15)
        interior = [v for v in spec["vertices"] if v not in spec["boundary"]]
        if not interior:
            continue
        _graph, field, data = build_instance(spec)
        table = dict(solve(field, data).vertex_values)
        out.append((spec, field, table, False))
        moved = dict(table)
        step = 10.0 ** rng.uniform(-3.0, 1.0)
        raised = rng.random() < 0.5
        moved[rng.choice(interior)] += step if raised else -step
        out.append((spec, field, moved, raised))
    return out


def test_monge_on_a_table_is_the_bellman_check():
    for spec, field, table, raised in doctored_tables(100):
        u = StoredSolution(field, table)
        seeded = verify_monge(u, field)
        assert seeded.sample_set == "seeded"
        assert seeded.ok == bellman_ok(spec, table)
        if raised:
            assert not seeded.ok
        dense = verify_monge(u, field, points=_default_samples(field.graph, 5)[0])
        assert dense.sample_set == "given"
        assert seeded.ok <= dense.ok


def test_monge_rejects_a_map_with_an_extra_low_interior_seed():
    """A seed inside an edge, below the solution there but high enough that
    every boundary value stays attained: an almost-everywhere solution
    whose only failure is the local minimum at the seed."""
    rng = random.Random(60)
    found = 0
    while found < 60:
        spec = random_graph_spec(rng, max_vertices=15, max_extra_edges=15)
        graph, field, data = build_instance(spec)
        u = solve(field, data)
        eid = rng.choice(sorted(graph.edges))
        p = graph.point(eid, rng.uniform(0.05, 0.95) * graph.edges[eid].length)
        to_p = OpticalMap(field, {p: 0.0}).vertex_values
        lo = max(u.vertex_values[b] - to_p[b] for b in spec["boundary"])
        hi = u.evaluate(p)
        if hi - lo < 1e-6:
            continue
        seeds = {Vertex(b): g for b, g in data.items()}
        seeds[p] = 0.5 * (lo + hi)
        dip = OpticalMap(field, seeds)
        assert all(dip.vertex_values[b] == u.vertex_values[b] for b in spec["boundary"])
        rep = verify_monge(dip, field)
        assert not rep.ok and not rep.supersolution_ok
        assert [s.point for s in rep.samples if not s.super_ok] == [p]
        found += 1


def test_monge_at_scale_samples_interior_vertices_and_kinks():
    spec = random_graph_spec(random.Random(5), max_vertices=3000, max_extra_edges=6000)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    rep = verify_monge(u, field)
    interior = [v for v, rec in graph.vertices.items() if not rec.boundary]
    kinks = sum(u.kink(eid) is not None for eid in graph.edges)
    assert rep.ok and rep.sample_set == "seeded"
    assert len(rep.samples) == len(interior) + kinks == 8429
    table = dict(u.vertex_values)
    table[interior[0]] += 1e-3
    bad = verify_monge(StoredSolution(field, table), field)
    assert not bad.ok
    (at_v,) = [s for s in bad.samples if s.point == Vertex(interior[0])]
    assert not at_v.sub_ok and "above its least incident branch" in at_v.reason


def test_monge_sampled_method_keeps_the_dense_set(interval):
    graph, field, data = interval
    u = solve(field, data)
    assert verify_monge(PlainFn(graph, u.evaluate), field).sample_set == "dense"


# ----------------------------------------------------------------------
# distance-type test functions
# ----------------------------------------------------------------------

def test_distance_test_quadratic(interval):
    graph, _, _ = interval
    x0 = interval_point(graph, 0.0)
    x = interval_point(graph, 0.7)
    got = distance_test_slope(graph, x0, lambda t: 2.0 * t, x)
    assert got == pytest.approx(1.4, abs=1e-15)
    assert distance_test_slope(graph, x0, lambda t: 2.0 * t, x0) == 0.0


def test_distance_test_rejects_bad_h(interval):
    graph, _, _ = interval
    x0 = interval_point(graph, 0.0)
    x = interval_point(graph, 0.5)
    with pytest.raises(PreconditionError, match="must vanish"):
        distance_test_slope(graph, x0, lambda t: 1.0, x)
    with pytest.raises(PreconditionError, match="nonnegative"):
        distance_test_slope(graph, x0, lambda t: -t, x)


def test_distance_test_function_slopes_match_both_methods(interval):
    graph, _, _ = interval
    k = 1.5
    x0 = interval_point(graph, -0.25)
    phi = DistanceTestFunction(graph, x0, lambda t: 2.0 * k * t,
                               h=lambda t: k * t * t + 3.0)
    x = interval_point(graph, 0.5)
    d = 0.75
    exact = slopes(phi, x, method="exact")
    assert exact.total == pytest.approx(2.0 * k * d, abs=1e-12)
    assert exact.down == pytest.approx(2.0 * k * d, abs=1e-12)
    sampled = slopes(phi, x, method="sampled")
    # quotients of the quadratic overshoot by k·r at radius r; the reported
    # tail begins at r0/2^8, which bounds the mismatch
    r_tail = sampled.radii[max(0, len(sampled.radii) - 5)]
    assert sampled.total == pytest.approx(2.0 * k * d, abs=2.0 * k * r_tail)


def test_distance_test_function_needs_h_for_evaluation(interval):
    graph, _, _ = interval
    phi = DistanceTestFunction(graph, interval_point(graph, 0.0), lambda t: t)
    with pytest.raises(PreconditionError, match="no h supplied"):
        phi.evaluate(interval_point(graph, 0.5))


def test_distance_test_on_star_vertex():
    g = MetricGraph([("c",), ("l0", True), ("l1", True), ("l2", True)],
                    [("a0", "c", "l0", 1.0), ("a1", "c", "l1", 1.0), ("a2", "c", "l2", 1.0)])
    got = distance_test_slope(g, Vertex("c"), lambda t: 2.0 * t, g.point("a1", 0.5))
    assert got == pytest.approx(1.0, abs=1e-15)


# ----------------------------------------------------------------------
# semiconcave identity in one dimension
# ----------------------------------------------------------------------

def grid(n=41):
    return [(-1.0 + 2.0 * i / (n - 1)) for i in range(n)]


def test_semiconcave_tent_identity():
    xs = grid()
    ys = [1.0 - abs(x) for x in xs]
    rep = semiconcave_slope_check(xs, ys, K=0.0)
    assert rep.ok and rep.max_gap == 0.0
    for x, total, down in rep.points:
        assert total == down == pytest.approx(1.0, abs=1e-12)


def test_semiconcave_rejects_convex_kink():
    xs = grid()
    ys = [abs(x) - 1.0 for x in xs]
    with pytest.raises(PreconditionError, match="not concave across"):
        semiconcave_slope_check(xs, ys, K=0.0)


def test_semiconcave_parabola_slopes():
    xs = grid(81)
    ys = [-x * x for x in xs]
    rep = semiconcave_slope_check(xs, ys, K=0.0)
    assert rep.ok
    h = xs[1] - xs[0]
    for x, total, down in rep.points:
        assert total == pytest.approx(abs(2.0 * x), abs=h + 1e-12)
        assert total - down <= 1e-12


def test_semiconcave_allows_gap_scaled_by_k():
    # the convex parabola x² is 1-semiconcave; its origin kink gap h stays
    # within the certified allowance 2·K·h_max
    xs = grid(41)
    ys = [x * x for x in xs]
    rep = semiconcave_slope_check(xs, ys, K=1.0)
    assert rep.ok
    assert rep.max_gap > 0.0
    assert rep.max_gap <= rep.gap_bound + 1e-12


def test_semiconcave_input_validation():
    with pytest.raises(InputError, match="at least 3"):
        semiconcave_slope_check([0.0, 1.0], [0.0, 1.0], K=0.0)
    with pytest.raises(InputError, match="strictly increasing"):
        semiconcave_slope_check([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], K=0.0)


def test_slopes_of_a_function_without_a_graph_need_one_passed():
    with pytest.raises(PreconditionError, match="no graph: pass graph="):
        slopes(lambda p: 0.0, Vertex("L"))
