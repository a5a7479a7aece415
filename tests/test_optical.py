"""Optical length and multi-source maps: closed forms on the interval,
agreement with single-source decompositions, exact germ derivatives."""
import math
import random

import pytest
from hypothesis import given, strategies as st

from eikograph import (Constant, CostField, InputError, Linear, MetricGraph,
                       OpticalMap, StoredSolution, Vertex, optical_length)
from conftest import build_instance, interval_point, make_interval, random_graph_spec


# ----------------------------------------------------------------------
# optical length
# ----------------------------------------------------------------------

def test_unit_cost_reduces_to_distance(interval):
    graph, field, _ = interval
    p, q = interval_point(graph, -0.5), interval_point(graph, 0.75)
    assert optical_length(field, p, q) == pytest.approx(1.25, abs=1e-15)


def test_linear_cost_closed_form():
    graph, _, _ = make_interval()
    field = CostField(graph, {"e": Linear(1.0, 0.5)})
    p, q = graph.point("e", 0.5), graph.point("e", 1.5)
    # ∫_{0.5}^{1.5} (1 + s/2) ds = 1 + (1.5² - 0.5²)/4
    assert optical_length(field, p, q) == pytest.approx(1.5, abs=1e-12)


def test_optical_length_routes_around_expensive_edge():
    g = MetricGraph([("a",), ("b", True)],
                    [("cheap", "a", "b", 1.0), ("dear", "a", "b", 1.0)])
    field = CostField(g, {"cheap": Constant(1.0), "dear": Constant(10.0)})
    p = g.point("dear", 0.9)
    # staying on "dear": 9.0; backtracking to a then through "cheap": 10.0;
    # forward to b costs only 1.0
    assert optical_length(field, Vertex("a"), p) == pytest.approx(2.0)


@given(st.integers(0, 10_000))
def test_optical_length_is_symmetric_and_triangular(seed):
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=7, max_extra_edges=5)
    graph, field, _ = build_instance(spec)

    def rand_point():
        eid = sorted(graph.edges)[rng.randrange(len(graph.edges))]
        return graph.point(eid, rng.random() * graph.edges[eid].length)

    x, y, z = rand_point(), rand_point(), rand_point()
    dxy = optical_length(field, x, y)
    assert dxy >= 0.0
    assert optical_length(field, y, x) == pytest.approx(dxy, rel=1e-12, abs=1e-12)
    assert dxy <= (optical_length(field, x, z) + optical_length(field, z, y)
                   + 1e-9 * (1.0 + dxy))


@pytest.mark.parametrize("seed", range(12))
def test_optical_length_memo_keeps_cost_fields_apart(seed):
    """Two cost fields and the unit metric on one graph, queried in turns
    from the same sources: no query may read another's vertex table."""
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=10, max_extra_edges=8)
    other = {e["id"]: Linear(rng.uniform(0.1, 5.0), 0.0) for e in spec["edges"]}
    graph, field_a, _ = build_instance(spec)
    field_b = CostField(graph, other)

    def fresh(kind):
        g, fa, _ = build_instance(spec)
        return {"a": fa, "b": CostField(g, other), "d": g}[kind]

    def rand_point():
        eid = sorted(graph.edges)[rng.randrange(len(graph.edges))]
        return graph.point(eid, rng.random() * graph.edges[eid].length)

    x1, x2, y1, y2 = (rand_point() for _ in range(4))
    for kind, x, y in (("a", x1, y1), ("b", x1, y1), ("a", x1, y2), ("d", x1, y2),
                       ("b", x1, y2), ("b", x2, y1), ("a", x2, y1), ("a", x2, y2)):
        if kind == "d":
            got, want = graph.distance(x, y), fresh("d").distance(x, y)
        else:
            field = field_a if kind == "a" else field_b
            got, want = optical_length(field, x, y), optical_length(fresh(kind), x, y)
        assert got == want


# ----------------------------------------------------------------------
# the map
# ----------------------------------------------------------------------

def test_map_needs_a_seed(interval):
    _, field, _ = interval
    with pytest.raises(InputError, match="at least one seed"):
        OpticalMap(field, {})


@given(st.integers(0, 10_000))
def test_multi_source_is_min_of_single_sources(seed):
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
    graph, field, _ = build_instance(spec)
    vids = spec["vertices"]
    seeds = {Vertex(v): rng.uniform(0.0, 2.0)
             for v in rng.sample(vids, rng.randint(1, min(3, len(vids))))}
    combined = OpticalMap(field, seeds)
    singles = [OpticalMap(field, {p: val}) for p, val in seeds.items()]
    for _ in range(10):
        eid = sorted(graph.edges)[rng.randrange(len(graph.edges))]
        p = graph.point(eid, rng.random() * graph.edges[eid].length)
        want = min(s.evaluate(p) for s in singles)
        assert combined.evaluate(p) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_interior_seed_direct_branch(interval):
    graph, field, _ = interval
    x0 = interval_point(graph, 0.2)
    u = OpticalMap(field, {x0: 0.0})
    for x in (-1.0, -0.3, 0.2, 0.9, 1.0):
        assert u.evaluate(interval_point(graph, x)) == pytest.approx(abs(x - 0.2), abs=1e-12)
    # at the seed both germ departures ascend at rate f = 1
    for germ in graph.germs(x0):
        assert u.germ_derivative(x0, germ) == pytest.approx(1.0)


def test_germ_derivative_signs_on_interval(interval):
    graph, field, _ = interval
    u = OpticalMap(field, {Vertex("L"): 0.0})   # u = s along the edge
    p = interval_point(graph, 0.5)
    for germ in graph.germs(p):
        want = 1.0 if germ.sign > 0 else -1.0
        assert u.germ_derivative(p, germ) == want


def test_germ_derivative_at_tie_takes_steeper_descent(interval):
    graph, field, _ = interval
    u = OpticalMap(field, {Vertex("L"): 0.0, Vertex("R"): 0.0})   # tent map
    mid = interval_point(graph, 0.0)
    assert u.evaluate(mid) == 1.0
    # both branches active at the peak: each germ's one-sided derivative is
    # the min over active branches, i.e. descent at rate -1
    for germ in graph.germs(mid):
        assert u.germ_derivative(mid, germ) == -1.0


@given(st.integers(0, 10_000))
def test_germ_derivative_matches_difference_quotient(seed):
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
    graph, field, _ = build_instance(spec)
    seeds = {Vertex(spec["boundary"][0]): 0.0}
    u = OpticalMap(field, seeds)
    eid = sorted(graph.edges)[rng.randrange(len(graph.edges))]
    L = graph.edges[eid].length
    p = graph.point(eid, rng.uniform(0.3, 0.7) * L)
    t = 1e-7 * L
    for germ in graph.germs(p):
        quot = (u.evaluate(graph.germ_point(germ, t)) - u.evaluate(p)) / t
        assert u.germ_derivative(p, germ) == pytest.approx(quot, abs=1e-5)


def test_kink_location(interval):
    graph, field, _ = interval
    tent = OpticalMap(field, {Vertex("L"): 0.0, Vertex("R"): 0.0})
    assert tent.kink("e") == pytest.approx(1.0, abs=1e-15)
    tilted = OpticalMap(field, {Vertex("L"): 0.0, Vertex("R"): 1.0})
    assert tilted.kink("e") == pytest.approx(1.5, abs=1e-15)
    one_way = OpticalMap(field, {Vertex("L"): 0.0, Vertex("R"): 2.0})
    assert one_way.kink("e") is None   # branches meet exactly at the endpoint
    assert OpticalMap(field, {Vertex("L"): 0.0, Vertex("R"): 9.0}).kink("e") is None


def test_kink_value_is_branch_crossing():
    graph, _, _ = make_interval()
    field = CostField(graph, {"e": Linear(0.5, 0.75)})
    u = OpticalMap(field, {Vertex("L"): 0.0, Vertex("R"): 0.0})
    s = u.kink("e")
    assert s is not None
    left = field.edge_cost("e", 0.0, s)
    right = field.edge_cost("e", s, 2.0)
    assert left == pytest.approx(right, rel=1e-12)
    assert u.evaluate(graph.point("e", s)) == pytest.approx(left, rel=1e-12)


# ----------------------------------------------------------------------
# stored solutions
# ----------------------------------------------------------------------

def test_stored_solution_reproduces_map(interval):
    graph, field, _ = interval
    u = OpticalMap(field, {Vertex("L"): 0.0, Vertex("R"): 0.5})
    copy = StoredSolution(field, dict(u.vertex_values))
    rng = random.Random(3)
    for _ in range(20):
        p = graph.point("e", rng.uniform(0.0, 2.0))
        assert copy.evaluate(p) == u.evaluate(p)
        for germ in graph.germs(p):
            assert copy.germ_derivative(p, germ) == u.germ_derivative(p, germ)


def test_stored_solution_validates_coverage(interval):
    _, field, _ = interval
    with pytest.raises(InputError):
        StoredSolution(field, {"L": 0.0})
    with pytest.raises(InputError):
        StoredSolution(field, {"L": 0.0, "R": 0.0, "ghost": 1.0})
    with pytest.raises(InputError):
        StoredSolution(field, {"L": 0.0, "R": math.nan})


def test_stored_solution_honors_perturbed_table(interval):
    """A table that is *not* the optical propagation of any seed set must be
    reproduced verbatim — that is the whole point of loading candidates."""
    _, field, _ = interval
    bad = StoredSolution(field, {"L": 0.0, "R": 9.0})
    assert bad.vertex_value("R") == 9.0
