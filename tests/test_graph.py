"""Metric-graph foundations: validation, points, germs, distances, curves."""
import heapq
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eikograph import (CostField, Curve, DistanceField, EdgeInterior, Germ, InputError,
                       MetricGraph, OpticalMap, RecordError, Vertex, optical_length, random_curve)
from eikograph.graph import SeedMap
from conftest import build_instance, random_graph_spec, tiny_dijkstra


def star3():
    """Three unit edges from a hub to boundary leaves."""
    return MetricGraph(
        [("c",), ("l0", True), ("l1", True), ("l2", True)],
        [("a0", "c", "l0", 1.0), ("a1", "c", "l1", 1.0), ("a2", "c", "l2", 1.0)])


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------

def test_duplicate_vertex_rejected():
    with pytest.raises(InputError, match="duplicate vertex"):
        MetricGraph([("a",), ("a",)], [])


def test_edgeless_graph_rejected():
    """A graph needs an edge: a lone vertex has no direction to move in."""
    with pytest.raises(InputError, match="^graph needs at least one edge$"):
        MetricGraph([("a", True)], [])


def test_duplicate_edge_rejected():
    with pytest.raises(InputError, match="duplicate edge"):
        MetricGraph([("a",), ("b",)],
                    [("e", "a", "b", 1.0), ("e", "b", "a", 1.0)])


def test_dangling_endpoint_rejected():
    with pytest.raises(InputError, match="unknown vertex"):
        MetricGraph([("a",)], [("e", "a", "zzz", 1.0)])


@pytest.mark.parametrize("bad_len", [0.0, -1.0, math.inf, math.nan])
def test_nonpositive_length_rejected(bad_len):
    with pytest.raises(InputError, match="positive finite length"):
        MetricGraph([("a",), ("b",)], [("e", "a", "b", bad_len)])


@pytest.mark.parametrize("bad_len", [True, "1.0", None, 10 ** 400])
def test_a_length_that_is_not_a_real_number_is_refused(bad_len):
    with pytest.raises(RecordError, match="positive finite length") as exc:
        MetricGraph([("a",), ("b",)], [("e", "a", "b", bad_len)])
    assert (exc.value.kind, exc.value.id) == ("edge", "e")


def test_a_numpy_float_length_is_a_float():
    g = MetricGraph([("a",), ("b",)], [("e", "a", "b", np.float64(2.5))])
    assert type(g.edge("e").length) is float and g.edge("e").length == 2.5


@pytest.mark.parametrize("flag", ["no", 1, None])
def test_a_boundary_flag_is_a_bool(flag):
    with pytest.raises(RecordError, match="'boundary' must be true/false") as exc:
        MetricGraph([("a", True), ("b", flag)], [("e", "a", "b", 1.0)])
    assert (exc.value.kind, exc.value.id) == ("vertex", "b")


@pytest.mark.parametrize("vertices, edges, refusal", [
    ([("a", True, "x"), ("b",)], [("e", "a", "b", 1.0)],
     "a vertex must be an (id, boundary) pair or a VertexRec (got ('a', True, 'x'))"),
    ([("a",), 5], [("e", "a", "b", 1.0)],
     "a vertex must be an (id, boundary) pair or a VertexRec (got 5)"),
    ([("a",), ("b",)], [("e", "a", "b")],
     "an edge must be an (id, src, dst, length) tuple or an EdgeRec (got ('e', 'a', 'b'))"),
    ([("a",), ("b",)], [5], "an edge must be an (id, src, dst, length) tuple or an EdgeRec (got 5)"),
    ([(["a"], True), ("b",)], [("e", "a", "b", 1.0)], "vertex id ['a'] is not a string"),
    ([(1,), ("b",)], [("e", 1, "b", 1.0)], "vertex id 1 is not a string"),
    ([("a",), ("b",)], [(["e"], "a", "b", 1.0)], "edge id ['e'] is not a string"),
    ([("a",), ("b",)], [(1, "a", "b", 1.0)], "edge id 1 is not a string"),
], ids=["vertex-3-tuple", "vertex-int", "edge-3-tuple", "edge-int", "vertex-id-list",
        "vertex-id-int", "edge-id-list", "edge-id-int"])
def test_a_record_of_the_wrong_shape_is_refused(vertices, edges, refusal):
    """These died with a bare TypeError or ValueError; an int id was kept,
    and then written out as a number the loader refuses."""
    with pytest.raises(InputError) as exc:
        MetricGraph(vertices, edges)
    assert str(exc.value) == refusal


def test_an_edge_end_that_is_not_a_string_is_an_unknown_vertex():
    with pytest.raises(RecordError, match=r"edge 'e' references unknown vertex \['b'\]"):
        MetricGraph([("a",), ("b",)], [("e", "a", ["b"], 1.0)])


def test_a_graph_needs_a_vertex():
    with pytest.raises(InputError, match="^graph needs at least one vertex$"):
        MetricGraph([], [("e", "a", "b", 1.0)])


def test_point_queries_refuse_what_the_graph_lacks():
    g = star3()
    with pytest.raises(InputError, match="unknown vertex id 'zz'"):
        g.vertex_point("zz")
    with pytest.raises(InputError, match="unknown vertex id 'zz'"):
        g.validate_point(Vertex("zz"))
    for s in (0.0, 1.0, -0.5):
        with pytest.raises(InputError, match=r"interior offset %r outside \(0, 1.0\) on edge 'a0'" % s):
            g.validate_point(EdgeInterior("a0", s))
    with pytest.raises(InputError, match="not a graph point: 'c'"):
        g.validate_point("c")


def test_shortest_from_seeds_refuses_an_unknown_or_empty_seed_set():
    g = star3()
    with pytest.raises(InputError, match="seed at unknown vertex 'zz'"):
        g.shortest_from_seeds({"c": 0.0, "zz": 0.0}, lambda eid: 1.0)
    with pytest.raises(InputError, match="empty seed set"):
        g.shortest_from_seeds({}, lambda eid: 1.0)


def test_curve_refuses_a_wrong_annotation_count_and_times_off_the_curve():
    g = star3()
    with pytest.raises(InputError, match="one entry per step"):
        Curve(g, [Vertex("l0"), Vertex("c"), Vertex("l1")], edges=["a0"])
    curve = Curve(g, [Vertex("l0"), Vertex("c"), Vertex("l1")], edges=["a0", "a1"])
    for t in (-0.5, 2.5):
        with pytest.raises(InputError, match=r"curve time %r outside \[0, 2.0\]" % t):
            curve.point_at(t)


def test_disconnected_rejected():
    with pytest.raises(InputError, match="not connected"):
        MetricGraph([("a",), ("b",), ("c",)], [("e", "a", "b", 1.0)])


def test_self_loops_and_parallel_edges_allowed():
    g = MetricGraph([("a",), ("b", True)],
                    [("e0", "a", "b", 1.0), ("e1", "a", "b", 2.0),
                     ("loop", "a", "a", 0.5)])
    assert sorted(g.edges) == ["e0", "e1", "loop"]
    assert g.boundary_ids == ["b"]
    # the self-loop contributes both of its ends to a's adjacency
    assert len(g.adjacency("a")) == 4


# ----------------------------------------------------------------------
# points and germs
# ----------------------------------------------------------------------

def test_point_canonicalizes_endpoints(interval):
    graph, _, _ = interval
    assert graph.point("e", 0.0) == Vertex("L")
    assert graph.point("e", 2.0) == Vertex("R")
    p = graph.point("e", 0.7)
    assert p == EdgeInterior("e", 0.7)


def test_point_outside_edge_rejected(interval):
    graph, _, _ = interval
    with pytest.raises(InputError):
        graph.point("e", -0.1)
    with pytest.raises(InputError):
        graph.point("e", 2.1)


def test_germ_counts(interval):
    graph, _, _ = interval
    assert len(graph.germs(Vertex("L"))) == 1
    assert len(graph.germs(graph.point("e", 1.0))) == 2
    assert len(star3().germs(Vertex("c"))) == 3


def test_germ_point_is_isometric_up_to_half_min_edge():
    """d(x, germ(t)) == t for t below half the shortest incident edge: every
    short walk along one germ is itself the unique shortest route."""
    g = star3()
    x = Vertex("c")
    r0 = g.half_min_incident(x)
    assert r0 == 0.5
    for germ in g.germs(x):
        for t in (0.0, 0.125, 0.25, r0):
            y = g.germ_point(germ, t)
            assert g.distance(x, y) == pytest.approx(t, abs=1e-15)


def test_germ_available_is_remaining_length(interval):
    graph, _, _ = interval
    p = graph.point("e", 0.5)
    avail = sorted(graph.germ_available(germ) for germ in graph.germs(p))
    assert avail == [0.5, 1.5]


# ----------------------------------------------------------------------
# shortest paths against the bare-heapq oracle
# ----------------------------------------------------------------------

@given(st.integers(0, 10_000))
def test_vertex_shortest_paths_match_oracle(seed):
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=12, max_extra_edges=10)
    graph, _, _ = build_instance(spec)
    adj = {vid: [] for vid in spec["vertices"]}
    for e in spec["edges"]:
        adj[e["src"]].append((e["dst"], e["length"]))
        adj[e["dst"]].append((e["src"], e["length"]))
    seeds = {spec["boundary"][0]: 0.0}
    want = tiny_dijkstra(adj, seeds)
    got = graph.shortest_from_seeds(seeds, lambda eid: graph.edges[eid].length)
    for vid in spec["vertices"]:
        assert got[vid] == pytest.approx(want[vid], abs=1e-12)


def _random_point(graph, rng):
    eid = sorted(graph.edges)[rng.randrange(len(graph.edges))]
    return graph.point(eid, rng.random() * graph.edges[eid].length)


def _interior(graph, rng):
    """(edge, offset) strictly inside a random edge."""
    eid = sorted(graph.edges)[rng.randrange(len(graph.edges))]
    return eid, rng.uniform(0.1, 0.9) * graph.edges[eid].length


@given(st.integers(0, 10_000))
def test_distance_is_a_metric(seed):
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
    graph, _, _ = build_instance(spec)
    x, y, z = (_random_point(graph, rng) for _ in range(3))
    dxy = graph.distance(x, y)
    assert dxy >= 0.0
    assert graph.distance(x, x) == 0.0
    assert graph.distance(y, x) == pytest.approx(dxy, abs=1e-12)
    assert dxy <= graph.distance(x, z) + graph.distance(z, y) + 1e-12


def test_interval_distance_is_coordinate_gap(interval):
    graph, _, _ = interval
    p, q = graph.point("e", 0.25), graph.point("e", 1.8)
    assert graph.distance(p, q) == pytest.approx(1.55, abs=1e-15)
    assert graph.distance(Vertex("L"), Vertex("R")) == 2.0


def test_same_edge_detour_beats_direct_when_shorter():
    # parallel edges: a long edge whose interior points are better reached
    # around the short one
    g = MetricGraph([("a",), ("b", True)],
                    [("short", "a", "b", 1.0), ("long", "a", "b", 10.0)])
    p = g.point("long", 4.0)
    # direct along "long": 4.0; around: 4.0 stays best from a...
    assert g.distance(Vertex("a"), p) == pytest.approx(4.0)
    q = g.point("long", 9.5)
    # direct 9.5 vs through b on "short" then 0.5 back: 1.5
    assert g.distance(Vertex("a"), q) == pytest.approx(1.5)


# ----------------------------------------------------------------------
# the kernel's pruned pushes and point_cost's source memo
# ----------------------------------------------------------------------

def _unpruned_dijkstra(graph, seeds, edge_weight):
    """The kernel before pruning: every offer to an unsettled vertex is
    pushed, and stale entries are skipped when popped."""
    done = {}
    heap = sorted((c, vid) for vid, c in seeds.items())
    while heap:
        cost, vid = heapq.heappop(heap)
        if vid in done:
            continue
        done[vid] = cost
        for eid, _end in graph.adjacency(vid):
            rec = graph.edges[eid]
            other = rec.dst if rec.src == vid else rec.src
            if rec.src == rec.dst:
                other = vid
            if other not in done:
                heapq.heappush(heap, (cost + edge_weight(eid), other))
    return done


@pytest.mark.parametrize("seed", range(40))
def test_pruned_kernel_equals_the_unpruned_one(seed):
    """Equal tables in the same key order, on multigraphs with a self-loop,
    parallel edges, many tied costs and a seed undercut by another seed."""
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    vids = ["v%d" % i for i in rng.sample(range(100), n)]
    edges = [("t%d" % i, vids[rng.randrange(i)], vids[i], 1.0) for i in range(1, n)]
    a = vids[rng.randrange(n)]
    edges.append(("loop", a, a, 0.5))
    b = vids[rng.randrange(1, n)]
    edges.append(("par0", vids[0], b, 1.0))
    edges.append(("par1", b, vids[0], 0.5))
    for i in range(rng.randint(0, 2 * n)):
        edges.append(("x%d" % i, vids[rng.randrange(n)], vids[rng.randrange(n)], 1.0))
    graph = MetricGraph([(v,) for v in vids], edges)
    # quarter-steps make ties common, so (cost, id) ordering is exercised
    weight = {eid: 0.25 * rng.randint(1, 8) for eid in graph.edges}
    seeds = {vids[0]: 0.0}
    for v in rng.sample(vids, rng.randint(0, n - 1)):
        seeds[v] = 0.25 * rng.randint(0, 12)
    seeds[vids[-1]] = 100.0   # undercut: every path here is shorter than 100
    for edge_weight in (weight.__getitem__, lambda eid: graph.edges[eid].length):
        got = graph.shortest_from_seeds(seeds, edge_weight)
        want = _unpruned_dijkstra(graph, seeds, edge_weight)
        assert list(got.items()) == list(want.items())


def _heapq_settle(spec):
    """The vertex values of the map seeded at the boundary with g, by a
    bare heapq loop: keyed (cost, vertex id), pushing only an offer that
    strictly lowers the best cost known.  Edge costs are the closed-form
    integrals of the spec's linear profiles."""
    adj = {vid: [] for vid in spec["vertices"]}
    for e in spec["edges"]:
        L = e["length"]
        w = e["a"] * L + 0.5 * e["b"] * (L * L)
        adj[e["src"]].append((e["dst"], w))
        adj[e["dst"]].append((e["src"], w))
    seeds = {vid: spec["g"][vid] for vid in spec["boundary"]}
    done, best = {}, dict(seeds)
    heap = sorted((c, vid) for vid, c in seeds.items())
    while heap:
        cost, vid = heapq.heappop(heap)
        if vid in done:
            continue
        done[vid] = cost
        for other, w in adj[vid]:
            c = cost + w
            if other not in done and (other not in best or c < best[other]):
                best[other] = c
                heapq.heappush(heap, (c, other))
    return done


@pytest.mark.parametrize("seed", range(30))
def test_seed_map_settles_like_a_bare_heapq_loop(seed):
    """Equal values in equal (settling) order."""
    spec = random_graph_spec(random.Random(seed))
    graph, field, data = build_instance(spec)
    u = SeedMap(graph, {Vertex(vid): g for vid, g in data.items()}, field.profiles)
    assert list(u.vertex_values.items()) == list(_heapq_settle(spec).items())


def _memo_instance(seed):
    spec = random_graph_spec(random.Random(seed), max_vertices=10, max_extra_edges=8)
    return spec, build_instance(spec)[0]


@pytest.mark.parametrize("seed", range(12))
def test_distance_memo_matches_a_fresh_graph_for_interleaved_sources(seed):
    spec, graph = _memo_instance(seed)
    rng = random.Random(seed + 1000)
    x1, x2, y, y2 = (_random_point(graph, rng) for _ in range(4))
    for x, target in ((x1, y), (x2, y), (x1, y), (x1, y2), (x2, y2), (x2, y)):
        fresh = build_instance(spec)[0]
        assert graph.distance(x, target) == fresh.distance(x, target)


@pytest.mark.parametrize("seed", range(12))
def test_distance_memo_from_an_edge_interior_source(seed):
    """An interior source seeds both ends of its edge; a target on the same
    edge may be reached directly, on either side of the source."""
    spec, graph = _memo_instance(seed)
    rng = random.Random(seed + 2000)
    eid = sorted(graph.edges)[rng.randrange(len(graph.edges))]
    rec = graph.edges[eid]
    L = rec.length
    x = EdgeInterior(eid, 0.4 * L)
    targets = [EdgeInterior(eid, 0.1 * L), EdgeInterior(eid, 0.9 * L), x,
               Vertex(rec.src), Vertex(rec.dst), _random_point(graph, rng),
               EdgeInterior(eid, 0.7 * L)]
    for target in targets:
        fresh = build_instance(spec)[0]
        assert graph.distance(x, target) == fresh.distance(x, target)
    # the direct same-edge branch bounds both by their offset gap
    assert graph.distance(x, targets[0]) <= 0.3 * L * (1 + 1e-12)
    assert graph.distance(x, targets[6]) <= 0.3 * L * (1 + 1e-12)


# ----------------------------------------------------------------------
# DistanceField
# ----------------------------------------------------------------------

def test_distance_field_matches_pairwise_distance():
    """A map seeded at x0 and the pairwise queries from x0 apply one branch
    rule, so they agree to the last bit: for the distance and for the
    optical length alike."""
    rng = random.Random(5)
    for _ in range(40):
        spec = random_graph_spec(rng, max_vertices=9, max_extra_edges=8)
        graph, field, _ = build_instance(spec)
        x0 = _random_point(graph, rng)
        dfield = DistanceField(graph, x0)
        omap = OpticalMap(field, {x0: 0.0})
        for _ in range(25):
            p = _random_point(graph, rng)
            assert dfield.evaluate(p) == graph.distance(x0, p)
            assert omap.evaluate(p) == optical_length(field, x0, p)


def test_distance_field_germ_derivatives_equal_a_unit_optical_map():
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
        graph, _, _ = build_instance(spec)
        x0 = graph.point(*_interior(graph, rng))
        dfield = DistanceField(graph, x0)
        unit = OpticalMap(CostField.constant(graph, 1.0), {x0: 0.0})
        # the seed itself, points of its edge, random interior points, vertices
        targets = [x0, graph.point(x0.edge, 0.5 * x0.s)]
        targets += [graph.point(*_interior(graph, rng)) for _ in range(6)]
        targets += [Vertex(vid) for vid in graph.vertices]
        for p in targets:
            assert dfield.evaluate(p) == unit.evaluate(p)
            for germ in graph.germs(p):
                assert dfield.germ_derivative(p, germ) == unit.germ_derivative(p, germ)
                checked += 1
    assert checked > 500


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_seed_map_is_the_one_seeded_map_evaluator():
    """No seeded map in the package gives an evaluator method a body of its
    own: a name a subclass restates is SeedMap's own function, not a copy."""
    maps = [cls for cls in _subclasses(SeedMap) if cls.__module__.startswith("eikograph.")]
    assert {cls.__name__ for cls in maps} >= {"DistanceField", "OpticalMap", "StoredSolution",
                                               "ValueFunction"}
    for cls in maps:
        for name in ("_value", "_branches", "germ_derivative", "evaluate"):
            assert vars(cls).get(name, vars(SeedMap)[name]) is vars(SeedMap)[name], (cls, name)
    for name in ("evaluate", "germ_derivative"):
        assert vars(OpticalMap)[name] is vars(SeedMap)[name]


def test_distance_field_germ_derivatives_on_interval(interval):
    graph, _, _ = interval
    x0 = graph.point("e", 1.0)
    dfield = DistanceField(graph, x0)
    p = graph.point("e", 1.5)
    derivs = {germ.sign: dfield.germ_derivative(p, germ) for germ in graph.germs(p)}
    assert derivs[+1] == 1.0    # away from x0
    assert derivs[-1] == -1.0   # toward x0
    at_base = {germ.sign: dfield.germ_derivative(x0, germ) for germ in graph.germs(x0)}
    assert at_base == {+1: 1.0, -1: 1.0}   # distance grows in both directions


# ----------------------------------------------------------------------
# curves
# ----------------------------------------------------------------------

def test_curve_basic_polyline(interval):
    graph, _, _ = interval
    c = Curve(graph, [Vertex("L"), graph.point("e", 1.2), graph.point("e", 0.4)])
    assert c.length == pytest.approx(2.0)
    assert c.times() == pytest.approx([0.0, 1.2, 2.0])
    assert c.point_at(0.0) == Vertex("L")
    assert c.point_at(1.2) == EdgeInterior("e", 1.2)
    # after the turn the curve heads back down the edge
    assert c.point_at(1.5) == EdgeInterior("e", pytest.approx(0.9))
    assert c.length == c.times()[-1]


def test_curve_needs_shared_edge():
    g = star3()
    with pytest.raises(InputError, match="share no edge"):
        Curve(g, [Vertex("l0"), Vertex("l1")])


@pytest.mark.parametrize("n_points", [0, 1])
def test_curve_needs_two_points(interval, n_points):
    """A one-point curve has no segment; verify_suboptimality indexed its
    last one and died with an IndexError."""
    graph, _, _ = interval
    with pytest.raises(InputError, match="at least two points"):
        Curve(graph, [graph.point("e", 0.7)] * n_points)


def test_curve_hint_selects_parallel_edge():
    g = MetricGraph([("a",), ("b", True)],
                    [("e0", "a", "b", 1.0), ("e1", "a", "b", 5.0)])
    fast = Curve(g, [Vertex("a"), Vertex("b")], edges=["e0"])
    slow = Curve(g, [Vertex("a"), Vertex("b")], edges=["e1"])
    assert fast.length == 1.0 and slow.length == 5.0
    # without the hint the shortest realization wins
    assert Curve(g, [Vertex("a"), Vertex("b")]).length == 1.0
    with pytest.raises(InputError, match="annotated edge"):
        Curve(g, [Vertex("a"), g.point("e1", 2.0)], edges=["e0"])


def test_curve_self_loop_full_traversal():
    g = MetricGraph([("a",), ("b", True)],
                    [("loop", "a", "a", 2.0), ("e", "a", "b", 1.0)])
    c = Curve(g, [Vertex("a"), Vertex("a")], edges=["loop"])
    assert c.length == 2.0
    assert c.point_at(1.0) == EdgeInterior("loop", 1.0)


def test_point_at_a_breakpoint_is_the_polyline_point():
    """Curve time t of breakpoint i maps back to points[i] exactly, not to a
    point an ulp off it.  That holds for the last one too, although its
    time, the curve's length, is a float sum of segment lengths, which need
    not land on the end offset."""
    rng = random.Random(17)
    n = 0
    while n < 2000:
        graph, _, _ = build_instance(random_graph_spec(rng, max_vertices=10, max_extra_edges=8))
        try:
            c = random_curve(graph, rng, steps=rng.randrange(3, 9))
        except InputError:
            continue
        n += 1
        for t, p in zip(c.times(), c.points):
            assert c.point_at(t) == p


@given(st.integers(0, 5_000))
def test_random_curve_avoids_boundary_vertices(seed):
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
    graph, _, _ = build_instance(spec)
    try:
        c = random_curve(graph, rng, steps=5)
    except InputError:
        return   # tiny instances may have no wandering room at all
    boundary = set(graph.boundary_ids)
    for p in c.points:
        if isinstance(p, Vertex):
            assert p.id not in boundary
    assert c.length > 0.0
