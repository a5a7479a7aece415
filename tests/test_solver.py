"""The Dirichlet solver and its verification battery."""
import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from eikograph import (BoundaryData, Constant, CostField, Curve, InputError,
                       MetricGraph, StoredSolution, Vertex, boundary_modulus,
                       check_compatibility, graph_to_dict, optical_length, solve,
                       verify_dpp, verify_suboptimality)
from eikograph.cli import entry
from eikograph.graph import SeedMap
from eikograph.solver import _default_samples
from conftest import build_instance, interval_point, make_interval, random_graph_spec


class _Wrapped:
    """Minimal evaluable candidate: a callable dressed up with the attributes
    the verifiers touch."""

    def __init__(self, field, fn):
        self.field = field
        self.graph = field.graph
        self._fn = fn

    def evaluate(self, p):
        return self._fn(p)


# ----------------------------------------------------------------------
# the value formula
# ----------------------------------------------------------------------

def test_interval_solution_is_tent_exactly(interval):
    graph, field, data = interval
    u = solve(field, data)
    for k in range(101):
        x = -1.0 + k * 0.02
        assert u.evaluate(interval_point(graph, x)) == 1.0 - abs(x)
    assert u.evaluate(interval_point(graph, 0.0)) == 1.0


def test_star_center_value():
    g = MetricGraph([("c",), ("l0", True), ("l1", True), ("l2", True)],
                    [("a0", "c", "l0", 1.0), ("a1", "c", "l1", 1.0), ("a2", "c", "l2", 1.0)])
    field = CostField.constant(g, 1.0)
    u = solve(field, BoundaryData(g, {"l0": 0.0, "l1": 0.0, "l2": 0.0}))
    assert u.vertex_value("c") == 1.0


def test_incompatible_data_is_not_an_error():
    _, field, data = make_interval(g_left=0.0, g_right=3.0)
    u = solve(field, data)
    assert u.vertex_value("R") == 2.0          # value formula, not g
    assert u.vertex_value("L") == 0.0


def test_boundary_data_validation(interval):
    graph, _, _ = interval
    with pytest.raises(InputError, match="missing data"):
        BoundaryData(graph, {"L": 0.0})
    with pytest.raises(InputError, match="non-boundary"):
        BoundaryData(graph, {"L": 0.0, "R": 0.0, "ghost": 1.0})
    with pytest.raises(InputError, match="finite"):
        BoundaryData(graph, {"L": 0.0, "R": math.inf})
    interior_only = MetricGraph([("a",), ("b",)], [("e", "a", "b", 1.0)])
    with pytest.raises(InputError, match="no boundary"):
        BoundaryData(interior_only, {})


@given(st.integers(0, 10_000))
def test_value_equals_min_over_boundary_sources(seed):
    """Super-optimality: u(x) = min_y (g(y) + L_f(x, y)), computed here by
    the pairwise optical-length routine rather than the multi-source sweep."""
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    for _ in range(5):
        eid = sorted(graph.edges)[rng.randrange(len(graph.edges))]
        p = graph.point(eid, rng.random() * graph.edges[eid].length)
        want = min(g + optical_length(field, p, Vertex(vid))
                   for vid, g in data.items())
        assert u.evaluate(p) == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.integers(0, 10_000))
def test_value_is_nonexpansive_for_optical_length(seed):
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    eids = sorted(graph.edges)
    for _ in range(5):
        eid = eids[rng.randrange(len(eids))]
        x = graph.point(eid, rng.random() * graph.edges[eid].length)
        eid = eids[rng.randrange(len(eids))]
        y = graph.point(eid, rng.random() * graph.edges[eid].length)
        gap = abs(u.evaluate(x) - u.evaluate(y))
        assert gap <= optical_length(field, x, y) + 1e-9


@given(st.integers(0, 10_000))
def test_minimum_over_vertex_subset_sits_on_its_rim(seed):
    """With f > 0 an interior-to-the-subset vertex always undercuts itself
    through a neighbor, so the minimum over any vertex subset is attained on
    the subset's rim: its domain-boundary members plus the vertices with an
    edge leaving the subset."""
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=10, max_extra_edges=8)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    vids = spec["vertices"]
    S = set(rng.sample(vids, rng.randint(1, len(vids))))
    rim = set()
    for vid in S:
        if graph.vertices[vid].boundary:
            rim.add(vid)
            continue
        for eid, end in graph.adjacency(vid):
            rec = graph.edges[eid]
            other = rec.dst if end == 0 else rec.src
            if other not in S:
                rim.add(vid)
                break
    if not rim:
        return   # the whole graph with no boundary cannot occur; guard anyway
    m_all = min(u.vertex_value(v) for v in S)
    m_rim = min(u.vertex_value(v) for v in rim)
    assert m_rim == pytest.approx(m_all, abs=1e-12)


# ----------------------------------------------------------------------
# compatibility
# ----------------------------------------------------------------------

def test_compatibility_zero_data_passes(interval):
    _, field, data = interval
    rep = check_compatibility(field, data)
    assert rep.ok and rep.worst_violation == 0.0 and rep.witness is None


def test_compatibility_excess_is_exact():
    _, field, data = make_interval(g_left=0.0, g_right=3.0)
    rep = check_compatibility(field, data)
    assert not rep.ok
    assert rep.worst_violation == 1.0
    assert rep.witness == ("R", "L")


def test_compatibility_tight_case_passes():
    _, field, data = make_interval(g_left=0.0, g_right=2.0)
    rep = check_compatibility(field, data)
    assert rep.ok and rep.worst_violation == 0.0


# ----------------------------------------------------------------------
# DPP
# ----------------------------------------------------------------------

def test_dpp_exact_on_the_fixture(interval):
    graph, field, data = interval
    u = solve(field, data)
    pts = [interval_point(graph, x) for x in (-0.875, -0.5, 0.0, 0.25, 0.75)]
    rep = verify_dpp(u, points=pts, tau=0.1)
    assert rep.ok and rep.max_defect == 0.0
    assert not any(s.skipped for s in rep.samples)


def test_dpp_default_sampling_passes_on_random_instances():
    rng = random.Random(99)
    for _ in range(5):
        spec = random_graph_spec(rng, max_vertices=10, max_extra_edges=8)
        _, field, data = build_instance(spec)
        rep = verify_dpp(solve(field, data))
        assert rep.ok, rep.max_defect


def test_dpp_flags_a_perturbed_vertex():
    g = MetricGraph([("a", True), ("m",), ("b", True)],
                    [("e0", "a", "m", 1.0), ("e1", "m", "b", 1.0)])
    field = CostField.constant(g, 1.0)
    u = solve(field, BoundaryData(g, {"a": 0.0, "b": 0.0}))
    assert u.vertex_value("m") == 1.0
    bad = StoredSolution(field, {"a": 0.0, "m": 1.5, "b": 0.0})
    tau = 0.1
    rep = verify_dpp(bad, points=[Vertex("m")], tau=tau)
    assert not rep.ok
    fmax = field.sup_value()
    assert rep.max_defect >= 0.5 - tau * fmax


def test_dpp_skips_and_reports_oversized_radius(interval):
    graph, field, data = interval
    u = solve(field, data)
    near_boundary = interval_point(graph, -0.95)
    rep = verify_dpp(u, points=[near_boundary], tau=0.5)
    assert rep.ok                      # a skip is not a failure
    assert rep.samples[0].skipped
    assert "exceeds distance" in rep.samples[0].reason
    at_boundary = verify_dpp(u, points=[Vertex("L")], tau=0.1)
    assert at_boundary.samples[0].skipped
    assert at_boundary.samples[0].reason == "boundary point"


def test_dpp_detects_negated_solution(interval):
    """−u keeps the 1-Lipschitz bound but breaks the programming principle:
    at the tent's peak every departure of −u ascends, so the one-step
    minimum exceeds the value there by 2τ."""
    graph, field, data = interval
    u = solve(field, data)
    neg = _Wrapped(field, lambda p: -u.evaluate(p))
    rep = verify_dpp(neg, points=[interval_point(graph, 0.0)], tau=0.1)
    assert not rep.ok
    assert rep.max_defect == pytest.approx(0.2, abs=1e-12)


def test_dpp_boundary_distance_matches_a_dijkstra_from_each_point(monkeypatch):
    """verify_dpp reads d(p, ∂) from one unit-cost SeedMap seeded at every
    boundary vertex; every value it reads is a graph distance."""
    seen = []
    value = SeedMap._value

    def recording(self, p):
        d = value(self, p)
        if type(self) is SeedMap:      # the boundary map, not u
            seen.append((self, p, d))
        return d

    monkeypatch.setattr(SeedMap, "_value", recording)
    rng = random.Random(41)
    for _ in range(8):
        spec = random_graph_spec(rng, max_vertices=14, max_extra_edges=12)
        graph, field, data = build_instance(spec)
        seen.clear()
        verify_dpp(solve(field, data))
        read = list(seen)          # graph.distance below reads SeedMaps too
        assert read and len({id(m) for m, _, _ in read}) == 1
        for _, p, d in read:
            want = min(graph.distance(p, Vertex(b)) for b in graph.boundary_ids)
            # the same path lengths, summed from the other end
            assert d == pytest.approx(want, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("n_points", [1, 7, None])
def test_dpp_runs_one_dijkstra_whatever_the_sample_count(monkeypatch, n_points):
    rng = random.Random(5)
    spec = random_graph_spec(rng, max_vertices=12, max_extra_edges=10)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    points = None
    if n_points is not None:
        points = [graph.point(eid, rec.length * (k + 1) / (n_points + 1))
                  for eid, rec in list(graph.edges.items())[:1] for k in range(n_points)]
    runs = []
    dijkstra = MetricGraph.shortest_from_seeds

    def counting(self, seeds, edge_weight):
        runs.append(dict(seeds))
        return dijkstra(self, seeds, edge_weight)

    monkeypatch.setattr(MetricGraph, "shortest_from_seeds", counting)
    rep = verify_dpp(u, points=points)
    assert len(rep.samples) == (n_points or len(_default_samples(graph)))
    assert runs == [{b: 0.0 for b in graph.boundary_ids}]


@pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
def test_dpp_refuses_a_radius_that_is_not_positive_and_finite(interval, tau):
    """tau <= 0 would make every residual inf; tau = inf would skip every
    sample and pass having checked nothing."""
    _, field, data = interval
    with pytest.raises(InputError, match="positive finite"):
        verify_dpp(solve(field, data), tau=tau)


# ----------------------------------------------------------------------
# sub-optimality along curves
# ----------------------------------------------------------------------

def test_suboptimality_holds_for_the_value(interval):
    graph, field, data = interval
    u = solve(field, data)
    rep = verify_suboptimality(u, rng=random.Random(1), n_random=20)
    assert rep.ok
    assert rep.max_defect <= 1e-12
    assert rep.n_pairs > 0


def test_suboptimality_constant_candidate_passes(interval):
    graph, field, _ = interval
    const = _Wrapped(field, lambda p: 4.25)
    rep = verify_suboptimality(const, rng=random.Random(2), n_random=10)
    assert rep.ok and rep.max_defect <= 0.0


def test_suboptimality_negated_value_still_passes(interval):
    """Negation flips descent into ascent but the inequality only caps the
    rise by ∫f, and ±u are both 1-Lipschitz for the optical metric — the
    genuinely broken sides of −u are the DPP and the steepest-descent law."""
    graph, field, data = interval
    u = solve(field, data)
    neg = _Wrapped(field, lambda p: -u.evaluate(p))
    rep = verify_suboptimality(neg, rng=random.Random(3), n_random=20)
    assert rep.ok


def test_suboptimality_catches_overfast_growth(interval):
    graph, field, _ = interval
    d2 = _Wrapped(field, lambda p: 2.0 * graph.distance(Vertex("L"), p))
    curve = Curve(graph, [interval_point(graph, -0.8), interval_point(graph, 0.8)])
    rep = verify_suboptimality(d2, curves=[curve])
    assert not rep.ok
    assert rep.max_defect == pytest.approx(1.6, abs=1e-9)


# ----------------------------------------------------------------------
# boundary modulus
# ----------------------------------------------------------------------

def test_modulus_fixture_numbers(interval):
    graph, field, data = interval
    u = solve(field, data)
    rep = boundary_modulus(u)
    assert rep.ok and rep.compatible
    assert rep.upper_constant == 1.0          # max(sup f, Lip g) with g ≡ 0
    assert rep.max_upper_defect <= 0.0
    assert rep.max_abs_defect <= 0.0
    # the spot value from the closed form: x = 0.5 against y = R
    x = interval_point(graph, 0.5)
    assert u.evaluate(x) - 0.0 <= rep.upper_constant * graph.distance(x, Vertex("R")) + 1e-15


def test_modulus_boundary_identity_under_compatibility():
    _, field, data = make_interval(g_left=0.25, g_right=0.75)
    u = solve(field, data)
    rep = boundary_modulus(u)
    assert rep.compatible and rep.ok
    assert u.vertex_value("L") == 0.25 and u.vertex_value("R") == 0.75


def test_modulus_incompatible_keeps_upper_bound_only():
    _, field, data = make_interval(g_left=0.0, g_right=3.0)
    u = solve(field, data)
    rep = boundary_modulus(u)
    assert not rep.compatible
    assert math.isnan(rep.max_abs_defect)
    assert rep.max_upper_defect <= 1e-9       # the one-sided bound survives
    assert rep.upper_constant == pytest.approx(1.5)   # Lip g = |3-0|/2


def test_modulus_flags_perturbed_boundary_value(interval):
    graph, field, data = interval
    bad = StoredSolution(field, {"L": 0.4, "R": 0.0}, data=data)
    rep = boundary_modulus(bad)
    assert not rep.ok


def _count_dijkstras(monkeypatch):
    runs = []
    dijkstra = MetricGraph.shortest_from_seeds

    def counting(self, seeds, edge_weight):
        runs.append(dict(seeds))
        return dijkstra(self, seeds, edge_weight)

    monkeypatch.setattr(MetricGraph, "shortest_from_seeds", counting)
    return runs


def test_compatibility_witness_runs_one_dijkstra_per_violated_vertex(monkeypatch):
    """A star whose leaves l1, l2, l3 each undercut the worst violation so
    far: three witness searches, each one Dijkstra from its leaf, plus the
    solve itself."""
    graph = MetricGraph([("c",)] + [("l%d" % i, True) for i in range(4)],
                        [("a%d" % i, "c", "l%d" % i, 1.0) for i in range(4)])
    field = CostField.constant(graph, 1.0)
    data = BoundaryData(graph, {"l0": 0.0, "l1": 5.0, "l2": 6.0, "l3": 7.0})
    runs = _count_dijkstras(monkeypatch)
    rep = check_compatibility(field, data)
    assert (rep.worst_violation, rep.witness) == (5.0, ("l3", "l0"))
    assert runs[1:] == [{"l1": 0.0}, {"l2": 0.0}, {"l3": 0.0}]


def test_cli_solve_runs_one_dijkstra_on_compatible_data(monkeypatch, tmp_path):
    """The compatibility check reads the solve's own map: the CLI ``solve``
    (solution, report and an edge table) costs one run from the boundary."""
    graph = MetricGraph([("c",)] + [("l%d" % i, True) for i in range(3)],
                        [("a%d" % i, "c", "l%d" % i, 1.0 + i) for i in range(3)])
    data = BoundaryData(graph, {"l0": 0.0, "l1": 0.5, "l2": 1.0})
    path = tmp_path / "star.json"
    path.write_text(json.dumps(graph_to_dict(graph, CostField.constant(graph, 1.0), data)))
    runs = _count_dijkstras(monkeypatch)
    assert entry(["solve", str(path), "--out-dir", str(tmp_path / "out"),
                  "--edge-csv", "a1"]) == 0
    assert runs == [{"l0": 0.0, "l1": 0.5, "l2": 1.0}]


@pytest.mark.parametrize("seed", [0, 3, 10, 11, 20, 29])
def test_modulus_runs_one_dijkstra_per_point_whatever_the_boundary_size(monkeypatch, seed):
    """P sample points, B boundary vertices: P runs for the pairwise
    distances, B - 1 for Lip g (the last vertex has no later partner) and
    the compatibility check's own runs (seeds 10 and 20 have incompatible
    data, so those include witness searches)."""
    spec = random_graph_spec(random.Random(seed), max_vertices=14, max_extra_edges=12)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    points = _default_samples(graph) + [Vertex(b) for b in graph.boundary_ids]
    runs = _count_dijkstras(monkeypatch)
    _, fresh_field, fresh_data = build_instance(spec)   # a graph with no memo yet
    check_compatibility(fresh_field, fresh_data)
    n_compat = len(runs)
    runs.clear()
    rep = boundary_modulus(u)
    B = len(graph.boundary_ids)
    assert rep.n_checked == len(points) * B
    assert len(runs) == len(points) + (B - 1) + n_compat
