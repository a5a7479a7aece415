"""The Dirichlet solver and its verification battery."""
import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eikograph import (BoundaryData, Constant, CostField, Curve, EdgeInterior, InputError,
                       Linear, MetricGraph, OpticalMap, PreconditionError, Samples,
                       StoredSolution, Vertex, boundary_modulus, check_compatibility,
                       graph_to_dict, optical_length, random_curve, solve, verify_dpp,
                       verify_monge, verify_suboptimality)
from eikograph.cli import entry
from eikograph import graph as graph_module
from eikograph.graph import KnotBatch, SeedMap, _default_samples
from eikograph.solver import BoundaryModulusReport, _lipschitz_of_g
from conftest import (build_instance, exact_vertex_values, interval_point, make_interval,
                      random_graph_spec)


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
    with pytest.raises(InputError, match="missing its value"):
        BoundaryData(graph, {"L": 0.0})
    with pytest.raises(InputError, match="not a boundary vertex"):
        BoundaryData(graph, {"L": 0.0, "R": 0.0, "ghost": 1.0})
    with pytest.raises(InputError, match="finite"):
        BoundaryData(graph, {"L": 0.0, "R": math.inf})
    interior_only = MetricGraph([("a",), ("b",)], [("e", "a", "b", 1.0)])
    with pytest.raises(InputError, match="no boundary"):
        BoundaryData(interior_only, {})


@pytest.mark.parametrize("g", [True, "0.0", None, math.nan, -math.inf, 10 ** 400])
def test_a_boundary_value_is_a_finite_real_number(interval, g):
    graph, _, _ = interval
    with pytest.raises(InputError, match=r"vertex 'R': 'g' must be a finite number") as exc:
        BoundaryData(graph, {"L": 0.0, "R": g})
    assert (exc.value.kind, exc.value.id) == ("vertex", "R")
    data = BoundaryData(graph, {"L": 0, "R": np.float64(0.5)})
    assert type(data["L"]) is type(data["R"]) is float


def test_a_value_function_refuses_data_on_another_graph():
    _, field, _ = make_interval()
    _, _, other = make_interval()
    with pytest.raises(InputError, match="boundary data and cost field refer to different graphs"):
        solve(field, other)


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
    """A radius past the nearest boundary vertex is checked, not skipped: the
    walk toward it stops there.  Only a boundary point is skipped."""
    graph, field, data = interval
    u = solve(field, data)
    near_boundary = interval_point(graph, -0.95)
    rep = verify_dpp(u, points=[near_boundary], tau=0.5)
    assert rep.ok
    assert not rep.samples[0].skipped
    assert rep.samples[0].residual == 0.0
    at_boundary = verify_dpp(u, points=[Vertex("L")], tau=0.1)
    assert at_boundary.samples[0].skipped
    assert at_boundary.samples[0].reason == "boundary point"


def _dip(field):
    """The interval's solution with an extra interior seed at x = -0.95,
    0.03 below it there: g stays attained, and the seed is a local minimum
    the programming principle rejects."""
    dip = EdgeInterior("e", 0.05)
    return dip, OpticalMap(field, {Vertex("L"): 0.0, Vertex("R"): 0.0, dip: 0.02})


@pytest.mark.parametrize("tau", [None, 0.5])
def test_dpp_rejects_a_dip_next_to_the_boundary(interval, tau):
    _, field, _ = interval
    dip, u = _dip(field)
    rep = verify_dpp(u, points=[dip], tau=tau)
    assert not rep.ok
    assert not rep.samples[0].skipped
    assert rep.max_defect == pytest.approx(0.03, abs=1e-15)


def test_dpp_checks_every_sample_at_a_radius_past_the_boundary(interval):
    graph, field, data = interval
    rep = verify_dpp(solve(field, data), tau=10.0)
    assert len(rep.samples) == len(_default_samples(graph)[0]) == 3
    assert not any(s.skipped for s in rep.samples)
    assert rep.ok and rep.max_defect == 0.0
    assert not verify_dpp(_dip(field)[1], tau=10.0).ok


def test_dpp_checks_every_default_sample_on_random_instances():
    rng = random.Random(12)
    for _ in range(20):
        spec = random_graph_spec(rng, max_vertices=14, max_extra_edges=12)
        graph, field, data = build_instance(spec)
        u = solve(field, data)
        longest = max(rec.length for rec in graph.edges.values())
        for tau in (None, longest):
            rep = verify_dpp(u, tau=tau)
            assert not any(s.skipped for s in rep.samples)
            assert rep.ok, (tau, rep.max_defect)


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


@pytest.mark.parametrize("n_points", [1, 7, None])
def test_dpp_runs_no_dijkstra_whatever_the_sample_count(monkeypatch, n_points):
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
    assert len(rep.samples) == (n_points or len(_default_samples(graph)[0]))
    assert runs == []


@pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan, True, "x"])
def test_dpp_refuses_a_radius_that_is_not_positive_and_finite(interval, tau):
    """tau <= 0 would make every residual inf; an infinite tau would be
    written into the report as JSON null; True passed as a radius of 1 and
    "x" raised a bare TypeError."""
    _, field, data = interval
    with pytest.raises(InputError, match="positive finite"):
        verify_dpp(solve(field, data), tau=tau)


def test_dpp_walk_of_a_whole_germ_ends_at_the_edge_end():
    """With a radius past both ends, a walk from b runs the germ's whole
    length and ends exactly at 0 or L, where b + (L - b) can round past L
    (once refused as an offset outside [0, L])."""
    rng = random.Random(35)
    overran = 0
    for _ in range(200):
        length = rng.uniform(0.05, 20.0)
        b = rng.uniform(0.0, length)
        if not 0.0 < b < length:
            continue
        overran += b + (length - b) > length
        graph = MetricGraph([("a", True), ("b", True)], [("e", "a", "b", length)])
        u = solve(CostField.constant(graph), BoundaryData(graph, {"a": 0.0, "b": 0.0}))
        rep = verify_dpp(u, [EdgeInterior("e", b)], tau=100.0)
        assert rep.samples[0].tau == 100.0
        assert rep.ok, (b, length, rep.max_defect)
    assert overran > 0


def test_solve_is_within_8_ulps_of_the_exact_rational_solve():
    """Every vertex value of ``solve`` on 20 random linear-profile graphs
    (up to 60 vertices and about 140 edges) lies within 8 ulps of
    max(1, |exact|), the exact value from ``exact_vertex_values``.  The
    float arithmetic is deterministic, so a failure means the solve
    changed, not noise; 200 such instances showed at most 2.23 ulps."""
    for seed in range(20):
        spec = random_graph_spec(random.Random(seed), max_vertices=60, max_extra_edges=80)
        _, field, data = build_instance(spec)
        got = solve(field, data).vertex_values
        for vid, want in exact_vertex_values(spec).items():
            ulp = Fraction(math.ulp(max(1.0, abs(float(want)))))
            assert abs(Fraction(got[vid]) - want) <= 8 * ulp, (seed, vid)


def _lowered_stored_solution():
    """The solution on L - m - R (unit edges, f = 1, g = 0) as a stored
    table, with its interior vertex lowered from 1 to 0.5."""
    graph = MetricGraph([("L", True), ("m",), ("R", True)],
                        [("a", "L", "m", 1.0), ("b", "m", "R", 1.0)])
    field = CostField.constant(graph)
    data = BoundaryData(graph, {"L": 0.0, "R": 0.0})
    return StoredSolution(field, {"L": 0.0, "m": 0.5, "R": 0.0}, data=data), field, data


_BAD_SETTINGS = [
    ("dpp-tol-nan", lambda u, f, d: verify_dpp(u, tol=math.nan), "tolerance"),
    ("dpp-tol-inf", lambda u, f, d: verify_dpp(u, tol=math.inf), "tolerance"),
    ("dpp-tol-true", lambda u, f, d: verify_dpp(u, tol=True), "tolerance"),
    ("dpp-tol-string", lambda u, f, d: verify_dpp(u, tol="x"), "tolerance"),
    ("monge-tol-inf", lambda u, f, d: verify_monge(u, f, tol=math.inf), "tolerance"),
    ("monge-tol-negative", lambda u, f, d: verify_monge(u, f, tol=-1e-9), "tolerance"),
    ("subopt-tol-inf", lambda u, f, d: verify_suboptimality(u, tol=math.inf), "tolerance"),
    ("modulus-tol-inf", lambda u, f, d: boundary_modulus(u, tol=math.inf), "tolerance"),
    ("compat-tol-nan", lambda u, f, d: check_compatibility(f, d, tol=math.nan), "tolerance"),
    ("compat-tol-negative", lambda u, f, d: check_compatibility(f, d, tol=-1.0), "tolerance"),
    ("subopt-zero-curves", lambda u, f, d: verify_suboptimality(u, n_random=0), "n_random"),
    ("subopt-negative-curves", lambda u, f, d: verify_suboptimality(u, n_random=-3), "n_random"),
    ("subopt-true-curves", lambda u, f, d: verify_suboptimality(u, n_random=True), "n_random"),
    ("subopt-float-curves", lambda u, f, d: verify_suboptimality(u, n_random=2.0), "n_random"),
]


def test_the_lowered_table_fails_dpp_and_monge_at_their_own_tolerance():
    u, field, _ = _lowered_stored_solution()
    dpp = verify_dpp(u)
    assert not dpp.ok and dpp.max_defect == 0.5
    assert not verify_monge(u, field).ok


@pytest.mark.parametrize("call, setting", [case[1:] for case in _BAD_SETTINGS],
                         ids=[case[0] for case in _BAD_SETTINGS])
def test_a_verifier_refuses_a_setting_that_would_check_nothing(call, setting):
    """Each of these gave a report: an infinite tolerance passed the
    lowered table, a NaN one failed or passed it whatever it held, zero
    curves passed it unchecked; a string raised a bare TypeError."""
    u, field, data = _lowered_stored_solution()
    with pytest.raises(InputError, match=setting):
        call(u, field, data)


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


def test_suboptimality_reads_a_generator_of_curves_once(interval):
    """n_curves once read 0 for a generator, counted after the loop had
    consumed it."""
    graph, field, data = interval
    u = solve(field, data)
    rng = random.Random(4)
    curves = [random_curve(graph, rng, steps=4) for _ in range(5)]
    from_list = verify_suboptimality(u, curves=curves, rng=random.Random(9))
    from_gen = verify_suboptimality(u, curves=(c for c in curves), rng=random.Random(9))
    assert from_gen == from_list
    assert from_list.n_curves == 5 and from_list.n_pairs > 0


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
def test_modulus_runs_one_dijkstra_per_boundary_vertex_whatever_the_point_count(monkeypatch, seed):
    """B boundary vertices: B - 1 runs for Lip g (the last vertex has no
    later partner), one cone map, two more when g is compatible, and the
    compatibility check's own runs but its solve, which the solution is
    (seeds 10 and 20 have incompatible data, so those include witness
    searches), for a point set and one about three times its size.  Each
    count is taken on a freshly built graph, whose distance map holds no
    earlier source."""
    spec = random_graph_spec(random.Random(seed), max_vertices=14, max_extra_edges=12)
    runs = _count_dijkstras(monkeypatch)
    _, field, data = build_instance(spec)
    compatible = check_compatibility(field, data).ok
    n_compat = len(runs)
    for scale in (1, 3):
        graph, field, data = build_instance(spec)
        u = solve(field, data)
        points = (_default_samples(graph, n_per_edge=scale)[0]
                  + [Vertex(b) for b in graph.boundary_ids])
        runs.clear()
        rep = boundary_modulus(u, points=points)
        B = len(graph.boundary_ids)
        assert rep.compatible == compatible
        assert rep.n_checked == len(points) * B
        assert len(runs) == (B - 1) + (3 if compatible else 1) + n_compat - 1


def test_modulus_refuses_a_table_without_boundary_data(monkeypatch):
    _, field, data = make_interval()
    table = dict(solve(field, data).vertex_values)
    bare = StoredSolution(field, table)
    runs = _count_dijkstras(monkeypatch)
    with pytest.raises(PreconditionError, match="boundary data"):
        boundary_modulus(bare)
    assert runs == []


def test_modulus_checks_a_stored_table_against_the_true_solve():
    """A stored table is not taken as its own solve: with one boundary entry
    raised, the table alone would report g as attained everywhere (each
    boundary vertex reads its own data), but data that the true solve does
    not attain stays incompatible and keeps only the one-sided bound."""
    _, field, data = make_interval(g_left=0.0, g_right=3.0)
    truth = check_compatibility(field, data)
    assert not truth.ok
    table = dict(solve(field, data).vertex_values)
    table["R"] = 3.0  # the boundary entry raised to the data it does not attain
    rep = boundary_modulus(StoredSolution(field, table, data=data))
    assert rep.compatible == truth.ok
    assert math.isnan(rep.max_abs_defect)


def _point_major_modulus(u, points=None, tol=1e-9):
    """Reference for ``boundary_modulus``: its pair loop as first written,
    one point at a time against every boundary vertex, so each point is a
    distance source of its own."""
    graph, field, data = u.graph, u.field, u.data
    supf = field.sup_value()
    lipg = _lipschitz_of_g(graph, data)
    upper_c = max(supf, lipg)
    comp = check_compatibility(field, data).ok
    if points is None:
        points = _default_samples(graph)[0] + [Vertex(b) for b in graph.boundary_ids]
    max_upper = max_abs = -math.inf
    n = 0
    for p in points:
        ux = u.evaluate(p)
        for vid in graph.boundary_ids:
            d = graph.distance(p, Vertex(vid))
            g = data[vid]
            max_upper = max(max_upper, (ux - g) - upper_c * d)
            if comp:
                max_abs = max(max_abs, abs(ux - g) - (2.0 * supf * d + lipg * 2.0 * d))
            n += 1
    return BoundaryModulusReport(
        ok=max_upper <= tol and (not comp or max_abs <= tol), upper_constant=upper_c,
        modulus_constant=2.0 * supf + 2.0 * lipg, compatible=comp,
        max_upper_defect=max_upper, max_abs_defect=(max_abs if comp else math.nan),
        n_checked=n)


def _report_fields(rep):
    # NaN (the two-sided defect under incompatible data) matches NaN
    return [("nan" if isinstance(v, float) and math.isnan(v) else v)
            for v in dataclasses.astuple(rep)]


def _sampled_instance(spec: dict):
    """The spec's instance with each linear profile sampled at 9 knots."""
    graph, _, data = build_instance(spec)
    profiles = {}
    for e in spec["edges"]:
        knots = [e["length"] * k / 8 for k in range(9)]
        profiles[e["id"]] = Samples(knots, [e["a"] + e["b"] * s for s in knots])
    return graph, CostField(graph, profiles), data


def test_modulus_report_equals_the_point_major_loop_on_random_graphs():
    """The cone maps sum each C·d from the boundary end, and on a solver
    output every report field still equals the point-major loop's with
    ``==``, for linear profiles and for their samples: both maxima sit at
    pairs whose distance is exact."""
    rng = random.Random(20261018)
    seen = {"incompatible": 0, "self-loop": 0, "parallel": 0}
    for _ in range(48):
        spec = random_graph_spec(rng, max_vertices=24, max_extra_edges=30)
        for make in (build_instance, _sampled_instance):
            u = solve(*make(spec)[1:])
            got = boundary_modulus(u)
            assert _report_fields(got) == _report_fields(_point_major_modulus(u))
        seen["incompatible"] += not got.compatible
        ends = [tuple(sorted((e["src"], e["dst"]))) for e in spec["edges"]]
        seen["self-loop"] += any(a == b for a, b in ends)
        seen["parallel"] += len(set(ends)) < len(ends)
    assert all(seen.values()), seen


def test_modulus_report_matches_the_point_major_loop_on_doctored_tables():
    """On a table raised or lowered by 20 at one interior vertex the worst
    pair can span several edges, and C·d summed edge by edge from the
    boundary may differ in its last bits from C times a distance: the
    defects then agree to a relative 1e-13, every other field with ``==``,
    for linear profiles and for their samples.  A raised table fails the
    upper bound, a lowered one the lower side of the two-sided bound."""
    rng = random.Random(7)
    n_failed = {20.0: 0, -20.0: 0}
    for _ in range(40):
        spec = random_graph_spec(rng, max_vertices=24, max_extra_edges=30)
        inner = [v for v in spec["vertices"] if v not in spec["boundary"]]
        if not inner:
            continue
        doctored = rng.choice(inner)
        for make in (build_instance, _sampled_instance):
            _, field, data = make(spec)
            solved = solve(field, data).vertex_values
            for shift in n_failed:
                table = dict(solved)
                table[doctored] += shift
                bad = StoredSolution(field, table, data=data)
                want = _point_major_modulus(bad)
                got = boundary_modulus(bad)
                assert got.ok == want.ok
                n_failed[shift] += not got.ok
                assert (got.upper_constant, got.modulus_constant, got.compatible,
                        got.n_checked) == (want.upper_constant, want.modulus_constant,
                                           want.compatible, want.n_checked)
                assert got.max_upper_defect == pytest.approx(want.max_upper_defect, rel=1e-13)
                if got.compatible:
                    assert got.max_abs_defect == pytest.approx(want.max_abs_defect,
                                                               rel=1e-13, abs=1e-15)
                else:
                    assert math.isnan(got.max_abs_defect) and math.isnan(want.max_abs_defect)
    assert n_failed[20.0] >= 40 and n_failed[-20.0] >= 25


def _count_scalar_values(monkeypatch):
    """Calls of ``SeedMap._value`` and ``SeedMap._branches``, the map's reads
    of its value and of its branches; a verifier that read each point's
    or each germ's on its own would make more of them for more points."""
    calls = []
    for name in ("_value", "_branches"):
        read = getattr(SeedMap, name)

        def counting(self, *args, read=read):
            calls.append(args)
            return read(self, *args)

        monkeypatch.setattr(SeedMap, name, counting)
    return calls


def _north_star_runs(monkeypatch, verifier, scale, count=_count_dijkstras):
    """Dijkstra runs of one verifier on a fresh instance (solve excluded),
    with ``scale`` times the base point or curve set; or what else ``count``
    records."""
    spec = random_graph_spec(random.Random(5), max_vertices=12, max_extra_edges=10)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    runs = count(monkeypatch)
    if verifier == "subopt":
        rng = random.Random(9)
        curves = [random_curve(graph, rng, steps=4) for _ in range(4 * scale)]
        verify_suboptimality(u, curves=curves, rng=random.Random(1))
        return len(runs)
    points = _default_samples(graph, n_per_edge=scale)[0]
    if verifier == "monge":
        verify_monge(u, field, points=points)
    elif verifier == "dpp":
        verify_dpp(u, points=points)
    else:
        boundary_modulus(u, points=points)
    return len(runs)


@pytest.mark.parametrize("verifier", ["monge", "dpp", "subopt", "modulus"])
def test_no_verifier_runs_one_dijkstra_per_sample(monkeypatch, verifier):
    """A verifier's Dijkstra runs do not grow with its sample set: three
    times the points (curves for subopt) cost the same runs."""
    small = _north_star_runs(monkeypatch, verifier, 1)
    large = _north_star_runs(monkeypatch, verifier, 3)
    assert small == large


@pytest.mark.parametrize("verifier", ["monge", "dpp", "subopt", "modulus"])
def test_no_verifier_evaluates_point_by_point(monkeypatch, verifier):
    """On a ``SeedMap`` a verifier's reads of u do not grow with its sample
    set: its points (curves for subopt) are one batch through ``evaluate``
    (monge: through ``slopes`` and the germs' branches), and three times as
    many cost the same calls."""
    small = _north_star_runs(monkeypatch, verifier, 1, _count_scalar_values)
    monkeypatch.undo()
    large = _north_star_runs(monkeypatch, verifier, 3, _count_scalar_values)
    assert small == large


def _count_validation(monkeypatch):
    """(name, args) of every ``MetricGraph.validate_point``,
    ``graph._resolve_step`` and ``KnotBatch.of`` call."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(MetricGraph, "validate_point",
                        counting("validate_point", MetricGraph.validate_point))
    monkeypatch.setattr(graph_module, "_resolve_step",
                        counting("_resolve_step", graph_module._resolve_step))
    monkeypatch.setattr(KnotBatch, "of", classmethod(counting("of", KnotBatch.of.__func__)))
    return calls


def test_default_samples_and_random_curves_are_not_validated_again(monkeypatch, tmp_path):
    """The default dpp and modulus samples are built as a batch, and random
    curves keep the segments they walk, so neither is validated again; the
    modulus check validates only the boundary vertices its maps are seeded
    at.  Points and curves from the caller still are validated."""
    spec = random_graph_spec(random.Random(5), max_vertices=12, max_extra_edges=10)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    calls = _count_validation(monkeypatch)
    assert verify_suboptimality(u).n_curves == 12 and verify_dpp(u).samples
    assert calls == []
    boundary_modulus(u)
    assert calls and all(name == "validate_point" and graph.is_boundary(args[1])
                         for name, args in calls)
    calls.clear()
    points = [Vertex(v) for v in graph.vertices]
    verify_dpp(u, points=points)
    assert [name for name, _ in calls] == ["of"] + ["validate_point"] * len(points)
    calls.clear()
    boundary_modulus(u, points=points)
    first = calls.index(("of", (KnotBatch, graph, points)))
    assert calls[first + 1:first + 1 + len(points)] == [("validate_point", (graph, p))
                                                        for p in points]
    # a curves file goes through Curve, which validates and resolves its points
    g = tmp_path / "g.json"
    g.write_text(json.dumps(graph_to_dict(graph, field, data)))
    assert entry(["solve", str(g), "--out-dir", str(tmp_path)]) in (0, 2)
    eid = next(eid for eid, rec in graph.edges.items()
               if not (graph.vertices[rec.src].boundary or graph.vertices[rec.dst].boundary))
    curves = tmp_path / "curves.json"
    curves.write_text(json.dumps([{"points": [{"edge": eid, "s": 0.25 * graph.edges[eid].length},
                                              {"edge": eid, "s": 0.5 * graph.edges[eid].length}]}]))
    calls.clear()
    assert entry(["verify", str(g), str(tmp_path / "u.json"), "--mode", "subopt",
                  "--curves-file", str(curves), "--out-dir", str(tmp_path)]) == 0
    assert [name for name, _ in calls].count("_resolve_step") == 1
    assert [name for name, _ in calls].count("validate_point") >= 2


def test_the_default_modulus_samples_build_no_point_object(monkeypatch):
    """The default modulus samples are a batch built from arrays, so a
    default call makes as many graph points as a call given no points: the
    ones its maps are seeded at and Lip g is read at, none per sample."""
    spec = random_graph_spec(random.Random(5), max_vertices=12, max_extra_edges=10)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    made = []
    for cls in (Vertex, EdgeInterior):
        def counting(self, *args, init=cls.__init__, cls=cls, **kwargs):
            made.append(cls)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    assert boundary_modulus(u, points=[]).n_checked == 0
    without = len(made)
    made.clear()
    assert boundary_modulus(u).n_checked > 0
    assert len(made) == without and EdgeInterior not in made


# ----------------------------------------------------------------------
# metamorphic relations of the solve
# ----------------------------------------------------------------------

def _profile(e: dict, kind: str, scale: float):
    """The spec edge's profile as ``kind``, every f value times ``scale``."""
    a, b, L = e["a"], e["b"], e["length"]
    if kind == "const":
        return Constant(scale * a)
    if kind == "linear":
        return Linear(scale * a, scale * b)
    knots = [L * k / 4 for k in range(5)]
    return Samples(knots, [scale * (a + abs(b) * s) for s in knots])


def _solve_spec(spec: dict, kind: str, scale: float = 1.0, rename=None, reverse: bool = False):
    name = rename or (lambda v: v)
    vs = [(name(v), v in spec["boundary"]) for v in spec["vertices"]]
    es = [(e["id"], name(e["src"]), name(e["dst"]), e["length"]) for e in spec["edges"]]
    if reverse:
        vs, es = vs[::-1], es[::-1]
    graph = MetricGraph(vs, es)
    field = CostField(graph, {e["id"]: _profile(e, kind, scale) for e in spec["edges"]})
    return solve(field, BoundaryData(graph, {name(v): scale * g for v, g in spec["g"].items()}))


@pytest.mark.parametrize("kind", ["const", "linear", "samples"])
def test_doubling_f_and_g_doubles_every_vertex_value_and_keeps_every_kink(kind):
    """Scaling by 2 is exact in binary floating point, so the relation holds
    with ==; a kink is where two costs cross, and doubling both keeps the
    offset."""
    rng = random.Random(404)
    kinks = 0
    for _ in range(40):
        spec = random_graph_spec(rng, max_vertices=12, max_extra_edges=12)
        u = _solve_spec(spec, kind)
        u2 = _solve_spec(spec, kind, scale=2.0)
        assert {v: 2.0 * x for v, x in u.vertex_values.items()} == u2.vertex_values
        for e in spec["edges"]:
            assert u2.kink(e["id"]) == u.kink(e["id"])
            kinks += u.kink(e["id"]) is not None
    assert kinks >= 100


@pytest.mark.parametrize("kind", ["const", "linear", "samples"])
def test_renaming_vertices_and_reversing_records_leaves_u_unchanged(kind):
    """The new names sort in the reverse of the record order, so the
    kernel's (cost, vertex id) ties break differently."""
    rng = random.Random(405)
    for _ in range(40):
        spec = random_graph_spec(rng, max_vertices=12, max_extra_edges=12)
        n = len(spec["vertices"])
        name = {v: "w%03d" % (n - j) for j, v in enumerate(spec["vertices"])}
        u = _solve_spec(spec, kind)
        u2 = _solve_spec(spec, kind, rename=name.get, reverse=True)
        assert {name[v]: x for v, x in u.vertex_values.items()} == u2.vertex_values
        for e in spec["edges"]:
            assert u2.kink(e["id"]) == u.kink(e["id"])
            mid = 0.5 * e["length"]
            assert u2.evaluate(u2.graph.point(e["id"], mid)) == u.evaluate(u.graph.point(e["id"], mid))


def _split_profile(e: dict, kind: str, k: int, s: float):
    """The spec edge's ``_profile`` restricted to [0, s] and to [s, L], the
    second re-based to start at 0; ``k`` is the index of the knot at s."""
    prof = _profile(e, kind, 1.0)
    if kind == "const":
        return prof, prof
    if kind == "linear":
        return prof, Linear(prof.a + prof.b * s, prof.b)
    return (Samples(prof.knots[:k + 1], prof.values[:k + 1]),
            Samples([t - s for t in prof.knots[k:]], prof.values[k:]))


@pytest.mark.parametrize("kind", ["const", "linear", "samples"])
def test_splitting_an_edge_leaves_u_unchanged(kind):
    """A new interior vertex inside one edge, with the profile restricted to
    each piece, changes no vertex value, and its own value is u at the split
    point.  Only the summation order of the edge integrals moves."""
    rng = random.Random(406)
    for _ in range(60):
        spec = random_graph_spec(rng, max_vertices=12, max_extra_edges=12)
        u = _solve_spec(spec, kind)
        cut = rng.choice(spec["edges"])
        L, k = cut["length"], rng.randint(1, 3)
        s = L * k / 4 if kind == "samples" else rng.uniform(0.1, 0.9) * L
        head, tail = _split_profile(cut, kind, k, s)
        es = [(e["id"], e["src"], e["dst"], e["length"]) for e in spec["edges"] if e is not cut]
        es += [("head", cut["src"], "split", s), ("tail", "split", cut["dst"], L - s)]
        graph = MetricGraph([(v, v in spec["boundary"]) for v in spec["vertices"]] + [("split", False)],
                            es)
        profiles = {e["id"]: _profile(e, kind, 1.0) for e in spec["edges"] if e is not cut}
        profiles.update(head=head, tail=tail)
        u2 = solve(CostField(graph, profiles), BoundaryData(graph, dict(spec["g"])))
        want = dict(u.vertex_values, split=u.evaluate(u.graph.point(cut["id"], s)))
        for v, x in want.items():
            assert abs(u2.vertex_value(v) - x) <= 1e-12 * max(1.0, abs(x))
