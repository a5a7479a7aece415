"""Points as arrays: a ``KnotBatch`` of arbitrary (edge, offset) rows goes
through ``SeedMap.evaluate`` and ``CostField.edge_cost`` in one array pass,
and dpp, sub-optimality and the boundary modulus are checked against
test-local copies of the point-by-point loops they replaced, byte for byte
through ``dump_json``."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eikograph import (Constant, CostField, EdgeInterior, InputError, Linear, OpticalMap,
                       Samples, StoredSolution, Vertex, boundary_modulus, dump_json, solve,
                       verify_dpp, verify_suboptimality)
from eikograph.graph import KnotBatch, _default_samples, random_curve
from eikograph.solver import (TIMES_PER_CURVE, BoundaryModulusReport, DPPReport, DPPSample,
                              SuboptimalityReport, _cone, _lipschitz_of_g, check_compatibility)
from conftest import build_instance, random_graph_spec
from test_cost import _random_samples


class _Wrapped:
    """An evaluate-only candidate, not a ``SeedMap``: the verifiers read it
    point by point."""

    def __init__(self, u, scale=1.0):
        self.graph, self.field, self._u, self._scale = u.graph, u.field, u, scale
        self.data = getattr(u, "data", None)

    def evaluate(self, p):
        return self._scale * self._u.evaluate(p)


# ----------------------------------------------------------------------
# the point-by-point loops the verifiers ran before their batches
# ----------------------------------------------------------------------

def scalar_dpp(u, points=None, tau=None, tol=None):
    graph, field = u.graph, u.field
    tol = field.default_tol() if tol is None else tol
    if points is None:
        points = _default_samples(graph)
    samples, max_defect, ok = [], 0.0, True
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
            end = germ.base + germ.sign * t
            if t == graph.germ_available(germ):  # a whole germ ends at the edge's end
                end = graph.edges[germ.edge].length if germ.sign > 0 else 0.0
            y = graph.point(germ.edge, end)
            run = field.edge_cost(germ.edge, germ.base, end)
            best = min(best, run + u.evaluate(y))
        residual = best - ux
        samples.append(DPPSample(p, tau_x, residual))
        max_defect = max(max_defect, abs(residual))
        if abs(residual) > tol:
            ok = False
    return DPPReport(ok=ok, tol=tol, max_defect=max_defect, samples=samples)


def scalar_suboptimality(u, curves, rng, tol=None):
    graph, field = u.graph, u.field
    tol = field.default_tol() if tol is None else tol
    max_defect, n_pairs = 0.0, 0
    for curve in curves:
        ts = sorted(set(curve.times()) | {curve.length * rng.random()
                                          for _ in range(TIMES_PER_CURVE)})
        csum = [0.0]
        for eid, s0, s1 in curve.segments:
            csum.append(csum[-1] + field.edge_cost(eid, s0, s1))
        fvals, uvals = [], []
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


def scalar_modulus(u, points=None, tol=1e-9):
    graph, field, data = u.graph, u.field, u.data
    supf = field.sup_value()
    lipg = _lipschitz_of_g(graph, data)
    upper_c, modulus_c = max(supf, lipg), 2.0 * supf + 2.0 * lipg
    comp = check_compatibility(field, data).ok
    if points is None:
        points = _default_samples(graph) + [Vertex(vid) for vid in graph.boundary_ids]
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


# ----------------------------------------------------------------------
# random instances with every profile kind
# ----------------------------------------------------------------------

def _mixed_field(rng, graph, field):
    """The field with each edge's profile kept linear, made constant, or
    sampled at 2 to 17 knots."""
    profiles = {}
    for eid, prof in field.profiles.items():
        length = graph.edges[eid].length
        kind = rng.randrange(3)
        if kind == 0:
            profiles[eid] = prof
        elif kind == 1:
            profiles[eid] = Constant(rng.uniform(0.1, 5.0))
        else:
            profiles[eid] = Samples(*_random_samples(rng, rng.randint(2, 17), length))
    return CostField(graph, profiles)


def _candidates(rng, graph, field, data):
    """The solve, an optical map with seeds inside edges, a stored table
    with one vertex lowered and one raised, and evaluate-only wrappers."""
    u = solve(field, data)
    table = dict(u.vertex_values)
    inner = [vid for vid, rec in graph.vertices.items() if not rec.boundary]
    for vid, shift in zip(rng.sample(inner, min(2, len(inner))), (-0.7, 0.9)):
        table[vid] += shift
    stored = StoredSolution(field, table, data=data)
    seeds = {_interior(rng, graph): rng.uniform(0.0, 1.0) for _ in range(3)}
    seeds[Vertex(rng.choice(list(graph.vertices)))] = rng.uniform(0.0, 1.0)
    seeded = OpticalMap(field, seeds)
    seeded.data = data
    return [u, stored, seeded, _Wrapped(u), _Wrapped(stored, -1.0)]


def _interior(rng, graph):
    eid = rng.choice(sorted(graph.edges))
    return EdgeInterior(eid, rng.uniform(0.05, 0.95) * graph.edges[eid].length)


def _given_points(rng, graph):
    """Interior points, every vertex (boundary ones included), and the ends
    of edges named as interior points would be, in a shuffled order."""
    points = [_interior(rng, graph) for _ in range(6)] + [Vertex(v) for v in graph.vertices]
    rng.shuffle(points)
    return points


def _instances(seed, n=6):
    rng = random.Random(seed)
    for _ in range(n):
        spec = random_graph_spec(rng, max_vertices=9, max_extra_edges=8)
        graph, field, data = build_instance(spec)
        yield rng, graph, _mixed_field(rng, graph, field), data


def _same_outcome(batched, scalar):
    """Both calls write the same report bytes, or refuse in the same words."""
    try:
        want = dump_json(scalar())
    except InputError as exc:
        with pytest.raises(InputError) as got:
            batched()
        assert str(got.value) == str(exc)
        return "refused"
    assert dump_json(batched()) == want
    return "checked"


@pytest.mark.parametrize("seed", range(4))
def test_dpp_report_is_the_point_loops_byte_for_byte(seed):
    """Radii below and past the germs' lengths; an int radius is reported as
    the float it stands for.  A walk of a whole germ from inside an edge
    ends at the edge's end in both, where b + (L - b) can round past it."""
    outcomes = []
    for rng, graph, field, data in _instances(seed):
        for u in _candidates(rng, graph, field, data):
            for points in (None, _given_points(rng, graph)):
                for tau in (None, rng.uniform(0.05, 0.5), 1):
                    outcomes.append(_same_outcome(
                        lambda: verify_dpp(u, points, tau),
                        lambda: scalar_dpp(u, points, None if tau is None else float(tau))))
    assert outcomes.count("checked") >= 0.8 * len(outcomes)


@pytest.mark.parametrize("seed", range(4))
def test_suboptimality_report_is_the_pair_loops_byte_for_byte(seed):
    for rng, graph, field, data in _instances(seed):
        for u in _candidates(rng, graph, field, data):
            if all(graph.vertices[v].boundary for v in graph.vertices):
                continue  # no curve avoids the boundary
            curve_rng = random.Random(rng.random())
            curves = [random_curve(graph, curve_rng, steps=rng.randint(1, 8)) for _ in range(5)]
            got = verify_suboptimality(u, curves=curves, rng=random.Random(seed))
            want = scalar_suboptimality(u, curves, random.Random(seed))
            assert dump_json(got) == dump_json(want)
            # the default curves and then their times draw from one rng
            got = verify_suboptimality(u, n_random=4)
            rng0 = random.Random(0)
            curves = [random_curve(graph, rng0, steps=rng0.randrange(3, 9)) for _ in range(4)]
            assert dump_json(got) == dump_json(scalar_suboptimality(u, curves, rng0))


@pytest.mark.parametrize("seed", range(4))
def test_modulus_report_is_the_point_loop_byte_for_byte(seed):
    for rng, graph, field, data in _instances(seed):
        for u in _candidates(rng, graph, field, data):
            for points in (None, _given_points(rng, graph)):
                assert dump_json(boundary_modulus(u, points)) == dump_json(
                    scalar_modulus(u, points))


def test_an_empty_curve_set_and_point_set_check_nothing():
    rng, graph, field, data = next(_instances(9, 1))
    u = solve(field, data)
    assert dump_json(verify_suboptimality(u, curves=[])) == dump_json(
        scalar_suboptimality(u, [], random.Random(1)))
    assert dump_json(verify_dpp(u, [])) == dump_json(scalar_dpp(u, []))
    assert dump_json(boundary_modulus(u, [])) == dump_json(scalar_modulus(u, []))


# ----------------------------------------------------------------------
# the batch and the two traced methods that take it
# ----------------------------------------------------------------------

@st.composite
def _profile_and_offsets(draw):
    """A profile of each kind on an edge of random length, with offsets at
    its knots, at 0 and L and in between, paired in either order."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    length = rng.uniform(0.1, 4.0)
    knots, values = _random_samples(rng, rng.choice([2, 3, 9, 65]), length)
    profile = draw(st.sampled_from([
        Constant(values[0]), Linear(values[0], (values[-1] - values[0]) / length),
        Samples(knots, values)])).check(length, 1e-6)
    offsets = knots + [0.0, length] + [rng.uniform(0.0, length) for _ in range(12)]
    s0 = [rng.choice(offsets) for _ in range(40)]
    s1 = [rng.choice(offsets) for _ in range(40)]
    return profile, np.array(s0), np.array(s1)


@given(_profile_and_offsets())
def test_each_profile_integral_array_is_its_integral_bit_for_bit(case):
    profile, s0, s1 = case
    got = profile.integral_array(s0, s1)
    want = [profile.integral(a, b) for a, b in zip(s0.tolist(), s1.tolist())]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


@given(st.integers(0, 10_000))
def test_a_batch_evaluates_and_costs_as_its_points_do(seed):
    """``evaluate`` on a batch equals it point by point, interior seeds and
    mixed profiles included; ``edge_cost`` likewise, in either order; and
    a batch of points reads back as those points."""
    rng = random.Random(seed)
    rng_, graph, field, data = next(_instances(seed, 1))
    points = _given_points(rng, graph) + [_interior(rng, graph) for _ in range(10)]
    X = KnotBatch.of(graph, points)
    assert X.points() == points and len(X) == len(points)
    for u in _candidates(rng, graph, field, data)[:3]:
        assert u.evaluate(X).tolist() == [u.evaluate(p) for p in points]
    ids = list(graph.edges)
    lengths = np.array([graph.edges[ids[e]].length for e in X.edges])
    s0 = np.array([rng.uniform(0.0, 1.0) for _ in points]) * lengths
    s1 = X.offsets
    for a, b in ((s0, s1), (s1, s0)):
        want = [field.edge_cost(ids[e], x, y) for e, x, y in zip(X.edges, a.tolist(), b.tolist())]
        assert field.edge_cost(X, a, b).tolist() == want


def test_a_batch_refuses_as_the_scalar_calls_do_at_their_first_offending_row():
    rng, graph, field, data = next(_instances(3, 1))
    good = _interior(rng, graph)
    for bad in (Vertex("nowhere"), EdgeInterior(good.edge, 0.0), "v0"):
        with pytest.raises(InputError) as scalar:
            graph.validate_point(bad)
        with pytest.raises(InputError) as batched:
            KnotBatch.of(graph, [good, bad, EdgeInterior("nowhere", 1.0)])
        assert str(batched.value) == str(scalar.value)
    X = KnotBatch.of(graph, [good, good, good])
    length = graph.edges[good.edge].length
    s0, s1 = np.array([0.0, -0.5, length + 1.0]), np.array([good.s, good.s, 0.0])
    with pytest.raises(InputError) as scalar:
        field.edge_cost(good.edge, -0.5, good.s)
    with pytest.raises(InputError) as batched:
        field.edge_cost(X, s0, s1)
    assert str(batched.value) == str(scalar.value)
