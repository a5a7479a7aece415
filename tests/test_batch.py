"""Points as arrays: a ``KnotBatch`` of arbitrary (edge, offset) rows goes
through ``SeedMap.evaluate`` and ``CostField.edge_cost`` in one array pass,
and dpp, sub-optimality, the boundary modulus and the steepest-descent
check are checked against test-local copies of the point-by-point loops
they replaced, byte for byte through ``dump_json``."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eikograph import (Constant, CostField, EdgeInterior, InputError, Linear, MetricGraph,
                       OpticalMap, Samples, StoredSolution, Vertex, boundary_modulus, dump_json,
                       solve, verify_dpp, verify_monge, verify_suboptimality)
from eikograph.graph import (BRANCH_TIE, DistanceField, KnotBatch, SeedMap, _Rates, _compose,
                             _default_samples, random_curve)
from eikograph.slopes import (EXACT_TOL, SAMPLED_TOL, MongeReport, MongeSample,
                              _monge_seeded_samples, monge_samples_csv, slopes)
from eikograph.solver import (TIMES_PER_CURVE, BoundaryModulusReport, DPPReport, DPPSample,
                              SuboptimalityReport, _cone, _lipschitz_of_g, check_compatibility)
from conftest import build_instance, random_graph_spec
from test_cost import _mixed_k_field, _path_graph, _random_samples


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


def scalar_branches(u, eid, s):
    """The branch values of a seeded map at offset s on edge eid, and the
    sign of each branch's slope in +s, read one integral at a time."""
    rec = u.graph.edge(eid)
    integral = u.profiles[eid].integral
    values = [u.vertex_values[rec.src] + integral(0.0, s),
              u.vertex_values[rec.dst] + integral(s, rec.length)]
    signs = [1, -1]
    for s0, val in u._interior_seeds.get(eid, ()):
        values.append(val + integral(min(s, s0), max(s, s0)))
        signs.append((s > s0) - (s < s0))
    return values, signs


def scalar_germ_sign(u, germ):
    values, signs = scalar_branches(u, germ.edge, germ.base)
    m = min(values)
    tol = BRANCH_TIE * (1.0 + abs(m))
    for v, sign in zip(values, signs):
        if v <= m + tol and germ.sign * sign < 0:
            return -1
    return 1


def scalar_monge(u, field, points=None, tol=None):
    graph = field.graph
    if tol is None:
        tol = EXACT_TOL if hasattr(u, "germ_derivative") else SAMPLED_TOL
    if points is not None:
        sample_set = "given"
    elif isinstance(u, OpticalMap) and u.field is field:
        sample_set, points = "seeded", _monge_seeded_samples(u)
    else:
        sample_set, points = "dense", _default_samples(graph, 5)
    samples, sub_ok, super_ok, worst, worst_point = [], True, True, 0.0, None
    for p in points:
        graph.validate_point(p)
        if graph.is_boundary(p):
            samples.append(MongeSample(p, "skipped", 0.0, 0.0, 0.0, 0.0, True, True,
                                       reason="boundary vertex"))
            continue
        if isinstance(u, SeedMap):
            up = down = 0.0
            for germ in graph.germs(p):
                d = scalar_germ_sign(u, germ) * u.profiles[germ.edge].at(germ.base)
                up, down = max(up, d), max(down, -d)
        else:
            est = slopes(u, p, graph=graph)
            up, down = est.up, est.down
        jump, reason = 0.0, ""
        if isinstance(p, Vertex):
            germs = graph.germs(p)
            fvals = [field.germ_value(germ) for germ in germs]
            f_lo, f_hi, kind = min(fvals), max(fvals), "vertex"
            if isinstance(u, SeedMap):
                m = min(min(scalar_branches(u, germ.edge, germ.base)[0]) for germ in germs)
                jump = u.vertex_values[p.id] - m
                jump = jump if jump > BRANCH_TIE * (1.0 + abs(m)) else 0.0
                if jump:
                    reason = "jump: the vertex sits %.17g above its least incident branch" % jump
        else:
            f_lo = f_hi = field.value_at(p)
            kind = "edge" if abs(up - down) <= tol else "edge-kink"
        s_ok = down <= f_hi + tol and not jump
        p_ok = down >= f_lo - tol
        viol = max(down - f_hi, f_lo - down, jump, 0.0)
        if viol > worst:
            worst, worst_point = viol, p
        sub_ok &= s_ok
        super_ok &= p_ok
        samples.append(MongeSample(p, kind, down, f_lo, f_hi, down - f_lo, s_ok, p_ok, reason))
    return MongeReport(ok=(sub_ok and super_ok), subsolution_ok=sub_ok,
                       supersolution_ok=super_ok, tol=tol, worst_violation=worst,
                       worst_point=worst_point, sample_set=sample_set, samples=samples)


# ----------------------------------------------------------------------
# random instances with every profile kind
# ----------------------------------------------------------------------

def _mixed_field(rng, graph, field, counts=None):
    """The field with each edge's profile kept linear, made constant, or
    sampled at 2 to 17 knots; with ``counts``, sampled at one of those knot
    counts, and constant at 1.0 half the time, so that a map's two end
    branches can tie exactly."""
    profiles = {}
    for eid, prof in field.profiles.items():
        length = graph.edges[eid].length
        kind = rng.randrange(3)
        if kind == 0:
            profiles[eid] = prof
        elif kind == 1:
            value = rng.uniform(0.1, 5.0)
            profiles[eid] = Constant(rng.choice([1.0, value]) if counts else value)
        else:
            n = rng.choice(counts) if counts else rng.randint(2, 17)
            profiles[eid] = Samples(*_random_samples(rng, n, length))
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


#: knot counts mixed in one field by the monge tests
K_MIX = (2, 3, 65, 1025)


def _monge_points(rng, graph, u):
    """Given points: interior points and every vertex, a seeded map's kinks
    and interior seeds, and each edge's midpoint, where a constant rate
    between equal ends makes its two end branches tie exactly."""
    points = _given_points(rng, graph) + [EdgeInterior(eid, 0.5 * rec.length)
                                          for eid, rec in graph.edges.items()]
    if isinstance(u, OpticalMap):
        for eid in graph.edges:
            kink = u.kink(eid)
            points += [] if kink is None else [EdgeInterior(eid, kink)]
            points += [EdgeInterior(eid, s0) for s0, _ in u._interior_seeds.get(eid, ())]
    rng.shuffle(points)
    return points


@pytest.mark.parametrize("seed", range(4))
def test_monge_report_is_the_point_loops_byte_for_byte(seed):
    """Seeded, dense and given sample sets, on fields that mix every profile
    kind and knot count, for the solve, an interior-seeded map, stored
    tables with a vertex lowered and one raised (a jump), a flat table (exact
    branch ties), a table raised within and past the tie, distance maps on
    the field's graph and on a copy with its edges reversed (read point by
    point), and candidates that are not seeded maps; the report and its CSV
    as the loop over the points writes them, or the same refusal."""
    outcomes = []
    for rng, graph, field, data in _instances(seed, n=4):
        field = _mixed_field(rng, graph, field, K_MIX)
        flat = StoredSolution(field, dict.fromkeys(graph.vertices, 0.0), data=data)
        u = solve(field, data)
        # interior vertices raised by a hair, in turn within and past the tie
        hair = StoredSolution(field, {vid: v + (0.0 if graph.vertices[vid].boundary else BRANCH_TIE
                                                * (0.5 + 3.5 * (i % 2)) * (1.0 + abs(v)))
                                      for i, (vid, v) in enumerate(u.vertex_values.items())},
                              data=data)
        twin = MetricGraph(graph.vertices.values(), list(graph.edges.values())[::-1])
        candidates = _candidates(rng, graph, field, data) + [
            flat, hair, DistanceField(graph, _interior(rng, graph)),
            DistanceField(twin, _interior(rng, graph)),
            _compose(u, lambda v: 2.0 * v, lambda v, d: 2.0 * d)]
        for u in candidates:
            for points in (None, _monge_points(rng, graph, u),
                           _monge_points(rng, graph, u) + ["not a point"]):
                outcomes.append(_same_outcome(lambda: verify_monge(u, field, points),
                                              lambda: scalar_monge(u, field, points)))
                if outcomes[-1] == "checked":
                    assert monge_samples_csv(verify_monge(u, field, points)) == monge_samples_csv(
                        scalar_monge(u, field, points))
    assert outcomes.count("checked") == 2 * outcomes.count("refused")


def test_monge_jumps_and_ties_show_in_the_reports_compared():
    """The byte-for-byte comparison above sees the cases it is about: jump
    reasons at lowered and raised vertices, edge kinks, and exact ties."""
    reasons, kinds = set(), set()
    for rng, graph, field, data in _instances(0, n=4):
        field = _mixed_field(rng, graph, field, K_MIX)
        for u in _candidates(rng, graph, field, data)[:3]:
            for points in (None, _monge_points(rng, graph, u)):
                report = verify_monge(u, field, points)
                reasons |= {s.reason.split(":")[0] for s in report.samples}
                kinds |= {s.kind for s in report.samples}
    assert reasons == {"", "jump", "boundary vertex"}
    assert kinds == {"vertex", "edge", "edge-kink", "skipped"}


def test_an_empty_curve_set_and_point_set_check_nothing():
    rng, graph, field, data = next(_instances(9, 1))
    u = solve(field, data)
    assert dump_json(verify_suboptimality(u, curves=[])) == dump_json(
        scalar_suboptimality(u, [], random.Random(1)))
    assert dump_json(verify_dpp(u, [])) == dump_json(scalar_dpp(u, []))
    assert dump_json(boundary_modulus(u, [])) == dump_json(scalar_modulus(u, []))
    boundary = [Vertex(vid) for vid in graph.boundary_ids]
    for points in ([], boundary):
        report = verify_monge(u, field, points)
        assert report.ok and report.worst_point is None
        assert all(s.kind == "skipped" for s in report.samples)
        assert dump_json(report) == dump_json(scalar_monge(u, field, points))


def test_a_seeded_maps_germ_derivative_is_the_branch_loops():
    """Each germ's derivative at a point equals the scalar branch loop's,
    and at a batch of germs every row equals its scalar call."""
    for rng, graph, field, data in _instances(5, n=4):
        field = _mixed_field(rng, graph, field, K_MIX)
        for u in _candidates(rng, graph, field, data)[:3]:
            points = _monge_points(rng, graph, u)
            X = KnotBatch.of(graph, points)
            owner, G, sign = X.germs()
            germs = [(p, germ) for p in points for germ in graph.germs(p)]
            assert owner.tolist() == [i for i, p in enumerate(points) for _ in graph.germs(p)]
            assert [G.point(i) for i in range(len(G))] == [graph.point(g.edge, g.base)
                                                           for _, g in germs]
            assert sign.tolist() == [float(g.sign) for _, g in germs]
            want = [scalar_germ_sign(u, g) * u.profiles[g.edge].at(g.base) for _, g in germs]
            assert [u.germ_derivative(p, g) for p, g in germs] == want
            assert u.germ_derivative(G, sign).tolist() == want


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


@st.composite
def _table_rows(draw):
    """A field mixing K = 2, 3, 7, 65 and 1025 with a linear and a constant
    edge, and rows on its edges at every knot, 0, L, mid-segment and
    random offsets, shuffled, each paired with another of its edge's."""
    seed = draw(st.integers(0, 2 ** 16))
    graph, given_profiles = _mixed_k_field(seed)
    rng = random.Random(seed)
    edges, s0, s1 = [], [], []
    for e, eid in enumerate(graph.edges):
        L, prof = graph.edges[eid].length, given_profiles[eid]
        knots = list(getattr(prof, "knots", (0.0, L)))
        mids = [0.5 * (a + b) for a, b in zip(knots, knots[1:])]
        offsets = [float(x) for x in knots] + [0.0, L] + mids + [rng.uniform(0.0, L)
                                                                for _ in range(5)]
        edges += [e] * len(offsets)
        s0 += offsets
        s1 += rng.sample(offsets, len(offsets))
    order = rng.sample(range(len(edges)), len(edges))
    return (graph, given_profiles, np.array(edges)[order], np.array(s0)[order],
            np.array(s1)[order])


@given(_table_rows())
def test_rates_read_every_row_as_its_own_profile_bit_for_bit(case):
    """``_Rates.at`` and ``_Rates.integral`` on rows of many edges, each
    table's rows searched together, equal each row's profile's ``at_array``
    and ``integral_array`` bit for bit, in either order of each pair; for a
    field's checked profiles and for unchecked ones, whose tables of one
    row are built on first use.  (Each of those equals its scalar call:
    see ``test_each_profile_integral_array_is_its_integral_bit_for_bit``.)"""
    graph, given_profiles, edges, s0, s1 = case
    ids = list(graph.edges)
    for profiles in (CostField(graph, given_profiles).profiles, given_profiles):
        rates = _Rates(graph, profiles)
        want = np.empty((3, len(edges)))
        for e in np.unique(edges).tolist():
            rows = np.flatnonzero(edges == e)
            prof = profiles[ids[e]]
            want[:, rows] = (prof.at_array(s0[rows]), prof.integral_array(s0[rows], s1[rows]),
                             prof.integral_array(s1[rows], s0[rows]))
        got = np.array([rates.at(edges, s0), rates.integral(edges, s0, s1),
                        rates.integral(edges, s1, s0)])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_a_batch_of_many_sampled_edges_makes_no_call_per_profile(monkeypatch):
    """500 sampled edges (K = 65, every tenth 1025) read at a batch of rows
    on all of them: costs, rates, values and germ derivatives make no
    per-profile array call, but for the branch of the one interior seed,
    read on its own edge's rows once per pass."""
    rng = random.Random(2)
    lengths = [rng.uniform(0.2, 3.0) for _ in range(500)]
    graph = _path_graph(lengths)
    field = CostField(graph, {"e%d" % i: Samples(*_random_samples(rng, 1025 if i % 10 == 0 else 65, L))
                              for i, L in enumerate(lengths)})
    u = OpticalMap(field, {Vertex("v0"): 0.0, EdgeInterior("e7", 0.5 * lengths[7]): 0.1})
    X = KnotBatch.of(graph, [EdgeInterior("e%d" % i, rng.uniform(0.05, 0.95) * L)
                             for i, L in enumerate(lengths) if i != 7] + [Vertex("v3")])
    calls = []
    for name in ("at_array", "integral_array"):
        def counting(self, *args, name=name, read=getattr(Samples, name)):
            calls.append((name, self is field.profiles["e7"]))
            return read(self, *args)

        monkeypatch.setattr(Samples, name, counting)
    field.edge_cost(X, np.zeros(len(X)), X.offsets)
    field._rates.at(X.edges, X.offsets)
    u.evaluate(X)
    _, G, sign = X.germs()
    u.germ_derivative(G, sign)
    assert calls == [("integral_array", True)] * 2


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
