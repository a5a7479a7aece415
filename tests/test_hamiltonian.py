"""Reduction of general Hamiltonians to eikonal form, the r-coupled fixed
point, and the exponential change of variables."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import eikograph.hamiltonian as hamiltonian_module
from eikograph import (BoundaryData, CoercivityProbeFailed, CostField,
                       DivergenceError, Hamiltonian, HamiltonianRejection,
                       InputError, Linear, MetricGraph, NoSubsolution,
                       NonmonotoneHamiltonian, PreconditionError, Samples, Vertex,
                       catalog, kruzkov, reduce_to_eikonal, slopes, solve,
                       solve_general)
from conftest import build_instance, interval_point, make_interval, random_graph_spec

CATALOG = ("eikonal-affine", "quadratic", "nonmono-a", "nonmono-b", "discounted")


def coord(p):
    if isinstance(p, Vertex):
        return -1.0 if p.id == "L" else 1.0
    return p.s - 1.0


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------

def test_affine_reduction_recovers_f():
    graph, _, _ = make_interval()
    field = CostField(graph, {"e": Linear(1.0, 0.5)})
    H = catalog("eikonal-affine", field)
    h = reduce_to_eikonal(H, 0.0, graph)
    for s in (0.0, 0.4, 1.0, 1.6, 2.0):
        assert h.value_at(graph.point("e", s)) == pytest.approx(1.0 + 0.5 * s, abs=1e-9)


def test_quadratic_reduction_takes_positive_root():
    graph, field, _ = make_interval()
    h = reduce_to_eikonal(catalog("quadratic", field), 0.0, graph)
    for s in (0.25, 1.0, 1.75):
        assert h.value_at(graph.point("e", s)) == pytest.approx(1.0, abs=1e-9)


def test_reduction_residual_invariant():
    """H(x, u(x), h(x)) vanishes at every knot within the bisection width."""
    graph, _, _ = make_interval()
    field = CostField(graph, {"e": Linear(0.5, 0.75)})
    for name in ("eikonal-affine", "quadratic"):
        H = catalog(name, field)
        h = reduce_to_eikonal(H, 0.0, graph)
        prof = h.profiles["e"]
        for s, hv in zip(prof.knots, prof.values):
            assert abs(H(graph.point("e", s), 0.0, hv)) <= 1e-9


def test_reduced_h_modulus_is_measured_not_assumed():
    """h from an affine H inherits f's Lipschitz constant; the finite-sample
    constant across the knots must not exceed it materially."""
    graph, _, _ = make_interval()
    b = 0.75
    field = CostField(graph, {"e": Linear(0.5, b)})
    h = reduce_to_eikonal(catalog("eikonal-affine", field), 0.0, graph)
    prof = h.profiles["e"]
    worst = max(abs(prof.values[i + 1] - prof.values[i]) / (prof.knots[i + 1] - prof.knots[i])
                for i in range(len(prof.knots) - 1))
    assert worst <= b + 1e-6


def test_nonmono_a_rejected_with_witness():
    graph, _, _ = make_interval()
    with pytest.raises(NonmonotoneHamiltonian) as ei:
        reduce_to_eikonal(catalog("nonmono-a"), 0.0, graph)
    p_lo, p_hi = ei.value.p_pair
    H = catalog("nonmono-a")
    x = ei.value.point
    assert H(x, 0.0, p_lo) > 0.0 >= H(x, 0.0, p_hi)
    assert p_lo < p_hi


def test_nonmono_b_rejected_despite_positive_start():
    """1 - |p| + max(p-3,0)² starts positive at p = 0; a naive no-subsolution
    check would fire first, but the drop through zero is the real defect and
    must win."""
    graph, _, _ = make_interval()
    with pytest.raises(NonmonotoneHamiltonian) as ei:
        reduce_to_eikonal(catalog("nonmono-b"), 0.0, graph)
    p_lo, p_hi = ei.value.p_pair
    assert 0.0 <= p_lo < p_hi <= 1.5


def test_nonmono_a_zero_matches_steepest_descent_of_cone():
    """The first rejected Hamiltonian still annihilates the descending slope
    of u = -3|x|: |∇⁻u| ≡ 3 and H(3) = 1 - |3-2| + 0 = 0."""
    graph, _, _ = make_interval()

    class Cone:
        def __init__(self):
            self.graph = graph

        def evaluate(self, p):
            return -3.0 * abs(coord(p))

    H = catalog("nonmono-a")
    for x in (-0.75, -0.25, 0.0, 0.5):
        est = slopes(Cone(), interval_point(graph, x))
        assert est.down == pytest.approx(3.0, abs=1e-12)
        assert H(interval_point(graph, x), 0.0, est.down) == 0.0


def test_no_subsolution_error():
    graph, _, _ = make_interval()
    H = Hamiltonian(lambda x, r, p: p + 1.0, name="shifted-up")
    with pytest.raises(NoSubsolution):
        reduce_to_eikonal(H, 0.0, graph)


def test_coercivity_probe_failure():
    graph, _, _ = make_interval()
    flat = Hamiltonian(lambda x, r, p: -1.0, name="flat")
    with pytest.raises(CoercivityProbeFailed):
        reduce_to_eikonal(flat, 0.0, graph)
    out_of_reach = Hamiltonian(lambda x, r, p: p - 2000.0, name="far")
    with pytest.raises(CoercivityProbeFailed):
        reduce_to_eikonal(out_of_reach, 0.0, graph)


def test_negative_p_probes_use_zero_extension():
    H = catalog("quadratic")
    x = Vertex("L")
    assert H(x, 0.0, -5.0) == H(x, 0.0, 0.0) == -1.0
    assert H(x, 0.0, np.array([-5.0, -0.0, 0.5])).tolist() == [-1.0, -1.0, -0.75]


# ----------------------------------------------------------------------
# the array sign scan against the scalar reference
# ----------------------------------------------------------------------

def _scalar_slope(H, x, r):
    """Reference for the sign scan: 64 scalar probes on a grid rebuilt at
    every call, then the same bisection."""
    grid = np.concatenate(([0.0], np.geomspace(H.pmax * 1e-9, H.pmax, 63)))
    signs = [H(x, r, float(p)) > 0.0 for p in grid]
    last_pos = None
    for i, s in enumerate(signs):
        if s:
            last_pos = i
        elif last_pos is not None:
            raise NonmonotoneHamiltonian(
                "H(x, r, .) drops from positive at p=%g back to nonpositive at p=%g"
                % (grid[last_pos], grid[i]),
                point=x, p_pair=(float(grid[last_pos]), float(grid[i])))
    if all(signs):
        raise NoSubsolution(
            "H(x, r, 0) = %g > 0: constants are not subsolutions at %r" % (H(x, r, 0.0), x))
    if not any(signs):
        raise CoercivityProbeFailed(
            "H(x, r, .) never exceeds 0 up to pmax=%g at %r" % (H.pmax, x))
    rise = signs.index(True)
    lo, hi = float(grid[rise - 1]), float(grid[rise])
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if H(x, r, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _scalar_reduction(H, u, graph, n_knots, fmin=1e-6):
    ueval = u.evaluate if hasattr(u, "evaluate") else (lambda p: float(u))
    profiles = {}
    for eid in sorted(graph.edges):
        knots = np.linspace(0.0, graph.edges[eid].length, n_knots)
        values = []
        for s in knots:
            p = graph.point(eid, float(s))
            values.append(max(_scalar_slope(H, p, ueval(p)), fmin))
        profiles[eid] = Samples(tuple(float(s) for s in knots), tuple(values))
    return CostField(graph, profiles, fmin=fmin)


def _outcome(reduce, H, u, graph, n_knots):
    """Knots and values of every edge, or the rejection with its witness."""
    try:
        h = reduce(H, u, graph, n_knots)
    except HamiltonianRejection as exc:
        return (type(exc), str(exc), getattr(exc, "point", None), getattr(exc, "p_pair", None))
    return {eid: (prof.knots, prof.values) for eid, prof in h.profiles.items()}


def _assert_reduction_matches_reference(H, u, graph, n_knots=65):
    got = _outcome(reduce_to_eikonal, H, u, graph, n_knots)
    assert got == _outcome(_scalar_reduction, H, u, graph, n_knots)
    return got if isinstance(got, tuple) else "reduced"


class _Ramp:
    """u = (1 - x) / 2 on the interval: 1 exactly at L, in [0, 1) elsewhere,
    so the discounted H(x, u, 0) = u - 1 vanishes exactly at L."""

    def __init__(self, graph):
        self.graph = graph

    def evaluate(self, p):
        return 0.5 * (1.0 - coord(p))


class _Damped:
    """exp(-u) of a solution: nonconstant, in (0, 1]."""

    def __init__(self, u):
        self._u = u

    def evaluate(self, p):
        return math.exp(-self._u.evaluate(p))


def test_array_scan_reproduces_the_scalar_scan_on_the_interval():
    graph, _, data = make_interval()
    field = CostField(graph, {"e": Linear(0.5, 0.75)})
    ramp = _Ramp(graph)
    cases = [(catalog("eikonal-affine", field), 0.0),
             (catalog("quadratic", field), 0.0),
             (catalog("nonmono-a"), 0.0),
             (catalog("nonmono-b"), 0.0),
             (catalog("discounted"), ramp),
             (catalog("discounted"), solve(field, data)),
             (Hamiltonian(lambda x, r, p: p + 1.0, name="shifted-up"), 0.0),
             (Hamiltonian(lambda x, r, p: -1.0, name="flat"), 0.0),
             (Hamiltonian(lambda x, r, p: 0.0, name="zero"), 0.0),
             (Hamiltonian(lambda x, r, p: p - 2000.0, name="far"), 0.0),
             (Hamiltonian(lambda x, r, p: p - 1.0, name="unit"), 0.0),
             (Hamiltonian(lambda x, r, p: p - r - 1.0, depends_on_r=True, name="anti"), ramp)]
    kinds = set()
    for H, u in cases:
        got = _assert_reduction_matches_reference(H, u, graph)
        kinds.add(got if got == "reduced" else got[0])
    assert kinds == {"reduced", NonmonotoneHamiltonian, NoSubsolution, CoercivityProbeFailed}


@given(st.integers(0, 10_000))
def test_array_scan_reproduces_the_scalar_scan_on_random_graphs(seed):
    spec = random_graph_spec(random.Random(seed), max_vertices=6, max_extra_edges=4)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    for name in CATALOG:
        H = catalog(name, field)
        for r in ((u, _Damped(u)) if H.depends_on_r else (0.0,)):
            _assert_reduction_matches_reference(H, r, graph, n_knots=9)


def test_reduction_builds_the_probe_grid_once_and_scans_each_knot_in_one_call(monkeypatch):
    grids = []
    build = hamiltonian_module._probe_grid

    def counting(pmax):
        grids.append(pmax)
        return build(pmax)

    monkeypatch.setattr(hamiltonian_module, "_probe_grid", counting)
    array_calls = []

    def fn(x, r, p):
        if isinstance(p, np.ndarray):
            array_calls.append(p.shape)
        return p - 1.0

    graph, _, _ = make_interval()
    reduce_to_eikonal(Hamiltonian(fn, name="unit"), 0.0, graph, n_knots=17)
    assert grids == [1e3]
    assert array_calls == [(hamiltonian_module.PROBE_POINTS,)] * 17


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_hamiltonians_act_elementwise(name):
    graph, _, _ = make_interval()
    H = catalog(name, CostField(graph, {"e": Linear(0.5, 0.75)}))
    grid = hamiltonian_module._probe_grid(H.pmax)
    for x in (Vertex("L"), graph.point("e", 0.7)):
        vec = H.fn(x, 0.3, grid)
        assert isinstance(vec, np.ndarray) and vec.shape == grid.shape
        assert vec.tolist() == [H.fn(x, 0.3, float(p)) for p in grid]


# ----------------------------------------------------------------------
# solve_general
# ----------------------------------------------------------------------

def test_r_independent_equals_plain_solve_exactly():
    graph, _, _ = make_interval()
    field = CostField(graph, {"e": Linear(1.0, 0.5)})
    data = BoundaryData(graph, {"L": 0.0, "R": 0.0})
    H = catalog("eikonal-affine", field)
    via_general = solve_general(H, graph, data)
    via_reduce = solve(reduce_to_eikonal(H, 0.0, graph), data)
    for vid in graph.vertices:
        assert via_general.vertex_value(vid) == via_reduce.vertex_value(vid)
    for s in (0.3, 1.0, 1.7):
        p = graph.point("e", s)
        assert via_general.evaluate(p) == via_reduce.evaluate(p)


def test_unit_hamiltonian_reproduces_tent():
    graph, field, data = make_interval()
    u = solve_general(Hamiltonian(lambda x, r, p: p - 1.0, name="unit"), graph, data)
    for k in range(41):
        x = -1.0 + k * 0.05
        assert u.evaluate(interval_point(graph, x)) == pytest.approx(1.0 - abs(x), abs=1e-8)


def test_discounted_fixed_point_matches_ode():
    """p + r - 1 = 0 along descent means u' = ±(1 - u): with zero ends the
    interior profile is 1 - e^{-(1-|x|)}."""
    graph, _, data = make_interval()
    u = solve_general(catalog("discounted"), graph, data, lam=1.0)
    worst = 0.0
    for k in range(81):
        x = -1.0 + k * 0.025
        want = 1.0 - math.exp(-(1.0 - abs(x)))
        worst = max(worst, abs(u.evaluate(interval_point(graph, x)) - want))
    assert worst <= 1e-3
    assert u.vertex_value("L") == 0.0 and u.vertex_value("R") == 0.0


def test_discounted_residual_at_knots():
    graph, _, data = make_interval()
    H = catalog("discounted")
    u = solve_general(H, graph, data, lam=1.0)
    h = reduce_to_eikonal(H, u, graph)
    prof = h.profiles["e"]
    for s, hv in zip(prof.knots, prof.values):
        r = u.evaluate(graph.point("e", s))
        assert abs(H(graph.point("e", s), r, hv)) <= 1e-9


def test_lambda_probe_rejects_decreasing_r():
    graph, _, data = make_interval()
    anti = Hamiltonian(lambda x, r, p: p - r - 1.0, depends_on_r=True, name="anti")
    with pytest.raises(PreconditionError, match="monotone in r"):
        solve_general(anti, graph, data, lam=1.0)


def test_divergence_reports_history():
    graph, _, data = make_interval()
    anti = Hamiltonian(lambda x, r, p: p - r - 1.0, depends_on_r=True, name="anti")
    with pytest.raises(DivergenceError) as ei:
        solve_general(anti, graph, data, n_knots=9, max_iter=8)
    assert len(ei.value.history) == 8
    assert ei.value.history[-1] > 1e-8


def test_catalog_rejects_unknown_name():
    with pytest.raises(InputError, match="unknown Hamiltonian"):
        catalog("zzz")


# ----------------------------------------------------------------------
# the exponential transform
# ----------------------------------------------------------------------

def test_transform_closed_form_at_a_smooth_point():
    graph, field, data = make_interval()
    u = solve(field, data)
    U = kruzkov(u)
    x = interval_point(graph, 0.5)
    assert U.evaluate(x) == pytest.approx(-math.exp(-0.5), abs=1e-15)
    est = slopes(U, x, graph=graph)
    # |∇U| + f·U = 0 at differentiable points
    assert est.down + 1.0 * U.evaluate(x) == pytest.approx(0.0, abs=1e-15)


def test_transform_constant_has_zero_slope():
    graph, _, _ = make_interval()

    class Const:
        def __init__(self):
            self.graph = graph

        def evaluate(self, p):
            return 2.0

        def germ_derivative(self, p, germ):
            return 0.0

    U = kruzkov(Const())
    assert U.evaluate(Vertex("L")) == -math.exp(-2.0)
    est = slopes(U, interval_point(graph, 0.3))
    assert (est.total, est.up, est.down) == (0.0, 0.0, 0.0)


@given(st.integers(0, 10_000))
def test_transform_round_trip_and_slope_relation(seed):
    rng = random.Random(seed)
    spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
    graph, field, data = build_instance(spec)
    u = solve(field, data)
    U = kruzkov(u)
    back = kruzkov(U, direction="inverse")
    eids = sorted(graph.edges)
    for _ in range(5):
        eid = eids[rng.randrange(len(eids))]
        p = graph.point(eid, rng.random() * graph.edges[eid].length)
        uv = u.evaluate(p)
        assert back.evaluate(p) == pytest.approx(uv, rel=1e-12, abs=1e-12)
        for germ in graph.germs(p):
            want = math.exp(-uv) * u.germ_derivative(p, germ)
            assert U.germ_derivative(p, germ) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_inverse_transform_needs_negative_values():
    graph, _, _ = make_interval()

    class Pos:
        def __init__(self):
            self.graph = graph

        def evaluate(self, p):
            return 0.5

    with pytest.raises(InputError, match="strictly negative"):
        kruzkov(Pos(), direction="inverse").evaluate(Vertex("L"))
    with pytest.raises(InputError, match="forward"):
        kruzkov(Pos(), direction="sideways")
