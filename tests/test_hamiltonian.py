"""Reduction of general Hamiltonians to eikonal form, the label-setting
solve for r-coupled ones, and the exponential change of variables."""
import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import eikograph.hamiltonian as hamiltonian_module
from eikograph import (BoundaryData, CoercivityProbeFailed, CostField, DistanceField,
                       DistanceTestFunction, Hamiltonian, HamiltonianRejection,
                       ImproperHamiltonian, InputError, Linear, MetricGraph, NoSubsolution,
                       NonmonotoneHamiltonian, PreconditionError, Samples, Vertex,
                       catalog, graph_to_dict, kruzkov, reduce_to_eikonal, slopes, solve,
                       solve_general)
from eikograph.cost import FMIN
from eikograph.graph import KnotBatch
from conftest import (build_instance, interval_point, make_interval, random_graph_spec,
                      tiny_dijkstra)

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


@pytest.mark.parametrize("fn, refusal", [
    (lambda x, r, p: r - 2.0, CoercivityProbeFailed),
    (lambda x, r, p: 1.0 + 0.0 * r, NoSubsolution),
], ids=["never-positive", "positive-at-zero"])
def test_the_r_dependent_pass_refuses_an_h_constant_in_p(fn, refusal):
    """An H that ignores p comes back from the scan as one scalar, which
    the pass widens over the probe grid before it refuses the knot."""
    graph, _, data = make_interval()
    with pytest.raises(refusal):
        solve_general(Hamiltonian(fn, depends_on_r=True), graph, data)


@pytest.mark.parametrize("c", [5e5, 5e6, 3e8])
def test_bisection_ends_for_slopes_past_two_to_the_nineteenth(c):
    """Past 2**19 adjacent doubles sit wider apart than BISECT_TOL, so the
    bracket stops shrinking there; the bisection ends on adjacent doubles
    and returns the root."""
    graph = MetricGraph([("a", True), ("b",)], [("e", "a", "b", 1.0)])
    h = reduce_to_eikonal(Hamiltonian(lambda x, r, p: p - c, pmax=1e9), 0.0, graph, n_knots=2)
    assert h.profiles["e"].values == (c, c)


@pytest.mark.parametrize("pmax", [0.0, -1.0, math.nan, math.inf, True, "5"])
def test_pmax_must_be_finite_and_positive(pmax):
    """0 crashed in np.geomspace, inf reported a drop "at p=inf back to
    nonpositive at p=nan", nan a ceiling of "pmax=nan"; True passed as a
    ceiling of 1 and "5" raised a bare TypeError."""
    with pytest.raises(InputError, match="pmax must be finite and > 0"):
        Hamiltonian(lambda x, r, p: p - 1.0, pmax=pmax)


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
    every call, then the package's root step on the bracket they find and
    their values at its ends."""
    grid = np.concatenate(([0.0], np.geomspace(H.pmax * 1e-9, H.pmax, 63)))
    values = [H(x, r, float(p)) for p in grid]
    signs = [v > 0.0 for v in values]
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
    return hamiltonian_module._itp_root(H, x, r, float(grid[rise - 1]), float(grid[rise]),
                                        float(values[rise - 1]), float(values[rise]))


def _scalar_reduction(H, u, graph, n_knots):
    ueval = u.evaluate if hasattr(u, "evaluate") else (lambda p: float(u))
    profiles = {}
    for eid in sorted(graph.edges):
        knots = np.linspace(0.0, graph.edges[eid].length, n_knots)
        values = []
        for s in knots:
            p = graph.point(eid, float(s))
            values.append(max(_scalar_slope(H, p, ueval(p)), FMIN))
        profiles[eid] = Samples(tuple(float(s) for s in knots), tuple(values))
    return CostField(graph, profiles)


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


_BAD_SCANS = {
    "coercivity": lambda p: -1.0 + 0.0 * p,
    "nonmonotone": lambda p: 1.0 - abs(p - 2.0) + np.square(np.maximum(p - 3.0, 0.0)),
    "no-subsolution": lambda p: p + 1.0}


def _marked_hamiltonian(graph, n_knots, marks, kind):
    """p - 1 at every knot but the marked ones, (edge id, knot index) pairs,
    where H has the defect ``kind``.  Marks are read through a sampled cost
    field, 2 at a marked knot and 1 elsewhere, so H takes a graph point or a
    knot batch as the catalog does."""
    values = {eid: [1.0] * n_knots for eid in graph.edges}
    for eid, k in marks:
        values[eid][k] = 2.0
    marker = CostField(graph, {eid: Samples(np.linspace(0.0, graph.edges[eid].length, n_knots), v)
                               for eid, v in values.items()})
    bad = _BAD_SCANS[kind]
    return Hamiltonian(lambda x, r, p: np.where(marker.value_at(x) > 1.5, bad(p), p - 1.0),
                       name="marked")


@pytest.mark.parametrize("kind", sorted(_BAD_SCANS))
@pytest.mark.parametrize("marks,batch_knots", [
    pytest.param([("e0", 3)], 4096, id="first-edge"),
    pytest.param([("e3", 2)], 4096, id="later-edge"),
    pytest.param([("e3", 1), ("e1", 3)], 4096, id="earlier-of-two"),
    pytest.param([("e2", 1), ("e3", 2)], 10, id="just-past-a-batch-boundary"),
    pytest.param([("e1", 3), ("e2", 1)], 10, id="before-a-batch-boundary")])
def test_a_refusal_names_the_first_failing_knot_in_edge_and_knot_order(monkeypatch, kind, marks,
                                                                      batch_knots):
    """The batched reduction refuses at the knot, and with the class,
    message, point and p_pair, that the per-knot reference does, wherever
    the failing knot sits among the edges and batches."""
    monkeypatch.setattr(hamiltonian_module, "BATCH_KNOTS", batch_knots)  # 10: 2 edges a batch
    graph = MetricGraph([("a", True), ("b",), ("c",), ("d",), ("z",)],
                        [("e0", "a", "b", 1.0), ("e1", "b", "c", 0.5), ("e2", "c", "d", 2.0),
                         ("e3", "d", "z", 1.5)])
    H = _marked_hamiltonian(graph, 5, marks, kind)
    got = _assert_reduction_matches_reference(H, 0.0, graph, n_knots=5)
    eid, k = min(marks)
    knot = graph.point(eid, float(np.linspace(0.0, graph.edges[eid].length, 5)[k]))
    assert got[0] is {"coercivity": CoercivityProbeFailed, "nonmonotone": NonmonotoneHamiltonian,
                      "no-subsolution": NoSubsolution}[kind]
    assert repr(knot) in got[1] or got[2] == knot


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
            array_calls.append((len(x), p.shape))
        return p - 1.0

    graph, _, _ = make_interval()
    reduce_to_eikonal(Hamiltonian(fn, name="unit"), 0.0, graph, n_knots=17)
    assert grids == [1e3]
    # one scan of all 17 knots over the grid, then root steps on columns of
    # the knots still bracketing, never more of them than the step before
    scan, *steps = array_calls
    assert scan == (17, (hamiltonian_module.PROBE_POINTS,))
    assert steps and all(shape == (m, 1) for m, shape in steps)
    active = [m for m, _ in steps]
    assert active[0] == 17 and active == sorted(active, reverse=True)


def _bisection_steps(H, x, r):
    """How many fn calls the plain bisection to BISECT_TOL (or to adjacent
    doubles) makes on the bracket the package's sign scan finds."""
    grid = hamiltonian_module._probe_grid(H.pmax)
    rise = int((H(x, r, grid) > 0.0).argmax())
    return _bisection_count(H.fn, x, r, float(grid[rise - 1]), float(grid[rise]))


def _bisection_count(fn, x, r, lo, hi):
    """How many fn calls the plain bisection makes on (lo, hi]."""
    steps = 0
    while hi - lo > hamiltonian_module.BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        steps += 1
        if fn(x, r, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return steps


@pytest.mark.parametrize("name", ["quadratic", "discounted"])
def test_each_slope_solve_calls_H_once_and_bisects_on_fn_with_positive_floats(monkeypatch, name):
    """The array scan is the only Hamiltonian.__call__: once per slope solve
    in the r-dependent pass (discounted), once per batch of knots in the
    reduction of an r-independent H (quadratic).  The root step hands fn
    probes p > 0, where H's zero-extension cannot act: a Python float in a
    scalar solve, a float64 column over the knots still bracketing in a
    batch.  Each solve takes at most one probe more than bisection would,
    and at most 10 on average (bisection takes about 30)."""
    graph, _, data = make_interval()
    base = catalog(name, CostField(graph, {"e": Linear(0.5, 0.75)}))
    solves = {}  # solve -> [its point, its r, its root step's probes]
    h_calls = []

    def fn(x, r, p):
        if isinstance(x, KnotBatch) and p.ndim == 2:  # a lockstep root step
            assert p.dtype == np.float64 and p.shape == (len(x), 1)
            for row, q in zip(x.rows.tolist(), p[:, 0].tolist()):
                solves[len(h_calls), row][2].append(q)
        elif not isinstance(p, np.ndarray):
            solves[len(h_calls), None][2].append(p)
        return base.fn(x, r, p)

    H = Hamiltonian(fn, depends_on_r=base.depends_on_r, name=name)
    scalar_solves = []
    h_call, implicit_slope = Hamiltonian.__call__, hamiltonian_module._implicit_slope

    def counting_slope(*args):
        scalar_solves.append(args[1])
        return implicit_slope(*args)

    def counting_call(self, x, r, p):
        h_calls.append(x)
        if isinstance(x, KnotBatch):
            for row, knot in enumerate(x.points()):
                solves[len(h_calls), row] = [knot, r, []]
        else:
            solves[len(h_calls), None] = [x, r, []]
        return h_call(self, x, r, p)

    monkeypatch.setattr(Hamiltonian, "__call__", counting_call)
    monkeypatch.setattr(hamiltonian_module, "_implicit_slope", counting_slope)
    solve_general(H, graph, data, n_knots=17)
    monkeypatch.undo()
    batched = [x for x in h_calls if isinstance(x, KnotBatch)]
    if base.depends_on_r:
        assert len(scalar_solves) >= 17 and h_calls == scalar_solves
    else:  # 17 knots make one batch, and each is one solve
        assert not scalar_solves and h_calls == batched
        assert [len(x) for x in batched] == [17] == [len(solves)]
    probes = [q for _, _, qs in solves.values() for q in qs]
    assert len(probes) <= 10 * len(solves)
    assert all(type(q) is float and q > 0.0 for q in probes)
    for x, r, qs in solves.values():
        if qs:  # a solve refused for NoSubsolution makes no root-step call
            assert len(qs) <= _bisection_steps(base, x, r) + 1


def _step(c, below, above):
    """A jump at c from ``below`` to ``above``: regula falsi's worst case
    when the two sizes differ by orders of magnitude."""
    return lambda x, r, p: np.where(p > c, above, below) if isinstance(p, np.ndarray) else (
        above if p > c else below)


def _adversarial(c):
    """Hard root steps near c: (fn, pmax, the root of fn), named."""
    cases = {"step": (_step(c, -1e-9, 1e6), 1e3, c),
             "step-down": (_step(c, -1e6, 1e-9), 1e3, c),
             "flat-then-steep": (lambda x, r, p: np.maximum(p - c, 0.0) ** 3 - 1e-12, 1e3,
                                 c + 1e-4),
             "ninth-power": (lambda x, r, p: p ** 9 - 2.0 * c, 1e3, (2.0 * c) ** (1.0 / 9.0)),
             "square-root": (lambda x, r, p: np.sqrt(p) - 0.3 * c, 1e3, (0.3 * c) ** 2)}
    return [pytest.param(*case, id="%s-%g" % (name, c)) for name, case in cases.items()]


ROOT_STEP_CASES = [
    *(case for c in (0.00123, 0.3, 1.0, 2.5, 7.77, 30.0) for case in _adversarial(c)),
    *(pytest.param(lambda x, r, p, c=c: p - c, 1e9, c, id="linear-%r" % c)
      for c in (2.0 ** 19 - 0.3, 2.0 ** 19 + 0.3, 5e5, 5e6, 3e8))]


@pytest.mark.parametrize("f,pmax,root", ROOT_STEP_CASES)
def test_the_root_step_takes_at_most_one_step_more_than_bisection(f, pmax, root):
    """The ITP root step's worst case is bisection's count plus one, on a
    step, a flat stretch, and roots at which regula falsi crawls; its answer
    is within BISECT_TOL / 2 of the root, or within one ulp past 2**19,
    where adjacent doubles sit wider apart than BISECT_TOL."""
    calls = []

    def fn(x, r, p):
        if not isinstance(p, np.ndarray):
            calls.append(p)
        return f(x, r, p)

    x = Vertex("a")
    h = hamiltonian_module._implicit_slope(Hamiltonian(fn, pmax=pmax), x, 0.0,
                                           hamiltonian_module._probe_grid(pmax))
    assert len(calls) <= _bisection_steps(Hamiltonian(f, pmax=pmax), x, 0.0) + 1
    assert abs(h - root) <= max(hamiltonian_module.BISECT_TOL / 2, math.ulp(root))


def _assert_lockstep_is_the_scalar_step(fn, scalar_fn, X, r, lo, hi, flo, fhi):
    """The lockstep root step over the rows (lo, hi] against ``_itp_root``
    on each row alone: equal bit for bit, with every probe > 0 and strictly
    inside its row's bracket at that step, and no row taking more probes
    than bisection's count plus one.  ``scalar_fn`` is fn at one knot."""
    brackets = list(zip(lo.tolist(), hi.tolist()))
    probes = [0] * len(lo)

    def watched(x, r_rows, p):
        fp = fn(x, r_rows, p)
        for row, q, v in zip(x.rows.tolist(), p[:, 0].tolist(),
                             np.broadcast_to(fp, p.shape)[:, 0].tolist()):
            a, b = brackets[row]
            assert 0.0 < q and a < q < b
            brackets[row] = (a, q) if v > 0.0 else (q, b)
            probes[row] += 1
        return fp

    got = hamiltonian_module._itp_lockstep(watched, X, r, lo, hi, flo, fhi)
    for row in range(len(lo)):
        x, r_row = X.point(row), (r[row, 0] if isinstance(r, np.ndarray) else r)
        args = (x, float(r_row), float(lo[row]), float(hi[row]))
        want = hamiltonian_module._itp_root(scalar_fn, *args, flo[row], fhi[row])
        assert got[row].hex() == want.hex()
        assert probes[row] <= _bisection_count(scalar_fn, *args) + 1


@pytest.mark.parametrize("f,pmax,root", ROOT_STEP_CASES)
def test_the_lockstep_root_step_is_the_scalar_step_row_for_row(f, pmax, root):
    """On the hard root steps, three brackets a row: the scan's, one a few
    grid points wider and the whole grid.  The scalar reference evaluates
    f's array form on a one-element column, as numpy's array power rounds
    differently from Python's float power."""
    grid = hamiltonian_module._probe_grid(pmax)
    values = np.broadcast_to(f(None, 0.0, grid), grid.shape)
    rise = int((values > 0.0).argmax())
    ends = np.array([(rise - 1, rise), (max(rise - 3, 0), min(rise + 2, len(grid) - 1)),
                     (0, len(grid) - 1)])
    lo, hi = grid[ends[:, 0]], grid[ends[:, 1]]
    flo, fhi = values[ends[:, 0]], values[ends[:, 1]]
    assert (flo <= 0.0).all() and (fhi > 0.0).all()
    graph = MetricGraph([("a", True), ("b",)], [("e", "a", "b", 1.0)])
    X = KnotBatch(graph, [("e", np.array([0.0, 0.5, 1.0]))])
    _assert_lockstep_is_the_scalar_step(
        f, lambda x, r, p: f(x, r, np.array([[p]]))[0, 0], X, 0.0, lo, hi, flo, fhi)


@given(st.integers(0, 10_000))
def test_the_lockstep_root_step_is_the_scalar_step_at_random_catalog_knots(seed):
    """Every knot of a random graph, with r = exp(-u) <= 1 for discounted,
    so that each knot has a slope."""
    spec = random_graph_spec(random.Random(seed), max_vertices=6, max_extra_edges=4)
    graph, field, data = build_instance(spec)
    X = KnotBatch(graph, hamiltonian_module._edge_knots(graph, 9))
    damped = _Damped(solve(field, data))
    rows = np.arange(len(X))
    for name in ("eikonal-affine", "quadratic", "discounted"):
        H = catalog(name, field)
        r = np.array([[damped.evaluate(x)] for x in X.points()]) if H.depends_on_r else 0.0
        grid = hamiltonian_module._probe_grid(H.pmax)
        values = np.broadcast_to(H(X, r, grid), (len(X), len(grid)))
        rise = (values > 0.0).argmax(axis=1)
        assert (rise > 0).all()
        _assert_lockstep_is_the_scalar_step(
            H.fn, H.fn, X, r, grid[rise - 1], grid[rise],
            values[rows, rise - 1], values[rows, rise])


_clamp_dtypes = st.sampled_from([np.float64, np.float32, np.float16, np.int64, np.int8,
                                 np.uint8, np.bool_])


def _special_values(dtype):
    """NaN, both zeros, both infinities and both least subnormals, repeated
    so that vectorized loops see them in every lane."""
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, tiny, -tiny, 1.0, -1.0] * 5, dtype)


@given(_clamp_dtypes.flatmap(lambda dt: arrays(dt, st.integers(0, 24))))
@example(_special_values(np.float64))
@example(_special_values(np.float32))
@example(_special_values(np.float16))
def test_the_array_clamp_is_the_where_clamp_bit_for_bit(p):
    """NaN and -0.0 become +0.0, dtypes are kept, and nothing warns, over
    every element a dtype holds: infinities and subnormals included."""
    H = Hamiltonian(lambda x, r, q: q, name="identity")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, want = H(Vertex("a"), 0.0, p), np.where(p > 0.0, p, 0.0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["eikonal-affine", "quadratic"])
def test_catalog_reduction_reads_f_once_per_knot(monkeypatch, name):
    """f is computed once per knot in a whole reduction: one column per batch
    of knots, the least f over each knot's germs, from one call of the
    linear profiles' ``at`` on every germ's row; the scan and every root
    step take rows of that column."""
    spec = random_graph_spec(random.Random(3), max_vertices=6, max_extra_edges=4)
    graph, field, _ = build_instance(spec)
    columns, rows, reads = [], [], []
    least, at, value_at = CostField._least_germ_values, Linear.at, CostField.value_at

    def counting_column(self, X):
        col = least(self, X)
        columns.append(col.shape)
        return col

    def counting_at(self, s):
        rows.append(np.shape(s))
        return at(self, s)

    def counting_read(self, p):
        reads.append(p)
        return value_at(self, p)

    monkeypatch.setattr(CostField, "_least_germ_values", counting_column)
    monkeypatch.setattr(Linear, "at", counting_at)
    monkeypatch.setattr(CostField, "value_at", counting_read)
    reduce_to_eikonal(catalog(name, field), 0.0, graph, n_knots=9)
    assert columns == [(9 * len(graph.edges), 1)]  # 81 knots at most: one batch
    # two germs at each of an edge's 7 interior knots, and all of each end vertex's
    germs = sum(14 + len(graph.adjacency(rec.src)) + len(graph.adjacency(rec.dst))
                for rec in graph.edges.values())
    assert rows == [(germs,)]
    assert reads and all(isinstance(p, KnotBatch) for p in reads)


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
    u = solve_general(catalog("discounted"), graph, data)
    worst = 0.0
    for k in range(81):
        x = -1.0 + k * 0.025
        want = 1.0 - math.exp(-(1.0 - abs(x)))
        worst = max(worst, abs(u.evaluate(interval_point(graph, x)) - want))
    assert worst <= 1e-3
    assert u.vertex_value("L") == 0.0 and u.vertex_value("R") == 0.0


def test_discounted_with_a_self_loop_at_two_knots_is_pinned():
    """At two knots per edge a self-loop links a vertex to itself, and the
    knot pass skips it as settled; h and u are pinned bit for bit.  At the
    seed h(a) = 1 - g(a) = 0.75 in closed form, and the root step's answer
    is within BISECT_TOL / 2 of it."""
    graph = MetricGraph([("a", True), ("b",), ("c",)],
                        [("ab", "a", "b", 1.0), ("loop", "b", "b", 0.5),
                         ("bc", "b", "c", 0.75), ("ca", "c", "a", 2.0)])
    u = solve_general(catalog("discounted"), graph, BoundaryData(graph, {"a": 0.25}), n_knots=2)
    assert {eid: prof.values for eid, prof in u.field.profiles.items()} == {
        "ab": (0.75000000000014, 0.3749995000020152),
        "bc": (0.3749995000020152, 0.19921848441517642),
        "ca": (0.19921848441517642, 0.75000000000014),
        "loop": (0.3749995000020152, 0.3749995000020152)}
    assert u.vertex_values == {"a": 0.25, "b": 0.8124997500010775, "c": 1.0278314941575244}
    assert abs(u.field.profiles["ab"].values[0] - 0.75) <= hamiltonian_module.BISECT_TOL / 2


def test_reduction_floors_h_at_exactly_fmin():
    """H = p has h = 0, which the reduction lifts to the positivity floor."""
    graph, _, _ = make_interval()
    h = reduce_to_eikonal(Hamiltonian(lambda x, r, p: p, name="flat"), 0.0, graph, n_knots=5)
    assert all(v == FMIN for prof in h.profiles.values() for v in prof.values)


def test_discounted_residual_at_knots():
    graph, _, data = make_interval()
    H = catalog("discounted")
    u = solve_general(H, graph, data)
    h = reduce_to_eikonal(H, u, graph)
    prof = h.profiles["e"]
    for s, hv in zip(prof.knots, prof.values):
        r = u.evaluate(graph.point("e", s))
        assert abs(H(graph.point("e", s), r, hv)) <= 1e-9


@pytest.mark.parametrize("n_knots", [65, 257])
@pytest.mark.parametrize("length", [2.0, 3.0, 4.0, 6.0])
def test_discounted_on_long_intervals_matches_the_closed_form(length, n_knots):
    """u = min(1 - e^{-s}, 1 - (1 - 0.5) e^{-(L - s)}) with g = 0 and 0.5 at
    the ends.  A fixed-point iteration started from max g overshot 1 and
    stopped with NoSubsolution at L = 4 and 6; the label-setting pass is
    second order in the knot gap."""
    graph = MetricGraph([("L", True), ("R", True)], [("e", "L", "R", length)])
    data = BoundaryData(graph, {"L": 0.0, "R": 0.5})
    u = solve_general(catalog("discounted"), graph, data, n_knots=n_knots)
    worst = 0.0
    for k in range(4 * (n_knots - 1) + 1):
        s = length * k / (4 * (n_knots - 1))
        want = min(-math.expm1(-s), 1.0 - 0.5 * math.exp(-(length - s)))
        worst = max(worst, abs(u.evaluate(graph.point("e", s)) - want))
    assert worst <= 0.5 * (length / (n_knots - 1)) ** 2


def test_discounted_predictor_past_the_zero_of_H_takes_slope_zero():
    """At 3 knots on an edge of length 3 the Heun predictor at the middle
    knot is 0 + 1.5 · 1 = 1.5, where H(x, 1.5, 0) = 0.5 > 0: the level-set
    formula gives slope 0 there, where the slope solve once raised
    NoSubsolution.  A settled node past that zero is still refused."""
    graph = MetricGraph([("L", True), ("R", True)], [("e", "L", "R", 3.0)])
    u = solve_general(catalog("discounted"), graph, BoundaryData(graph, {"L": 0.0, "R": 0.0}),
                      n_knots=3)
    assert abs(u.evaluate(graph.point("e", 1.5)) + math.expm1(-1.5)) <= 0.5 * 1.5 ** 2
    with pytest.raises(NoSubsolution):
        solve_general(catalog("discounted"), graph, BoundaryData(graph, {"L": 1.5, "R": 1.5}),
                      n_knots=3)


def test_discounted_on_random_graphs_matches_the_closed_form():
    """u(x) = min_y 1 - (1 - g(y)) e^{-d(x, y)}: with w = -log(1 - u) the
    equation |u'| = 1 - u is |w'| = 1, so w is a Dijkstra over lengths."""
    rng = random.Random(91)
    for _ in range(12):
        spec = random_graph_spec(rng, max_vertices=10, max_extra_edges=10)
        spec["g"] = {v: 0.6 * g for v, g in spec["g"].items()}
        graph, _, data = build_instance(spec)
        adj = {v: [] for v in spec["vertices"]}
        for e in spec["edges"]:
            adj[e["src"]].append((e["dst"], e["length"]))
            adj[e["dst"]].append((e["src"], e["length"]))
        w = tiny_dijkstra(adj, {v: -math.log1p(-g) for v, g in spec["g"].items()})
        u = solve_general(catalog("discounted"), graph, data)
        for v in spec["vertices"]:
            assert abs(u.vertex_value(v) - -math.expm1(-w[v])) <= 1e-3


def test_an_h_decreasing_in_r_is_refused_with_a_witness():
    """p - r - 1 gives h = 1 + r, which rises with r: H is not proper, and
    the label-setting pass refuses it at a settled knot, naming the two
    slope solves there."""
    spec = random_graph_spec(random.Random(17), max_vertices=10, max_extra_edges=10)
    graph, _, data = build_instance(spec)
    H = Hamiltonian(lambda x, r, p: p - r - 1.0, depends_on_r=True, name="improper")
    with pytest.raises(ImproperHamiltonian, match="not a proof") as exc:
        solve_general(H, graph, data)
    assert isinstance(exc.value, HamiltonianRejection)
    x, r1, r2, h1, h2 = exc.value.witness
    assert r1 < r2 and h1 < h2
    assert h1 == pytest.approx(1.0 + r1, abs=1e-9) and h2 == pytest.approx(1.0 + r2, abs=1e-9)
    graph.validate_point(x)


def test_discounted_passes_the_properness_check_on_random_graphs():
    """h = 1 - r falls with r: every settled knot of the discounted pass
    passes, over data up to 0.9, and each check compares two solves."""
    rng = random.Random(5)
    checked = []
    check = hamiltonian_module._check_proper

    def counting(x, first, second):
        checked.append(first[0] != second[0])
        check(x, first, second)

    for _ in range(12):
        spec = random_graph_spec(rng, max_vertices=10, max_extra_edges=10)
        spec["g"] = {v: 0.6 * g for v, g in spec["g"].items()}
        graph, _, data = build_instance(spec)
        checked.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hamiltonian_module, "_check_proper", counting)
            solve_general(catalog("discounted"), graph, data, n_knots=17)
        assert sum(checked) >= len(graph.edges) * 15  # about one per interior knot


def test_a_nearly_flat_proper_h_is_not_refused_for_bisection_noise():
    """h = 1 - 1e-13 r falls with r by far less than the bisection
    tolerance, so the two solves at a knot may return the same slope or
    ones a bisection step apart: nothing is refused."""
    rng = random.Random(23)
    H = Hamiltonian(lambda x, r, p: p - 1.0 + 1e-13 * r, depends_on_r=True, name="flat")
    for _ in range(6):
        spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
        graph, _, data = build_instance(spec)
        solve_general(H, graph, data, n_knots=17)


def test_cli_maps_an_improper_hamiltonian_to_exit_four(tmp_path, capsys, monkeypatch):
    import eikograph.cli as cli_module
    graph, field, data = make_interval()
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_dict(graph, field, data)))
    monkeypatch.setattr(cli_module, "catalog", lambda name, field: Hamiltonian(
        lambda x, r, p: p - r - 1.0, depends_on_r=True, name=name))
    assert cli_module.entry(["reduce", str(path), "--hamiltonian", "discounted",
                             "--out-dir", str(tmp_path / "out")]) == 4
    assert "hamiltonian rejected: " in capsys.readouterr().err


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


# ----------------------------------------------------------------------
# the chain-rule composition against the five classes it replaced
# ----------------------------------------------------------------------

def _ref_as_evaluator(u):
    if isinstance(u, (int, float)):
        c = float(u)
        return lambda p: c
    if hasattr(u, "evaluate"):
        return u.evaluate
    return u


class _RefForward:
    def __init__(self, u):
        self._u = u
        self._inner = _ref_as_evaluator(u)
        g = getattr(u, "graph", None)
        if g is not None:
            self.graph = g

    def evaluate(self, p):
        return -math.exp(-self._inner(p))


class _RefForwardDiff(_RefForward):
    def germ_derivative(self, p, germ):
        return math.exp(-self._inner(p)) * self._u.germ_derivative(p, germ)


class _RefInverse:
    def __init__(self, U):
        self._U = U
        self._outer = _ref_as_evaluator(U)
        g = getattr(U, "graph", None)
        if g is not None:
            self.graph = g

    def _value(self, p):
        val = self._outer(p)
        if not val < 0.0:
            raise InputError("inverse transform needs strictly negative values, got %r at %r" % (val, p))
        return val

    def evaluate(self, p):
        return -math.log(-self._value(p))


class _RefInverseDiff(_RefInverse):
    def germ_derivative(self, p, germ):
        return self._U.germ_derivative(p, germ) / (-self._value(p))


class _RefDistanceTestFunction:
    def __init__(self, graph, x0, hprime, h=None):
        self.graph = graph
        self.hprime = hprime
        self.h = h
        self.dist = DistanceField(graph, x0)

    def evaluate(self, p):
        if self.h is None:
            raise PreconditionError("no h supplied; only derivatives are available")
        return self.h(self.dist.evaluate(p))

    def germ_derivative(self, p, germ):
        r = self.dist.evaluate(p)
        return self.hprime(r) * self.dist.germ_derivative(p, germ)


def _ref_kruzkov(u, direction):
    diff = hasattr(u, "germ_derivative")
    if direction == "forward":
        return _RefForwardDiff(u) if diff else _RefForward(u)
    return _RefInverseDiff(u) if diff else _RefInverse(u)


class _EvalOnly:
    """The same function with its germ derivatives hidden."""

    def __init__(self, u):
        self.graph = u.graph
        self.evaluate = u.evaluate


def _call_outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared, type and message, with the reference's
        return (type(exc), str(exc))


def _assert_same_function(new, old, points):
    assert hasattr(new, "germ_derivative") == hasattr(old, "germ_derivative")
    assert getattr(new, "graph", None) is getattr(old, "graph", None)
    for p in points:
        assert _call_outcome(new.evaluate, p) == _call_outcome(old.evaluate, p)
        if hasattr(old, "germ_derivative"):
            for germ in new.graph.germs(p):
                assert _call_outcome(new.germ_derivative, p, germ) == _call_outcome(old.germ_derivative, p, germ)


def test_compositions_equal_the_classes_they_replaced_on_random_graphs():
    """Values and germ derivatives with ==, hasattr(germ_derivative), and the
    type and message of every refusal: an inverse transform of a
    nonnegative function, and a distance test function without h."""
    rng = random.Random(61)
    refusals = 0
    for _ in range(24):
        graph, field, data = build_instance(random_graph_spec(rng, max_vertices=9, max_extra_edges=8))
        u = solve(field, data)
        eids = sorted(graph.edges)
        points = [Vertex(vid) for vid in sorted(graph.vertices)]
        points += [graph.point(eid, rng.uniform(0.05, 0.95) * graph.edges[eid].length) for eid in eids]
        base = eids[rng.randrange(len(eids))]
        x0 = graph.point(base, rng.uniform(0.0, 1.0) * graph.edges[base].length)
        for inner in (u, _EvalOnly(u)):
            _assert_same_function(kruzkov(inner), _ref_kruzkov(inner, "forward"), points)
            # u >= 0 on these graphs, so every inverse of it is refused
            _assert_same_function(kruzkov(inner, "inverse"), _ref_kruzkov(inner, "inverse"), points)
            refusals += isinstance(_call_outcome(kruzkov(inner, "inverse").evaluate, points[0]), tuple)
            negative = _RefForwardDiff(u) if inner is u else _EvalOnly(_RefForwardDiff(u))
            _assert_same_function(kruzkov(negative, "inverse"), _ref_kruzkov(negative, "inverse"), points)
        hprime, h = (lambda t: 2.0 * t), (lambda t: t * t + 0.5)
        for hh in (h, None):
            phi = DistanceTestFunction(graph, x0, hprime, h=hh)
            _assert_same_function(phi, _RefDistanceTestFunction(graph, x0, hprime, h=hh), points)
        # the evaluate-only form of a distance-type composition: the old class
        # had none, so its values and sampled slopes are what must agree
        phi = DistanceTestFunction(graph, x0, hprime, h=h)
        ref = _RefDistanceTestFunction(graph, x0, hprime, h=h)
        for p in points:
            assert slopes(_EvalOnly(phi), p) == slopes(_EvalOnly(ref), p)
    assert refusals == 48
