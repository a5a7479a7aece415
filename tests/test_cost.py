"""Cost profiles: closed-form integrals against midpoint-rule quadrature,
inversion round trips, and field-level validation."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eikograph import Constant, CostField, InputError, Linear, MetricGraph, Samples, Vertex
from conftest import make_interval


def midpoint_quad(fn, s0, s1, n=200_000):
    """Independent quadrature oracle for ∫_{s0}^{s1} fn."""
    xs = np.linspace(s0, s1, n + 1)
    mids = 0.5 * (xs[:-1] + xs[1:])
    return float(np.sum(fn(mids)) * (s1 - s0) / n)


# ----------------------------------------------------------------------
# profile arithmetic
# ----------------------------------------------------------------------

def test_constant_profile_integral_exact():
    p = Constant(2.5)
    assert p.integral(0.25, 1.75, 2.0) == 2.5 * 1.5
    assert p.at(0.123, 2.0) == 2.5
    assert p.bounds(2.0) == (2.5, 2.5)


@given(st.floats(0.1, 5.0), st.floats(-1.0, 1.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_linear_profile_integral_matches_quadrature(a, b, s0, s1):
    if a + min(0.0, b) * 2.0 < 0.05:
        return   # keep the profile positive on [0, 2]
    s0, s1 = min(s0, s1), max(s0, s1)
    p = Linear(a, b)
    got = p.integral(s0, s1, 2.0)
    want = midpoint_quad(lambda x: a + b * x, s0, s1, n=4_000)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


@given(st.floats(0.2, 5.0), st.floats(-0.08, 1.0), st.floats(0.0, 1.9), st.floats(1e-6, 1.0))
def test_linear_inverse_integral_round_trip(a, b, s0, target):
    p = Linear(a, b)
    t = p.inverse_integral(s0, target, 2.0)
    assert t >= 0.0
    assert p.integral(s0, s0 + t, 2.0) == pytest.approx(target, rel=1e-12, abs=1e-12)


def test_linear_inverse_stable_for_tiny_targets():
    """The conjugate quadratic form must not cancel when b·t is tiny
    relative to a: the answer is then target/a to first order."""
    p = Linear(1.0, 1e-8)
    t = p.inverse_integral(0.0, 1e-12, 2.0)
    assert t == pytest.approx(1e-12, rel=1e-9)


def test_linear_check_rejects_dip_below_floor():
    with pytest.raises(InputError, match="dips"):
        Linear(1.0, -0.6).check(2.0, 1e-6)
    Linear(1.0, -0.49).check(2.0, 1e-6)   # stays positive: fine


def test_samples_validation():
    with pytest.raises(InputError, match=">= 2"):
        Samples((0.0,), (1.0,)).check(2.0, 1e-6)
    with pytest.raises(InputError, match="start at offset 0"):
        Samples((0.5, 2.0), (1.0, 1.0)).check(2.0, 1e-6)
    with pytest.raises(InputError, match="strictly increasing"):
        Samples((0.0, 1.0, 1.0), (1.0, 1.0, 1.0)).check(2.0, 1e-6)
    with pytest.raises(InputError, match="ends at"):
        Samples((0.0, 1.5), (1.0, 1.0)).check(2.0, 1e-6)
    with pytest.raises(InputError, match="below floor"):
        Samples((0.0, 2.0), (1.0, 1e-9)).check(2.0, 1e-6)
    with pytest.raises(InputError, match="strictly increasing"):
        Samples((0.0, math.nan, 2.0), (1.0, 1.0, 1.0)).check(2.0, 1e-6)
    with pytest.raises(InputError, match=r"values \[nan, inf\] below floor"):
        Samples((0.0, 1.0, 2.0), (math.nan, 1.0, math.inf)).check(2.0, 1e-6)


def test_samples_last_knot_snaps_float_dust():
    p = Samples((0.0, 1.0, 2.0 + 1e-14), (1.0, 2.0, 1.0))
    p.check(2.0, 1e-6)
    assert p.knots[-1] == 2.0


def test_samples_integral_matches_trapezoid():
    knots = (0.0, 0.5, 1.25, 2.0)
    vals = (1.0, 3.0, 0.5, 2.0)
    p = Samples(knots, vals)
    p.check(2.0, 1e-6)
    whole = p.integral(0.0, 2.0, 2.0)
    fine = np.linspace(0, 2, 100_001)
    want = np.trapezoid(np.interp(fine, knots, vals), fine)
    assert whole == pytest.approx(float(want), rel=1e-7)
    # additivity across an interior split point
    assert (p.integral(0.0, 0.8, 2.0) + p.integral(0.8, 2.0, 2.0)
            == pytest.approx(whole, abs=1e-14))


@given(st.floats(0.0, 1.9), st.floats(1e-6, 2.0))
def test_samples_inverse_integral_round_trip(s0, target):
    p = Samples((0.0, 0.5, 1.25, 2.0), (1.0, 3.0, 0.5, 2.0))
    p.check(2.0, 1e-6)
    avail = p.integral(s0, 2.0, 2.0)
    if target >= avail:
        return
    t = p.inverse_integral(s0, target, 2.0)
    assert p.integral(s0, s0 + t, 2.0) == pytest.approx(target, rel=1e-10, abs=1e-12)


# ----------------------------------------------------------------------
# the field
# ----------------------------------------------------------------------

def test_field_requires_complete_coverage(interval):
    graph, _, _ = interval
    with pytest.raises(InputError, match="missing profiles"):
        CostField(graph, {})
    with pytest.raises(InputError, match="unknown edges"):
        CostField(graph, {"e": Constant(1.0), "zzz": Constant(1.0)})


def test_field_vertex_value_is_min_over_incident_germs():
    g = MetricGraph([("a",), ("b", True)],
                    [("e0", "a", "b", 1.0), ("e1", "a", "b", 1.0)])
    field = CostField(g, {"e0": Linear(2.0, 1.0), "e1": Constant(0.5)})
    assert field.value_at(Vertex("a")) == 0.5
    assert field.value_at(Vertex("b")) == 0.5
    assert field.value_at(g.point("e0", 0.5)) == 2.5


def test_field_edge_cost_is_orientation_free(interval):
    _, field, _ = interval
    assert field.edge_cost("e", 1.5, 0.25) == field.edge_cost("e", 0.25, 1.5)
    with pytest.raises(InputError, match="outside edge"):
        field.edge_cost("e", 0.0, 2.5)


def test_field_bounds_and_tolerances(interval):
    graph, field, _ = interval
    assert field.sup_value() == 1.0 and field.inf_value() == 1.0
    assert field.default_tol() == 1e-9
    sampled = CostField(graph, {"e": Samples((0.0, 2.0), (1.0, 2.0))})
    assert sampled.default_tol() == 1e-6
    assert sampled.sup_value() == 2.0


# ----------------------------------------------------------------------
# the cached cumulative table against the O(K) per-call formulas
# ----------------------------------------------------------------------

def _ref_segment(k, s):
    lo, hi = 0, len(k) - 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if k[mid] <= s:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _ref_prefix(k, v):
    out = [0.0]
    for i in range(len(k) - 1):
        h = k[i + 1] - k[i]
        out.append(out[-1] + 0.5 * (v[i] + v[i + 1]) * h)
    return tuple(out)


def _ref_integral(k, v, s0, s1):
    """The table rebuilt, and the segment searched twice, on every call."""
    pre = _ref_prefix(k, v)

    def F(s):
        s = min(max(s, k[0]), k[-1])
        i = _ref_segment(k, s)
        t = s - k[i]
        j = _ref_segment(k, s)
        w = (s - k[j]) / (k[j + 1] - k[j])
        fi = v[j] * (1.0 - w) + v[j + 1] * w
        return pre[i] + 0.5 * (v[i] + fi) * t

    return F(s1) - F(s0)


def _ref_inverse(k, v, s0, target):
    if target == 0.0:
        return 0.0
    pre = _ref_prefix(k, v)
    i = _ref_segment(k, min(max(s0, 0.0), k[-1]))
    remaining = target + _ref_integral(k, v, k[i], s0)
    while i < len(k) - 1:
        k0, k1 = k[i], k[i + 1]
        seg = pre[i + 1] - pre[i]
        if remaining > seg and i < len(k) - 2:
            remaining -= seg
            i += 1
            continue
        v0, v1 = v[i], v[i + 1]
        b = (v1 - v0) / (k1 - k0)
        disc = max(v0 * v0 + 2.0 * b * remaining, 0.0)
        root = v0 + math.sqrt(disc)
        t = 2.0 * remaining / root if root > 0 else remaining / max(v0, 1e-300)
        return (k0 + t) - s0
    return k[-1] - s0


def _random_samples(rng, n_knots, length):
    inner = sorted({rng.uniform(0.0, length) for _ in range(n_knots - 2)} - {0.0, length})
    knots = [0.0] + inner + [length]
    while len(knots) < n_knots:  # a duplicate draw fell out of the set
        knots.insert(-1, 0.5 * (knots[-2] + length))
    values = [rng.uniform(0.1, 5.0) for _ in knots]
    return knots, values


@pytest.mark.parametrize("n_knots", [2, 3, 65, 1025])
def test_samples_cached_table_is_bit_identical_to_per_call_formulas(n_knots):
    rng = random.Random(n_knots)
    for _ in range(4):
        length = rng.uniform(0.2, 3.0)
        knots, values = _random_samples(rng, n_knots, length)
        p = Samples(knots, values)
        graph = MetricGraph([("a", True), ("b",)], [("e", "a", "b", length)])
        field = CostField(graph, {"e": p})
        k, v = p.knots, p.values
        assert field.full_edge_cost("e") == _ref_integral(k, v, 0.0, length)
        offsets = [rng.uniform(0.0, length) for _ in range(60)] + list(k[:3]) + [k[-1]]
        for _ in range(80):
            s0, s1 = sorted(rng.sample(offsets, 2))
            want = _ref_integral(k, v, s0, s1)
            assert p.integral(s0, s1, length) == want
            assert field.edge_cost("e", s1, s0) == want
            target = rng.uniform(0.0, 1.2 * _ref_integral(k, v, s0, length))
            assert p.inverse_integral(s0, target, length) == _ref_inverse(k, v, s0, target)


def test_samples_table_follows_the_last_knot_snap():
    knots = (0.0, 0.5, 1.25, 2.0 + 1e-13)
    values = (1.0, 3.0, 0.5, 2.0)
    p = Samples(knots, values)
    before = p.integral(0.0, 2.0, 2.0)        # builds a table on the unsnapped knots
    assert before == _ref_integral(knots, values, 0.0, 2.0)
    p.check(2.0, 1e-6)
    snapped = knots[:-1] + (2.0,)
    assert p.knots == snapped
    # F at the last knot is the one entry the snap moves; no query reads it,
    # so the table itself is compared
    assert _ref_prefix(snapped, values) != _ref_prefix(knots, values)
    p.integral(0.0, 1.0, 2.0)
    assert p._pre == _ref_prefix(snapped, values)
    assert p.integral(0.0, 2.0, 2.0) == _ref_integral(snapped, values, 0.0, 2.0)
    assert p.integral(0.3, 1.9, 2.0) == _ref_integral(snapped, values, 0.3, 1.9)
    assert p.inverse_integral(0.3, 1.0, 2.0) == _ref_inverse(snapped, values, 0.3, 1.0)


def test_samples_build_their_table_once_for_many_integrals(monkeypatch):
    builds = []
    build = Samples._prefix

    def counting(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(Samples, "_prefix", counting)
    rng = random.Random(3)
    knots, values = _random_samples(rng, 65, 2.0)
    p = Samples(knots, values)
    p.check(2.0, 1e-6)
    for _ in range(200):
        s0, s1 = sorted((rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)))
        p.integral(s0, s1, 2.0)
        p.inverse_integral(s0, 0.1, 2.0)
    assert len(builds) == 1
