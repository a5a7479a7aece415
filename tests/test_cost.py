"""Cost profiles: closed-form integrals against midpoint-rule quadrature,
inversion round trips, and field-level validation."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eikograph import (Constant, CostField, Curve, Germ, InputError, Linear,
                       MetricGraph, Samples, Vertex, path_integral,
                       resample_profile)
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


def test_path_integral_on_interval(interval):
    graph, field, _ = interval
    c = Curve(graph, [Vertex("L"), graph.point("e", 1.2), graph.point("e", 0.4)])
    assert path_integral(field, c) == pytest.approx(2.0, abs=1e-12)


def test_resample_profile_tracks_original(interval):
    graph, _, _ = interval
    field = CostField(graph, {"e": Linear(1.0, 0.5)})
    snap = resample_profile(field, "e", 65)
    rng = random.Random(0)
    for _ in range(20):
        s = rng.uniform(0.0, 2.0)
        assert snap.at(s, 2.0) == pytest.approx(1.0 + 0.5 * s, abs=1e-12)
