"""Interval toolkit: the viscous closed form, the monotonicity
characterizations of the differential inequalities, the sawtooth family,
and the CSV/SVG emitters."""
import math
import unittest

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eikograph import (InputError, PreconditionError, Profile1D, Vertex,
                       check_subsolution_monotone, check_supersolution_monotone,
                       limit_profile, profile_csv, render_svg, slopes, solve,
                       uniform_grid, viscous_solution, weak_solution_zoo,
                       zoo_zero_set)
from conftest import interval_point


def const(grid, c, label=""):
    return Profile1D(grid, np.full(len(grid), float(c)), label=label)


# ----------------------------------------------------------------------
# viscous closed form
# ----------------------------------------------------------------------

def test_viscous_value_at_the_origin():
    """At eps = 1 the center value is log cosh 1 (about 0.43378)."""
    u = viscous_solution(1.0, uniform_grid(41))
    assert u(0.0) == pytest.approx(math.log(math.cosh(1.0)), abs=1e-15)
    assert u(0.0) == pytest.approx(0.43378, abs=5e-6)


def test_viscous_endpoints_are_float_zero():
    for eps in (1.0, 0.1, 0.01, 0.001, 3.7):
        u = viscous_solution(eps, uniform_grid(17))
        assert u.ys[0] == 0.0
        assert u.ys[-1] == 0.0


def test_viscous_profile_is_even():
    u = viscous_solution(0.3, uniform_grid(513))
    assert np.array_equal(u.ys, u.ys[::-1])


@given(st.floats(-0.999, 0.999), st.floats(0.05, 1.0))
def test_viscous_error_identity(x, eps):
    # u_eps(x) - (1-|x|) = eps log(1+e^{-2/eps}) - eps log(1+e^{-2|x|/eps}),
    # so the viscous profile always sits at or below the tent.
    u = viscous_solution(eps, sorted({-1.0, x, 0.0, 1.0}))
    gap = eps * (math.log1p(math.exp(-2.0 / eps))
                 - math.log1p(math.exp(-2.0 * abs(x) / eps)))
    assert u(x) == pytest.approx((1.0 - abs(x)) + gap, abs=1e-12)
    assert gap <= 0.0


def test_viscous_sup_error_band():
    grid = uniform_grid(4097)
    tent = limit_profile(grid)
    for eps in (0.1, 0.01, 0.001):
        u = viscous_solution(eps, grid)
        gap = np.abs(u.ys - tent.ys)
        sup = float(gap.max())
        assert 0.9 * eps * math.log(2.0) <= sup
        assert sup <= eps * math.log(2.0) * (1.0 + 1e-13)
        assert grid[int(np.argmax(gap))] == 0.0


def test_viscous_rejects_bad_eps():
    with pytest.raises(InputError, match="positive"):
        viscous_solution(0.0, uniform_grid(9))
    with pytest.raises(InputError, match="positive"):
        viscous_solution(-0.5, uniform_grid(9))
    # True once passed as eps = 1, and inf wrote a profile of NaNs
    for eps in (True, math.inf, math.nan, "0.5"):
        with pytest.raises(InputError, match="eps must be positive and finite"):
            viscous_solution(eps, uniform_grid(9))


def test_uniform_grid():
    grid = uniform_grid(5)
    assert list(grid) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    with pytest.raises(InputError, match="grid size n must be an int >= 3"):
        uniform_grid(2)


# ----------------------------------------------------------------------
# Profile1D plumbing
# ----------------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(InputError, match="at least 3"):
        Profile1D([-1.0, 1.0], [0.0, 0.0])
    with pytest.raises(InputError, match="span"):
        Profile1D([-1.0, 0.0, 0.5], [0.0, 0.0, 0.0])
    with pytest.raises(InputError, match="strictly increasing"):
        Profile1D([-1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(InputError, match="finite"):
        Profile1D([-1.0, 0.0, 1.0], [0.0, math.nan, 0.0])


def test_profile_interpolates_piecewise_linearly():
    p = Profile1D([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
    assert p(-0.25) == pytest.approx(1.5, abs=1e-15)
    assert p(0.5) == pytest.approx(1.0, abs=1e-15)
    assert len(p) == 3
    assert p.same_grid(Profile1D([-1.0, 0.0, 1.0], [5.0, 5.0, 5.0]))
    assert not p.same_grid(Profile1D([-1.0, 0.5, 1.0], [0.0, 0.0, 0.0]))


# ----------------------------------------------------------------------
# monotonicity characterizations
# ----------------------------------------------------------------------

def test_subsolution_check_passes_the_tent():
    grid = uniform_grid(101)
    rep = check_subsolution_monotone(limit_profile(grid), const(grid, 1.0))
    assert rep.ok
    assert rep.max_rise <= 1e-12
    assert rep.at_x is None


def test_subsolution_check_fails_a_rising_profile():
    """u = x against f = 0: the combination is u itself, strictly rising."""
    grid = uniform_grid(21)
    rep = check_subsolution_monotone(Profile1D(grid, grid), const(grid, 0.0))
    assert not rep.ok
    assert rep.max_rise == pytest.approx(0.1, abs=1e-12)
    assert rep.at_x is not None and rep.at_x > -1.0
    assert min(abs(rep.at_x - g) for g in grid) == 0.0


def test_subsolution_check_accepts_constants():
    grid = uniform_grid(11)
    for c in (0.0, 0.5, 2.0):
        assert check_subsolution_monotone(const(grid, -3.0), const(grid, c)).ok


def test_monotone_checks_demand_a_shared_grid():
    u = limit_profile(uniform_grid(11))
    f = const(uniform_grid(13), 1.0)
    with pytest.raises(InputError, match="share a grid"):
        check_subsolution_monotone(u, f)
    with pytest.raises(InputError, match="share a grid"):
        check_supersolution_monotone(const(uniform_grid(11), 0.0), f)


def test_supersolution_check_examples():
    grid = uniform_grid(41)
    down = Profile1D(grid, -grid)          # u = -x
    assert check_supersolution_monotone(down, const(grid, 1.0)).ok
    assert check_supersolution_monotone(down, const(grid, 0.5)).ok
    shallow = Profile1D(grid, -0.5 * grid)  # |u'| = 0.5 < f = 1
    rep = check_supersolution_monotone(shallow, const(grid, 1.0))
    assert not rep.ok
    assert rep.max_rise > 0.0


def test_supersolution_check_boundary_case_is_exact():
    # u = -x, f = 1: the combination is identically zero
    grid = uniform_grid(41)
    rep = check_supersolution_monotone(Profile1D(grid, -grid), const(grid, 1.0))
    assert rep.max_rise == 0.0


def test_supersolution_check_requires_nonincreasing_input():
    grid = uniform_grid(11)
    with pytest.raises(PreconditionError, match="nonincreasing"):
        check_supersolution_monotone(Profile1D(grid, grid), const(grid, 1.0))


# ----------------------------------------------------------------------
# the sawtooth family
# ----------------------------------------------------------------------

def test_zoo_first_member_is_the_tent():
    grid = uniform_grid(25)
    (member,) = weak_solution_zoo(1, grid)
    assert np.array_equal(member.ys, 1.0 - np.abs(grid))


def test_zoo_member_construction():
    """Member j: zeros at -1 + 2m/j, boundary values zero, chords of
    slope exactly +-1 (the n=25 grid contains every kink for j <= 4)."""
    grid = uniform_grid(25)
    members = weak_solution_zoo(4, grid)
    assert len(members) == 4
    one = const(grid, 1.0)
    for j, member in enumerate(members, start=1):
        assert member.ys[0] == 0.0 and member.ys[-1] == 0.0
        for z in zoo_zero_set(j):
            assert member(z) == pytest.approx(0.0, abs=1e-12)
        chords = np.diff(member.ys) / np.diff(grid)
        assert np.all(np.abs(np.abs(chords) - 1.0) <= 1e-12)
        assert check_subsolution_monotone(member, one).ok


def test_zoo_interior_minimum_breaks_steepest_descent(interval):
    """The two-tooth member has an interior zero at x = 0 where the
    descending slope vanishes; the tent has full descent there."""
    graph, _, _ = interval
    grid = uniform_grid(25)
    tent, two = weak_solution_zoo(2, grid)

    class OnGraph:
        def __init__(self, profile):
            self.graph = graph
            self.profile = profile

        def evaluate(self, p):
            x = (-1.0 if p.id == "L" else 1.0) if isinstance(p, Vertex) else p.s - 1.0
            return self.profile(x)

    mid = interval_point(graph, 0.0)
    est = slopes(OnGraph(two), mid)
    assert est.down == 0.0
    assert est.up == pytest.approx(1.0, abs=1e-12)
    est = slopes(OnGraph(tent), mid)
    assert est.down == pytest.approx(1.0, abs=1e-12)
    assert est.up == 0.0


def test_zoo_rejects_bad_k():
    grid = uniform_grid(9)
    with pytest.raises(InputError, match="zoo size k must be an int >= 1"):
        weak_solution_zoo(0, grid)
    with pytest.raises(InputError, match="zoo size k must be an int >= 1"):
        weak_solution_zoo(2.5, grid)


def test_zoo_zero_sets():
    assert zoo_zero_set(2) == [-1.0, 0.0, 1.0]
    assert zoo_zero_set(3) == pytest.approx([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])


def test_limit_profile_matches_the_graph_solver(interval):
    graph, field, data = interval
    u = solve(field, data)
    grid = uniform_grid(41)
    tent = limit_profile(grid)
    worst = max(abs(u.evaluate(interval_point(graph, x)) - tent(x)) for x in grid)
    assert worst <= 1e-12


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------

class EmissionFormatTests(unittest.TestCase):
    def setUp(self):
        self.grid = uniform_grid(5)
        self.tent = limit_profile(self.grid, label="tent")

    def test_csv_layout(self):
        text = profile_csv(self.tent)
        lines = text.splitlines()
        self.assertEqual(lines[0], "x,u")
        self.assertEqual(len(lines), 6)
        self.assertEqual(lines[3], "0,1")
        self.assertEqual(lines[4], "0.5,0.5")
        self.assertTrue(text.endswith("\n"))

    def test_csv_round_trips_to_twelve_digits(self):
        u = viscous_solution(0.37, uniform_grid(33))
        rows = profile_csv(u).splitlines()[1:]
        for (sx, sy), x, y in zip((r.split(",") for r in rows), u.xs, u.ys):
            self.assertAlmostEqual(float(sx), x, places=11)
            self.assertAlmostEqual(float(sy), y, places=11)

    def test_svg_one_polyline_per_profile(self):
        eps = viscous_solution(0.2, self.grid)
        svg = render_svg([self.tent, eps], title="overlay")
        self.assertEqual(svg.count("<polyline"), 2)
        self.assertIn('viewBox="0 0 800 600"', svg)
        self.assertIn(">tent<", svg)
        self.assertIn(">eps=0.2<", svg)
        self.assertIn(">overlay<", svg)

    def test_svg_caps_the_overlay_count(self):
        many = [limit_profile(self.grid, label=str(i)) for i in range(9)]
        with self.assertRaisesRegex(InputError, "at most 8"):
            render_svg(many)
        with self.assertRaisesRegex(InputError, "nothing to plot"):
            render_svg([])
