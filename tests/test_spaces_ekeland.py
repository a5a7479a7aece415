"""Distance-matrix spaces and the constructive variational principle."""
import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from eikograph import (EkelandRecord, FiniteMetricSpace, InputError,
                       PreconditionError, dump_json, ekeland_maximize,
                       ekeland_point, parse_value_vector)
from conftest import brute_force_ekeland_ok, dyadic_metric_matrix, dyadic_values


def collinear3():
    """Points at 0, 1, 2 on the line."""
    return FiniteMetricSpace([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


# ----------------------------------------------------------------------
# space validation
# ----------------------------------------------------------------------

def test_space_accepts_a_line_and_exposes_distances():
    space = collinear3()
    assert len(space) == 3
    assert space.d(0, 2) == 2.0
    assert space.labels == ["0", "1", "2"]


def test_space_rejections():
    with pytest.raises(InputError, match="square"):
        FiniteMetricSpace([[0.0, 1.0]])
    with pytest.raises(InputError, match="square and nonempty"):
        FiniteMetricSpace([])
    with pytest.raises(InputError, match="must be 0"):
        FiniteMetricSpace([[0.5]])
    with pytest.raises(InputError, match="asymmetric"):
        FiniteMetricSpace([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InputError, match="must be positive"):
        FiniteMetricSpace([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(InputError, match="not finite"):
        FiniteMetricSpace([[0.0, math.inf], [math.inf, 0.0]])
    with pytest.raises(InputError, match="triangle inequality fails"):
        FiniteMetricSpace([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(InputError, match="one label per point"):
        FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]], labels=["a"])


def test_space_from_csv_skips_comments_and_blanks():
    space = FiniteMetricSpace.from_csv("# a line\n0,1\n\n1,0\n")
    assert space.d(0, 1) == 1.0
    with pytest.raises(InputError, match="bad distance row"):
        FiniteMetricSpace.from_csv("0,x\nx,0")


def test_parse_value_vector():
    assert parse_value_vector("1, 2.5\ninf\n# skip\n-3") == [1.0, 2.5, math.inf, -3.0]
    with pytest.raises(InputError, match="bad value"):
        parse_value_vector("1,zebra")
    with pytest.raises(InputError, match="empty"):
        parse_value_vector("# only a comment\n")


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8))
def test_dyadic_matrices_are_metrics(seed, n):
    """The test-corpus generator really does emit valid spaces."""
    matrix = dyadic_metric_matrix(random.Random(seed), n)
    space = FiniteMetricSpace(matrix)
    assert len(space) == n


# ----------------------------------------------------------------------
# the descent construction
# ----------------------------------------------------------------------

def test_two_point_fixture_is_already_a_strict_minimum():
    space = FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])
    assert ekeland_point(space, [0.0, 5.0], 1.0, 0) == 0


def test_three_point_descent_reaches_the_far_end():
    """f = (3, 1, 0), eps = 1/2: the whole line is in the first sublevel
    set, so the descent jumps straight to the global minimizer at 2 —
    confirmed against the condition scan written from the statement."""
    space = collinear3()
    fvals = [3.0, 1.0, 0.0]
    rec = ekeland_point(space, fvals, 0.5, 0, full=True)
    assert rec.point == 2
    assert rec.path == [0, 2]
    a_ok, b_ok = brute_force_ekeland_ok(space.matrix, fvals, 0.5, 0, rec.point)
    assert a_ok and b_ok
    assert rec.improvement_ok and rec.strictness_ok
    assert json.loads(dump_json(rec))["path"] == [0, 2]


def test_huge_eps_pins_the_start_point():
    space = collinear3()
    fvals = [3.0, 1.0, 0.0]
    assert ekeland_point(space, fvals, 10.0, 0) == 0
    a_ok, b_ok = brute_force_ekeland_ok(space.matrix, fvals, 10.0, 0, 0)
    assert a_ok and b_ok


def test_descent_path_is_strictly_penalized_monotone():
    rng = random.Random(9)
    space = FiniteMetricSpace(dyadic_metric_matrix(rng, 12))
    fvals = dyadic_values(rng, 12)
    rec = ekeland_point(space, fvals, 0.25, 3, full=True)
    assert isinstance(rec, EkelandRecord)
    for a, b in zip(rec.path, rec.path[1:]):
        assert fvals[b] + 0.25 * space.d(a, b) <= fvals[a]
        assert fvals[b] < fvals[a]  # proper moves strictly descend


def test_infinite_values_are_never_visited():
    space = collinear3()
    assert ekeland_point(space, [1.0, math.inf, 0.75], 0.5, 0) == 0


def test_ekeland_point_argument_errors():
    space = collinear3()
    with pytest.raises(InputError, match="positive"):
        ekeland_point(space, [1.0, 2.0, 3.0], 0.0, 0)
    # inf * d(x, x) is NaN, which would drop x from its own sublevel set
    # and True is not a rate
    for eps in (math.inf, math.nan, True):
        with pytest.raises(InputError, match="eps must be positive and finite"):
            ekeland_point(space, [1.0, 2.0, 3.0], eps, 0)
    with pytest.raises(InputError, match="all values are infinite"):
        ekeland_point(space, [math.inf] * 3, 1.0, 0)
    with pytest.raises(InputError, match="one value per point"):
        ekeland_point(space, [1.0, 2.0], 1.0, 0)
    with pytest.raises(InputError, match="out of range"):
        ekeland_point(space, [1.0, 2.0, 3.0], 1.0, 7)
    with pytest.raises(InputError, match="NaN"):
        ekeland_point(space, [1.0, math.nan, 3.0], 1.0, 0)
    with pytest.raises(InputError, match="-inf"):
        ekeland_point(space, [1.0, -math.inf, 3.0], 1.0, 0)
    with pytest.raises(PreconditionError, match="finite"):
        ekeland_point(space, [math.inf, 2.0, 3.0], 1.0, 0)


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 10),
       st.sampled_from([0.25, 0.5, 1.0, 2.0]))
def test_descent_output_survives_the_exhaustive_scan(seed, n, eps):
    rng = random.Random(seed)
    matrix = dyadic_metric_matrix(rng, n)
    fvals = dyadic_values(rng, n, inf_rate=0.2)
    x0 = min(i for i in range(n) if math.isfinite(fvals[i]))
    xe = ekeland_point(FiniteMetricSpace(matrix), fvals, eps, x0)
    assert brute_force_ekeland_ok(matrix, fvals, eps, x0, xe) == (True, True)


# ----------------------------------------------------------------------
# the near-maximizer refinement
# ----------------------------------------------------------------------

@pytest.mark.parametrize("delta, lam, ratio", [(1e308, 1e-308, "inf"), (1e-308, 1e308, "0.0")])
def test_maximize_refuses_a_ratio_past_the_floats_naming_delta_and_lam(delta, lam, ratio):
    with pytest.raises(InputError) as exc:
        ekeland_maximize(collinear3(), [1.0, 2.0, 3.0], delta, lam, 2)
    assert str(exc.value) == ("delta / lam must be positive and finite (got %r / %r = %s)"
                              % (delta, lam, ratio))


def test_maximize_on_constant_values_stays_put():
    space = collinear3()
    assert ekeland_maximize(space, [2.0, 2.0, 2.0], 0.25, 0.5, 1) == 1


def test_maximize_single_point_space():
    assert ekeland_maximize(FiniteMetricSpace([[0.0]]), [4.0], 0.1, 0.3, 0) == 0


def test_maximize_conclusions_under_the_squared_parametrization():
    """delta = eps^2, lam = eps: the returned point must not lose value,
    must stay within lam of the start, and must strictly dominate the
    penalized comparison against every other point."""
    rng = random.Random(20)
    n = 10
    matrix = dyadic_metric_matrix(rng, n)
    space = FiniteMetricSpace(matrix)
    fvals = dyadic_values(rng, n)
    for eps in (0.5, 1.0, 2.0):
        delta, lam = eps * eps, eps
        x0 = max(range(n), key=lambda i: fvals[i])
        x = ekeland_maximize(space, fvals, delta, lam, x0)
        assert fvals[x] >= fvals[x0]
        assert space.d(x, x0) <= lam
        rate = delta / lam
        assert all(fvals[y] < fvals[x] + rate * space.d(x, y)
                   for y in range(n) if y != x)


def test_maximize_precondition_and_input_errors():
    space = collinear3()
    with pytest.raises(PreconditionError, match="below the supremum"):
        ekeland_maximize(space, [0.0, 10.0, 0.0], 0.5, 1.0, 0)
    with pytest.raises(InputError, match=r"\+inf"):
        ekeland_maximize(space, [0.0, math.inf, 0.0], 0.5, 1.0, 0)
    with pytest.raises(InputError, match="delta must be positive"):
        ekeland_maximize(space, [0.0, 1.0, 0.0], 0.0, 1.0, 1)
    with pytest.raises(InputError, match="lam must be positive"):
        ekeland_maximize(space, [0.0, 1.0, 0.0], 0.5, -1.0, 1)
    for delta, lam, name in ((math.inf, 1.0, "delta"), (0.5, math.inf, "lam"),
                             (math.nan, 1.0, "delta"), (0.5, math.nan, "lam"),
                             (True, 1.0, "delta"), (0.5, True, "lam")):
        with pytest.raises(InputError, match="%s must be positive and finite" % name):
            ekeland_maximize(space, [0.0, 1.0, 0.0], delta, lam, 1)


def test_maximize_refuses_values_without_a_finite_one_and_a_start_off_them():
    space = collinear3()
    with pytest.raises(InputError, match="all values are infinite; nothing to maximize"):
        ekeland_maximize(space, [-math.inf] * 3, 0.5, 1.0, 0)
    for values, x0 in (([0.0, 1.0, 0.0], 3), ([-math.inf, 1.0, 0.0], 0)):
        with pytest.raises(PreconditionError, match="x0 must index a finite value"):
            ekeland_maximize(space, values, 0.5, 1.0, x0)


def test_maximize_record_reports_the_negated_descent():
    space = collinear3()
    rec = ekeland_maximize(space, [0.0, 2.5, 3.0], 1.0, 2.0, 1, full=True)
    assert rec.point == 2
    assert rec.path[0] == 1
    assert rec.eps == 0.5
    assert rec.improvement_ok and rec.strictness_ok
