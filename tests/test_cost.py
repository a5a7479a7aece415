"""Cost profiles: closed-form integrals against midpoint-rule quadrature,
inversion round trips, and field-level validation."""
import copy
import json
import math
import pickle
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eikograph import (Constant, CostField, Germ, GraphFormatError, InputError, Linear,
                       MetricGraph, ProfileError, Samples, Vertex, load_graph)
from eikograph.cost import FMIN
from eikograph.graph import KnotBatch, _Rates
from conftest import build_instance, make_interval, random_graph_spec


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
    assert p.integral(0.25, 1.75) == 2.5 * 1.5
    assert p.at(0.123) == 2.5
    assert p.bounds(2.0) == (2.5, 2.5)


@given(st.floats(0.1, 5.0), st.floats(-1.0, 1.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_linear_profile_integral_matches_quadrature(a, b, s0, s1):
    if a + min(0.0, b) * 2.0 < 0.05:
        return   # keep the profile positive on [0, 2]
    s0, s1 = min(s0, s1), max(s0, s1)
    p = Linear(a, b)
    got = p.integral(s0, s1)
    want = midpoint_quad(lambda x: a + b * x, s0, s1, n=4_000)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


@given(st.floats(0.2, 5.0), st.floats(-0.08, 1.0), st.floats(1e-6, 1.0))
def test_linear_inverse_integral_round_trip(a, b, target):
    p = Linear(a, b)
    if b < 0.0 and target >= a * a / (-2.0 * b):
        return  # a falling rate never integrates that far
    t = p.inverse_integral(target)
    assert t >= 0.0
    assert p.integral(0.0, t) == pytest.approx(target, rel=1e-12, abs=1e-12)


def test_linear_inverse_stable_for_tiny_targets():
    """The conjugate quadratic form must not cancel when b·t is tiny
    relative to a: the answer is then target/a to first order."""
    p = Linear(1.0, 1e-8)
    t = p.inverse_integral(1e-12)
    assert t == pytest.approx(1e-12, rel=1e-9)


def test_linear_check_rejects_dip_below_floor():
    with pytest.raises(InputError, match="dips"):
        Linear(1.0, -0.6).check(2.0, 1e-6)
    Linear(1.0, -0.49).check(2.0, 1e-6)   # stays positive: fine


def test_the_floor_is_fmin_exactly():
    """A cost field takes a rate of exactly FMIN and refuses one ulp less,
    naming the edge."""
    graph = MetricGraph([("a",), ("b",)], [("e", "a", "b", 1.0)])
    assert CostField(graph, {"e": Constant(FMIN)}).value_at(Vertex("a")) == FMIN
    with pytest.raises(ProfileError, match=r"^edge 'e': constant profile value .* below floor") as exc:
        CostField(graph, {"e": Constant(math.nextafter(FMIN, 0.0))})
    assert exc.value.edge == "e"


@pytest.mark.parametrize("length, prof, f", [
    (1e10, Constant(1e300), {"kind": "const", "params": {"value": 1e300}}),
    (1e200, Linear(1.0, 0.0), {"kind": "linear", "params": {"a": 1.0, "b": 0.0}}),
], ids=["cost", "linear-length-squared"])
def test_a_field_built_in_code_refuses_an_overflowing_profile(length, prof, f):
    """The overflow refusals belong to the field, not to the file reader:
    a field built in code refuses what a loaded file is refused, in the
    same words, naming the edge."""
    graph = MetricGraph([("a",), ("b",)], [("e", "a", "b", length)])
    with pytest.raises(ProfileError, match="overflows") as built:
        CostField(graph, {"e": prof})
    assert built.value.edge == "e"
    doc = {"vertices": [{"id": "a"}, {"id": "b"}],
           "edges": [{"id": "e", "from": "a", "to": "b", "length": length, "f": f}]}
    with pytest.raises(GraphFormatError) as loaded:
        load_graph(json.dumps(doc), filename="g.json")
    assert str(loaded.value) == "g.json:1: %s" % built.value


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
    with pytest.raises(InputError, match=r"values \[nan, inf\] are not finite"):
        Samples((0.0, 1.0, 2.0), (math.nan, 1.0, math.inf)).check(2.0, 1e-6)


def test_samples_last_knot_snaps_float_dust():
    p = Samples((0.0, 1.0, 2.0 + 1e-14), (1.0, 2.0, 1.0))
    assert p.check(2.0, 1e-6).knots[-1] == 2.0
    assert p.knots[-1] == 2.0 + 1e-14  # the checked profile is a new one


def test_a_shared_sampled_profile_is_snapped_per_field_and_never_changed():
    """One profile on an edge of its own length and then on one 4e-13
    longer: each field keeps its own snap, and the profile is unchanged."""
    p = Samples((0.0, 0.5, 1.0), (1.0, 2.0, 3.0))
    before = hash(p)
    fields = [CostField(MetricGraph([("a", True), ("b",)], [("e", "a", "b", length)]), {"e": p})
              for length in (1.0, 1.0 + 4e-13)]
    assert [f.profiles["e"].knots[-1] for f in fields] == [1.0, 1.0 + 4e-13]
    assert fields[0].full_edge_cost("e") == _ref_integral(p.knots, p.values, 0.0, 1.0)
    assert p.knots == (0.0, 0.5, 1.0) and hash(p) == before


def test_samples_integral_matches_trapezoid():
    knots = (0.0, 0.5, 1.25, 2.0)
    vals = (1.0, 3.0, 0.5, 2.0)
    p = Samples(knots, vals)
    p.check(2.0, 1e-6)
    whole = p.integral(0.0, 2.0)
    fine = np.linspace(0, 2, 100_001)
    want = np.trapezoid(np.interp(fine, knots, vals), fine)
    assert whole == pytest.approx(float(want), rel=1e-7)
    # additivity across an interior split point
    assert (p.integral(0.0, 0.8) + p.integral(0.8, 2.0)
            == pytest.approx(whole, abs=1e-14))


@given(st.floats(1e-6, 4.0))
def test_samples_inverse_integral_round_trip(target):
    p = Samples((0.0, 0.5, 1.25, 2.0), (1.0, 3.0, 0.5, 2.0))
    p.check(2.0, 1e-6)
    if target >= p.integral(0.0, 2.0):
        return
    t = p.inverse_integral(target)
    assert p.integral(0.0, t) == pytest.approx(target, rel=1e-10, abs=1e-12)


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
    assert field.germ_value(Germ("e0", 1.0, -1)) == 3.0
    with pytest.raises(InputError, match="unknown edge id 'zzz'"):
        field.germ_value(Germ("zzz", 0.0, 1))


def test_field_edge_cost_is_orientation_free(interval):
    _, field, _ = interval
    assert field.edge_cost("e", 1.5, 0.25) == field.edge_cost("e", 0.25, 1.5)
    with pytest.raises(InputError, match="outside edge"):
        field.edge_cost("e", 0.0, 2.5)


def test_field_bounds_and_tolerances(interval):
    graph, field, _ = interval
    assert field.sup_value() == 1.0 and field.profiles["e"].bounds(2.0) == (1.0, 1.0)
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


def _ref_inverse(k, v, target):
    if target == 0.0:
        return 0.0
    pre = _ref_prefix(k, v)
    i, remaining = 0, target
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
        return k0 + t
    return k[-1]


def _ref_at(k, v, s):
    s = min(max(s, k[0]), k[-1])
    i = _ref_segment(k, s)
    w = (s - k[i]) / (k[i + 1] - k[i])
    return v[i] * (1.0 - w) + v[i + 1] * w


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
            assert p.integral(s0, s1) == want
            assert field.edge_cost("e", s1, s0) == want
            target = rng.uniform(0.0, 1.2 * _ref_integral(k, v, 0.0, length))
            assert p.inverse_integral(target) == _ref_inverse(k, v, target)


def _F_row(p):
    """F at each knot: the profile's row of its table's F column."""
    return tuple(p._table[2][p._row].tolist())


def test_samples_table_follows_the_last_knot_snap():
    knots = (0.0, 0.5, 1.25, 2.0 + 1e-13)
    values = (1.0, 3.0, 0.5, 2.0)
    unsnapped = Samples(knots, values)
    before = unsnapped.integral(0.0, 2.0)  # builds a table on the unsnapped knots
    assert before == _ref_integral(knots, values, 0.0, 2.0)
    p = unsnapped.check(2.0, 1e-6)
    snapped = knots[:-1] + (2.0,)
    assert p.knots == snapped and unsnapped.knots == knots
    assert _F_row(unsnapped) == _ref_prefix(knots, values)
    # F at the last knot is the one entry the snap moves; the table itself is
    # compared, and an integral to the edge's end reads that entry
    assert _ref_prefix(snapped, values) != _ref_prefix(knots, values)
    p.integral(0.0, 1.0)
    assert _F_row(p) == _ref_prefix(snapped, values)
    assert p.integral(0.0, 2.0) == _ref_integral(snapped, values, 0.0, 2.0)
    assert p.integral(0.3, 1.9) == _ref_integral(snapped, values, 0.3, 1.9)
    assert p.inverse_integral(1.0) == _ref_inverse(snapped, values, 1.0)


def test_samples_build_their_table_once_for_many_integrals(monkeypatch):
    builds = []
    build = Samples._rows

    def counting(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(Samples, "_rows", counting)
    rng = random.Random(3)
    knots, values = _random_samples(rng, 65, 2.0)
    p = Samples(knots, values)
    p.check(2.0, 1e-6)
    for _ in range(200):
        s0, s1 = sorted((rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)))
        p.integral(s0, s1)
        p.inverse_integral(0.1)
    assert len(builds) == 1


# ----------------------------------------------------------------------
# a field's sampled profiles as one table per knot count
# ----------------------------------------------------------------------

def _path_graph(lengths):
    """Edges e0, e1, ... of the given lengths along a path v0 - v1 - ..."""
    return MetricGraph([("v%d" % i, i == 0) for i in range(len(lengths) + 1)],
                       [("e%d" % i, "v%d" % i, "v%d" % (i + 1), L) for i, L in enumerate(lengths)])


def _mixed_k_field(seed):
    """A field of sampled profiles at K = 2, 3, 65 and 1025, three edges each,
    and one at K = 7, in shuffled order, with a linear and a constant edge
    among them.  Some profiles have int entries, some a last knot off the
    length by dust."""
    rng = random.Random(seed)
    ks = [2, 3, 65, 1025] * 3 + [7]
    rng.shuffle(ks)
    lengths = [float(rng.randint(1, 4)) if i % 4 == 0 else rng.uniform(0.2, 3.0)
               for i in range(len(ks) + 2)]
    graph = _path_graph(lengths)
    given = {}
    for i, n_knots in enumerate(ks):
        knots, values = _random_samples(rng, n_knots, lengths[i])
        if i % 4 == 0:  # whole-number length: int ends and int values
            knots[0], knots[-1] = 0, int(lengths[i])
            values = [rng.randint(1, 5) if j % 2 else v for j, v in enumerate(values)]
        elif i % 4 == 1:
            knots[-1] += 4e-13 * lengths[i]
        given["e%d" % i] = Samples(knots, values)
    given["e%d" % len(ks)] = Linear(1.0, 0.25)
    given["e%d" % (len(ks) + 1)] = Constant(2.0)
    return graph, given


@pytest.mark.parametrize("seed", range(3))
def test_a_fields_table_is_the_per_profile_path_bit_for_bit(seed):
    """Each sampled profile a field keeps holds rows of one table per knot
    count, the one whose count no other shares a table of one row; its
    knots, values, F table, integrals (scalar and at batch rows), rates at
    batch rows and full cost equal those of the profile checked on its own
    (a table of one row) and the per-call formulas, bit for bit."""
    rng = random.Random(seed)
    graph, given = _mixed_k_field(seed)
    field = CostField(graph, given)
    assert all(p._table is not None for p in field.profiles.values() if isinstance(p, Samples))
    tables = {}
    for eid, prof in given.items():
        kept, length = field.profiles[eid], graph.edges[eid].length
        if not isinstance(prof, Samples):
            assert kept == prof
            continue
        alone = prof.check(length, FMIN)
        k, v = alone.knots, alone.values
        assert kept.knots == k and kept.values == v and k[-1] == length
        assert all(type(x) is float for x in k + v)
        assert field.full_edge_cost(eid) == _ref_integral(k, v, 0.0, length)
        assert _F_row(kept) == _F_row(alone) == _ref_prefix(k, v)
        table, j = kept._table, kept._row
        assert [r[j].tolist() for r in table[:3]] == [list(k), list(v), list(_ref_prefix(k, v))]
        tables.setdefault(len(k), set()).add(id(table[0]))
        s = _offsets(length, k[:3] + k[-2:])
        s0, s1 = rng.sample(s.tolist(), len(s)), s.tolist()
        want = [_ref_integral(k, v, a, b) for a, b in zip(s0, s1)]
        assert [kept.integral(a, b) for a, b in zip(s0, s1)] == want
        edges = np.full(len(s), list(graph.edges).index(eid))
        for p in (kept, alone):
            rates = _Rates(graph, dict(field.profiles, **{eid: p}))
            assert rates.integral(edges, np.array(s0), np.array(s1)).tolist() == want
            assert rates.at(edges, s).tolist() == [p.at(x) for x in s.tolist()]
    # one table per knot count, shared by its rows
    assert {n: len(bases) for n, bases in tables.items()} == {2: 1, 3: 1, 7: 1, 65: 1, 1025: 1}


@pytest.mark.parametrize("seed", range(3))
def test_the_scalar_readers_of_a_fields_rows_are_the_per_call_formulas_bit_for_bit(seed):
    """On the rows of a field's tables (K from 2 to 1025, every other last
    knot off its length by float dust), ``full_edge_cost`` is
    ``integral(0.0, L)`` and the per-call formula, and the scalar ``at``,
    ``integral`` and ``inverse_integral`` are the per-call formulas, at and
    either side of knots, at 0 and L and past both ends, and for targets at
    F of a knot, bit for bit.  A
    linear and a constant edge's full cost is their ``integral(0.0, L)``."""
    rng = random.Random(seed)
    ks = [rng.randint(2, 1025) if i % 3 == 0 else rng.choice((2, 3, 65, 1025)) for i in range(60)]
    lengths = [rng.uniform(0.05, 4.0) for _ in ks] + [1.5, 2.5]
    given = {}
    for i, n_knots in enumerate(ks):
        knots, values = _random_samples(rng, n_knots, lengths[i])
        if i % 2:
            knots[-1] = lengths[i] * (1.0 + rng.choice((-4e-13, 4e-13)))
        given["e%d" % i] = Samples(knots, values)
    given["e%d" % len(ks)], given["e%d" % (len(ks) + 1)] = Linear(1.0, 0.25), Constant(2.0)
    graph = _path_graph(lengths)
    field = CostField(graph, given)

    def hexes(xs):
        return [float(x).hex() for x in xs]

    for eid, prof in field.profiles.items():
        length = graph.edges[eid].length
        cost = field.full_edge_cost(eid)
        assert cost.hex() == prof.integral(0.0, length).hex()
        if not isinstance(prof, Samples):
            continue
        k, v = prof.knots, prof.values
        assert cost.hex() == _ref_integral(k, v, 0.0, length).hex()
        s = _offsets(length, k[:3] + k[-2:]).tolist() + [-0.5, length + 0.5]
        pairs = list(zip(s, rng.sample(s, len(s))))
        targets = [rng.uniform(0.0, 1.2 * cost) for _ in range(20)] + [0.0, cost] + list(_ref_prefix(k, v)[1:4])
        assert hexes(map(prof.at, s)) == hexes(_ref_at(k, v, x) for x in s)
        assert hexes(prof.integral(a, b) for a, b in pairs) == hexes(_ref_integral(k, v, a, b) for a, b in pairs)
        assert hexes(map(prof.inverse_integral, targets)) == hexes(_ref_inverse(k, v, t) for t in targets)


def test_inverse_integral_past_an_overflowing_F_is_nan_without_a_warning():
    """An unchecked profile whose F overflows to inf: the march stops at the
    first infinite step and gives nan, as the per-call loop does, and
    raises no floating-point warning."""
    p = Samples([0.0, 1.0, 2.0, 3.0], [1e308, 1.7e308, 1.7e308, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(p.inverse_integral(math.inf))
        assert math.isnan(_ref_inverse(p.knots, p.values, math.inf))


def test_a_fields_rows_pickle_and_copy():
    """A field's sampled profiles read their rows through memoryviews, which
    do not pickle: a pickled or deep-copied field keeps equal profiles, and
    each reads the same full cost, integral, inverse and rate, bit for bit,
    and the same rates at batch rows."""
    graph, given = _mixed_k_field(0)
    field = CostField(graph, given)
    for copied in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field)):
        assert copied.profiles == field.profiles
        for eid, prof in field.profiles.items():
            other, length = copied.profiles[eid], graph.edges[eid].length
            assert copied.full_edge_cost(eid).hex() == field.full_edge_cost(eid).hex()
            assert other.integral(0.1 * length, 0.7 * length) == prof.integral(0.1 * length, 0.7 * length)
            assert other.inverse_integral(0.5) == prof.inverse_integral(0.5)
            assert other.at(0.3 * length) == prof.at(0.3 * length)
        s = np.linspace(0.0, 1.0, len(graph.edges)) * copied.graph._edge_order[2]
        edges = np.arange(len(graph.edges))
        assert copied._rates.at(edges, s).tolist() == field._rates.at(edges, s).tolist()


#: (case, a bad sampled profile for an edge of length 2, its refusal's words)
BAD_SAMPLES = [
    ("not-increasing", Samples((0.0, 1.5, 1.0, 2.0), (1.0, 1.0, 1.0, 1.0)),
     "sampled profile knots must be strictly increasing"),
    ("snap-collapses", Samples((0.0, 2.0, 2.0 + 1e-12), (1.0, 1.0, 1.0)),
     "sampled profile knots must be strictly increasing"),
    ("start", Samples((0.5, 1.0, 2.0), (1.0, 1.0, 1.0)),
     "sampled profile must start at offset 0 (got 0.5)"),
    ("nan", Samples((0.0, 1.0, 2.0), (1.0, math.nan, 1.0)),
     "sampled profile values [nan] are not finite"),
    ("inf", Samples((0.0, 1.0, 2.0), (1.0, math.inf, 1.0)),
     "sampled profile values [inf] are not finite"),
    ("minus-inf", Samples((0.0, 1.0, 2.0), (1.0, -math.inf, 1.0)),
     "sampled profile values [-inf] below floor 1e-06"),
    ("nan-knot", Samples((0.0, math.nan, 2.0), (1.0, 1.0, 1.0)),
     "sampled profile knots must be strictly increasing"),
    ("nan-end", Samples((0.0, 1.0, math.nan), (1.0, 1.0, 1.0)),
     "sampled profile knots must be strictly increasing"),
    ("below-floor", Samples((0.0, 1.0, 2.0), (1.0, 1e-9, 1.0)),
     "sampled profile values [1e-09] below floor 1e-06"),
    ("wrong-end", Samples((0.0, 1.0, 1.5), (1.0, 1.0, 1.0)),
     "sampled profile ends at 1.5 but the edge has length 2.0"),
    ("bool", Samples((0.0, True, 2.0), (1.0, 1.0, 1.0)),
     "sampled profile knot True is not a number"),
    ("overflow", Samples((0.0, 1.0, 2.0), (1.0, 1e308, 1.0)),
     "cost overflows (f up to 1e+308 over length 2.0)"),
    ("mismatched", Samples((0.0, 1.0, 2.0), (1.0, 1.0)),
     "sampled profile needs >= 2 matching knots and values"),
]


@pytest.mark.parametrize("bad, words", [case[1:] for case in BAD_SAMPLES],
                         ids=[case[0] for case in BAD_SAMPLES])
def test_a_bad_sampled_profile_among_good_ones_is_refused_in_its_own_words(bad, words):
    """One bad profile among good sampled ones of its knot count and of
    another is refused with ``check``'s words, naming its edge, and so is
    the first of two.  A bad linear or constant edge before it in dict order
    is refused first; one after it is not reached.  Checked alone, the
    profile is refused in the same words, but for the field's overflow
    rule."""
    rng = random.Random(7)
    good = [Samples(*_random_samples(rng, n, 2.0)) for n in (3, 65, 4, 3)]
    graph = _path_graph([2.0] * 6)

    def refusal(*profiles):
        with pytest.raises(ProfileError) as exc:
            CostField(graph, {"e%d" % i: p for i, p in enumerate(profiles)})
        return exc.value.edge, str(exc.value)

    assert refusal(good[0], good[1], bad, good[2], good[3], Constant(1.0)) == (
        "e2", "edge 'e2': %s" % words)
    assert refusal(good[0], good[1], bad, good[2], bad, good[3]) == ("e2", "edge 'e2': %s" % words)
    if not words.startswith("cost overflows"):
        with pytest.raises(InputError, match="^%s$" % re.escape(words)):
            bad.check(2.0, FMIN)
    for early in (Linear(1.0, -0.6), Constant(0.0)):
        with pytest.raises(InputError) as exc:
            early.check(2.0, FMIN)
        assert refusal(good[0], early, bad, good[2], good[3], Constant(1.0)) == (
            "e1", "edge 'e1': %s" % exc.value)
        assert refusal(good[0], good[1], bad, good[2], early, good[3]) == (
            "e2", "edge 'e2': %s" % words)


def test_the_overflow_rule_reads_each_sampled_rows_bounds_off_its_table():
    """A field's sampled profiles keep their values' (min, max), read off
    their table by the check; the overflow rule reads the max there.  An
    overflowing row among good ones of its knot count and another is
    refused as before, naming its edge, unless a bad linear edge comes
    first in dict order; a bad one after it is not reached."""
    rng = random.Random(11)
    good = [Samples(*_random_samples(rng, n, 3.0)) for n in (65, 65, 3)]
    knots, values = _random_samples(rng, 65, 3.0)
    values[40] = 7.5e307
    wide = Samples(knots, values)
    graph = _path_graph([3.0] * 5)

    def refusal(*profiles):
        with pytest.raises(ProfileError) as exc:
            CostField(graph, {"e%d" % i: p for i, p in enumerate(profiles)})
        return exc.value.edge, str(exc.value)

    assert refusal(good[0], wide, good[1], Linear(1.0, -0.6), good[2]) == (
        "e1", "edge 'e1': cost overflows (f up to 7.5e+307 over length 3.0)")
    assert refusal(Linear(1.0, -0.6), good[0], wide, good[1], good[2]) == (
        "e0", "edge 'e0': linear profile dips to -0.7999999999999998, below floor 1e-06")
    values[40] = 4.0
    field = CostField(graph, {"e%d" % i: p for i, p in enumerate(
        good + [Samples(knots, values), Linear(1.0, 0.5)])})
    for prof in field.profiles.values():
        if isinstance(prof, Samples):
            assert prof._bounds == prof.bounds(3.0) == (min(prof.values), max(prof.values))
    assert field.sup_value() == max(max(p.values) for p in good + [Samples(knots, values)])


def _offsets(length, knots):
    """0, the length, the knots, one ulp either side of each, and uniform draws."""
    base = [0.0, length, *knots]
    near = [math.nextafter(s, d) for s in base for d in (-math.inf, math.inf)]
    return np.array(base + near + [length * k / 7.0 for k in range(1, 7)])


@given(st.integers(0, 10_000))
def test_array_at_is_scalar_at_bit_for_bit(seed):
    """f read at batch rows (``_Rates.at``) is the scalar ``at``, at and
    either side of every knot."""
    rng = random.Random(seed)
    length = rng.uniform(0.05, 4.0)
    knots, values = _random_samples(rng, rng.choice((2, 3, 9, 65)), length)
    graph = MetricGraph([("a",), ("b",)], [("e", "a", "b", length)])
    for prof in (Constant(rng.uniform(0.1, 5.0)), Linear(rng.uniform(0.1, 5.0), rng.uniform(-0.02, 1.0)),
                 Samples(knots, values)):
        prof.check(length, 1e-6)
        s = _offsets(length, knots)
        got = _Rates(graph, {"e": prof}).at(np.zeros(len(s), dtype=np.intp), s)
        assert got.dtype == np.float64 and got.shape == s.shape
        assert [x.hex() for x in got.tolist()] == [float(prof.at(x)).hex() for x in s.tolist()]


@given(st.integers(0, 10_000))
def test_a_knot_batch_reads_f_as_value_at_does_at_every_knot(seed):
    """The least f over each knot's germs: the column equals ``value_at``
    knot by knot, on linear and on sampled profiles, and a sub-batch takes
    its rows of it, whether or not the whole batch was read first."""
    rng = random.Random(seed)
    graph, field, _ = build_instance(random_graph_spec(rng, max_vertices=7, max_extra_edges=5))
    sampled = CostField(graph, {eid: Samples(*_random_samples(rng, 9, rec.length))
                                for eid, rec in graph.edges.items()})
    runs = [(eid, np.linspace(0.0, graph.edges[eid].length, 5)) for eid in sorted(graph.edges)]
    X = KnotBatch(graph, runs)
    rows = np.array(sorted(rng.sample(range(len(X)), len(X) // 2)))
    for f in (field, sampled):
        want = [f.value_at(x) for x in X.points()]
        col = f.value_at(X)
        assert col.shape == (len(X), 1) and col[:, 0].tolist() == want
        assert f.value_at(X[rows])[:, 0].tolist() == [want[i] for i in rows]
        Y = KnotBatch(graph, runs)
        assert f.value_at(Y[rows])[:, 0].tolist() == [want[i] for i in rows]
        assert f.value_at(Y)[:, 0].tolist() == want


def test_f_at_an_empty_batch_is_an_empty_column():
    """As ``evaluate`` and ``edge_cost`` give an empty array for no rows."""
    graph, field, _ = make_interval()
    col = field.value_at(KnotBatch.of(graph, []))
    assert col.shape == (0, 1) and col.dtype == np.float64
