"""Counts, offsets and numbers are refused alike: each library entry that
takes one refuses a value of the wrong type with an ``InputError`` in the
words of the one rule it calls (``graph._count``, ``_reals`` or
``_finite``), never with a bare TypeError or AttributeError nor by
returning a result, and the command line prints those same words with
exit 1."""
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eikograph import (BoundaryData, Constant, CostField, FiniteMetricSpace, Hamiltonian,
                       InputError, Linear, MetricGraph, ProfileError, RecordError, Samples, StoredSolution,
                       catalog, dump_json, dump_value_function, edge_csv, ekeland_maximize,
                       ekeland_point, load_graph, load_value_function, random_curve,
                       reduce_to_eikonal, semiconcave_slope_check, solve, solve_general,
                       uniform_grid, verify_dpp, verify_suboptimality, viscous_solution,
                       weak_solution_zoo)
from eikograph.cli import entry
from eikograph.graph import _floats, _reals

UNIT = Hamiltonian(lambda x, r, p: p - 1.0, name="unit")


@pytest.fixture(scope="module")
def ctx():
    """A path a - b - c of unit edges "e" and "f", boundary at both ends."""
    graph = MetricGraph([("a", True), ("b",), ("c", True)],
                        [("e", "a", "b", 1.0), ("f", "b", "c", 1.0)])
    field = CostField.constant(graph, 1.0)
    data = BoundaryData(graph, {"a": 0.0, "c": 0.0})
    return SimpleNamespace(graph=graph, field=field, data=data, u=solve(field, data),
                           space=FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]]),
                           grid=uniform_grid(9))


#: (case, call on the fixture, the refusal's words)
REFUSALS = [
    # counts, by graph._count
    ("reduce-knots-float", lambda c: reduce_to_eikonal(UNIT, 0.0, c.graph, n_knots=2.5),
     "knot count n_knots must be an int >= 2 (got 2.5)"),
    ("reduce-knots-string", lambda c: reduce_to_eikonal(UNIT, 0.0, c.graph, n_knots="5"),
     "knot count n_knots must be an int >= 2 (got '5')"),
    ("solve-general-knots-float",
     lambda c: solve_general(catalog("discounted"), c.graph, c.data, n_knots=3.0),
     "knot count n_knots must be an int >= 2 (got 3.0)"),
    ("edge-csv-float", lambda c: edge_csv(c.u, "e", 2.5),
     "sample count n must be an int >= 2 (got 2.5)"),
    ("uniform-grid-float", lambda c: uniform_grid(3.5), "grid size n must be an int >= 3 (got 3.5)"),
    ("random-curve-steps-float", lambda c: random_curve(c.graph, random.Random(0), steps=2.5),
     "step count steps must be an int >= 1 (got 2.5)"),
    ("random-curve-steps-zero", lambda c: random_curve(c.graph, random.Random(0), steps=0),
     "step count steps must be an int >= 1 (got 0)"),
    ("zoo-true", lambda c: weak_solution_zoo(True, c.grid), "zoo size k must be an int >= 1 (got True)"),
    ("ekeland-start-true", lambda c: ekeland_point(c.space, [0.0, 1.0], 0.5, True),
     "start index x0 must be an int >= 0 (got True)"),
    ("ekeland-start-float", lambda c: ekeland_point(c.space, [0.0, 1.0], 0.5, 0.0),
     "start index x0 must be an int >= 0 (got 0.0)"),
    ("maximize-start-negative", lambda c: ekeland_maximize(c.space, [0.0, 1.0], 0.5, 1.0, -1),
     "start index x0 must be an int >= 0 (got -1)"),
    # fewer values than points, with a start past them
    ("maximize-values-short", lambda c: ekeland_maximize(c.space, [0.0], 0.5, 1.0, 1),
     "need one value per point (2 points, 1 values)"),
    # numbers, by graph._reals and _finite
    ("space-strings", lambda c: FiniteMetricSpace([["0", "1"], ["1", "0"]]),
     "distance '0' is not a number"),
    ("space-bools", lambda c: FiniteMetricSpace([[False, True], [True, False]]),
     "distance False is not a number"),
    ("ekeland-value-true", lambda c: ekeland_point(c.space, [True, 0.0], 0.5, 0),
     "value True is not a number"),
    ("ekeland-value-string", lambda c: ekeland_point(c.space, ["1", 0.0], 0.5, 0),
     "value '1' is not a number"),
    ("semiconcave-k-nan", lambda c: semiconcave_slope_check([0, 1, 2], [0, 1, 0], math.nan),
     "K must be a finite number (got nan)"),
    ("semiconcave-k-true", lambda c: semiconcave_slope_check([0, 1, 2], [0, 1, 0], True),
     "K must be a finite number (got True)"),
    ("point-true", lambda c: c.graph.point("e", True), "edge 'e': offset True is not a number"),
    ("point-string", lambda c: c.graph.point("e", "0.5"), "edge 'e': offset '0.5' is not a number"),
    # the stored vertex table, by StoredSolution
    ("stored-true", lambda c: StoredSolution(c.field, {"a": True, "b": 1.0, "c": 0.0}),
     "vertex table: value at 'a' must be a finite number (got True)"),
    ("stored-string", lambda c: StoredSolution(c.field, {"a": "0", "b": 1.0, "c": 0.0}),
     "vertex table: value at 'a' must be a finite number (got '0')"),
    # random sources
    ("subopt-rng-int", lambda c: verify_suboptimality(c.u, rng=5),
     "rng must be a random.Random or None (got 5)"),
    ("random-curve-rng-int", lambda c: random_curve(c.graph, 5),
     "rng must be a random.Random (got 5)"),
]


@pytest.mark.parametrize("call, words", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_a_library_entry_refuses_in_its_rules_words(ctx, call, words):
    with pytest.raises(InputError) as exc:
        call(ctx)
    assert str(exc.value) == words


def test_a_stored_entry_refusal_names_its_vertex(ctx):
    with pytest.raises(RecordError) as exc:
        StoredSolution(ctx.field, {"a": 0.0, "b": math.nan, "c": 0.0})
    assert (exc.value.kind, exc.value.id) == ("vertex", "b")
    with pytest.raises(InputError, match="^vertex table: no entry for 'c'$"):
        StoredSolution(ctx.field, {"a": 0.0, "b": 1.0})


def test_counts_accept_numpy_ints(ctx):
    """A count is an int by ``operator.index``: numpy's ints pass, as
    Python's do."""
    two, three = np.int64(2), np.int64(3)
    assert len(uniform_grid(three)) == 3
    assert len(weak_solution_zoo(two, ctx.grid)) == 2
    assert edge_csv(ctx.u, "e", three) == edge_csv(ctx.u, "e", 3)
    assert verify_suboptimality(ctx.u, rng=random.Random(1), n_random=two).n_curves == 2
    assert ekeland_point(ctx.space, [0.0, 1.0], 0.5, np.int64(1)) == 0
    assert (reduce_to_eikonal(UNIT, 0.0, ctx.graph, n_knots=three).profiles
            == reduce_to_eikonal(UNIT, 0.0, ctx.graph, n_knots=3).profiles)


def test_numbers_accept_numpy_ints_where_they_accept_ints(ctx):
    """A real number is ``_finite`` by type, Python's ints and numpy's alike:
    each reader of one takes ``np.int64(k)`` as it takes ``k``, and one that
    keeps the number keeps it as a float."""
    i = np.int64
    assert (FiniteMetricSpace(np.array([[0, 1], [1, 0]])).d(0, 1)
            == FiniteMetricSpace([[0, 1], [1, 0]]).d(0, 1) == 1.0)
    assert ekeland_point(ctx.space, np.array([1, 0]), i(1), 0) == ekeland_point(
        ctx.space, [1, 0], 1, 0)
    assert ekeland_maximize(ctx.space, [0.0, 1.0], i(1), i(2), 1) == ekeland_maximize(
        ctx.space, [0.0, 1.0], 1, 2, 1)
    graph = MetricGraph([("a", True), ("b",)], [("e", "a", "b", i(2))])
    assert graph.edges["e"].length == 2.0
    for got, want in ((Constant(i(2)), Constant(2)), (Linear(i(1), i(0)), Linear(1, 0)),
                      (Samples([0, i(2)], [i(1), 3]), Samples([0, 2], [1, 3]))):
        assert CostField(graph, {"e": got}).profiles == CostField(graph, {"e": want}).profiles
    field = CostField.constant(graph, 1.0)
    data = BoundaryData(graph, {"a": i(0)})
    assert data["a"] == 0.0
    stored = StoredSolution(field, {"a": i(0), "b": i(2)}, data=data)
    assert stored.vertex_values == {"a": 0.0, "b": 2.0}
    u = solve(field, data)
    # kept numbers are floats: the reports write 1.0 where they wrote 1
    assert (dump_json(verify_dpp(u, tau=i(1), tol=i(0))) == dump_json(verify_dpp(u, tau=1, tol=0))
            == dump_json(verify_dpp(u, tau=1.0, tol=0.0)))
    assert type(verify_dpp(u, tau=i(1)).samples[0].tau) is float
    reports = [semiconcave_slope_check([0, 1, 2], [0, 1, 0], k) for k in (i(1), 1, 1.0)]
    assert type(reports[0].K) is float and len({dump_json(r) for r in reports}) == 1
    assert [Hamiltonian(UNIT.fn, pmax=p).pmax for p in (i(10), 10)] == [10.0, 10.0]
    assert type(Hamiltonian(UNIT.fn, pmax=i(10)).pmax) is float
    assert list(viscous_solution(i(1), ctx.grid).ys) == list(viscous_solution(1, ctx.grid).ys)


# ----------------------------------------------------------------------
# the command line prints the library's words
# ----------------------------------------------------------------------

PATH3 = {"vertices": [{"id": "a", "boundary": True, "g": 0.0}, {"id": "b"},
                      {"id": "c", "boundary": True, "g": 0.0}],
         "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0},
                   {"id": "f", "from": "b", "to": "c", "length": 1.0}]}


def _put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _reduce_one_knot(tmp_path):
    g = _put(tmp_path, "g.json", json.dumps(PATH3))
    graph, _, data = load_graph(json.dumps(PATH3))
    return (["reduce", g, "--hamiltonian", "discounted", "--quad-knots", "1"],
            lambda: solve_general(catalog("discounted"), graph, data, n_knots=1), {})


def _viscous_two_points(tmp_path):
    return ["viscous", "--eps", "0.1", "--grid-n", "2"], lambda: uniform_grid(2), {}


def _ekeland_start_past_the_space(tmp_path):
    d = _put(tmp_path, "d.csv", "0,1\n1,0\n")
    f = _put(tmp_path, "f.csv", "0,1\n")
    space = FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])
    return (["ekeland", d, f, "--eps", "0.5", "--start", "2"],
            lambda: ekeland_point(space, [0.0, 1.0], 0.5, 2), {})


def _stored_entry(vid, value):
    def setup(tmp_path):
        _, field, data = load_graph(json.dumps(PATH3))
        g = _put(tmp_path, "g.json", json.dumps(PATH3))
        doc = json.loads(dump_value_function(solve(field, data)))
        doc["vertices"][vid] = value
        u = _put(tmp_path, "u.json", json.dumps(doc, indent=2))
        text = Path(u).read_text()
        line = text.count("\n", 0, text.index('"%s"' % vid, text.index('"vertices"'))) + 1
        return (["verify", g, u, "--mode", "dpp"],
                lambda: load_value_function(text, field, data, filename=u), {"u": u, "line": line})
    return setup


#: (case, setup(tmp_path) -> (argv, library call, fields), the refusal's
#: words, with "{u}:{line}" for the file and the line of the refused entry)
CLI_REFUSALS = [
    ("reduce-one-knot", _reduce_one_knot, "knot count n_knots must be an int >= 2 (got 1)"),
    ("viscous-two-points", _viscous_two_points, "grid size n must be an int >= 3 (got 2)"),
    ("ekeland-start-past-the-space", _ekeland_start_past_the_space, "start index 2 out of range"),
    ("u-json-nan", _stored_entry("b", math.nan),
     "{u}:{line}: vertex table: value at 'b' must be a finite number (got nan)"),
    ("u-json-true", _stored_entry("b", True),
     "{u}:{line}: vertex table: value at 'b' must be a finite number (got True)"),
    ("u-json-unknown-vertex", _stored_entry("zz", 1.0),
     "{u}:{line}: vertex table: 'zz' is not a vertex"),
]


@pytest.mark.parametrize("setup, words", [case[1:] for case in CLI_REFUSALS],
                         ids=[case[0] for case in CLI_REFUSALS])
def test_the_cli_prints_the_library_refusal(tmp_path, capsys, setup, words):
    argv, call, fields = setup(tmp_path)
    words = words.format(**fields)
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == words
    capsys.readouterr()
    assert entry(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s\n" % words)
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------------
# sampled profiles: a field's tables keep ``_reals``' rule
# ----------------------------------------------------------------------

def _reals_on(knots, values):
    """A sampled profile's numbers by ``_reals``, one list at a time, then the
    count rule: the words a profile was refused in before its lists were
    read as tables."""
    k, v = _reals(knots, "sampled profile knot"), _reals(values, "sampled profile value")
    if len(k) < 2 or len(k) != len(v):
        raise InputError("sampled profile needs >= 2 matching knots and values")
    return k, v


#: (case, knots, values) of a sampled profile on an edge of length 2
NUMBER_CASES = [
    ("int-knots", [0, 1, 2], [1.0, 2.0, 3.0]),
    ("int-ones", [0.0, 1, 2.0], [1, 1.0, 1]),
    ("int-2-63", [0.0, 1.0, 2.0], [1.0, 2 ** 63, 3.0]),
    ("int-2-63-plus-1", [0.0, 1.0, 2.0], [1.0, 2 ** 63 + 1, 3.0]),
    ("int-10-400", [0.0, 1.0, 2.0], [1.0, 10 ** 400, 1.0]),
    ("int-10-400-knot", [0, 10 ** 400, 2], [1.0, 1.0, 1.0]),
    ("numpy-scalars", [np.float64(0.0), np.int64(1), 2.0], [np.float64(1.5), 2.0, np.int64(3)]),
    ("true-at-one", [0.0, True, 2.0], [1.0, 1.0, 1.0]),
    ("false-at-zero", [False, 1.0, 2.0], [1.0, 1.0, 1.0]),
    ("true-among-ones", [0.0, 1.0, 2.0], [1.0, True, 1.0]),
    ("true-elsewhere", [0.0, 0.5, 2.0], [2.5, True, 3.0]),
    ("numpy-true", [0.0, 1.0, 2.0], [2.5, np.True_, 3.0]),
    ("numpy-false-at-zero", [np.False_, 1.0, 2.0], [1.0, 1.0, 1.0]),
    ("all-bool-values", [0.0, 1.0, 2.0], [True, True, True]),
    ("all-bool-knots", [False, True, True], [1.0, 1.0, 1.0]),
    ("string", [0.0, 1.0, 2.0], [1.0, "2", 3.0]),
    ("string-as-list", "012", [1.0, 1.0, 1.0]),
    ("none", [0.0, 1.0, 2.0], [1.0, None, 1.0]),
    ("nested", [0.0, [1.0], 2.0], [1.0, 1.0, 1.0]),
    ("2-d-array", np.array([[0.0, 1.0, 2.0]] * 3), [1.0, 1.0, 1.0]),
    ("float32-at-one", [0.0, np.float32(1.0), 2.0], [1.0, 1.0, 1.0]),
    ("float32-elsewhere", [0.0, 1.0, 2.0], [1.0, np.float32(0.5), 3.0]),
    ("float32-all", [0.0, 1.0, 2.0], [np.float32(1.0)] * 3),
    ("float16", [0.0, 1.0, 2.0], [1.0, np.float16(0.5), 1.0]),
    ("0-d-array", [0.0, 1.0, 2.0], [1.0, np.array(2.5), 3.0]),
    ("not-a-list", 5, [1.0, 1.0, 1.0]),
    ("short-and-bad", [0.0, "x"], [1.0]),
]


@pytest.mark.parametrize("knots, values", [case[1:] for case in NUMBER_CASES],
                         ids=[case[0] for case in NUMBER_CASES])
def test_a_fields_tables_take_the_numbers_reals_takes_and_refuse_the_rest_in_its_words(knots, values):
    """Among good sampled profiles of its knot count and of another, a
    profile's lists are taken exactly when ``_reals`` takes them, with
    ``_reals``' floats bit for bit (the last knot snapped), and refused
    otherwise in ``_reals``' words, naming its edge, the first of two bad
    ones.  A list that ``_floats`` lets into a table as it is, ``_reals``
    takes as it is, and ``np.array`` reads it as ``_reals``' floats, bit for
    bit."""
    rng = random.Random(3)
    good = [Samples(*_good_lists(rng, n)) for n in (3, 65, 3, 65)]
    graph = MetricGraph([("v%d" % i, i == 0) for i in range(7)],
                        [("e%d" % i, "v%d" % i, "v%d" % (i + 1), 2.0) for i in range(6)])
    profiles = {"e0": good[0], "e1": good[1], "e2": Samples(knots, values), "e3": good[2],
                "e4": Samples([0.0, "bad", 2.0], [1.0, 1.0, 1.0]), "e5": good[3]}
    try:
        k, v = _reals_on(knots, values)
    except InputError as exc:
        with pytest.raises(ProfileError) as refused:
            CostField(graph, profiles)
        assert (refused.value.edge, str(refused.value)) == ("e2", "edge 'e2': %s" % exc)
    else:
        profiles["e4"] = Samples(*_good_lists(rng, 4))
        kept = CostField(graph, profiles).profiles["e2"]
        assert [x.hex() for x in kept.knots] == [x.hex() for x in k[:-1] + (2.0,)]
        assert [x.hex() for x in kept.values] == [x.hex() for x in v]
    for given in (knots, values):
        if _floats(given):
            assert _reals(given, "number") == tuple(given)
            assert [x.hex() for x in np.array(given, dtype=float).tolist()] == [x.hex() for x in given]


def _good_lists(rng, n):
    """Knots from 0 to 2 and values in [0.5, 2], as float lists."""
    knots = [2.0 * i / (n - 1) for i in range(n)]
    return knots, [rng.uniform(0.5, 2.0) for _ in knots]
