"""Graph/solution file formats and the command-line front end."""
import argparse
import collections
import dataclasses
import enum
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eikograph import (BoundaryData, Constant, CostField, GraphFormatError, InputError, Linear,
                       MetricGraph, RecordError, Samples, Vertex, dump_json,
                       dump_value_function, edge_csv, graph_to_dict, load_graph, load_value_function,
                       point_from_obj, point_to_obj, solve)
from eikograph.cli import entry
from eikograph.graph import EdgeInterior, EdgeRec
from eikograph.hamiltonian import BISECT_TOL
from conftest import build_instance, random_graph_spec

TENT_DOC = """{
  "vertices": [
    {"id": "L", "boundary": true, "g": 0.0},
    {"id": "R", "boundary": true, "g": 0.0}
  ],
  "edges": [
    {"id": "e", "from": "L", "to": "R", "length": 2.0,
     "f": {"kind": "const", "params": {"value": 1.0}}}
  ]
}
"""

PATH3_DOC = """{
  "vertices": [
    {"id": "L", "boundary": true, "g": 0.0},
    {"id": "m"},
    {"id": "R", "boundary": true, "g": 0.0}
  ],
  "edges": [
    {"id": "b", "from": "L", "to": "m", "length": 1.0},
    {"id": "b2", "from": "m", "to": "R", "length": 1.0}
  ]
}
"""


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

def test_load_graph_happy_path_with_defaults():
    doc = {
        "vertices": [{"id": "a", "boundary": True, "g": 0.25},
                     {"id": "b"},
                     {"id": "c", "boundary": True, "g": 1.0}],
        "edges": [{"id": "e1", "from": "a", "to": "b", "length": 1.5,
                   "f": {"kind": "linear", "params": {"a": 1.0, "b": 0.5}}},
                  {"id": "e2", "from": "b", "to": "c", "length": 2.0,
                   "f": {"kind": "samples",
                         "params": {"knots": [0.0, 1.0, 2.0], "values": [1.0, 2.0, 1.0]}}},
                  {"id": "e3", "from": "a", "to": "c", "length": 4.0}]}
    graph, field, data = load_graph(json.dumps(doc))
    assert sorted(graph.vertices) == ["a", "b", "c"]
    assert isinstance(field.profiles["e1"], Linear)
    assert isinstance(field.profiles["e2"], Samples)
    assert isinstance(field.profiles["e3"], Constant)  # f defaults to 1
    assert field.profiles["e3"].value == 1.0
    assert data["a"] == 0.25 and data["c"] == 1.0


def test_load_graph_without_boundary_returns_no_data():
    doc = {"vertices": [{"id": "a"}, {"id": "b"}],
           "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0}]}
    graph, field, data = load_graph(json.dumps(doc))
    assert data is None


def test_load_graph_anchors_point_at_the_offending_record():
    missing_g = (
        '{\n'
        '  "vertices": [\n'
        '    {"id": "ok", "boundary": true, "g": 0},\n'
        '    {"id": "bad", "boundary": true}\n'
        '  ],\n'
        '  "edges": [{"id": "e", "from": "ok", "to": "bad", "length": 1}]\n'
        '}\n')
    with pytest.raises(GraphFormatError, match=r"g\.json:4: boundary vertex 'bad'"):
        load_graph(missing_g, filename="g.json")

    bad_json = '{\n  "vertices": }\n'
    with pytest.raises(GraphFormatError, match=r"g\.json:2: not valid JSON"):
        load_graph(bad_json, filename="g.json")


def test_load_graph_rejections():
    base = json.loads(TENT_DOC)

    doc = json.loads(TENT_DOC)
    doc["vertices"][0] = {"id": "L", "g": 0.0}
    with pytest.raises(GraphFormatError, match="not a boundary vertex"):
        load_graph(json.dumps(doc))

    doc = json.loads(TENT_DOC)
    doc["edges"][0]["f"] = {"kind": "wavy", "params": {}}
    with pytest.raises(GraphFormatError, match="unknown f kind"):
        load_graph(json.dumps(doc))

    doc = json.loads(TENT_DOC)
    del doc["edges"][0]["length"]
    with pytest.raises(GraphFormatError, match="must have a positive finite length"):
        load_graph(json.dumps(doc))

    doc = json.loads(TENT_DOC)
    doc["edges"][0]["to"] = "ghost"
    with pytest.raises(GraphFormatError, match="ghost"):
        load_graph(json.dumps(doc))

    with pytest.raises(GraphFormatError, match="'vertices' and 'edges'"):
        load_graph(json.dumps({"nodes": []}))
    assert base  # round-trip reference stays untouched

    # only JSON numbers count as numbers: true/false and strings are refused
    doc = json.loads(TENT_DOC)
    doc["edges"][0]["length"] = True
    with pytest.raises(GraphFormatError,
                       match=r"g\.json:\d+: edge 'e' must have a positive finite length \(got True\)"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")

    doc = json.loads(TENT_DOC)
    doc["vertices"][0]["g"] = True
    with pytest.raises(GraphFormatError,
                       match=r"g\.json:\d+: vertex 'L': 'g' must be a finite number \(got True\)"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")

    doc = json.loads(TENT_DOC)
    doc["edges"][0]["f"] = {"kind": "samples",
                            "params": {"knots": [0.0, True, 2.0], "values": [1.0, 1.0, 1.0]}}
    with pytest.raises(GraphFormatError,
                       match=r"g\.json:\d+: edge 'e': sampled profile knot True is not a number"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")

    doc = json.loads(TENT_DOC)
    doc["edges"][0]["f"]["params"]["value"] = "1.0"
    with pytest.raises(GraphFormatError,
                       match=r"g\.json:\d+: edge 'e': constant profile value '1\.0' is not a number"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")

    # a finite length and a finite f whose product overflows
    doc = json.loads(TENT_DOC)
    doc["edges"][0]["length"] = 1e300
    doc["edges"][0]["f"]["params"]["value"] = 1e10
    with pytest.raises(GraphFormatError, match=r"g\.json:\d+: edge 'e': cost overflows"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")

    # an endpoint that is not a vertex id names the first such end
    for ends, end in (((1, "R"), "1"), (("L", None), "None"), ((1, None), "1"),
                      ((["L"], "R"), r"\['L'\]")):
        doc = json.loads(TENT_DOC)
        doc["edges"][0]["from"], doc["edges"][0]["to"] = ends
        with pytest.raises(GraphFormatError,
                           match=r"g\.json:\d+: edge 'e' references unknown vertex %s$" % end):
            load_graph(json.dumps(doc, indent=2), filename="g.json")

    # the overflow checks run on a graph already accepted: a disconnected
    # graph is refused as such, overflowing edge or not
    doc = json.loads(TENT_DOC)
    doc["vertices"].append({"id": "lone"})
    doc["edges"][0]["length"] = 1e300
    doc["edges"][0]["f"]["params"]["value"] = 1e10
    with pytest.raises(GraphFormatError, match=r"^g\.json: graph is not connected"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")

    # sup f · length is finite, but the linear integral squares the length
    doc = json.loads(TENT_DOC)
    doc["edges"][0]["length"] = 1e200
    doc["edges"][0]["f"] = {"kind": "linear", "params": {"a": 1.0, "b": 0.0}}
    with pytest.raises(GraphFormatError,
                       match=r"g\.json:\d+: edge 'e': linear profile over length 1e\+200 overflows"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")



@pytest.mark.parametrize("edit, refusal", [
    (lambda doc: doc["edges"][0].update(f=3), "g.json:16: edge 'e': f must be an object with a 'kind'"),
    (lambda doc: doc["edges"][0]["f"].update(params=[1.0]),
     "g.json:16: edge 'e': f params must be an object"),
    (lambda doc: doc.update(vertices={}), "g.json: 'vertices' and 'edges' must be arrays"),
    (lambda doc: doc.update(edges="e"), "g.json: 'vertices' and 'edges' must be arrays"),
    (lambda doc: doc["vertices"].__setitem__(0, {"id": 1}),
     "g.json: every vertex needs a string 'id' (got {'id': 1})"),
    (lambda doc: doc["edges"].__setitem__(0, ["e"]), "g.json: every edge needs a string 'id' (got ['e'])"),
    (lambda doc: doc.update(vertices=[]), "g.json: graph needs at least one vertex"),
], ids=["f-not-object", "params-not-object", "vertices-not-array", "edges-not-array",
        "vertex-id-not-string", "edge-not-object", "no-vertex"])
def test_load_graph_refuses_a_malformed_document(edit, refusal):
    """A shape refusal of one edge is anchored at it; one of the document,
    or of a record without an id, names the file alone."""
    doc = json.loads(TENT_DOC)
    edit(doc)
    with pytest.raises(GraphFormatError) as exc:
        load_graph(json.dumps(doc, indent=2), filename="g.json")
    assert str(exc.value) == refusal


@pytest.mark.parametrize("f, refusal", [
    ({"kind": "const", "params": {"value": 5e-7}},
     "constant profile value 5e-07 below floor 1e-06"),
    ({"kind": "linear", "params": {"a": 1.0, "b": -1.0}},
     "linear profile dips to -1.0, below floor 1e-06"),
    ({"kind": "samples", "params": {"knots": [0.0, 1.0, 1.5], "values": [1.0, 1.0, 1.0]}},
     "sampled profile ends at 1.5 but the edge has length 2.0"),
    ({"kind": "samples", "params": {"knots": [0.0, 2.0], "values": [1.0, 0.0]}},
     "sampled profile values [0.0] below floor 1e-06"),
    # json reads NaN and Infinity; a NaN slope must not pass as a profile
    ({"kind": "linear", "params": {"a": 1.0, "b": math.nan}},
     "linear profile value nan is not finite"),
    # and an infinite rate is not finite, not below the floor
    ({"kind": "const", "params": {"value": math.inf}},
     "constant profile value inf is not finite"),
    ({"kind": "linear", "params": {"a": math.inf, "b": 0.0}},
     "linear profile value inf is not finite"),
    ({"kind": "samples", "params": {"knots": [0.0, 2.0], "values": [1.0, math.inf]}},
     "sampled profile values [inf] are not finite"),
    ({"kind": "linear", "params": {"a": 1.0, "b": -math.inf}},
     "linear profile dips to -inf, below floor 1e-06"),
    ({"kind": "linear", "params": {"a": 1.0, "b": math.inf}},
     "cost overflows (f up to inf over length 2.0)"),
    # the last knot is within float dust of the length, but snapping it
    # there would land on, or below, the knot before it
    ({"kind": "samples",
      "params": {"knots": [0.0, 2.0, 2.0000000000004], "values": [1.0, 1.0, 50.0]}},
     "sampled profile knots must be strictly increasing"),
    ({"kind": "samples",
      "params": {"knots": [0.0, 2.0000000000002, 2.0000000000004], "values": [1.0, 1.0, 50.0]}},
     "sampled profile knots must be strictly increasing"),
], ids=["const-floor", "linear-dip", "samples-end", "samples-floor", "linear-nan-slope",
        "const-inf", "linear-inf", "samples-inf", "linear-minus-inf-slope", "linear-inf-slope",
        "samples-snap-onto", "samples-snap-below"])
def test_profile_refusals_name_their_edge_and_line(f, refusal, tmp_path, capsys):
    doc = json.loads(PATH3_DOC)
    doc["edges"][1].update({"length": 2.0, "f": f})
    text = json.dumps(doc, indent=2)
    line = text[:text.index('"b2"')].count("\n") + 1
    with pytest.raises(GraphFormatError) as exc:
        load_graph(text, filename="g.json")
    assert str(exc.value) == "g.json:%d: edge 'b2': %s" % (line, refusal)
    g = put(tmp_path, "g.json", text)
    assert entry(["solve", g, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: %s:%d: edge 'b2': %s\n" % (g, line, refusal)

    # a disconnected graph is refused as such, bad profile or not
    doc["vertices"].append({"id": "lone"})
    with pytest.raises(GraphFormatError, match=r"^g\.json: graph is not connected"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")


_PROFILE_CLASSES = {"const": Constant, "linear": Linear, "samples": Samples}


def _build_in_code(doc):
    """What ``load_graph`` builds from ``doc``, built by the constructors
    alone: the same records, each profile given its params as they are."""
    graph = MetricGraph([(v["id"], v.get("boundary", False)) for v in doc["vertices"]],
                        [(e["id"], e["from"], e["to"], e.get("length")) for e in doc["edges"]])
    CostField(graph, {e["id"]: _PROFILE_CLASSES[e["f"]["kind"]](*e["f"]["params"].values())
                      if "f" in e else Constant(1.0) for e in doc["edges"]})
    BoundaryData(graph, {v["id"]: v["g"] for v in doc["vertices"] if "g" in v})


def _bad_records():
    """(case, edit of PATH3_DOC, kind and id of the refused record).  Edge
    "m" shares its id with vertex "m", so an anchor must search its own
    array."""
    def vertex(i, **kw):
        return lambda doc: doc["vertices"][i].update(kw)

    def edge(i, **kw):
        return lambda doc: doc["edges"][i].update(kw)

    def drop(array, i, key):
        return lambda doc: doc[array][i].pop(key)

    def append(array, record):
        return lambda doc: doc[array].append(record)

    def profile(i, kind, **params):
        return edge(i, f={"kind": kind, "params": params})

    return [
        ("boundary-no", vertex(1, boundary="no"), "vertex", "m"),
        ("length-true", edge(0, length=True), "edge", "m"),
        ("length-zero", edge(1, length=0), "edge", "b2"),
        ("length-infinity", edge(1, length=math.inf), "edge", "b2"),
        ("length-missing", drop("edges", 1, "length"), "edge", "b2"),
        ("g-true", vertex(0, g=True), "vertex", "L"),
        ("g-infinity", vertex(2, g=math.inf), "vertex", "R"),
        ("g-missing", drop("vertices", 2, "g"), "vertex", "R"),
        ("g-interior", vertex(1, g=1.0), "vertex", "m"),
        ("duplicate-vertex", append("vertices", {"id": "m"}), "vertex", "m"),
        ("duplicate-edge", append("edges", {"id": "b2", "from": "m", "to": "R", "length": 1.0}),
         "edge", "b2"),
        ("unknown-end", edge(1, to="zz"), "edge", "b2"),
        ("profile-on-shared-id", edge(0, f={"kind": "const", "params": {"value": 5e-7}}), "edge", "m"),
        # a profile param that is not a number is refused by the profile, in
        # code as by file, not passed on nor crashed on
        ("const-true", profile(0, "const", value=True), "edge", "m"),
        ("const-string", profile(1, "const", value="2"), "edge", "b2"),
        ("const-null", profile(1, "const", value=None), "edge", "b2"),
        ("const-int-past-floats", profile(1, "const", value=10 ** 400), "edge", "b2"),
        ("linear-true", profile(1, "linear", a=True, b=0), "edge", "b2"),
        ("linear-string", profile(1, "linear", a="1", b=0), "edge", "b2"),
        ("samples-strings", profile(1, "samples", knots=["0", "1"], values=["1", "2"]), "edge", "b2"),
        ("samples-true", profile(1, "samples", knots=[0, 1], values=[True, 2]), "edge", "b2"),
        ("samples-not-arrays", profile(1, "samples", knots=5, values=[1, 2]), "edge", "b2"),
    ]


@pytest.mark.parametrize("edit, kind, rid", [case[1:] for case in _bad_records()],
                         ids=[case[0] for case in _bad_records()])
def test_a_record_is_refused_alike_in_code_and_by_file_at_its_own_line(edit, kind, rid):
    doc = json.loads(PATH3_DOC)
    doc["edges"][0]["id"] = "m"
    edit(doc)
    with pytest.raises(RecordError) as in_code:
        _build_in_code(doc)
    assert (in_code.value.kind, in_code.value.id) == (kind, rid)
    assert len(str(in_code.value)) < 200  # an int of 401 digits is named by its length
    text = json.dumps(doc, indent=2)
    own = text.index('"id": "%s"' % rid, text.index('"%s": [' % {"vertex": "vertices",
                                                                  "edge": "edges"}[kind]))
    with pytest.raises(GraphFormatError) as by_file:
        load_graph(text, filename="g.json")
    assert str(by_file.value) == "g.json:%d: %s" % (text.count("\n", 0, own) + 1, in_code.value)


def test_a_record_refusal_names_the_file_alone_where_its_id_is_not_in_the_text():
    text = PATH3_DOC.replace('"m", "to": "R", "length": 1.0', '"m", "to": "R", "length": 0.0')
    text = text.replace('{"id": "b2"', '{"\\u0069d": "b2"')
    with pytest.raises(GraphFormatError) as exc:
        load_graph(text, filename="g.json")
    assert str(exc.value) == "g.json: edge 'b2' must have a positive finite length (got 0.0)"


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------

def test_dump_json_is_deterministic_and_round_trip_exact():
    obj = {"a": 1.0 / 3.0, "b": [1, 2.5e-300, math.pi], "c": {"nested": True},
           "empty": {}, "none": None, "inf": math.inf}
    one, two = dump_json(obj), dump_json(obj)
    assert one == two
    back = json.loads(one)
    assert back["a"] == 1.0 / 3.0
    assert back["b"][1] == 2.5e-300 and back["b"][2] == math.pi
    assert back["inf"] is None
    assert one.endswith("\n")


_json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.text())
_json_trees = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


@given(_json_trees)
def test_dump_json_matches_the_standard_encoder_on_float_free_trees(tree):
    """Without floats the grammar is plain indented JSON: nesting, commas,
    empty containers, string escapes, bools and null, tuples as arrays."""
    assert dump_json(tree) == json.dumps(tree, indent=2) + "\n"


def test_dump_json_writes_floats_at_17_digits_and_refuses_other_types():
    values = [0.1, -0.0, 1e300, 5e-324, 2.0 / 3.0, math.inf, -math.inf, math.nan]
    want = ["%.17g" % v if math.isfinite(v) else "null" for v in values]
    assert dump_json(values) == "[\n" + ",\n".join("  " + w for w in want) + "\n]\n"
    # a float subclass, numpy's included, is written as a float
    assert dump_json({"x": np.float64(0.1)}) == '{\n  "x": 0.10000000000000001\n}\n'
    assert dump_json(np.float64(math.inf)) == "null\n"
    # so is a subclass of any other written type, and a dataclass anywhere
    # is an object of its own fields, in order

    class C(enum.IntEnum):
        A = 1

    class S(str):
        pass

    @dataclasses.dataclass
    class D:
        n: int
        s: S

    @dataclasses.dataclass
    class D2(D):
        m: bool = True

    P = collections.namedtuple("P", "x y")
    assert dump_json([C.A, P(1, 2.5), collections.OrderedDict(a=1), S("q")]) == (
        '[\n  1,\n  [\n    1,\n    2.5\n  ],\n  {\n    "a": 1\n  },\n  "q"\n]\n')
    assert dump_json((D(2, S("q")),)) == '[\n  {\n    "n": 2,\n    "s": "q"\n  }\n]\n'
    assert json.loads(dump_json((D(1, "a"), D2(3, "b")))) == [
        {"n": 1, "s": "a"}, {"n": 3, "s": "b", "m": True}]
    for bad in (np.int64(3), object(), {1, 2}, b"bytes", [1, {"k": object()}]):
        with pytest.raises(InputError, match="cannot serialize"):
            dump_json(bad)


_json_keys = st.one_of(st.text(), st.integers(), st.booleans(), st.none(),
                       st.floats(allow_nan=False, allow_infinity=False))


@given(st.dictionaries(_json_keys, st.integers(), max_size=6))
def test_dump_json_writes_dict_keys_as_the_standard_encoder_does(obj):
    """A key is written as json.dumps writes it: true, false and null, not
    the Python names, and an int or float by its repr."""
    assert dump_json(obj) == json.dumps(obj, indent=2) + "\n"


def test_dump_json_writes_key_subclasses_as_their_base_and_refuses_other_keys():
    class C(enum.IntEnum):
        A = 1

    class S(str):
        def __str__(self):
            return "not the key"

    obj = {C.A: 1, S("q"): 2, np.float64(0.1): 3}
    assert dump_json(obj) == json.dumps(obj, indent=2) + "\n"
    assert json.loads(dump_json(obj)) == {"1": 1, "q": 2, "0.1": 3}
    for key in ((1, 2), math.inf, -math.inf, math.nan, np.int64(3), b"k", frozenset()):
        with pytest.raises(InputError, match="cannot serialize .* as a dict key"):
            dump_json({key: 1})
        with pytest.raises(InputError, match="cannot serialize .* as a dict key"):
            dump_json([{"fine": {key: 1}}])


def test_points_round_trip_through_their_json_form(interval):
    graph, _, _ = interval

    class V(Vertex):
        pass

    class E(EdgeInterior):
        pass

    for p, sub in ((Vertex("L"), V("L")), (graph.point("e", 0.75), E("e", 0.75))):
        obj = point_to_obj(p)
        assert point_from_obj(json.loads(dump_json(obj)), graph) == p
        # a point of a subclass takes the same form
        assert dump_json([p]) == dump_json([obj]) == dump_json([sub])
        assert point_to_obj(sub) == obj
    with pytest.raises(InputError, match="bad point"):
        point_from_obj({"edge": "e"}, graph)
    with pytest.raises(InputError, match="cannot serialize"):
        dump_json({"x": object()})


def test_graph_document_round_trips_byte_identically():
    graph, field, data = load_graph(TENT_DOC)
    text = dump_json(graph_to_dict(graph, field, data))
    graph2, field2, data2 = load_graph(text)
    assert dump_json(graph_to_dict(graph2, field2, data2)) == text
    assert data2["L"] == 0.0 and data2["R"] == 0.0


def test_value_function_document_round_trips():
    graph, field, data = load_graph(PATH3_DOC)
    u = solve(field, data)
    text = dump_value_function(u)
    stored = load_value_function(text, field, data)
    for vid in graph.vertices:
        assert stored.evaluate(graph.vertex_point(vid)) == u.evaluate(graph.vertex_point(vid))
    for s in (0.25, 0.5, 0.875):
        p = graph.point("b", s)
        assert stored.evaluate(p) == pytest.approx(u.evaluate(p), abs=1e-15)
    doc = json.loads(text)
    assert doc["kind"] == "value-function"
    assert doc["edges"]["b"]["kink"] is None  # peak sits at the vertex m
    assert doc["vertices"]["m"] == 1.0


def test_value_function_document_integrates_each_edge_once(monkeypatch):
    """Each edge's cost is integrated once and serves both its "cost" and
    its "kink"; the kinks equal OpticalMap.kink's."""
    graph, field, data = build_instance(random_graph_spec(random.Random(3), 20, 20))
    u = solve(field, data)
    calls = []
    full_edge_cost = CostField.full_edge_cost
    monkeypatch.setattr(CostField, "full_edge_cost",
                        lambda self, eid: calls.append(eid) or full_edge_cost(self, eid))
    doc = json.loads(dump_value_function(u))
    assert sorted(calls) == sorted(graph.edges)
    monkeypatch.undo()
    assert {eid: e["kink"] for eid, e in doc["edges"].items()} == {
        eid: u.kink(eid) for eid in graph.edges}
    assert any(e["kink"] is not None for e in doc["edges"].values())


def test_value_function_document_structural_checks():
    graph, field, data = load_graph(TENT_DOC)
    text = dump_value_function(solve(field, data))
    _, other_field, other_data = load_graph(PATH3_DOC)
    with pytest.raises(InputError):
        load_value_function(text, other_field, other_data)
    with pytest.raises(GraphFormatError, match="not a value-function"):
        load_value_function('{"kind": "shopping-list"}', field, data)
    with pytest.raises(GraphFormatError, match="malformed"):
        load_value_function('{"kind": "value-function", "boundary": 7}', field, data)


@pytest.mark.parametrize("edit, vid, refusal", [
    (lambda table: table.update(m=1.0), "m", "'m' is not a boundary vertex"),
    (lambda table: table.update(R=0.25), "R",
     "value at 'R' is 0.25 but the graph's boundary data says 0; "
     "the solution belongs to different input"),
    (lambda table: table.update(R=math.nan), "R",
     "value at 'R' is nan but the graph's boundary data says 0; "
     "the solution belongs to different input"),
    (lambda table: table.pop("R"), None, "no entry for 'R'"),
], ids=["not-boundary", "different-g", "nan-g", "missing"])
def test_a_solution_document_is_checked_against_the_graphs_boundary_data(edit, vid, refusal):
    """Each entry of the boundary table is refused in the table's words, at
    its own line; a missing one has no line, and names the file."""
    _, field, data = load_graph(PATH3_DOC)
    doc = json.loads(dump_value_function(solve(field, data)))
    edit(doc["boundary"])
    text = json.dumps(doc, indent=2)
    where = "u.json"
    if vid is not None:
        where += ":%d" % (text.count("\n", 0, text.index('"%s"' % vid, text.index('"boundary"'))) + 1)
    with pytest.raises(GraphFormatError) as exc:
        load_value_function(text, field, data, filename="u.json")
    assert str(exc.value) == "%s: boundary table: %s" % (where, refusal)


def test_a_loaded_solution_carries_the_graphs_boundary_data():
    _, field, data = load_graph(PATH3_DOC)
    doc = json.loads(dump_value_function(solve(field, data)))
    doc["boundary"]["R"] = 1e-13  # within 1e-12 of g = 0
    assert load_value_function(json.dumps(doc), field, data).data is data


@pytest.mark.parametrize("prof", [Constant(2), Linear(1, 0), Samples([0, 1, 2], [1, 2, 1]),
                                  Samples(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]))],
                         ids=["const-int", "linear-ints", "samples-ints", "samples-numpy"])
def test_a_profile_built_in_code_is_kept_as_the_loader_keeps_it(prof):
    """The field keeps float params, which its graph document writes and
    reads back as the same profile."""
    graph = MetricGraph([("a",), ("b",)], [("e", "a", "b", 2)])
    kept = CostField(graph, {"e": prof}).profiles["e"]
    params = (kept.knots + kept.values if isinstance(kept, Samples)
              else (kept.value,) if isinstance(kept, Constant) else (kept.a, kept.b))
    assert {type(x) for x in params} == {float}
    _, loaded, _ = load_graph(dump_json(graph_to_dict(graph, CostField(graph, {"e": prof}))))
    assert loaded.profiles["e"] == kept


def test_edge_csv_layout():
    graph, field, data = load_graph(TENT_DOC)
    u = solve(field, data)
    text = edge_csv(u, "e", n=5)
    lines = text.splitlines()
    assert lines[0] == "s,u"
    assert len(lines) == 6
    assert lines[1] == "0,0"
    assert lines[3] == "1,1"
    with pytest.raises(InputError, match="sample count n must be an int >= 2"):
        edge_csv(u, "e", n=1)


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------

def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_solve_writes_artifacts_deterministically(tmp_path, capsys):
    g = put(tmp_path, "g.json", TENT_DOC)
    assert entry(["solve", g, "--out-dir", str(tmp_path / "one"),
                  "--edge-csv", "e"]) == 0
    assert entry(["solve", g, "--out-dir", str(tmp_path / "two")]) == 0
    one = (tmp_path / "one" / "u.json").read_bytes()
    assert one == (tmp_path / "two" / "u.json").read_bytes()
    doc = json.loads(one)
    assert doc["vertices"] == {"L": 0.0, "R": 0.0}
    assert doc["edges"]["e"]["kink"] == 1.0
    compat = json.loads((tmp_path / "one" / "compat.json").read_text())
    assert compat["ok"] is True
    assert (tmp_path / "one" / "edge_e.csv").read_text().startswith("s,u\n")
    assert "compatibility ok" in capsys.readouterr().out


def test_cli_solve_flags_incompatible_data(tmp_path):
    doc = json.loads(TENT_DOC)
    doc["vertices"][1]["g"] = 3.0
    g = put(tmp_path, "g.json", json.dumps(doc))
    assert entry(["solve", g, "--out-dir", str(tmp_path)]) == 2
    compat = json.loads((tmp_path / "compat.json").read_text())
    assert compat["ok"] is False
    assert compat["worst_violation"] == 1.0
    assert json.loads((tmp_path / "u.json").read_text())["vertices"]["R"] == 2.0


def test_cli_solve_input_errors(tmp_path, capsys):
    nb = put(tmp_path, "nb.json", json.dumps(
        {"vertices": [{"id": "a"}, {"id": "b"}],
         "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0}]}))
    assert entry(["solve", nb, "--out-dir", str(tmp_path)]) == 1
    assert "declares no boundary" in capsys.readouterr().err

    bad = put(tmp_path, "bad.json", '{\n  "vertices": }\n')
    assert entry(["solve", bad, "--out-dir", str(tmp_path)]) == 1
    assert "bad.json:2" in capsys.readouterr().err

    assert entry(["solve", str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_cli_refuses_an_edgeless_graph(tmp_path, capsys):
    g = put(tmp_path, "g.json", json.dumps(
        {"vertices": [{"id": "a", "boundary": True, "g": 0.0}], "edges": []}))
    assert entry(["solve", g, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: %s: graph needs at least one edge\n" % g
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["monge", "dpp", "subopt", "modulus"])
def test_cli_solves_and_verifies_a_one_vertex_self_loop(tmp_path, mode):
    g = put(tmp_path, "g.json", json.dumps(
        {"vertices": [{"id": "a", "boundary": True, "g": 0.0}],
         "edges": [{"id": "e", "from": "a", "to": "a", "length": 2.0}]}))
    out = tmp_path / "sol"
    assert entry(["solve", g, "--out-dir", str(out)]) == 0
    assert entry(["verify", g, str(out / "u.json"), "--mode", mode,
                  "--out-dir", str(tmp_path / "rep")]) == 0


def test_cli_solve_rejects_an_overflowing_edge_cost(tmp_path, capsys):
    doc = json.loads(TENT_DOC)
    doc["edges"][0]["length"] = 1e300
    doc["edges"][0]["f"]["params"]["value"] = 1e10
    g = put(tmp_path, "g.json", json.dumps(doc, indent=2))
    assert entry(["solve", g, "--out-dir", str(tmp_path / "out")]) == 1
    assert "g.json:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "u.json").exists()


def test_cli_solve_rejects_a_linear_edge_whose_length_squared_overflows(tmp_path, capsys):
    doc = json.loads(TENT_DOC)
    doc["edges"][0]["length"] = 1e200
    doc["edges"][0]["f"] = {"kind": "linear", "params": {"a": 1.0, "b": 0.0}}
    g = put(tmp_path, "g.json", json.dumps(doc, indent=2))
    assert entry(["solve", g, "--out-dir", str(tmp_path / "out")]) == 1
    text = (tmp_path / "g.json").read_text()
    line = text[:text.index('"id": "e"')].count("\n") + 1
    assert "g.json:%d: edge 'e': linear profile" % line in capsys.readouterr().err
    assert not (tmp_path / "out" / "u.json").exists()


def solve_path3(tmp_path):
    g = put(tmp_path, "g.json", PATH3_DOC)
    out = tmp_path / "sol"
    assert entry(["solve", g, "--out-dir", str(out)]) == 0
    return g, str(out / "u.json")


@pytest.mark.parametrize("mode,artifact", [("monge", "monge.json"), ("dpp", "dpp.json"),
                                           ("subopt", "subopt.json"),
                                           ("modulus", "modulus.json")])
def test_cli_verify_accepts_the_solver_output(tmp_path, mode, artifact):
    g, ufile = solve_path3(tmp_path)
    assert entry(["verify", g, ufile, "--mode", mode,
                  "--out-dir", str(tmp_path / "rep")]) == 0
    report = json.loads((tmp_path / "rep" / artifact).read_text())
    assert report["ok"] is True
    if mode == "monge":
        assert (tmp_path / "rep" / "monge.csv").read_text().startswith("point,down,f,residual\n")


def test_cli_verify_flags_a_perturbed_interior_value(tmp_path, capsys):
    """Dropping the interior vertex below its true value plants a spurious
    local minimum: the walk check and the descent check both see it."""
    g, ufile = solve_path3(tmp_path)
    doc = json.loads(Path(ufile).read_text())
    doc["vertices"]["m"] = 0.6
    bad = put(tmp_path, "bad_u.json", json.dumps(doc))
    assert entry(["verify", g, bad, "--mode", "dpp",
                  "--out-dir", str(tmp_path / "rd")]) == 3
    assert "dynamic-programming check failed" in capsys.readouterr().out
    assert entry(["verify", g, bad, "--mode", "monge",
                  "--out-dir", str(tmp_path / "rm")]) == 3
    assert "steepest-descent check failed" in capsys.readouterr().out


def test_cli_verify_monge_flags_a_raised_vertex(tmp_path, capsys):
    """A vertex raised above its least incident branch keeps a descending
    germ at slope f, so only the jump test at the vertex can catch it."""
    from test_golden_bytes import GRAPH
    g = put(tmp_path, "g.json", json.dumps(GRAPH))
    assert entry(["solve", g, "--out-dir", str(tmp_path / "sol")]) == 2
    doc = json.loads((tmp_path / "sol" / "u.json").read_text())
    doc["vertices"]["d"] += 0.5
    bad = put(tmp_path, "raised.json", json.dumps(doc))
    capsys.readouterr()
    assert entry(["verify", g, bad, "--mode", "monge",
                  "--out-dir", str(tmp_path / "rm")]) == 3
    out = capsys.readouterr().out
    assert "worst violation 0.5 at {'vertex': 'd'}" in out
    assert "sits 0.5 above its least incident branch" in out
    report = json.loads((tmp_path / "rm" / "monge.json").read_text())
    assert report["sample_set"] == "seeded" and not report["subsolution_ok"]


def test_cli_verify_flags_a_perturbed_boundary_value(tmp_path, capsys):
    g, ufile = solve_path3(tmp_path)
    doc = json.loads(Path(ufile).read_text())
    doc["vertices"]["L"] = 0.5   # table no longer meets its own boundary data
    bad = put(tmp_path, "bad_u.json", json.dumps(doc))
    assert entry(["verify", g, bad, "--mode", "modulus",
                  "--out-dir", str(tmp_path / "rb")]) == 3
    assert "boundary modulus failed" in capsys.readouterr().out


def test_cli_verify_modulus_honours_tol(tmp_path, capsys):
    """The boundary defect of 0.5, which fails at the default tolerance
    (the test above), passes under --tol 1."""
    g, ufile = solve_path3(tmp_path)
    doc = json.loads(Path(ufile).read_text())
    doc["vertices"]["L"] = 0.5
    bad = put(tmp_path, "bad_u.json", json.dumps(doc))
    assert entry(["verify", g, bad, "--mode", "modulus", "--tol", "1",
                  "--out-dir", str(tmp_path / "rb")]) == 0
    assert "boundary modulus ok" in capsys.readouterr().out


@pytest.mark.parametrize("table", ["boundary", "vertices"])
@pytest.mark.parametrize("value", [True, False, "0.5", None])
def test_cli_verify_refuses_a_solution_entry_that_is_not_a_number(tmp_path, capsys, table, value):
    """A JSON true, string or null in either table of u.json is refused
    with exit 1 and a file:line anchor at that table's entry, never read as
    a number (true once loaded as 1.0 and passed the modulus check)."""
    g, ufile = solve_path3(tmp_path)
    doc = json.loads(Path(ufile).read_text())
    doc[table]["L"] = value
    bad = put(tmp_path, "bad_u.json", json.dumps(doc, indent=2))
    capsys.readouterr()
    assert entry(["verify", g, bad, "--mode", "modulus",
                  "--out-dir", str(tmp_path / "rn")]) == 1
    text = Path(bad).read_text()
    line = text[:text.index('"L"', text.index('"%s"' % table))].count("\n") + 1
    err = capsys.readouterr().err
    words = {"boundary": "boundary table: value at 'L' is %r but the graph's" % (value,),
             "vertices": "vertex table: value at 'L' must be a finite number (got %r)" % (value,)}
    assert "bad_u.json:%d: %s" % (line, words[table]) in err
    assert not (tmp_path / "rn" / "modulus.json").exists()


#: an integer literal past Python's 4300-digit int-string conversion limit
HUGE_INT = "1" + "0" * 5000


@pytest.mark.parametrize("where", ["g", "length", "u.json", "curves-file"])
def test_cli_refuses_an_integer_past_the_digit_limit(tmp_path, capsys, where):
    """Every document the CLI reads goes through one decoder, which refuses
    the literal with exit 1 naming the file, not a ValueError traceback."""
    g, ufile = solve_path3(tmp_path)
    graph_doc = json.loads(PATH3_DOC)
    if where == "g":
        graph_doc["vertices"][0]["g"] = "HUGE"
        doc, argv = graph_doc, ["solve"]
    elif where == "length":
        graph_doc["edges"][0]["length"] = "HUGE"
        doc, argv = graph_doc, ["solve"]
    elif where == "u.json":
        doc = json.loads(Path(ufile).read_text())
        doc["vertices"]["m"] = "HUGE"
        argv = ["verify", g, "--mode", "modulus"]
    else:
        doc = [{"points": [{"edge": "b", "s": "HUGE"}]}]
        argv = ["verify", g, ufile, "--mode", "subopt", "--curves-file"]
    bad = put(tmp_path, "bad.json", json.dumps(doc, indent=2).replace('"HUGE"', HUGE_INT))
    capsys.readouterr()
    out = tmp_path / "out"
    assert entry(argv + [bad, "--out-dir", str(out)]) == 1
    assert "error: %s: unreadable number: " % bad in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("s", [None, "0.2", True, pytest.param(10 ** 400, id="int-1e400")])
def test_cli_verify_subopt_refuses_a_curve_offset_that_is_not_a_number(tmp_path, capsys, s):
    """null once crashed with a TypeError traceback, and "0.2" and true were
    read as offsets; a float-overflowing integer is refused too."""
    g, ufile = solve_path3(tmp_path)
    curves = put(tmp_path, "curves.json", json.dumps(
        [{"points": [{"edge": "b", "s": s}, {"vertex": "m"}]}]))
    capsys.readouterr()
    assert entry(["verify", g, ufile, "--mode", "subopt", "--curves-file", curves,
                  "--out-dir", str(tmp_path / "rs")]) == 1
    shown = "(an int of 401 digits)" if s == 10 ** 400 else repr(s)
    assert "error: edge 'b': offset %s is not a number" % shown in capsys.readouterr().err
    assert not (tmp_path / "rs" / "subopt.json").exists()


@pytest.mark.parametrize("tau", ["0", "-1", "inf", "nan", "-1e-3", "-inf"])
def test_cli_verify_dpp_refuses_a_degenerate_radius(tmp_path, capsys, tau):
    g, ufile = solve_path3(tmp_path)
    assert entry(["verify", g, ufile, "--mode", "dpp", "--tau", tau,
                  "--out-dir", str(tmp_path / "rd")]) == 1
    assert "walk radius tau must be a positive finite number" in capsys.readouterr().err
    assert not (tmp_path / "rd" / "dpp.json").exists()


def test_cli_verify_dpp_walks_whole_edges_at_a_long_radius(tmp_path):
    """``--tau 100`` walks every sample to the ends of its edge, whose
    lengths are not round numbers, and the report is written."""
    doc = json.loads(PATH3_DOC)
    for edge, length in zip(doc["edges"], (1.5545611430984472, 0.7310585786300049)):
        edge["length"] = length
    g = put(tmp_path, "g.json", json.dumps(doc))
    assert entry(["solve", g, "--out-dir", str(tmp_path / "sol")]) == 0
    assert entry(["verify", g, str(tmp_path / "sol" / "u.json"), "--mode", "dpp", "--tau", "100",
                  "--out-dir", str(tmp_path / "rd")]) == 0
    report = json.loads((tmp_path / "rd" / "dpp.json").read_text())
    assert report["ok"] and {s["tau"] for s in report["samples"]} == {100.0}


@pytest.mark.parametrize("command,tol", [("solve", "-1"), ("solve", "nan"), ("solve", "inf"),
                                         ("monge", "nan"), ("modulus", "-1"),
                                         ("dpp", "inf"), ("subopt", "-1e-9"),
                                         ("solve", "-1e-9"), ("monge", "-inf")])
def test_cli_refuses_a_degenerate_tolerance(tmp_path, capsys, command, tol):
    """Both spellings, "--tol=X" and "--tol X": a negative number in exponent
    form is a value, not an option.  The library's refusal is printed."""
    g, ufile = solve_path3(tmp_path)
    capsys.readouterr()
    argv = (["solve", g] if command == "solve"
            else ["verify", g, ufile, "--mode", command])
    for flag in (["--tol=" + tol], ["--tol", tol]):
        assert entry(argv + flag + ["--out-dir", str(tmp_path / "rt")]) == 1
        assert ("error: tolerance must be a nonnegative finite number (got %r)" % float(tol)
                in capsys.readouterr().err)
        assert not (tmp_path / "rt").exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_cli_solve_refuses_a_degenerate_tolerance_before_it_solves(tmp_path, capsys, monkeypatch, tol):
    def solve(*args, **kwargs):
        raise AssertionError("solved before the tolerance was checked")

    g = put(tmp_path, "g.json", PATH3_DOC)
    monkeypatch.setattr("eikograph.cli.solve", solve)
    assert entry(["solve", g, "--tol", tol, "--out-dir", str(tmp_path / "rt")]) == 1
    assert capsys.readouterr().err == ("error: tolerance must be a nonnegative finite number "
                                       "(got %r)\n" % float(tol))
    assert not (tmp_path / "rt").exists()


def test_cli_verify_rejects_solution_from_different_input(tmp_path, capsys):
    g, ufile = solve_path3(tmp_path)
    doc = json.loads(PATH3_DOC)
    doc["vertices"][2]["g"] = 0.25
    g2 = put(tmp_path, "g2.json", json.dumps(doc))
    assert entry(["verify", g2, ufile, "--mode", "dpp",
                  "--out-dir", str(tmp_path)]) == 1
    assert "belongs to different input" in capsys.readouterr().err


def test_cli_verify_subopt_with_explicit_curves(tmp_path, capsys):
    g, ufile = solve_path3(tmp_path)
    good = put(tmp_path, "curves.json", json.dumps(
        [{"points": [{"edge": "b", "s": 0.25}, {"vertex": "m"}, {"edge": "b2", "s": 0.5}]}]))
    assert entry(["verify", g, ufile, "--mode", "subopt", "--curves-file", good,
                  "--out-dir", str(tmp_path / "rs")]) == 0
    assert json.loads((tmp_path / "rs" / "subopt.json").read_text())["n_curves"] == 1

    touching = put(tmp_path, "curves2.json", json.dumps(
        [{"points": [{"vertex": "L"}, {"edge": "b", "s": 0.5}]}]))
    assert entry(["verify", g, ufile, "--mode", "subopt", "--curves-file", touching,
                  "--out-dir", str(tmp_path)]) == 1
    assert "touches boundary" in capsys.readouterr().err


@pytest.mark.parametrize("curve", [{"points": 5}, {"points": [{"vertex": "m"}]},
                                   {"points": [{"vertex": "m"}, {"edge": "b", "s": 0.5}],
                                    "edges": 5},
                                   {"points": [{"vertex": "m"}, {"edge": "b", "s": 0.5}],
                                    "edges": [7]}])
def test_cli_verify_subopt_refuses_curve_fields_of_the_wrong_type(tmp_path, capsys, curve):
    """A non-array 'points' or 'edges' once died with a TypeError traceback,
    and a one-point curve with an IndexError."""
    g, ufile = solve_path3(tmp_path)
    curves = put(tmp_path, "curves.json", json.dumps([curve]))
    capsys.readouterr()
    assert entry(["verify", g, ufile, "--mode", "subopt", "--curves-file", curves,
                  "--out-dir", str(tmp_path / "rs")]) == 1
    assert "error: %s: " % curves in capsys.readouterr().err
    assert not (tmp_path / "rs" / "subopt.json").exists()


NUMBERISH_DOC = """{
  "vertices": [
    {"id": "L", "boundary": true, "g": 0.0},
    {"id": "1"},
    {"id": "R", "boundary": true, "g": 0.0}
  ],
  "edges": [
    {"id": "True", "from": "L", "to": "1", "length": 1.0},
    {"id": "b2", "from": "1", "to": "R", "length": 1.0}
  ]
}
"""


@pytest.mark.parametrize("point,named,other", [
    ({"vertex": 1}, {"vertex": "1"}, {"edge": "b2", "s": 0.5}),
    ({"edge": True, "s": 0.5}, {"edge": "True", "s": 0.5}, {"vertex": "1"})])
def test_cli_verify_subopt_reads_only_strings_as_point_ids(tmp_path, capsys, point, named, other):
    """1 and true once named vertex "1" and edge "True" through str()."""
    g = put(tmp_path, "g.json", NUMBERISH_DOC)
    assert entry(["solve", g, "--out-dir", str(tmp_path / "sol")]) == 0
    ufile = str(tmp_path / "sol" / "u.json")
    good = put(tmp_path, "good.json", json.dumps([{"points": [named, other]}]))
    assert entry(["verify", g, ufile, "--mode", "subopt", "--curves-file", good,
                  "--out-dir", str(tmp_path / "ok")]) == 0
    bad = put(tmp_path, "bad.json", json.dumps([{"points": [point, other]}]))
    capsys.readouterr()
    assert entry(["verify", g, ufile, "--mode", "subopt", "--curves-file", bad,
                  "--out-dir", str(tmp_path / "rs")]) == 1
    assert "bad point" in capsys.readouterr().err
    assert not (tmp_path / "rs" / "subopt.json").exists()


@pytest.mark.parametrize("count,refusal", [
    ("0", "error: curve count n_random must be an int >= 1 (got 0)"),
    ("-3", "error: curve count n_random must be an int >= 1 (got -3)"),
    ("2.5", "argument --curves: invalid int value: '2.5'")], ids=["0", "-3", "2.5"])
def test_cli_verify_subopt_refuses_a_curve_count_below_one(tmp_path, capsys, count, refusal):
    """Zero curves once printed "sub-optimality ok (0 curves, 0 pairs)".
    The library's refusal of a count below one is printed; text that is not
    an int is a usage error, which exits through argparse."""
    g, ufile = solve_path3(tmp_path)
    capsys.readouterr()
    try:
        code = entry(["verify", g, ufile, "--mode", "subopt", "--curves", count,
                      "--out-dir", str(tmp_path / "rc")])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert refusal in capsys.readouterr().err
    assert not (tmp_path / "rc").exists()


def test_cli_reduce_quadratic_reproduces_the_solve(tmp_path):
    g = put(tmp_path, "g.json", TENT_DOC)
    assert entry(["reduce", g, "--hamiltonian", "quadratic",
                  "--out-dir", str(tmp_path)]) == 0
    h = json.loads((tmp_path / "h.json").read_text())
    assert h["kind"] == "reduced-cost-field"
    assert all(abs(v - 1.0) <= 1e-9 for v in h["edges"]["e"]["values"])
    u = json.loads((tmp_path / "u.json").read_text())
    assert u["vertices"] == {"L": 0.0, "R": 0.0}
    assert abs(u["edges"]["e"]["kink"] - 1.0) <= 1e-9


@pytest.mark.parametrize("name", ["eikonal-affine", "quadratic"])
def test_cli_reduce_round_trips_f_and_the_solve_on_random_graphs(tmp_path, name):
    """Both Hamiltonians have h = f.  With f linear on each edge and equal
    at every end meeting a vertex, h.json holds f at each knot within the
    root step's BISECT_TOL / 2, and u.json's vertex table is the plain
    solve's within 1e-9."""
    rng = random.Random(29)
    for k in range(8):
        spec = random_graph_spec(rng, max_vertices=8, max_extra_edges=6)
        phi = {v: rng.uniform(0.1, 5.0) for v in spec["vertices"]}
        for e in spec["edges"]:
            e["a"], e["b"] = phi[e["src"]], (phi[e["dst"]] - phi[e["src"]]) / e["length"]
        graph, field, data = build_instance(spec)
        g = put(tmp_path, "g%d.json" % k, json.dumps(graph_to_dict(graph, field, data)))
        out = tmp_path / ("out%d" % k)
        assert entry(["reduce", g, "--hamiltonian", name, "--out-dir", str(out)]) == 0
        h = json.loads((out / "h.json").read_text())["edges"]
        assert sorted(h) == sorted(e["id"] for e in spec["edges"])
        for e in spec["edges"]:
            knots, values = h[e["id"]]["knots"], h[e["id"]]["values"]
            assert len(knots) == 65 and knots[0] == 0.0 and knots[-1] == e["length"]
            for s, v in zip(knots, values):
                assert abs(v - (e["a"] + e["b"] * s)) <= BISECT_TOL / 2
        want = solve(field, data).vertex_values
        got = json.loads((out / "u.json").read_text())["vertices"]
        assert got.keys() == want.keys()
        assert all(abs(got[v] - want[v]) <= 1e-9 for v in want)


def test_cli_reduce_discounted_matches_the_closed_form(tmp_path):
    """|u'| = 1 - u with u = 0 at both ends of a path of length 4: u = 1 - e^{-2}
    at its middle vertex.  A fixed-point iteration once exited 4 here."""
    doc = json.loads(PATH3_DOC)
    for e in doc["edges"]:
        e["length"] = 2.0
    g = put(tmp_path, "g.json", json.dumps(doc))
    assert entry(["reduce", g, "--hamiltonian", "discounted",
                  "--out-dir", str(tmp_path)]) == 0
    u = json.loads((tmp_path / "u.json").read_text())
    assert u["vertices"]["L"] == u["vertices"]["R"] == 0.0
    assert abs(u["vertices"]["m"] - (1.0 - math.exp(-2.0))) <= 1e-3
    assert json.loads((tmp_path / "h.json").read_text())["hamiltonian"] == "discounted"


def test_cli_reduce_discounted_on_a_coarse_grid(tmp_path):
    """One edge of length 3 at --quad-knots 3: the Heun predictor overshoots
    u = 1 at the middle knot, and the run once exited 4 there."""
    doc = json.loads(TENT_DOC)
    doc["edges"][0]["length"] = 3.0
    g = put(tmp_path, "g.json", json.dumps(doc))
    assert entry(["reduce", g, "--hamiltonian", "discounted", "--quad-knots", "3",
                  "--out-dir", str(tmp_path)]) == 0
    graph, field, data = load_graph(Path(g).read_text())
    u = load_value_function((tmp_path / "u.json").read_text(), field, data)
    assert abs(u.evaluate(graph.point("e", 1.5)) + math.expm1(-1.5)) <= 0.5 * 1.5 ** 2


@pytest.mark.parametrize("name", ["nonmono-a", "nonmono-b"])
def test_cli_reduce_rejects_nonmonotone_hamiltonians(tmp_path, name, capsys):
    g = put(tmp_path, "g.json", TENT_DOC)
    assert entry(["reduce", g, "--hamiltonian", name,
                  "--out-dir", str(tmp_path)]) == 4
    assert "hamiltonian rejected" in capsys.readouterr().err


def test_cli_viscous_emits_csv_and_overlay(tmp_path):
    assert entry(["viscous", "--eps", "0.1,0.01", "--grid-n", "257",
                  "--out-dir", str(tmp_path)]) == 0
    for name in ("viscous-0.1.csv", "viscous-0.01.csv"):
        assert (tmp_path / name).read_text().startswith("x,u\n")
    svg = (tmp_path / "viscous.svg").read_text()
    assert svg.count("<polyline") == 3  # two viscous profiles plus the limit
    assert entry(["viscous", "--eps", "zero", "--out-dir", str(tmp_path)]) == 1


def test_cli_ekeland_prints_the_selected_label(tmp_path, capsys):
    d = put(tmp_path, "d.csv", "0,1\n1,0\n")
    f = put(tmp_path, "f.csv", "0\n5\n")
    assert entry(["ekeland", d, f, "--eps", "1.0",
                  "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "0"
    rec = json.loads((tmp_path / "ekeland.json").read_text())
    assert rec["point"] == 0 and rec["path"] == [0]

    assert entry(["ekeland", d, f, "--maximize", "--out-dir", str(tmp_path)]) == 1
    assert "--delta" in capsys.readouterr().err

    for flags in (["--eps", "inf"], ["--maximize", "--delta", "inf", "--lam", "1"],
                  ["--maximize", "--delta", "1", "--lam", "inf"]):
        assert entry(["ekeland", d, f, *flags, "--out-dir", str(tmp_path / "inf")]) == 1
        assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "inf").exists()

    # delta and lam finite, their ratio not: refused naming both
    for delta, lam in (("1e308", "1e-308"), ("1e-308", "1e308")):
        assert entry(["ekeland", d, f, "--maximize", "--delta", delta, "--lam", lam,
                      "--start", "1", "--out-dir", str(tmp_path / "ratio")]) == 1
        assert "delta / lam must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "ratio").exists()


def test_cli_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        entry(["solve", "g.json", "--bogus"])
    assert exc.value.code == 1
    for argv in (["reduce", "g.json", "--hamiltonian", "discounted", "--lam", "1"],
                 ["verify", "g.json", "u.json", "--mode", "monge", "--slope-radii", "13"]):
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        entry(["frobnicate"])
    assert exc.value.code == 1


# ----------------------------------------------------------------------
# what a call pays for: counts that a change cannot bring back unseen
# ----------------------------------------------------------------------

def _count_constructions(monkeypatch, cls):
    built = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self))
        return init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_cli_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    g = put(tmp_path, "g.json", TENT_DOC)
    out = str(tmp_path / "out")
    assert entry(["solve", g, "--out-dir", out]) == 0
    built = _count_constructions(monkeypatch, argparse.ArgumentParser)
    for _ in range(3):
        assert entry(["solve", g, "--out-dir", out]) == 0
        assert entry(["verify", g, str(tmp_path / "out" / "u.json"), "--mode", "dpp",
                      "--out-dir", out]) == 0
    with pytest.raises(SystemExit):
        entry(["solve", g, "--tol", "x"])
    assert built == []


def test_load_graph_builds_one_edge_record_per_edge(monkeypatch):
    doc = json.loads(PATH3_DOC)
    built = _count_constructions(monkeypatch, EdgeRec)
    graph, _, _ = load_graph(json.dumps(doc))
    assert len(built) == len(graph.edges) == len(doc["edges"])
