"""Graph/solution file formats and the command-line front end."""
import json
import math
from pathlib import Path

import pytest

from eikograph import (Constant, GraphFormatError, InputError, Linear, Samples,
                       Vertex, dump_json, dump_value_function, edge_csv,
                       graph_to_dict, load_graph, load_value_function,
                       point_from_obj, point_to_obj, solve)
from eikograph.cli import entry

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
    with pytest.raises(GraphFormatError, match="'length' must be a number"):
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
    with pytest.raises(GraphFormatError, match=r"g\.json:\d+: edge 'e': 'length' must be a number"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")

    doc = json.loads(TENT_DOC)
    doc["vertices"][0]["g"] = True
    with pytest.raises(GraphFormatError, match=r"g\.json:\d+: vertex 'L': 'g' must be a number"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")

    doc = json.loads(TENT_DOC)
    doc["edges"][0]["f"] = {"kind": "samples",
                            "params": {"knots": [0.0, True, 2.0], "values": [1.0, 1.0, 1.0]}}
    with pytest.raises(GraphFormatError, match=r"g\.json:\d+: edge 'e': bad f params"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")

    doc = json.loads(TENT_DOC)
    doc["edges"][0]["f"]["params"]["value"] = "1.0"
    with pytest.raises(GraphFormatError, match=r"g\.json:\d+: edge 'e': bad f params"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")

    # a finite length and a finite f whose product overflows
    doc = json.loads(TENT_DOC)
    doc["edges"][0]["length"] = 1e300
    doc["edges"][0]["f"]["params"]["value"] = 1e10
    with pytest.raises(GraphFormatError, match=r"g\.json:\d+: edge 'e': cost overflows"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")

    # sup f · length is finite, but the linear integral squares the length
    doc = json.loads(TENT_DOC)
    doc["edges"][0]["length"] = 1e200
    doc["edges"][0]["f"] = {"kind": "linear", "params": {"a": 1.0, "b": 0.0}}
    with pytest.raises(GraphFormatError,
                       match=r"g\.json:\d+: edge 'e': linear profile over length 1e\+200 overflows"):
        load_graph(json.dumps(doc, indent=2), filename="g.json")


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


def test_points_round_trip_through_their_json_form(interval):
    graph, _, _ = interval
    for p in (Vertex("L"), graph.point("e", 0.75)):
        obj = point_to_obj(p)
        assert point_from_obj(json.loads(dump_json(obj)), graph) == p
        assert dump_json([p]) == dump_json([obj])
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
    stored = load_value_function(text, graph, field)
    for vid in graph.vertices:
        assert stored.evaluate(graph.vertex_point(vid)) == u.evaluate(graph.vertex_point(vid))
    for s in (0.25, 0.5, 0.875):
        p = graph.point("b", s)
        assert stored.evaluate(p) == pytest.approx(u.evaluate(p), abs=1e-15)
    doc = json.loads(text)
    assert doc["kind"] == "value-function"
    assert doc["edges"]["b"]["kink"] is None  # peak sits at the vertex m
    assert doc["vertices"]["m"] == 1.0


def test_value_function_document_structural_checks():
    graph, field, data = load_graph(TENT_DOC)
    text = dump_value_function(solve(field, data))
    other_graph, other_field, _ = load_graph(PATH3_DOC)
    with pytest.raises(InputError):
        load_value_function(text, other_graph, other_field)
    with pytest.raises(GraphFormatError, match="not a value-function"):
        load_value_function('{"kind": "shopping-list"}', graph, field)
    with pytest.raises(GraphFormatError, match="malformed"):
        load_value_function('{"kind": "value-function", "boundary": 7}', graph, field)


def test_edge_csv_layout():
    graph, field, data = load_graph(TENT_DOC)
    u = solve(field, data)
    text = edge_csv(u, "e", n=5)
    lines = text.splitlines()
    assert lines[0] == "s,u"
    assert len(lines) == 6
    assert lines[1] == "0,0"
    assert lines[3] == "1,1"
    with pytest.raises(InputError, match="at least 2"):
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


@pytest.mark.parametrize("tau", ["0", "-1", "inf", "nan", "-1e-3", "-inf"])
def test_cli_verify_dpp_refuses_a_degenerate_radius(tmp_path, capsys, tau):
    g, ufile = solve_path3(tmp_path)
    assert entry(["verify", g, ufile, "--mode", "dpp", "--tau", tau,
                  "--out-dir", str(tmp_path / "rd")]) == 1
    assert "walk radius tau must be a positive finite number" in capsys.readouterr().err
    assert not (tmp_path / "rd" / "dpp.json").exists()


@pytest.mark.parametrize("command,tol", [("solve", "-1"), ("solve", "nan"), ("solve", "inf"),
                                         ("monge", "nan"), ("modulus", "-1"),
                                         ("dpp", "inf"), ("subopt", "-1e-9"),
                                         ("solve", "-1e-9"), ("monge", "-inf")])
def test_cli_refuses_a_degenerate_tolerance(tmp_path, capsys, command, tol):
    """Both spellings, "--tol=X" and "--tol X": a negative number in exponent
    form is a value, not an option."""
    g, ufile = solve_path3(tmp_path)
    capsys.readouterr()
    argv = (["solve", g] if command == "solve"
            else ["verify", g, ufile, "--mode", command])
    for flag in (["--tol=" + tol], ["--tol", tol]):
        with pytest.raises(SystemExit) as exc:
            entry(argv + flag + ["--out-dir", str(tmp_path / "rt")])
        assert exc.value.code == 1
        assert "argument --tol: must be a nonnegative finite number" in capsys.readouterr().err
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


def test_cli_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        entry(["solve", "g.json", "--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        entry(["frobnicate"])
    assert exc.value.code == 1
