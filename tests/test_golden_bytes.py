"""Byte-level pins of everything the command line writes and prints.

Each run below executes ``eikograph.cli.entry`` in a scratch directory and
compares, against ``tests/golden/<run>/``, every file it writes, its stdout
(``stdout.txt``) and its exit code (``exit.txt``).  The library-only reports
are pinned the same way under ``tests/golden/library/``.

To regenerate after a deliberate format change:

    EIKOGRAPH_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_bytes.py
"""
import json
import os
import pathlib

import pytest

from eikograph import (check_subsolution_monotone, dump_json,
                       semiconcave_slope_check, uniform_grid,
                       viscous_solution)
from eikograph.cli import entry
from eikograph.one_dim import Profile1D

GOLDEN = pathlib.Path(__file__).parent / "golden"
REGEN = os.environ.get("EIKOGRAPH_REGEN_GOLDEN") == "1"

# Six vertices, three of them on the boundary; g(b) = 6 exceeds
# g(a) + L_f(a, b), so compat.json names a witness pair.  Every profile kind
# appears, and a parallel edge runs between c and d.
GRAPH = {
    "vertices": [
        {"id": "a", "boundary": True, "g": 0.0},
        {"id": "b", "boundary": True, "g": 6.0},
        {"id": "c"},
        {"id": "d"},
        {"id": "e"},
        {"id": "h", "boundary": True, "g": 1.0},
    ],
    "edges": [
        {"id": "e1", "from": "a", "to": "c", "length": 1.0,
         "f": {"kind": "const", "params": {"value": 1.0}}},
        {"id": "e2", "from": "c", "to": "d", "length": 1.5,
         "f": {"kind": "linear", "params": {"a": 1.0, "b": 0.5}}},
        {"id": "e3", "from": "d", "to": "b", "length": 1.0,
         "f": {"kind": "samples",
               "params": {"knots": [0.0, 0.5, 1.0], "values": [1.0, 2.0, 1.0]}}},
        {"id": "e4", "from": "c", "to": "e", "length": 1.0,
         "f": {"kind": "const", "params": {"value": 2.0}}},
        {"id": "e5", "from": "e", "to": "d", "length": 2.0,
         "f": {"kind": "linear", "params": {"a": 0.5, "b": 0.25}}},
        {"id": "e6", "from": "e", "to": "h", "length": 1.0},
        {"id": "e7", "from": "d", "to": "c", "length": 2.5,
         "f": {"kind": "const", "params": {"value": 0.75}}},
    ],
}

DISTANCES = "0,1,2,3\n1,0,1,2\n2,1,0,1\n3,2,1,0\n"
VALUES = "4\n2.5\n3\n0.5\n"

MODES = ("monge", "dpp", "subopt", "modulus")

RUNS = (
    [("solve", ["solve", "graph.json", "--out-dir", "solve"])]
    + [("verify-%s" % m, ["verify", "graph.json", "solve/u.json", "--mode", m,
                          "--out-dir", "verify-%s" % m]) for m in MODES]
    + [("verify-%s-lowered" % m, ["verify", "graph.json", "lowered.json", "--mode", m,
                                  "--out-dir", "verify-%s-lowered" % m]) for m in MODES]
    + [("ekeland", ["ekeland", "d.csv", "f.csv", "--eps", "0.5", "--start", "0",
                    "--out-dir", "ekeland"]),
       ("ekeland-maximize", ["ekeland", "d.csv", "f.csv", "--maximize", "--delta", "1.5",
                             "--lam", "3", "--start", "2", "--out-dir", "ekeland-maximize"])]
)


def _check(name: str, actual: bytes):
    path = GOLDEN / name
    if REGEN:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(actual)
    assert path.read_bytes() == actual, name


def _run_all(workdir: pathlib.Path, capsys):
    (workdir / "graph.json").write_text(json.dumps(GRAPH, indent=2))
    (workdir / "d.csv").write_text(DISTANCES)
    (workdir / "f.csv").write_text(VALUES)
    results = {}
    for name, argv in RUNS:
        if name == "verify-monge-lowered":
            doc = json.loads((workdir / "solve" / "u.json").read_text())
            doc["vertices"]["d"] -= 0.5
            (workdir / "lowered.json").write_text(json.dumps(doc, indent=2))
        code = entry(argv)
        results[name] = (code, capsys.readouterr().out)
    return results


def _check_runs(workdir: pathlib.Path, results):
    for name, _argv in RUNS:
        code, out = results[name]
        _check("%s/exit.txt" % name, b"%d\n" % code)
        _check("%s/stdout.txt" % name, out.encode())
        written = sorted(p.name for p in (workdir / name).iterdir())
        pinned = sorted(p.name for p in (GOLDEN / name).iterdir()
                        if p.name not in ("exit.txt", "stdout.txt"))
        if not REGEN:
            assert written == pinned, name
        for fname in written:
            _check("%s/%s" % (name, fname), (workdir / name / fname).read_bytes())


def test_cli_artifacts_stdout_and_exit_codes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    results = _run_all(tmp_path, capsys)
    assert results["solve"][0] == 2  # the witness case
    _check_runs(tmp_path, results)


@pytest.mark.skipif(REGEN, reason="golden files are being regenerated")
def test_a_parser_reused_after_a_usage_error_and_help_gives_the_pinned_runs(
        tmp_path, monkeypatch, capsys):
    """The parser is built once per process: a refused option and a help
    page on it first leave every later run as pinned."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        entry(["solve", "graph.json", "--tol", "x"])
    assert exc.value.code == 1
    assert "--tol: invalid float value: 'x'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        entry(["verify", "--help"])
    assert exc.value.code == 0
    assert "--mode" in capsys.readouterr().out
    _check_runs(tmp_path, _run_all(tmp_path, capsys))


def test_library_only_reports_are_pinned():
    xs = [-1.0, -0.6, -0.1, 0.3, 1.0]
    ys = [1.0 - abs(x) + 0.2 * x for x in xs]
    semi = semiconcave_slope_check(xs, ys, K=0.5)
    _check("library/semiconcave.json", dump_json(semi).encode())

    grid = uniform_grid(33)
    u = viscous_solution(0.1, grid)
    f = Profile1D(grid, [0.5 + 0.1 * x for x in grid])
    mono = check_subsolution_monotone(u, f)
    assert not mono.ok  # at_x then names where the rise is worst
    _check("library/monotone.json", dump_json(mono).encode())


@pytest.mark.skipif(REGEN, reason="golden files are being regenerated")
def test_golden_directory_has_no_strays():
    expected = {name for name, _argv in RUNS} | {"library"}
    assert {p.name for p in GOLDEN.iterdir()} == expected
