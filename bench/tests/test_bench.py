"""Tests of the benchmark itself: oracle accounting, tracing, smoke runs."""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import eikograph.cli as cli  # noqa: E402
import eikograph.cost as cost  # noqa: E402
import eikograph.graph as graph_mod  # noqa: E402
import eikograph.optical as optical  # noqa: E402
import eikograph.solver as solver  # noqa: E402
import oracle as O  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = sorted(W.GENERATORS)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py")] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def solved(tmp_path, workload="verify-mid", index=0):
    """A smoke graph, its oracle and the package's own u.json for it."""
    spec = W.make_specs(workload, 3, smoke=True)[index]
    inst = R.Instance(index, spec, str(tmp_path), [])
    inst.write()
    with R.quiet():
        rc = cli.entry(inst.argv({"kind": "solve"}))
    return inst, rc


# ----------------------------------------------------------------------
# oracle accounting
# ----------------------------------------------------------------------

def test_oracle_accepts_the_solvers_own_output(tmp_path):
    inst, rc = solved(tmp_path)
    assert O.check_solve(inst.oracle, rc, inst.solution()) == ("ok", "")


def test_a_perturbed_vertex_fails_the_solve_check(tmp_path):
    inst, rc = solved(tmp_path)
    with open(inst.solution()) as fh:
        doc = json.load(fh)
    vid = W.pick_interior(inst.spec, 0)
    doc["vertices"][vid] += 1e-6
    with open(inst.solution(), "w") as fh:
        json.dump(doc, fh)
    outcome, reason = O.check_solve(inst.oracle, rc, inst.solution())
    assert outcome == "wrong" and vid in reason


def test_a_wrong_compatibility_verdict_fails_the_solve_check(tmp_path):
    inst, rc = solved(tmp_path)
    flipped = O.EXIT_INCOMPATIBLE if rc == O.EXIT_OK else O.EXIT_OK
    assert O.check_solve(inst.oracle, flipped, inst.solution())[0] == "wrong"


def test_exit_code_rules():
    doctored = {"check": "verify-doctored", "mode": "dpp"}
    assert O.check_op(doctored, None, 3, "")[0] == "ok"
    assert O.check_op(doctored, None, 0, "")[0] == "wrong"   # a defect let through
    assert O.check_op(doctored, None, 1, "")[0] == "failed"
    reject = {"check": "reduce-reject", "hamiltonian": "nonmono-a"}
    assert O.check_op(reject, None, 4, "")[0] == "ok"
    assert O.check_op(reject, None, 0, "")[0] == "wrong"


def test_declining_a_discounted_reduce_is_a_failed_op(tmp_path):
    spec = W.make_specs("reduce-catalog", 3, smoke=True)[0]
    oracle = O.GraphOracle(spec)
    op = {"check": "reduce-discounted"}
    assert O.check_op(op, oracle, 4, str(tmp_path / "missing.json"))[0] == "failed"
    exact = tmp_path / "u.json"
    exact.write_text(json.dumps({"vertices": oracle.discounted()}))
    assert O.check_op(op, oracle, 0, str(exact)) == ("ok", "")


def test_discounted_oracle_on_an_interval():
    # |u'| = 1 - u on [0, 3] with u = g at both ends: u = 1 - (1 - g) e^{-d}
    spec = {"vertices": ["a", "m", "b"], "boundary": ["a", "b"], "g": {"a": 0.0, "b": 0.5},
            "edges": [{"id": "e0", "from": "a", "to": "m", "length": 1.0},
                      {"id": "e1", "from": "m", "to": "b", "length": 2.0}]}
    u = O.GraphOracle(spec).discounted()
    assert u["m"] == pytest.approx(min(1 - math.exp(-1.0), 1 - 0.5 * math.exp(-2.0)))
    assert u["a"] == 0.0 and u["b"] == pytest.approx(0.5)


def test_planted_defects_stay_inside_each_verifiers_jurisdiction(tmp_path):
    for index in range(3):
        inst, rc = solved(tmp_path / str(index), index=index)
        inst.plant_defects(5)
        for name in ("u_low.json", "u_high.json"):
            with open(os.path.join(inst.dir, name)) as fh:
                bad = json.load(fh)["vertices"]
            changed = [v for v in bad if bad[v] != inst.oracle.u[v]
                       and abs(bad[v] - inst.oracle.u[v]) > 1e-6]
            assert len(changed) == 1
        high = W.pick_boundary(inst.spec, 5, inst.oracle.u)
        assert inst.oracle.u[high] == inst.spec["g"][high]


def test_tail_needs_ten_samples_beyond_it():
    assert R.tail(list(range(19))) is None
    q, v = R.tail([float(i) for i in range(1, 101)])
    assert q == 90 and v == 90.0
    q, v = R.tail([float(i) for i in range(1, 31)])
    assert q == 66 and sum(1 for x in range(1, 31) if x > v) >= 10


def test_generators_are_seeded():
    for w in WORKLOADS:
        a = W.make_specs(w, 11, smoke=True)
        assert a == W.make_specs(w, 11, smoke=True)
        assert a != W.make_specs(w, 12, smoke=True)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_them():
    originals = (solver.optical_length, optical.OpticalMap.evaluate,
                 optical.OpticalMap.__call__, cli.verify_dpp)
    tr = Tracer()
    tr.install()
    try:
        assert solver.optical_length is not originals[0]
        assert optical.optical_length is solver.optical_length
        assert optical.OpticalMap.evaluate is optical.OpticalMap.__call__
        assert cli.verify_dpp is solver.verify_dpp
        assert tr.unpatched() == []
    finally:
        tr.uninstall()
    assert (solver.optical_length, optical.OpticalMap.evaluate,
            optical.OpticalMap.__call__, cli.verify_dpp) == originals


def test_self_time_excludes_children():
    graph = graph_mod.MetricGraph([("a", True), ("b", True)], [("e", "a", "b", 2.0)])
    field = cost.CostField.constant(graph, 1.0)
    tr = Tracer()
    tr.install()
    try:
        field.edge_cost("e", 0.0, 1.0)
    finally:
        tr.uninstall()
    assert tr.count("cost.edge_cost") == 1 and tr.count("cost.integral") == 1
    spans = dict(zip(("id", "name", "start", "end", "parent"),
                     (list(tr._cols[k]) for k in ("id", "name", "start", "end", "parent"))))
    outer = spans["name"].index(tr.names.index("cost.edge_cost"))
    inner = spans["name"].index(tr.names.index("cost.integral"))
    assert spans["parent"][inner] == spans["id"][outer]
    total = spans["end"][outer] - spans["start"][outer]
    child = spans["end"][inner] - spans["start"][inner]
    assert tr.self_time("cost.edge_cost") == pytest.approx(total - child)


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = result(bench("--workload", workload, "--smoke"))
    declared = [m["name"] for m in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]]
    assert sorted(out["metrics"]) == sorted(declared)
    assert out["correct"] is True and out["attempted"] >= 1
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_smoke_covers_every_op_kind():
    checks = set()
    for w in WORKLOADS:
        p = W.workload_params(w, smoke=True)
        for i, _ in enumerate(W.make_specs(w, 1, smoke=True)):
            checks.update(op["check"] for op in W.graph_ops(w, i, p))
    assert checks == {"solve", "verify-ok", "verify-doctored", "reduce-quadratic",
                      "reduce-eikonal-affine", "reduce-discounted", "reduce-reject"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_counts_repeat_at_a_seed(workload):
    a = result(bench("--workload", workload, "--smoke", "--trace", "1", "--seed", "4"))
    b = result(bench("--workload", workload, "--smoke", "--trace", "1", "--seed", "4"))
    calls = [k for k in a["metrics"] if k.endswith(".calls") or k.startswith("io.bytes")]
    assert calls and all(a["metrics"][k] == b["metrics"][k] for k in calls)
    assert a["metrics"]["cli.entry.calls"]["value"] == a["attempted"]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = bench("--workload", "verify-mid", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
