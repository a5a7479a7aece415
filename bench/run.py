"""Benchmark of the eikograph command line: solve, verify and reduce.

Run from the repository root:

    python3 bench/run.py --workload verify-mid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload sampled-large --seed 1 --trace 1
    python3 bench/run.py --workload reduce-catalog --smoke

Each workload runs in its own process.  The harness generates seeded graph
files under ``bench/_runs/``, imports ``eikograph`` from ``src/`` of the same
checkout, and drives ``eikograph.cli.entry([...])`` in-process as a closed
loop with one caller: the next command starts only when the previous one has
returned.  Every command's outcome is checked against ``oracle.py``, which
shares no code with the package, outside the timed window.

``--trace 0`` runs whole passes over the workload's ops for about
``--seconds`` and prints the end-to-end metrics.  A pass runs every op once,
and a position is one op's place in the pass, so a position recurs with
identical input in every pass.  Latencies are taken per position as its
fastest execution: the runs share a host whose speed drifts by tens of
percent over seconds, and the fastest of several executions spread across
the run is what repeats from run to run.  Then

* ``X_p50_s`` is the median over the correct positions of command X; the
  report also prints each command's tail, the highest percentile with at
  least ten positions beyond it, with its sample count, when there are
  enough positions for it to lie above the median;
* ``ok_per_s`` is correct positions over the summed fastest times of all
  positions;
* ``setup_s`` is the median of three set-ups (generate and write the inputs,
  import eikograph, one warm-up op), taken before the first pass, halfway
  and after the last;
* ``peak_rss_mb`` is the process's peak resident memory.

``--trace 1`` runs exactly one pass, each op first untraced and then traced
(see ``tracing.py``), and prints the per-layer metrics; its call counts are a
function of the seed alone.  ``--smoke`` swaps in tiny graphs and runs one
pass.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``correct`` is false
when any op gave an answer the oracle contradicts, while ops that decline
to answer count only in ``failed``.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter
from typing import Dict, List, Optional

import oracle as O
import workloads as W
from tracing import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(BENCH, "_runs")

COMMANDS = ("solve", "monge", "dpp", "subopt", "modulus", "reduce")
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def import_package():
    """(Re-)import eikograph from this checkout's src/ and return its CLI."""
    for name in [n for n in sys.modules if n == "eikograph" or n.startswith("eikograph.")]:
        del sys.modules[name]
    cli = importlib.import_module("eikograph.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError("eikograph was imported from %s, not %s" % (cli.__file__, SRC))
    return cli


class Instance:
    """One generated graph: its files, its oracle and its per-pass ops."""

    def __init__(self, index: int, spec: dict, workdir: str, ops: List[dict]):
        self.index = index
        self.spec = spec
        self.dir = os.path.join(workdir, "g%02d" % index)
        self.graph = os.path.join(self.dir, "graph.json")
        self.ops = ops
        self._oracle: Optional[O.GraphOracle] = None
        self.doctored = False

    @property
    def oracle(self) -> O.GraphOracle:
        if self._oracle is None:
            self._oracle = O.GraphOracle(self.spec)
        return self._oracle

    def write(self):
        os.makedirs(self.dir)
        with open(self.graph, "w") as fh:
            json.dump(W.graph_document(self.spec), fh)

    def solution(self) -> str:
        return os.path.join(self.dir, "solve", "u.json")

    def argv(self, op: dict) -> List[str]:
        if op["kind"] == "solve":
            return ["solve", self.graph, "--out-dir", os.path.join(self.dir, "solve")]
        if op["kind"] == "reduce":
            return ["reduce", self.graph, "--hamiltonian", op["hamiltonian"],
                    "--out-dir", self.reduce_dir(op)]
        u, out = self.solution(), os.path.join(self.dir, "verify")
        if op["check"] == "verify-doctored":
            name = "u_high.json" if op["mode"] == "modulus" else "u_low.json"
            u, out = os.path.join(self.dir, name), os.path.join(self.dir, "doctored")
        return ["verify", self.graph, u, "--mode", op["mode"], "--out-dir", out]

    def reduce_dir(self, op: dict) -> str:
        return os.path.join(self.dir, "reduce-" + op["hamiltonian"])

    def result_file(self, op: dict) -> str:
        if op["kind"] == "reduce":
            return os.path.join(self.reduce_dir(op), "u.json")
        return self.solution()

    def plant_defects(self, seed: int):
        """Doctored copies of the solver's own u.json: one interior vertex
        lowered (u_low.json) and one boundary vertex's table entry raised
        (u_high.json), each by a quarter of its cheapest incident edge."""
        with open(self.solution()) as fh:
            doc = json.load(fh)
        costs = self.oracle.edge_costs
        for name, vid, sign in (("u_low.json", W.pick_interior(self.spec, seed), -1.0),
                                ("u_high.json", W.pick_boundary(self.spec, seed, self.oracle.u), 1.0)):
            bad = copy.deepcopy(doc)
            bad["vertices"][vid] += sign * W.doctor_delta(self.spec, vid, costs)
            with open(os.path.join(self.dir, name), "w") as fh:
                json.dump(bad, fh)
        self.doctored = True


def set_up(workload: str, seed: int, smoke: bool, workdir: str):
    """Generate and write the inputs, import the package, run one warm-up op."""
    params = W.workload_params(workload, smoke)
    specs = W.make_specs(workload, seed, smoke)
    insts = [Instance(i, s, workdir, W.graph_ops(workload, i, params))
             for i, s in enumerate(specs)]
    for inst in insts:
        inst.write()
    cli = import_package()
    with quiet():
        cli.entry(insts[0].argv(insts[0].ops[0]))
    return cli, insts


@contextlib.contextmanager
def quiet():
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        yield


# ----------------------------------------------------------------------
# running and checking ops
# ----------------------------------------------------------------------

class Ledger:
    """Every executed op with its latency and checked outcome.

    An op's position is its place in a pass; each pass runs every position
    once, on the same input."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rows: List[dict] = []

    def add(self, pos: int, inst: Instance, op: dict, seconds: float, outcome: str,
            reason: str):
        self.rows.append({"op": len(self.rows), "pos": pos, "graph": inst.index,
                          "kind": op["kind"], "check": op["check"], "seconds": seconds,
                          "outcome": outcome, "reason": reason})

    @property
    def attempted(self) -> int:
        return len(self.rows)

    def failures(self) -> List[dict]:
        return [r for r in self.rows if r["outcome"] != "ok"]

    def any_wrong(self) -> bool:
        return any(r["outcome"] == "wrong" for r in self.rows)

    def positions(self) -> List[dict]:
        """Per position: its kind, its fastest execution, and whether every
        execution was correct."""
        out: Dict[int, dict] = {}
        for r in self.rows:
            p = out.setdefault(r["pos"], {"kind": r["kind"], "best": r["seconds"], "ok": True})
            p["best"] = min(p["best"], r["seconds"])
            p["ok"] = p["ok"] and r["outcome"] == "ok"
        return list(out.values())


def run_op(cli, inst: Instance, op: dict):
    """Execute one op; returns (exit code or None, seconds, crash reason).
    A solution file the op is judged by is removed first, so a stale one
    from an earlier pass cannot pass for its output."""
    if op["check"] == "solve" or op["kind"] == "reduce":
        with contextlib.suppress(FileNotFoundError):
            os.remove(inst.result_file(op))
    argv = inst.argv(op)
    crash = ""
    t0 = perf_counter()
    try:
        rc = cli.entry(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is an outcome to record, not a reason to stop
        rc = None
        crash = traceback.format_exc().strip().splitlines()[-1]
    seconds = perf_counter() - t0
    return rc, seconds, crash


def judge(inst: Instance, op: dict, rc, crash: str, seed: int):
    """The op's (outcome, reason).  The first solve of a graph also plants
    the doctored files that the graph's later verify ops read."""
    if rc is None:
        return "failed", "crashed: " + crash
    outcome = O.check_op(op, inst.oracle, rc, inst.result_file(op))
    if op["check"] == "solve" and not inst.doctored and os.path.exists(inst.solution()):
        inst.plant_defects(seed)
    return outcome


def pass_order(insts: List[Instance]):
    """(position, instance, op) in pass order: graph by graph, each graph's
    ops in order, so a verify always follows the solve it reads."""
    pos = 0
    for inst in insts:
        for op in inst.ops:
            yield pos, inst, op
            pos += 1


def run_pass(cli, insts: List[Instance], ledger: Ledger, seed: int):
    for pos, inst, op in pass_order(insts):
        rc, dt, crash = run_op(cli, inst, op)
        outcome, reason = judge(inst, op, rc, crash, seed)
        ledger.add(pos, inst, op, dt, outcome, reason)


def timed_run(args, workdir: str, ledger: Ledger):
    """Closed loop over whole passes.  The pass count is --seconds over the
    workload's nominal pass time, so every run executes each position the
    same number of times.  The set-up is repeated before the first pass,
    halfway and after the last pass, so its median is taken across the run.
    Returns (passes, set-up seconds)."""
    nominal = W.workload_params(args.workload, args.smoke)["pass_seconds"]
    passes = 1 if args.smoke else max(1, round(args.seconds / nominal))
    setup_before = [0, passes // 2, passes]
    setup_times: List[float] = []
    cli = insts = None
    for k in range(passes + 1):
        while setup_before and setup_before[0] == k:
            setup_before.pop(0)
            target = os.path.join(workdir, "setup%d" % len(setup_times))
            t0 = perf_counter()
            state = set_up(args.workload, args.seed, args.smoke, target)
            setup_times.append(perf_counter() - t0)
            if cli is not None:
                shutil.rmtree(insts[0].dir.rsplit(os.sep, 1)[0])
            cli, insts = state
        if k < passes:
            run_pass(cli, insts, ledger, args.seed)
    return passes, setup_times


def traced_pass(cli, insts: List[Instance], ledger: Ledger, tracer: Tracer, seed: int):
    """One pass; each op runs untraced, then traced.  Returns the summed
    (untraced, traced) op seconds."""
    plain = traced = 0.0
    for pos, inst, op in pass_order(insts):
        rc, dt, crash = run_op(cli, inst, op)
        outcome, reason = judge(inst, op, rc, crash, seed)
        plain += dt
        tracer.op_id = pos
        tracer.install()
        try:
            rc2, dt2, crash2 = run_op(cli, inst, op)
        finally:
            tracer.uninstall()
        traced += dt2
        outcome2, reason2 = judge(inst, op, rc2, crash2, seed)
        if outcome == "ok":
            outcome, reason = outcome2, reason2
        ledger.add(pos, inst, op, dt2, outcome, reason)
    return plain, traced


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def tail(values: List[float]):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank; None when that
    percentile would fall below the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return None
    q = (100 * (n - TAIL_BEYOND)) // n
    return q, xs[max(1, math.ceil(q * n / 100)) - 1]


def latency_summary(ledger: Ledger) -> Dict[str, dict]:
    """Per command, over the correct positions' fastest executions."""
    out = {}
    positions = ledger.positions()
    for kind in COMMANDS:
        xs = [p["best"] for p in positions if p["kind"] == kind and p["ok"]]
        if xs:
            out[kind] = {"n": len(xs), "p50": statistics.median(xs), "tail": tail(xs)}
    return out


def end_to_end(ledger: Ledger, setup_times: List[float], lat: Dict[str, dict]) -> Dict[str, tuple]:
    positions = ledger.positions()
    ok = sum(1 for p in positions if p["ok"])
    m = {"setup_s": (statistics.median(setup_times), "s"),
         "ok_per_s": (ok / sum(p["best"] for p in positions), "1/s"),
         "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
    for kind, s in lat.items():
        m["%s_p50_s" % kind] = (s["p50"], "s")
    return m


def per_layer(tracer: Tracer, plain: float, traced: float, names: List[str]) -> Dict[str, tuple]:
    """The declared per-layer metrics: ``<span>.calls``, ``<span>.self_s``,
    ``module.<module>.self_s`` (summed over the module's spans) and the
    counters kept by the tracer's observers."""
    c = tracer.counters
    special = {
        "io.bytes_read": (c["io.bytes_read"], "bytes"),
        "io.bytes_written": (c["io.bytes_written"], "bytes"),
        "solver.verify_dpp.checked_ratio": (
            c["dpp.checked"] / c["dpp.attempted"] if c["dpp.attempted"] else 0.0, "ratio"),
        "trace.overhead_s": (traced - plain, "s"),
    }
    modules = tracer.module_self_times()
    m: Dict[str, tuple] = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name in special:
            m[name] = special[name]
        elif not span.startswith("module.") and span not in tracer.names:
            raise ValueError("per-layer metric %r names no traced span" % name)
        elif stat == "calls":
            m[name] = (tracer.count(span), "count")
        elif span.startswith("module."):
            m[name] = (modules.get(span[len("module."):], 0.0), "s")
        else:
            m[name] = (tracer.self_time(span), "s")
    return m


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def report_failures(ledger: Ledger):
    fails = ledger.failures()
    print("failed ops: %d of %d" % (len(fails), ledger.attempted))
    for r in fails:
        print("  failed %s op %d (graph %d, %s): %s [%s]"
              % (ledger.workload, r["op"], r["graph"], r["check"], r["reason"], r["outcome"]))


def report_latency(lat: Dict[str, dict]):
    for kind, s in lat.items():
        t = "tail p%d %.6f s" % s["tail"] if s["tail"] else "tail n/a (n < %d)" % (2 * TAIL_BEYOND)
        print("latency %-8s p50 %.6f s  %s  (n=%d correct positions)"
              % (kind, s["p50"], t, s["n"]))


def result_line(ledger: Ledger, metrics: Dict[str, tuple], wanted: List[str]) -> str:
    missing = [k for k in wanted if k not in metrics]
    if missing:
        raise RuntimeError("metrics not measured on this workload: %s" % ", ".join(missing))
    return json.dumps({"correct": not ledger.any_wrong(), "attempted": ledger.attempted,
                       "failed": len(ledger.failures()),
                       "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                                   for k in wanted}})


def declared_metrics(section: str) -> List[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[section]]


def coverage_failures(workload: str, tracer: Tracer) -> List[str]:
    must = W.load_params()["workloads"][workload]["must_call"]
    return [name for name in must if tracer.count(name) == 0]


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.GENERATORS))
    ap.add_argument("--seed", type=int, default=W.load_params()["default_seed"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny graphs, one pass")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "eikograph")):
        sys.stderr.write("error: no eikograph sources at %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    wanted = declared_metrics("per_layer" if args.trace else "end_to_end")

    workdir = os.path.join(RUNS, "%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    ledger = Ledger(args.workload)
    try:
        with quiet():
            if args.trace:
                tracer = Tracer()
                cli, insts = set_up(args.workload, args.seed, args.smoke, workdir)
                plain, traced = traced_pass(cli, insts, ledger, tracer, args.seed)
            else:
                passes, setup_times = timed_run(args, workdir, ledger)
        if args.trace:
            metrics = per_layer(tracer, plain, traced, wanted)
            tracer.save(os.path.join(RUNS, "spans-%s-s%d.npz" % (args.workload, args.seed)))
            print("spans recorded %d, dropped %d" % (min(tracer.next_id, tracer.cap), tracer.dropped))
            shares = tracer.module_self_times()
            total = sum(shares.values())
            for mod, t in sorted(shares.items(), key=lambda kv: -kv[1]):
                print("self share %-12s %6.1f%%  %.4f s" % (mod, 100 * t / total, t))
            for name, (v, unit) in metrics.items():
                print("layer %s %.6g %s" % (name, v, unit))
            report_failures(ledger)
            missed = coverage_failures(args.workload, tracer)
            if missed:
                sys.stderr.write("error: traced run recorded zero calls for %s\n"
                                 % ", ".join(missed))
                return 1
        else:
            lat = latency_summary(ledger)
            metrics = end_to_end(ledger, setup_times, lat)
            print("workload %s seed %d passes %d ops %d"
                  % (args.workload, args.seed, passes, ledger.attempted))
            print("setup times %s s" % ", ".join("%.4f" % t for t in setup_times))
            report_latency(lat)
            print("error_rate %.6f" % (len(ledger.failures()) / ledger.attempted))
            for name, (v, unit) in metrics.items():
                print("metric %s %.6g %s" % (name, v, unit))
            report_failures(ledger)
        print(result_line(ledger, metrics, wanted))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
