"""Independent oracle for every op the benchmark runs.

Nothing here imports eikograph.  Edge costs are recomputed from the graph
spec (closed form for linear profiles, an exactly summed trapezoid for
sampled ones), shortest paths come from a bare heapq Dijkstra over vertex
ids, and solution files are read back as plain JSON.

Each check returns ``(outcome, reason)`` where ``outcome`` is one of

* ``"ok"``     the op did what it must;
* ``"failed"`` the program declined to answer where an answer exists
  (for example ``reduce discounted`` exiting 4): counted as a failed op;
* ``"wrong"``  the program answered, and the answer contradicts the oracle
  (wrong values, wrong exit code, a doctored file accepted): counted as a
  failed op and clears the run's ``correct`` flag.
"""
from __future__ import annotations

import heapq
import json
import math
from typing import Dict, Optional, Tuple

# exit codes of the CLI contract
EXIT_OK, EXIT_INPUT, EXIT_INCOMPATIBLE, EXIT_VERIFICATION, EXIT_HAMILTONIAN = 0, 1, 2, 3, 4

COMPAT_TOL = 1e-12       # the CLI's default --tol for solve
SOLVE_RTOL = 1e-9        # vertex values against the oracle, relative to max(1, |u|)
REDUCE_TOL = 1e-8        # eikonal reductions against the direct oracle, absolute
DISCOUNTED_TOL = 1e-3    # 65-knot reduction of h = 1 - u against the closed form, absolute

Outcome = Tuple[str, str]


def full_edge_cost(edge: dict) -> float:
    """The integral of f over the whole edge."""
    f = edge.get("f", {"kind": "const", "params": {"value": 1.0}})
    p, length = f["params"], edge["length"]
    if f["kind"] == "const":
        return p["value"] * length
    if f["kind"] == "linear":
        return p["a"] * length + 0.5 * p["b"] * length * length
    k, v = p["knots"], p["values"]
    return math.fsum(0.5 * (v[i] + v[i + 1]) * (k[i + 1] - k[i]) for i in range(len(k) - 1))


def dijkstra(adj: Dict[str, list], seeds: Dict[str, float]) -> Dict[str, float]:
    dist: Dict[str, float] = {}
    heap = [(c, v) for v, c in seeds.items()]
    heapq.heapify(heap)
    while heap:
        c, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = c
        for w, cost in adj[v]:
            if w not in dist:
                heapq.heappush(heap, (c + cost, w))
    return dist


def _adjacency(spec: dict, weight) -> Dict[str, list]:
    adj: Dict[str, list] = {v: [] for v in spec["vertices"]}
    for e in spec["edges"]:
        w = weight(e)
        adj[e["from"]].append((e["to"], w))
        adj[e["to"]].append((e["from"], w))
    return adj


class GraphOracle:
    """Reference answers for one generated graph, computed once."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.edge_costs = {e["id"]: full_edge_cost(e) for e in spec["edges"]}
        adj = _adjacency(spec, lambda e: self.edge_costs[e["id"]])
        self.u = dijkstra(adj, dict(spec["g"]))
        self.worst_gap = max(g - self.u[v] for v, g in spec["g"].items())
        self.compatible = self.worst_gap <= COMPAT_TOL
        self._discounted: Optional[Dict[str, float]] = None

    def discounted(self) -> Dict[str, float]:
        """u(x) = min_y 1 - (1 - g(y)) e^{-d(x, y)} with d the graph distance:
        with w = -log(1 - u) the equation |u'| = 1 - u becomes |w'| = 1."""
        if self._discounted is None:
            adj = _adjacency(self.spec, lambda e: e["length"])
            w = dijkstra(adj, {v: -math.log1p(-g) for v, g in self.spec["g"].items()})
            self._discounted = {v: -math.expm1(-w[v]) for v in self.spec["vertices"]}
        return self._discounted


def read_vertex_table(path: str) -> Optional[Dict[str, float]]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return {str(k): float(v) for k, v in doc["vertices"].items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def compare_tables(got: Optional[Dict[str, float]], want: Dict[str, float],
                   tol: float, relative: bool) -> Optional[str]:
    """None when every vertex matches, else a reason naming the worst one."""
    if got is None:
        return "solution file missing or unreadable"
    if set(got) != set(want):
        return "vertex set differs from the graph"
    worst, where = 0.0, None
    for v, ref in want.items():
        err = abs(got[v] - ref)
        if relative:
            err /= max(1.0, abs(ref))
        if not err <= worst:
            worst, where = err, v
    if worst > tol:
        return "vertex %s off by %.3g (tolerance %.0e)" % (where, worst, tol)
    return None


def check_solve(oracle: GraphOracle, rc: int, u_path: str) -> Outcome:
    want_rc = EXIT_OK if oracle.compatible else EXIT_INCOMPATIBLE
    if rc not in (EXIT_OK, EXIT_INCOMPATIBLE):
        return "failed", "exit %d, expected %d" % (rc, want_rc)
    if rc != want_rc:
        return "wrong", "exit %d but the oracle's compatibility verdict gives %d" % (rc, want_rc)
    bad = compare_tables(read_vertex_table(u_path), oracle.u, SOLVE_RTOL, relative=True)
    return ("wrong", bad) if bad else ("ok", "")


def check_exit(rc: int, want: int, what: str) -> Outcome:
    if rc == want:
        return "ok", ""
    if rc == EXIT_INPUT:
        return "failed", "%s: exit 1 (input error), expected %d" % (what, want)
    return "wrong", "%s: exit %d, expected %d" % (what, rc, want)


def check_reduce_eikonal(oracle: GraphOracle, rc: int, u_path: str) -> Outcome:
    if rc != EXIT_OK:
        return "failed", "exit %d, expected 0" % rc
    bad = compare_tables(read_vertex_table(u_path), oracle.u, REDUCE_TOL, relative=False)
    return ("wrong", bad) if bad else ("ok", "")


def check_reduce_discounted(oracle: GraphOracle, rc: int, u_path: str) -> Outcome:
    if rc != EXIT_OK:
        return "failed", "exit %d, expected 0 with the closed-form solution" % rc
    bad = compare_tables(read_vertex_table(u_path), oracle.discounted(), DISCOUNTED_TOL,
                         relative=False)
    return ("wrong", bad) if bad else ("ok", "")


def check_op(op: dict, oracle: GraphOracle, rc: int, u_path: str) -> Outcome:
    """Dispatch on the op's check rule (see workloads.graph_ops)."""
    rule = op["check"]
    if rule == "solve":
        return check_solve(oracle, rc, u_path)
    if rule == "verify-ok":
        return check_exit(rc, EXIT_OK, "verify %s on the solver's output" % op["mode"])
    if rule == "verify-doctored":
        return check_exit(rc, EXIT_VERIFICATION, "verify %s on a doctored file" % op["mode"])
    if rule in ("reduce-quadratic", "reduce-eikonal-affine"):
        return check_reduce_eikonal(oracle, rc, u_path)
    if rule == "reduce-discounted":
        return check_reduce_discounted(oracle, rc, u_path)
    if rule == "reduce-reject":
        return check_exit(rc, EXIT_HAMILTONIAN, "reduce %s" % op["hamiltonian"])
    raise ValueError("unknown check rule %r" % rule)
