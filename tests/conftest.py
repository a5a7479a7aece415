"""Shared fixtures, random-instance generators, and — most importantly —
independent oracles the package code is judged against.

The oracles here deliberately avoid the package's own machinery: shortest
paths are recomputed with a bare heapq Dijkstra over explicit node dicts, and
curve integrals with midpoint-rule subdivision, so an agreement is evidence
and not a tautology.
"""
from __future__ import annotations

import heapq
import math
import pathlib
import random
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from eikograph import BoundaryData, CostField, Linear, MetricGraph

settings.register_profile(
    "suite",
    settings(derandomize=True, deadline=None, max_examples=25,
             suppress_health_check=[HealthCheck.too_slow]))
settings.load_profile("suite")


def pytest_collection_modifyitems(items):
    """A test under ``tests/`` that leaks a file handle fails: its
    ResourceWarning is an error, and so is the unraisable-exception warning
    it becomes when the handle is closed by the garbage collector."""
    here = pathlib.Path(__file__).resolve().parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))


# ----------------------------------------------------------------------
# the 1-D interval fixture: one edge of length 2, coordinate x = s - 1
# ----------------------------------------------------------------------

def make_interval(g_left: float = 0.0, g_right: float = 0.0, f_value: float = 1.0):
    graph = MetricGraph([("L", True), ("R", True)], [("e", "L", "R", 2.0)])
    field = CostField.constant(graph, f_value)
    data = BoundaryData(graph, {"L": g_left, "R": g_right})
    return graph, field, data


def interval_point(graph: MetricGraph, x: float):
    """Graph point for the coordinate x in [-1, 1]."""
    return graph.point("e", x + 1.0)


@pytest.fixture
def interval():
    return make_interval()


# ----------------------------------------------------------------------
# independent shortest-path oracle
# ----------------------------------------------------------------------

def tiny_dijkstra(adj: Dict, seeds: Dict) -> Dict:
    """Plain multi-source Dijkstra over an adjacency dict {node: [(nbr, w)]}."""
    dist = {}
    heap = [(c, repr(n), n) for n, c in seeds.items()]
    heapq.heapify(heap)
    while heap:
        c, _, n = heapq.heappop(heap)
        if n in dist:
            continue
        dist[n] = c
        for m, w in adj.get(n, ()):
            if m not in dist:
                heapq.heappush(heap, (c + w, repr(m), m))
    return dist


# ----------------------------------------------------------------------
# random instance specs (plain dicts, shared by package builders and oracles)
# ----------------------------------------------------------------------

def random_graph_spec(rng: random.Random, max_vertices: int = 20,
                      max_extra_edges: int = 20, allow_loops: bool = True) -> dict:
    """A connected multigraph spec with linear cost profiles.

    Vertex count >= 2; a spanning tree guarantees connectivity, extra edges
    (possibly parallel or self-loops) add cycles.  Profile endpoint values
    lie in [0.1, 5]; boundary is a nonempty proper-or-full subset with data
    drawn small enough to often be compatible but not always.
    """
    n = rng.randint(2, max_vertices)
    vids = ["v%d" % i for i in range(n)]
    edges = []

    def add_edge(a: str, b: str):
        L = rng.uniform(0.2, 3.0)
        f0 = rng.uniform(0.1, 5.0)
        f1 = rng.uniform(0.1, 5.0)
        edges.append({"id": "e%d" % len(edges), "src": a, "dst": b, "length": L,
                      "a": f0, "b": (f1 - f0) / L})

    for i in range(1, n):
        add_edge(vids[rng.randrange(i)], vids[i])
    for _ in range(rng.randint(0, max_extra_edges)):
        a = vids[rng.randrange(n)]
        if allow_loops and rng.random() < 0.1:
            add_edge(a, a)
        else:
            add_edge(a, vids[rng.randrange(n)])
    n_b = rng.randint(1, n)
    boundary = sorted(rng.sample(vids, n_b))
    g = {vid: rng.uniform(0.0, 1.5) for vid in boundary}
    return {"vertices": vids, "edges": edges, "boundary": boundary, "g": g}


def build_instance(spec: dict):
    graph = MetricGraph(
        [(vid, vid in spec["boundary"]) for vid in spec["vertices"]],
        [(e["id"], e["src"], e["dst"], e["length"]) for e in spec["edges"]])
    field = CostField(graph, {e["id"]: Linear(e["a"], e["b"]) for e in spec["edges"]})
    data = BoundaryData(graph, dict(spec["g"]))
    return graph, field, data


def oracle_vertex_values(spec: dict, n_seg: int = 10_000) -> Dict[str, float]:
    """Brute-force solve: subdivide every edge into n_seg pieces, weight each
    piece by the midpoint value of f times its width, then shortest-path from
    the boundary with its data.

    The subdivision nodes interior to an edge form a simple chain, so the
    subdivided graph's vertex-to-vertex distances equal a vertex-level
    Dijkstra whose edge weights are the chain sums — which is how the sums
    stay at 10⁴ segments without 10⁴ heap nodes per edge.
    """
    adj: Dict = {vid: [] for vid in spec["vertices"]}
    for e in spec["edges"]:
        L, a0, b0 = e["length"], e["a"], e["b"]
        h = L / n_seg
        mids = (np.arange(n_seg) + 0.5) * h
        total = float(np.sum((a0 + b0 * mids) * h))
        adj[e["src"]].append((e["dst"], total))
        adj[e["dst"]].append((e["src"], total))
    seeds = {vid: spec["g"][vid] for vid in spec["boundary"]}
    dist = tiny_dijkstra(adj, seeds)
    return {vid: dist[vid] for vid in spec["vertices"]}


# ----------------------------------------------------------------------
# dyadic finite metric spaces (exact float arithmetic for the descent)
# ----------------------------------------------------------------------

def dyadic_metric_matrix(rng: random.Random, n: int, quantum: float = 0.25,
                         max_steps: int = 16) -> List[List[float]]:
    """Random symmetric positive dyadic matrix, closed under shortest paths
    (Floyd–Warshall), hence an exact metric with all arithmetic exact."""
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = quantum * rng.randint(1, max_steps)
            d[i][j] = d[j][i] = v
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return d


def dyadic_values(rng: random.Random, n: int, quantum: float = 0.125,
                  max_steps: int = 64, inf_rate: float = 0.0) -> List[float]:
    out = []
    for _ in range(n):
        if rng.random() < inf_rate:
            out.append(math.inf)
        else:
            out.append(quantum * rng.randint(0, max_steps))
    if all(math.isinf(v) for v in out):
        out[rng.randrange(n)] = quantum * rng.randint(0, max_steps)
    return out


def brute_force_ekeland_ok(matrix: List[List[float]], fvals: List[float],
                           eps: float, x0: int, xe: int) -> Tuple[bool, bool]:
    """Direct check of the two variational conditions, written from the
    theorem statement and not from the implementation."""
    n = len(matrix)
    cond_a = fvals[xe] + eps * matrix[x0][xe] <= fvals[x0]
    cond_b = all(fvals[xe] < fvals[y] + eps * matrix[xe][y]
                 for y in range(n) if y != xe)
    return cond_a, cond_b


# ----------------------------------------------------------------------
# shared random corpus for the heavyweight acceptance checks
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def random_corpus():
    """50 random instances with their package objects, solves, and oracle
    vertex tables — computed once, shared by the equivalence criteria."""
    from eikograph import solve
    rng = random.Random(20250822)
    out = []
    for _ in range(50):
        spec = random_graph_spec(rng, max_vertices=20, max_extra_edges=20)
        graph, field, data = build_instance(spec)
        u = solve(field, data)
        out.append({"spec": spec, "graph": graph, "field": field,
                    "data": data, "u": u})
    return out
