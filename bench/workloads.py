"""Seeded graph generators and the op list of each workload.

A workload is a list of graph *specs* (plain dicts, shared by the file writer
and the oracle) plus, per graph, the ordered CLI ops one pass runs on it.
Everything here is a pure function of the workload parameters and the seed:
the same seed gives byte-identical graph files.

The parameters live in ``workloads.json`` next to this file, so the numbers
a run used are recorded in one place.
"""
from __future__ import annotations

import json
import os
import random
from typing import Dict, List

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def load_params() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


def workload_params(name: str, smoke: bool = False) -> dict:
    doc = load_params()["workloads"][name]
    params = dict(doc["generator"])
    if smoke:
        params.update(doc["smoke"])
    return params


# ----------------------------------------------------------------------
# graph shapes
# ----------------------------------------------------------------------

def _edge_pairs(rng: random.Random, n_vertices: int, n_edges: int,
                loop_frac: float, parallel_frac: float) -> List[tuple]:
    """A connected multigraph: a random spanning tree, then extra edges of
    which ``loop_frac`` are self-loops and ``parallel_frac`` repeat an
    existing vertex pair."""
    pairs = [(rng.randrange(i), i) for i in range(1, n_vertices)]
    while len(pairs) < n_edges:
        r = rng.random()
        if r < loop_frac:
            v = rng.randrange(n_vertices)
            pairs.append((v, v))
        elif r < loop_frac + parallel_frac:
            pairs.append(pairs[rng.randrange(len(pairs))])
        else:
            pairs.append((rng.randrange(n_vertices), rng.randrange(n_vertices)))
    return pairs


def _vertex_ids(n: int) -> List[str]:
    return ["v%03d" % i for i in range(n)]


def linear_graph(rng: random.Random, n_vertices: int, n_edges: int, n_boundary: int,
                 g_range, p: dict, incompatible: bool = False) -> dict:
    """Linear profiles f = a + b s with endpoint values drawn in ``p['f']``.

    With ``incompatible`` the two ends of one edge become boundary vertices
    with data ``g_range[0]`` and ``g_range[1]``; when that spread exceeds the
    dearest possible edge (max length times max f) the data is incompatible
    for every seed."""
    vids = _vertex_ids(n_vertices)
    edges = []
    for i, (a, b) in enumerate(_edge_pairs(rng, n_vertices, n_edges,
                                           p["loop_frac"], p["parallel_frac"])):
        length = rng.uniform(*p["length"])
        f0 = rng.uniform(*p["f"])
        f1 = f0 if a == b else rng.uniform(*p["f"])
        edges.append({"id": "e%04d" % i, "from": vids[a], "to": vids[b], "length": length,
                      "f": {"kind": "linear", "params": {"a": f0, "b": (f1 - f0) / length}}})
    pinned = {}
    if incompatible:
        e = rng.choice([e for e in edges if e["from"] != e["to"]])
        pinned = {e["from"]: g_range[0], e["to"]: g_range[1]}
    rest = [v for v in vids if v not in pinned]
    boundary = sorted(list(pinned) + rng.sample(rest, n_boundary - len(pinned)))
    g = {vid: pinned[vid] if vid in pinned else rng.uniform(*g_range) for vid in boundary}
    return {"vertices": vids, "boundary": boundary, "g": g, "edges": edges}


def vertex_continuous_graph(rng: random.Random, n_vertices: int, n_edges: int,
                            n_boundary: int, p: dict) -> dict:
    """Linear profiles that take the value phi(v) at every end meeting vertex v,
    so f is continuous across vertices and the pointwise h(x) of a reduced
    Hamiltonian is well defined at vertices too."""
    vids = _vertex_ids(n_vertices)
    phi = [rng.uniform(*p["f"]) for _ in vids]
    edges = []
    for i, (a, b) in enumerate(_edge_pairs(rng, n_vertices, n_edges,
                                           p["loop_frac"], p["parallel_frac"])):
        length = rng.uniform(*p["length"])
        edges.append({"id": "e%04d" % i, "from": vids[a], "to": vids[b], "length": length,
                      "f": {"kind": "linear",
                            "params": {"a": phi[a], "b": (phi[b] - phi[a]) / length}}})
    boundary = sorted(rng.sample(vids, n_boundary))
    g = {vid: rng.uniform(*p["g"]) for vid in boundary}
    return {"vertices": vids, "boundary": boundary, "g": g, "edges": edges}


def sampled_graph(seed: int, n_vertices: int, n_edges: int, n_boundary: int, p: dict) -> dict:
    """Sampled profiles on uniform knots: most edges get ``knots`` knots,
    exactly a ``fine_frac`` share gets ``fine_knots``.  Values follow a clipped random
    walk inside ``p['f']``, so profiles are rough but positive."""
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    vids = _vertex_ids(n_vertices)
    lo, hi = p["f"]
    fine = set(rng.sample(range(n_edges), round(p["fine_frac"] * n_edges)))
    edges = []
    for i, (a, b) in enumerate(_edge_pairs(rng, n_vertices, n_edges,
                                           p["loop_frac"], p["parallel_frac"])):
        length = rng.uniform(*p["length"])
        k = p["fine_knots"] if i in fine else p["knots"]
        steps = nrng.normal(0.0, p["f_step"], k)
        steps[0] = nrng.uniform(lo, hi)
        values = np.clip(np.cumsum(steps), lo, hi)
        knots = np.linspace(0.0, length, k)
        edges.append({"id": "e%05d" % i, "from": vids[a], "to": vids[b], "length": length,
                      "f": {"kind": "samples",
                            "params": {"knots": knots.tolist(), "values": values.tolist()}}})
    boundary = sorted(rng.sample(vids, n_boundary))
    g = {vid: rng.uniform(*p["g"]) for vid in boundary}
    return {"vertices": vids, "boundary": boundary, "g": g, "edges": edges}


def graph_document(spec: dict) -> dict:
    vs = []
    for vid in spec["vertices"]:
        if vid in spec["g"]:
            vs.append({"id": vid, "boundary": True, "g": spec["g"][vid]})
        else:
            vs.append({"id": vid})
    return {"vertices": vs, "edges": spec["edges"]}


# ----------------------------------------------------------------------
# per-workload instance lists
# ----------------------------------------------------------------------

def _interleave(n: int) -> List[int]:
    """Slot visiting order that alternates small and large graphs, so a pass
    cut short by the clock still samples the whole size range."""
    order, lo, hi = [], 0, n - 1
    while lo <= hi:
        order.append(lo)
        if hi != lo:
            order.append(hi)
        lo, hi = lo + 1, hi - 1
    return order


def verify_mid_specs(seed: int, p: dict) -> List[dict]:
    rng = random.Random(seed)
    n = p["graphs"]
    v_lo, v_hi = p["vertices"]
    specs = []
    for slot in range(n):
        nv = round(v_lo + (v_hi - v_lo) * slot / max(n - 1, 1))
        dense = slot % p["dense_every"] == p["dense_every"] - 1
        nb = max(2, round(nv * p["dense_boundary_frac"])) if dense else p["sparse_boundary"]
        g_range = p["g_wide"] if dense else p["g_narrow"]
        specs.append(linear_graph(rng, nv, round(nv * p["edges_per_vertex"]), nb, g_range, p,
                                  incompatible=dense))
    return [specs[i] for i in _interleave(n)]


def sampled_large_specs(seed: int, p: dict) -> List[dict]:
    rng = random.Random(seed)
    specs = []
    for _ in range(p["graphs"]):
        nv = round(p["edges"] / p["edges_per_vertex"])
        specs.append(sampled_graph(rng.randrange(2 ** 31), nv, p["edges"], p["boundary"], p))
    return specs


def reduce_catalog_specs(seed: int, p: dict) -> List[dict]:
    rng = random.Random(seed)
    return [vertex_continuous_graph(rng, p["vertices"], p["edges"], p["boundary"], p)
            for _ in range(p["graphs"])]


GENERATORS = {
    "verify-mid": verify_mid_specs,
    "sampled-large": sampled_large_specs,
    "reduce-catalog": reduce_catalog_specs,
}


def make_specs(workload: str, seed: int, smoke: bool = False) -> List[dict]:
    return GENERATORS[workload](seed, workload_params(workload, smoke))


# ----------------------------------------------------------------------
# op lists
# ----------------------------------------------------------------------

def graph_ops(workload: str, index: int, p: dict) -> List[dict]:
    """The ops one pass runs on graph ``index``, in order.

    ``kind`` names the command whose latency the op counts toward; ``check``
    names the oracle rule that decides whether the outcome is correct."""
    ops = [{"kind": "solve", "check": "solve"}]
    for mode in p["verify_modes"]:
        ops.append({"kind": mode, "check": "verify-ok", "mode": mode})
    for mode in p.get("doctored_modes", ()):
        ops.append({"kind": mode, "check": "verify-doctored", "mode": mode})
    if workload == "reduce-catalog":
        for name in ("quadratic", "eikonal-affine", "discounted"):
            ops.append({"kind": "reduce", "check": "reduce-" + name, "hamiltonian": name})
        name = ("nonmono-a", "nonmono-b")[index % 2]
        ops.append({"kind": "reduce", "check": "reduce-reject", "hamiltonian": name})
    return ops


def doctor_delta(spec: dict, vid: str, edge_costs: Dict[str, float]) -> float:
    """Size of the planted defect at ``vid``: a quarter of the cheapest
    incident full-edge cost, far above every verifier tolerance."""
    incident = [edge_costs[e["id"]] for e in spec["edges"] if vid in (e["from"], e["to"])]
    return 0.25 * min(incident)


def pick_interior(spec: dict, seed: int) -> str:
    interior = [v for v in spec["vertices"] if v not in spec["g"]]
    return random.Random(seed).choice(interior)


def pick_boundary(spec: dict, seed: int, u: Dict[str, float]) -> str:
    """A boundary vertex whose data the solution attains (u = g).  Where
    incompatible data is not attained, u < g and the modulus check is
    one-sided by design, so a raised entry there need not violate it."""
    attained = [v for v in spec["boundary"] if u[v] == spec["g"][v]]
    return random.Random(seed + 1).choice(attained)
