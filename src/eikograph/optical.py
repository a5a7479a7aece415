"""Optical length and multi-source optical maps.

The optical length between two points is the least ∫ f over connecting
curves.  Because f > 0 and edges are one-dimensional, an optimal curve never
reverses inside an edge, so the computation reduces to Dijkstra over vertices
with full-edge costs plus partial-edge corrections at the two endpoints.

A multi-source map u(x) = min_i (value_i + L_f(x, seed_i)) is the shape
every solution candidate in this package takes.  Restricted to one edge it is
the min of two cumulative-integral branches, which is why its one-sided germ
derivatives are available in closed form.
"""
from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .cost import CostField
from .errors import InputError
from .graph import Germ, GraphPoint, Vertex


def optical_length(field: CostField, x: GraphPoint, y: GraphPoint) -> float:
    """L_f(x, y): the least curve integral of f between x and y."""
    return field.graph.point_cost(x, y, field.edge_cost, field.full_edge_cost)


class OpticalMap:
    """u(x) = min over seeds of (seed value + optical length to the seed).

    ``vertex_values`` carries the propagated values at every vertex; on an
    edge the map is  min( u(src) + F(s),  u(dst) + F_total - F(s) )  with
    F the cumulative integral of f from the src end, possibly undercut by a
    direct branch when a seed sits inside that very edge.
    """

    def __init__(self, field: CostField, seeds: Dict[GraphPoint, float]):
        if not seeds:
            raise InputError("an optical map needs at least one seed")
        graph = field.graph
        for p in seeds:
            graph.validate_point(p)
        self.field = field
        self.graph = graph
        self.seeds = dict(seeds)
        vseeds: Dict[str, float] = {}

        def offer(vid: str, c: float):
            if vid not in vseeds or c < vseeds[vid]:
                vseeds[vid] = c

        self._interior_seeds: Dict[str, List[Tuple[float, float]]] = {}
        for p, val in seeds.items():
            if isinstance(p, Vertex):
                offer(p.id, val)
            else:
                rec = graph.edge(p.edge)
                offer(rec.src, val + field.edge_cost(p.edge, 0.0, p.s))
                offer(rec.dst, val + field.edge_cost(p.edge, p.s, rec.length))
                self._interior_seeds.setdefault(p.edge, []).append((p.s, val))
        self.vertex_values: Dict[str, float] = graph.shortest_from_seeds(
            vseeds, field.full_edge_cost)

    # -- evaluation -----------------------------------------------------

    def _branches(self, eid: str, s: float) -> List[Tuple[float, float]]:
        """(value, one-sided derivative in +s direction at points of
        activity) pairs; u on the edge is their pointwise min.  The direct
        branches kink at their seed offsets; the returned slope is the one
        valid on the side of ``s`` relative to the seed, with the convention
        that at the seed itself both directions ascend at rate f."""
        rec = self.graph.edge(eid)
        f0 = self.field.edge_cost(eid, 0.0, s)
        f1 = self.field.edge_cost(eid, s, rec.length)
        fs = self.field.profiles[eid].at(s, rec.length)
        out = [(self.vertex_values[rec.src] + f0, fs),
               (self.vertex_values[rec.dst] + f1, -fs)]
        for s0, val in self._interior_seeds.get(eid, ()):
            cost = self.field.edge_cost(eid, min(s, s0), max(s, s0))
            out.append((val + cost, fs if s >= s0 else -fs))
        return out

    def evaluate(self, p: GraphPoint) -> float:
        self.graph.validate_point(p)
        if isinstance(p, Vertex):
            best = self.vertex_values[p.id]
            # a vertex can still be undercut by an interior seed on an
            # incident edge only through the matching endpoint cost, which
            # the seeding above already folded in.
            return best
        return min(v for v, _ in self._branches(p.edge, p.s))

    __call__ = evaluate

    def germ_derivative(self, p: GraphPoint, germ: Germ) -> float:
        """Exact one-sided derivative of u along ``germ`` at its base point."""
        branches = self._branches(germ.edge, germ.base)
        m = min(v for v, _ in branches)
        tol = 1e-12 * (1.0 + abs(m))
        derivs = []
        for idx, (v, dvds) in enumerate(branches):
            if v > m + tol:
                continue
            d = germ.sign * dvds
            if idx >= 2:
                s0 = self._interior_seeds[germ.edge][idx - 2][0]
                if germ.base == s0:
                    # sitting exactly on the seed: both departures ascend
                    d = abs(dvds)
            derivs.append(d)
        return min(derivs)

    def vertex_value(self, vid: str) -> float:
        try:
            return self.vertex_values[vid]
        except KeyError:
            raise InputError("unknown vertex id %r" % vid) from None

    def kink(self, eid: str) -> Optional[float]:
        """Offset where the two endpoint branches cross on edge ``eid``,
        if the crossing lies strictly inside; None when one branch wins
        throughout.  (Interior seeds add further kinks at their own offsets;
        those are already known exactly.)"""
        rec = self.graph.edge(eid)
        uA = self.vertex_values[rec.src]
        uB = self.vertex_values[rec.dst]
        Ftot = self.field.full_edge_cost(eid)
        # crossing: uA + F(s) = uB + Ftot - F(s)  =>  F(s) = (uB - uA + Ftot)/2
        target = 0.5 * (uB - uA + Ftot)
        if target <= 0.0 or target >= Ftot:
            return None
        prof = self.field.profiles[eid]
        t = prof.inverse_integral(0.0, target, rec.length)
        s = min(max(t, 0.0), rec.length)
        return s if 0.0 < s < rec.length else None


class StoredSolution(OpticalMap):
    """An optical-style evaluator built from an explicit vertex table instead
    of a seed propagation.

    Used when re-reading solution files: the stored table is taken at face
    value (even if someone edited it into something inconsistent), so the
    verifiers can genuinely fail on it instead of being handed a silently
    re-derived correct answer.
    """

    def __init__(self, field: CostField, vertex_values: Dict[str, float], data=None):
        graph = field.graph
        if set(vertex_values) != set(graph.vertices):
            missing = sorted(set(graph.vertices) - set(vertex_values))
            extra = sorted(set(vertex_values) - set(graph.vertices))
            raise InputError("vertex table does not match the graph"
                             + ("; missing: %s" % ", ".join(missing) if missing else "")
                             + ("; unknown: %s" % ", ".join(extra) if extra else ""))
        bad = [vid for vid, v in vertex_values.items() if not math.isfinite(v)]
        if bad:
            raise InputError("non-finite values at vertices: %s" % ", ".join(sorted(bad)))
        self.field = field
        self.graph = graph
        self.seeds = {}
        self._interior_seeds = {}
        self.vertex_values = {vid: float(v) for vid, v in vertex_values.items()}
        self.data = data
