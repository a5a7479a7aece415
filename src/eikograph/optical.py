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
from typing import Dict, Optional

from .cost import CostField
from .errors import InputError
from .graph import Germ, GraphPoint, SeedMap


def optical_length(field: CostField, x: GraphPoint, y: GraphPoint) -> float:
    """L_f(x, y): the least curve integral of f between x and y."""
    return field.graph.point_cost(x, y, field.edge_cost, field.full_edge_cost)


class OpticalMap(SeedMap):
    """u(x) = min over seeds of (seed value + optical length to the seed):
    the SeedMap whose costs are the integrals of f.  On an edge it is
    min( u(src) + F(s),  u(dst) + F_total - F(s) ), with F the cumulative
    integral of f from the src end, possibly undercut by a direct branch
    when a seed sits inside that very edge.
    """

    def __init__(self, field: CostField, seeds: Dict[GraphPoint, float]):
        super().__init__(field.graph, seeds, field.edge_cost, field.full_edge_cost)
        self.field = field

    # bound here as well, because bench/tracing.py wraps the methods it finds
    # in this class's own namespace
    evaluate = __call__ = SeedMap.evaluate

    def germ_derivative(self, p: GraphPoint, germ: Germ) -> float:
        """Exact one-sided derivative of u along ``germ`` at its base point:
        f there, with the sign of the steepest active branch."""
        return self.germ_sign(germ) * self.field.germ_value(germ)

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
        self._segcost = field.edge_cost
        self._interior_seeds = {}
        self.vertex_values = {vid: float(v) for vid, v in vertex_values.items()}
        self.data = data
