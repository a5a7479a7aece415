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

from typing import Dict, Optional

from .cost import CostField
from .errors import InputError, RecordError
from .graph import GraphPoint, SeedMap, _finite


def optical_length(field: CostField, x: GraphPoint, y: GraphPoint) -> float:
    """L_f(x, y): the least curve integral of f between x and y."""
    return field.graph.point_cost(x, y, field.profiles)


class OpticalMap(SeedMap):
    """u(x) = min over seeds of (seed value + optical length to the seed):
    the SeedMap over the cost field's profile table.  On an edge it is
    min( u(src) + F(s),  u(dst) + F_total - F(s) ), with F the cumulative
    integral of f from the src end, possibly undercut by a direct branch
    when a seed sits inside that very edge.
    """

    def __init__(self, field: CostField, seeds: Dict[GraphPoint, float]):
        super().__init__(field.graph, seeds, field.profiles)
        self.field = field

    # bound here as well, because bench/tracing.py wraps the methods it finds
    # in this class's own namespace
    evaluate = __call__ = SeedMap.evaluate
    germ_derivative = SeedMap.germ_derivative

    def vertex_value(self, vid: str) -> float:
        try:
            return self.vertex_values[vid]
        except KeyError:
            raise InputError("unknown vertex id %r" % vid) from None

    def kink(self, eid: str, cost: Optional[float] = None) -> Optional[float]:
        """Offset where the two endpoint branches cross on edge ``eid``,
        if the crossing lies strictly inside; None when one branch wins
        throughout (interior seeds add kinks at their own, known, offsets).
        ``cost``, the edge's full cost, spares its integral when given."""
        rec = self.graph.edge(eid)
        cost = self.field.full_edge_cost(eid) if cost is None else cost
        target = 0.5 * (self.vertex_values[rec.dst] - self.vertex_values[rec.src] + cost)
        if target <= 0.0 or target >= cost:
            return None
        s = min(max(self.profiles[eid].inverse_integral(target), 0.0), rec.length)
        return s if 0.0 < s < rec.length else None


class StoredSolution(OpticalMap):
    """An optical-style evaluator built from an explicit vertex table instead
    of a seed propagation.

    Used when re-reading solution files: the stored table is taken at face
    value (even if someone edited it into something inconsistent), so the
    verifiers can genuinely fail on it instead of being handed a silently
    re-derived correct answer.  Each entry must name a vertex and be
    ``_finite``, else it is refused naming its vertex; each vertex needs one.
    """

    def __init__(self, field: CostField, vertex_values: Dict[str, float], data=None):
        graph = field.graph
        for vid, v in vertex_values.items():
            if vid not in graph.vertices:
                raise RecordError("vertex table: %r is not a vertex" % (vid,), "vertex", vid)
            if not _finite(v):
                raise RecordError("vertex table: value at %r must be a finite number (got %r)"
                                  % (vid, v), "vertex", vid)
        missing = [vid for vid in graph.vertices if vid not in vertex_values]
        if missing:
            raise InputError("vertex table: no entry for %r" % (missing[0],))
        self.field = field
        self.graph = graph
        self.profiles = field.profiles
        self._interior_seeds = {}
        self.vertex_values = {vid: float(v) for vid, v in vertex_values.items()}
        self.data = data
