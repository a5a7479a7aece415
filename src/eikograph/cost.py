"""Edge cost profiles and the running cost field f.

A profile describes f restricted to one edge as a function of the arc-length
offset ``s`` from the edge's src endpoint.  What the rest of the package
actually consumes is the cumulative integral ``F(s) = ∫_0^s f`` and its
inverse, both of which every profile provides in closed form so that optical
lengths and kink offsets stay at full float accuracy for constant and linear
speed fields.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

from .errors import InputError
from .graph import EdgeInterior, GraphPoint, MetricGraph


@dataclass(frozen=True)
class Constant:
    """f(s) = value on the whole edge."""

    value: float

    def check(self, length: float, fmin: float):
        if not (math.isfinite(self.value) and self.value >= fmin):
            raise InputError("constant profile value %r below floor %r" % (self.value, fmin))

    def at(self, s: float, length: float) -> float:
        return self.value

    def integral(self, s0: float, s1: float, length: float) -> float:
        return self.value * (s1 - s0)

    def inverse_integral(self, s0: float, target: float, length: float) -> float:
        """Smallest t >= 0 with ∫_{s0}^{s0+t} f = target (may exceed the edge)."""
        return target / self.value

    def bounds(self, length: float) -> Tuple[float, float]:
        return self.value, self.value


@dataclass(frozen=True)
class Linear:
    """f(s) = a + b s; must stay positive over the edge."""

    a: float
    b: float

    def check(self, length: float, fmin: float):
        lo = min(self.a, self.a + self.b * length)
        if not (math.isfinite(lo) and lo >= fmin):
            raise InputError("linear profile dips to %r, below floor %r" % (lo, fmin))

    def at(self, s: float, length: float) -> float:
        return self.a + self.b * s

    def integral(self, s0: float, s1: float, length: float) -> float:
        return self.a * (s1 - s0) + 0.5 * self.b * (s1 * s1 - s0 * s0)

    def inverse_integral(self, s0: float, target: float, length: float) -> float:
        if target == 0.0:
            return 0.0
        # solve a0 t + (b/2) t^2 = target with a0 = f(s0) > 0; the conjugate
        # form avoids cancellation when b t << a0.
        a0 = self.a + self.b * s0
        disc = a0 * a0 + 2.0 * self.b * target
        if disc < 0.0:
            disc = 0.0
        return 2.0 * target / (a0 + math.sqrt(disc))

    def bounds(self, length: float) -> Tuple[float, float]:
        v0, v1 = self.a, self.a + self.b * length
        return min(v0, v1), max(v0, v1)


@dataclass(frozen=True)
class Samples:
    """f given by values at increasing knots along the edge, linearly
    interpolated between them.  Knots must start at 0 and end at the edge
    length (the last knot may be off by float dust; it gets snapped).

    The cumulative table ``F(knot)`` is built once, on first use, and kept on
    the instance (``check()`` drops it when it snaps the last knot), so a
    profile costs O(K) once and O(log K) per integral."""

    knots: Tuple[float, ...]
    values: Tuple[float, ...]

    def __init__(self, knots: Sequence[float], values: Sequence[float]):
        object.__setattr__(self, "knots", tuple(map(float, knots)))
        object.__setattr__(self, "values", tuple(map(float, values)))
        object.__setattr__(self, "_pre", None)

    def check(self, length: float, fmin: float):
        k, v = self.knots, self.values
        if len(k) < 2 or len(k) != len(v):
            raise InputError("sampled profile needs >= 2 matching knots and values")
        if k[0] != 0.0:
            raise InputError("sampled profile must start at offset 0 (got %r)" % (k[0],))
        if not all(map(operator.lt, k, k[1:])):
            raise InputError("sampled profile knots must be strictly increasing")
        if abs(k[-1] - length) > 1e-12 * max(1.0, length):
            raise InputError("sampled profile ends at %r but the edge has length %r" % (k[-1], length))
        if k[-1] != length:
            object.__setattr__(self, "knots", k[:-1] + (length,))
            object.__setattr__(self, "_pre", None)
        if not (all(map(math.isfinite, v)) and min(v) >= fmin):
            bad = [x for x in v if not (math.isfinite(x) and x >= fmin)]
            raise InputError("sampled profile values %r below floor %r" % (bad, fmin))

    def _segment(self, s: float) -> int:
        """The knot segment [k[i], k[i+1]] holding s, i clamped to [0, K-2]."""
        i = bisect_right(self.knots, s) - 1
        last = len(self.knots) - 2
        return 0 if i < 0 else (last if i > last else i)

    def at(self, s: float, length: float) -> float:
        k, v = self.knots, self.values
        s = min(max(s, k[0]), k[-1])
        i = self._segment(s)
        w = (s - k[i]) / (k[i + 1] - k[i])
        return v[i] * (1.0 - w) + v[i + 1] * w

    def _prefix(self) -> Tuple[float, ...]:
        """F at every knot: the trapezoid sums, built once per knot set."""
        k, v = self.knots, self.values
        out = [0.0]
        for i in range(len(k) - 1):
            h = k[i + 1] - k[i]
            out.append(out[-1] + 0.5 * (v[i] + v[i + 1]) * h)
        pre = tuple(out)
        object.__setattr__(self, "_pre", pre)
        return pre

    def _F(self, pre: Tuple[float, ...], s: float) -> float:
        """F(s) = ∫_0^s f: one segment lookup, then the trapezoid to s."""
        k, v = self.knots, self.values
        s = min(max(s, k[0]), k[-1])
        i = self._segment(s)
        t = s - k[i]
        w = t / (k[i + 1] - k[i])
        fi = v[i] * (1.0 - w) + v[i + 1] * w
        return pre[i] + 0.5 * (v[i] + fi) * t

    def integral(self, s0: float, s1: float, length: float) -> float:
        pre = self._pre or self._prefix()
        return self._F(pre, s1) - self._F(pre, s0)

    def inverse_integral(self, s0: float, target: float, length: float) -> float:
        if target == 0.0:
            return 0.0
        pre = self._pre or self._prefix()
        i = self._segment(min(max(s0, 0.0), self.knots[-1]))
        remaining = target + self.integral(self.knots[i], s0, length)
        # march knot segments; on each, f is linear with slope b.
        while i < len(self.knots) - 1:
            k0, k1 = self.knots[i], self.knots[i + 1]
            seg = pre[i + 1] - pre[i]
            if remaining > seg and i < len(self.knots) - 2:
                remaining -= seg
                i += 1
                continue
            v0, v1 = self.values[i], self.values[i + 1]
            b = (v1 - v0) / (k1 - k0)
            disc = v0 * v0 + 2.0 * b * remaining
            if disc < 0.0:
                disc = 0.0
            t = 2.0 * remaining / (v0 + math.sqrt(disc)) if (v0 + math.sqrt(disc)) > 0 else remaining / max(v0, 1e-300)
            return (k0 + t) - s0
        return self.knots[-1] - s0

    def bounds(self, length: float) -> Tuple[float, float]:
        return min(self.values), max(self.values)


Profile = Union[Constant, Linear, Samples]


class CostField:
    """The running cost f over a whole graph: one profile per edge.

    Every edge must be covered.  Values are validated against a positivity
    floor once, here, so downstream integrals can assume f >= fmin > 0.
    """

    def __init__(self, graph: MetricGraph, profiles: Dict[str, Profile], fmin: float = 1e-6):
        missing = sorted(set(graph.edges) - set(profiles))
        if missing:
            raise InputError("cost field is missing profiles for edges: %s" % ", ".join(missing))
        extra = sorted(set(profiles) - set(graph.edges))
        if extra:
            raise InputError("cost field has profiles for unknown edges: %s" % ", ".join(extra))
        if not (fmin > 0):
            raise InputError("positivity floor must be > 0 (got %r)" % fmin)
        for eid, prof in profiles.items():
            prof.check(graph.edges[eid].length, fmin)
        self.graph = graph
        self.profiles = dict(profiles)
        self.fmin = fmin

    @classmethod
    def constant(cls, graph: MetricGraph, value: float = 1.0, fmin: float = 1e-6) -> "CostField":
        return cls(graph, {eid: Constant(value) for eid in graph.edges}, fmin=fmin)

    def edge_cost(self, eid: str, s0: float, s1: float) -> float:
        """∫ f over the within-edge segment [min(s0,s1), max(s0,s1)]."""
        rec = self.graph.edge(eid)
        lo, hi = (s0, s1) if s0 <= s1 else (s1, s0)
        if lo < -1e-12 or hi > rec.length * (1 + 1e-12):
            raise InputError("segment [%r, %r] outside edge %r" % (s0, s1, eid))
        lo = max(lo, 0.0)
        hi = min(hi, rec.length)
        return self.profiles[eid].integral(lo, hi, rec.length)

    def full_edge_cost(self, eid: str) -> float:
        rec = self.graph.edge(eid)
        return self.profiles[eid].integral(0.0, rec.length, rec.length)

    def value_at(self, p: GraphPoint) -> float:
        """Pointwise f.  At a vertex where incident profiles disagree this
        takes the min over incident germ endpoint values — the convention the
        steepest-descent slope at a vertex is checked against."""
        self.graph.validate_point(p)
        if isinstance(p, EdgeInterior):
            rec = self.graph.edge(p.edge)
            return self.profiles[p.edge].at(p.s, rec.length)
        vals = []
        for eid, end in self.graph.adjacency(p.id):
            rec = self.graph.edges[eid]
            s = 0.0 if end == 0 else rec.length
            vals.append(self.profiles[eid].at(s, rec.length))
        return min(vals)

    def germ_value(self, germ) -> float:
        rec = self.graph.edge(germ.edge)
        return self.profiles[germ.edge].at(germ.base, rec.length)

    def sup_value(self) -> float:
        return max(self.profiles[eid].bounds(self.graph.edges[eid].length)[1] for eid in self.profiles)

    def inf_value(self) -> float:
        return min(self.profiles[eid].bounds(self.graph.edges[eid].length)[0] for eid in self.profiles)

    def default_tol(self) -> float:
        """Verification tolerance: tight when all profiles are closed-form,
        looser when sampled profiles force quadrature-grade arithmetic."""
        sampled = any(isinstance(p, Samples) for p in self.profiles.values())
        return 1e-6 if sampled else 1e-9
