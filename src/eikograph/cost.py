"""Edge cost profiles and the running cost field f.

A profile describes f restricted to one edge as a function of the arc-length
offset ``s`` from the edge's src endpoint.  What the rest of the package
actually consumes is the cumulative integral ``F(s) = ∫_0^s f`` and its
inverse, both of which every profile provides in closed form so that optical
lengths and kink offsets stay at full float accuracy for constant and linear
speed fields.  ``Constant`` is defined in ``graph``, whose unit table is
made of it, and is imported here with the other profiles.

The profile protocol: ``at(s)``, ``at_array(s)`` (``at`` at each offset, bit
for bit), ``integral(s0, s1)``, ``integral_array(s0, s1)`` (``integral`` at
each pair of offsets, bit for bit) and ``inverse_integral(target)`` (from 0).
A class whose ``integral_array`` is one expression in its parameters names
them in ``PARAMS``, so that a batch gathers them by edge.  Only
``bounds(length)`` and ``check(length, fmin)`` take the edge's length; ``check``
returns the profile a ``CostField`` keeps, its params floats, and changes none.
"""
from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InputError, ProfileError
from .graph import Constant, EdgeInterior, GraphPoint, KnotBatch, MetricGraph, Vertex, _Rates, _reals

#: the positivity floor: every cost field has f >= FMIN > 0
FMIN = 1e-6


def _advance(a0: float, b: float, target: float) -> float:
    """The t >= 0 with a0 t + (b/2) t² = target, a0 > 0: the conjugate form,
    which does not cancel when b t << a0."""
    disc = a0 * a0 + 2.0 * b * target
    if disc < 0.0:
        disc = 0.0
    return 2.0 * target / (a0 + math.sqrt(disc))


@dataclass(frozen=True)
class Linear:
    """f(s) = a + b s; must stay positive over the edge."""

    a: float
    b: float

    def check(self, length: float, fmin: float) -> "Linear":
        prof = self if type(self.a) is type(self.b) is float else Linear(
            *_reals((self.a, self.b), "linear profile coefficient"))
        # far end first: min(nan, a) is nan, but min(a, nan) is a
        lo = min(prof.a + prof.b * length, prof.a)
        if not lo < math.inf:
            raise InputError("linear profile value %r is not finite" % (lo,))
        if lo < fmin:
            raise InputError("linear profile dips to %r, below floor %r" % (lo, fmin))
        # integral squares offsets along the edge
        if not math.isfinite(length * length):
            raise InputError("linear profile over length %r overflows "
                             "(length squared is not finite)" % (length,))
        return prof

    def at(self, s: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        return self.a + self.b * s

    # one expression on a float or an array
    at_array = at

    def integral(self, s0: float, s1: float) -> float:
        return self.a * (s1 - s0) + 0.5 * self.b * (s1 * s1 - s0 * s0)

    # one expression on floats or arrays, the coefficients included
    integral_array = integral
    PARAMS = ("a", "b")

    def inverse_integral(self, target: float) -> float:
        return _advance(self.a, self.b, target)

    def bounds(self, length: float) -> Tuple[float, float]:
        v0, v1 = self.a, self.a + self.b * length
        return min(v0, v1), max(v0, v1)


@dataclass(frozen=True)
class Samples:
    """f given by values at increasing knots along the edge, linearly
    interpolated between them.  Knots must start at 0 and end at the edge
    length (the last knot may be off by float dust; ``check`` snaps it).

    The cumulative table ``F(knot)`` is built once, on first use, and kept on
    the instance, so a profile costs O(K) once and O(log K) per integral."""

    knots: Sequence[float]
    values: Sequence[float]
    _pre: Optional[Tuple[float, ...]] = field(default=None, init=False, repr=False, compare=False)

    def check(self, length: float, fmin: float) -> "Samples":
        k, v = _reals(self.knots, "sampled profile knot"), _reals(self.values, "sampled profile value")
        if len(k) < 2 or len(k) != len(v):
            raise InputError("sampled profile needs >= 2 matching knots and values")
        if k[0] != 0.0:
            raise InputError("sampled profile must start at offset 0 (got %r)" % (k[0],))
        increasing = "sampled profile knots must be strictly increasing"
        if not all(map(operator.lt, k, k[1:])):
            raise InputError(increasing)
        if abs(k[-1] - length) > 1e-12 * max(1.0, length):
            raise InputError("sampled profile ends at %r but the edge has length %r" % (k[-1], length))
        # snapping the last knot to the length must keep the knots increasing
        if not k[-2] < length:
            raise InputError(increasing)
        if not all(map(math.isfinite, v)) or min(v) < fmin:
            unbounded = [x for x in v if not x < math.inf]
            if unbounded:
                raise InputError("sampled profile values %r are not finite" % (unbounded,))
            raise InputError("sampled profile values %r below floor %r"
                             % ([x for x in v if x < fmin], fmin))
        return Samples(k[:-1] + (length,), v)

    def _segment(self, s: float) -> int:
        """The knot segment [k[i], k[i+1]] holding s, i clamped to [0, K-2]."""
        i = bisect_right(self.knots, s) - 1
        last = len(self.knots) - 2
        return 0 if i < 0 else (last if i > last else i)

    def at(self, s: float) -> float:
        k, v = self.knots, self.values
        s = min(max(s, k[0]), k[-1])
        i = self._segment(s)
        w = (s - k[i]) / (k[i + 1] - k[i])
        return v[i] * (1.0 - w) + v[i + 1] * w

    def at_array(self, s: np.ndarray) -> np.ndarray:
        """``at`` at every offset of ``s``, bit for bit."""
        k, v = np.array(self.knots), np.array(self.values)
        s = np.minimum(np.maximum(s, k[0]), k[-1])
        i = np.clip(np.searchsorted(k, s, side="right") - 1, 0, len(k) - 2)
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

    def integral(self, s0: float, s1: float) -> float:
        pre = self._pre or self._prefix()
        return self._F(pre, s1) - self._F(pre, s0)

    def integral_array(self, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
        """``integral`` at every pair of offsets, bit for bit: ``_F``'s steps
        as array operations, on s1 and s0 together."""
        k, v = np.array(self.knots), np.array(self.values)
        pre = np.array(self._pre or self._prefix())
        s = np.minimum(np.maximum(np.concatenate((s1, s0)), k[0]), k[-1])
        i = np.minimum(np.maximum(np.searchsorted(k, s, side="right") - 1, 0), len(k) - 2)
        ki, vi = k[i], v[i]
        t = s - ki
        w = t / (k[i + 1] - ki)
        F = pre[i] + 0.5 * (vi + (vi * (1.0 - w) + v[i + 1] * w)) * t
        return F[:len(s1)] - F[len(s1):]

    def inverse_integral(self, target: float) -> float:
        pre = self._pre or self._prefix()
        k, v = self.knots, self.values
        # march knot segments (f linear on each); the last takes what remains
        i, last, remaining = 0, len(k) - 2, target
        while i < last and remaining > pre[i + 1] - pre[i]:
            remaining -= pre[i + 1] - pre[i]
            i += 1
        return k[i] + _advance(v[i], (v[i + 1] - v[i]) / (k[i + 1] - k[i]), remaining)

    def bounds(self, length: float) -> Tuple[float, float]:
        return min(self.values), max(self.values)


Profile = Union[Constant, Linear, Samples]


class CostField:
    """The running cost f over a whole graph: one profile per edge.

    Every edge must be covered.  A profile that fails its ``check`` (number
    params, structure, the floor) or whose cost overflows is refused with a
    ``ProfileError`` naming the edge, so integrals can assume FMIN <= f.
    """

    def __init__(self, graph: MetricGraph, profiles: Dict[str, Profile]):
        missing = sorted(set(graph.edges) - set(profiles))
        if missing:
            raise InputError("cost field is missing profiles for edges: %s" % ", ".join(missing))
        extra = sorted(set(profiles) - set(graph.edges))
        if extra:
            raise InputError("cost field has profiles for unknown edges: %s" % ", ".join(extra))
        self.profiles: Dict[str, Profile] = {}
        for eid, prof in profiles.items():
            length = graph.edges[eid].length
            try:
                prof = self.profiles[eid] = prof.check(length, FMIN)
                # every cost on the edge is at most sup f times its length
                fmax = prof.bounds(length)[1]
                if not math.isfinite(fmax * length):
                    raise InputError("cost overflows (f up to %r over length %r)" % (fmax, length))
            except InputError as exc:
                raise ProfileError("edge %r: %s" % (eid, exc), eid) from None
        self.graph = graph

    @classmethod
    def constant(cls, graph: MetricGraph, value: float = 1.0) -> "CostField":
        return cls(graph, {eid: Constant(value) for eid in graph.edges})

    def edge_cost(self, eid: Union[str, KnotBatch], s0: Union[float, np.ndarray],
                  s1: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """∫ f over the within-edge segment [min(s0,s1), max(s0,s1)].

        With a ``KnotBatch`` in place of ``eid``, ``s0`` and ``s1`` are arrays
        of offsets on each of its rows' edges, and the costs come back as an
        array, each equal to the scalar call's bit for bit.  A segment outside
        its edge is refused in the scalar call's words, the first such row."""
        if isinstance(eid, KnotBatch):
            return self._edge_costs(eid.edges, s0, s1)
        rec = self.graph.edge(eid)
        lo, hi = (s0, s1) if s0 <= s1 else (s1, s0)
        if lo < -1e-12 or hi > rec.length * (1 + 1e-12):
            raise InputError("segment [%r, %r] outside edge %r" % (s0, s1, eid))
        lo = max(lo, 0.0)
        hi = min(hi, rec.length)
        return self.profiles[eid].integral(lo, hi)

    @functools.cached_property
    def _rates(self) -> _Rates:
        return _Rates(self.graph, self.profiles)

    def _edge_costs(self, edges: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
        """``edge_cost`` at each row: its steps as array operations."""
        ids, _, lengths = self.graph._edge_order
        length = lengths[edges]
        swap = ~(s0 <= s1)
        lo, hi = np.where(swap, s1, s0), np.where(swap, s0, s1)
        bad = (lo < -1e-12) | (hi > length * (1 + 1e-12))
        if bad.any():
            i = int(bad.argmax())
            raise InputError("segment [%r, %r] outside edge %r"
                             % (s0[i].item(), s1[i].item(), ids[edges[i]]))
        lo = np.where(0.0 > lo, 0.0, lo)
        hi = np.where(length < hi, length, hi)
        return self._rates.integral(edges, lo, hi)

    def full_edge_cost(self, eid: str) -> float:
        return self.profiles[eid].integral(0.0, self.graph.edge(eid).length)

    def value_at(self, p: Union[GraphPoint, KnotBatch]) -> Union[float, np.ndarray]:
        """Pointwise f.  At a vertex where incident profiles disagree this
        takes the least ``germ_value`` over its germs — the convention the
        steepest-descent slope at a vertex is checked against.

        A ``KnotBatch`` gets the same values as an (n, 1) column, computed
        once per batch: rows inside an edge through its profile's
        ``at_array``, rows at a vertex as above."""
        if isinstance(p, EdgeInterior):
            self.graph.validate_point(p)
            return self.profiles[p.edge].at(p.s)
        if isinstance(p, KnotBatch):
            return p.column(self, self._knot_values)
        return min(map(self.germ_value, self.graph.germs(p)))

    def _knot_values(self, runs) -> np.ndarray:
        """f at the rows of ``runs`` (see ``KnotBatch``) as a column, each
        vertex's least germ value computed once for the batch."""
        at_vertex: Dict[str, float] = {}
        parts = []
        for eid, s in runs:
            rec = self.graph.edges[eid]
            for vid in (rec.src, rec.dst):
                if vid not in at_vertex:
                    at_vertex[vid] = min(map(self.germ_value, self.graph.germs(Vertex(vid))))
            inside = (s > 0.0) & (s < rec.length)
            col = np.where(s == 0.0, at_vertex[rec.src], at_vertex[rec.dst])
            col[inside] = self.profiles[eid].at_array(s[inside])
            parts.append(col)
        return np.concatenate(parts)[:, None]

    def germ_value(self, germ) -> float:
        self.graph.edge(germ.edge)  # refuses an unknown edge
        return self.profiles[germ.edge].at(germ.base)

    def sup_value(self) -> float:
        return max(self.profiles[eid].bounds(self.graph.edges[eid].length)[1] for eid in self.profiles)

    def default_tol(self) -> float:
        """Verification tolerance: tight when all profiles are closed-form,
        looser when sampled profiles force quadrature-grade arithmetic."""
        sampled = any(isinstance(p, Samples) for p in self.profiles.values())
        return 1e-6 if sampled else 1e-9
