"""Edge cost profiles and the running cost field f.

A profile describes f restricted to one edge as a function of the arc-length
offset ``s`` from the edge's src endpoint.  What the rest of the package
actually consumes is the cumulative integral ``F(s) = ∫_0^s f`` and its
inverse, both of which every profile provides in closed form so that optical
lengths and kink offsets stay at full float accuracy for constant and linear
speed fields.  ``Constant`` is defined in ``graph``, whose unit table is
made of it, and is imported here with the other profiles.

The profile protocol: ``at(s)``, ``integral(s0, s1)`` and
``inverse_integral(target)`` (from 0), plus either ``PARAMS`` or a table.  A
class whose ``at`` and ``integral`` are one expression in its parameters names
them in ``PARAMS``, so that a batch gathers them by edge and calls those
methods on arrays; any other profile is a row of a table.  Only
``bounds(length)`` and ``check(length, fmin)`` take the edge's length; ``check``
returns the profile a ``CostField`` keeps, its params floats, and changes none.

A sampled profile is a row of float64 tables and nothing else.  A field
checks its sampled profiles together: those with K knots make one (n, K)
table of knots and one of values, on which each of ``check``'s rules is one
array predicate, and F is built for the whole table at once.  A batch reads
the rows of one table together (``Samples._table_at`` and
``_table_integral``, which only ``graph._Rates`` calls).
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InputError, ProfileError
from .graph import Constant, EdgeInterior, GraphPoint, KnotBatch, MetricGraph, _floats, _per_row, _Rates, _reals

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

    def integral(self, s0: float, s1: float) -> float:
        return self.a * (s1 - s0) + 0.5 * self.b * (s1 * s1 - s0 * s0)

    # at and integral are one expression on floats or arrays, the coefficients included
    PARAMS = ("a", "b")

    def inverse_integral(self, target: float) -> float:
        return _advance(self.a, self.b, target)

    def bounds(self, length: float) -> Tuple[float, float]:
        v0, v1 = self.a, self.a + self.b * length
        return min(v0, v1), max(v0, v1)


def _tabulate(profiles: Sequence["Samples"], knots: np.ndarray, values: np.ndarray) -> None:
    """Make each profile a row of one table: ``knots`` and ``values`` are
    (n, K) float64 arrays, one row per profile, and F at every knot, its
    steps ``F[i] - F[i-1]`` (0 at the first) and each segment's slope
    ``(v[i+1] - v[i]) / (k[i+1] - k[i])`` (0 at the last knot) are built for
    all rows at once.  Accumulate adds in order, so each F equals the loop
    ``F[i+1] = F[i] + 0.5 (v[i] + v[i+1]) (k[i+1] - k[i])`` bit for bit, and
    overflows to inf as it does."""
    (F, steps, slope), dk = np.zeros((3,) + knots.shape), np.diff(knots)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.cumsum(0.5 * (values[:, :-1] + values[:, 1:]) * dk, axis=1, out=F[:, 1:])
        np.subtract(F[:, 1:], F[:, :-1], out=steps[:, 1:])
        np.divide(np.diff(values), dk, out=slope[:, :-1])
    table, K = (knots, values, F, steps, slope), knots.shape[1]
    views = tuple(memoryview(t.ravel()) for t in table)
    for j, prof in enumerate(profiles):
        prof._table, prof._row, prof._flat = table, j, (*views, j * K, j * K + K - 1)


def _lockstep(knots: np.ndarray, row: np.ndarray, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets ``s`` on rows ``row`` of an (n, K) knot table: each clamped
    to its row's knots, and the flat index of the knot that starts its
    segment, which is ``searchsorted(side="right") - 1`` in its row clipped
    to [0, K-2].  All rows bisect together: each of the ceil(log2(K-1))
    steps gathers one knot per row and compares."""
    K = knots.shape[1]
    flat, first = knots.ravel(), row * K
    s = np.minimum(np.maximum(s, flat[first]), flat[first + (K - 1)])
    last, i = K - 2, np.zeros(len(s), dtype=np.intp)
    step = 1 << (last.bit_length() - 1) if last else 0
    while step:
        j = i + step
        # not s < knot, so that NaN goes right, where searchsorted puts it
        i = np.where((j <= last) & ~(s < flat[first + np.minimum(j, last)]), j, i)
        step >>= 1
    return s, first + i


_INCREASING = "sampled profile knots must be strictly increasing"


#: ``Samples.check``'s rules, in the order it applies them: for (n, K) float64
#: tables of knots and values on edges of the given lengths, which rows break
#: the rule; and the words that refuse one such row, given its knots and
#: values as lists of floats and its edge's length.  NaN fails every
#: comparison, so a NaN knot breaks the increasing rule and a NaN value the
#: finite one; a value of -inf is named by the floor rule.
_SAMPLE_RULES = (
    (lambda k, v, length, fmin: k[:, 0] != 0.0,
     lambda k, v, length, fmin: "sampled profile must start at offset 0 (got %r)" % (k[0],)),
    (lambda k, v, length, fmin: ~(k[:, 1:] > k[:, :-1]).all(axis=1),
     lambda k, v, length, fmin: _INCREASING),
    (lambda k, v, length, fmin: np.abs(k[:, -1] - length) > 1e-12 * np.maximum(1.0, length),
     lambda k, v, length, fmin: "sampled profile ends at %r but the edge has length %r"
     % (k[-1], length)),
    # snapping the last knot to the length must keep the knots increasing
    (lambda k, v, length, fmin: ~(k[:, -2] < length), lambda k, v, length, fmin: _INCREASING),
    (lambda k, v, length, fmin: ~(v < math.inf).all(axis=1),
     lambda k, v, length, fmin: "sampled profile values %r are not finite"
     % ([x for x in v if not x < math.inf],)),
    (lambda k, v, length, fmin: ~(v.min(axis=1) >= fmin),
     lambda k, v, length, fmin: "sampled profile values %r below floor %r"
     % ([x for x in v if x < fmin], fmin)),
)


def _F(row: Tuple[memoryview, ...], s: float) -> float:
    """F(s) = ∫_0^s f on a row (``Samples._flat``): the segment holding s,
    then the trapezoid to s; from the last knot on, F's last entry, which
    is that trapezoid bit for bit (``cumsum``'s last term) where the knots
    increase and the values are finite, as a checked profile's are."""
    k, v, F, _, _, first, last = row
    if s >= k[last]:
        return F[last]
    s = max(s, k[first])
    i = bisect_right(k, s, first + 1, last) - 1
    ki, vi = k[i], v[i]
    t = s - ki
    w = t / (k[i + 1] - ki)
    return F[i] + 0.5 * (vi + (vi * (1.0 - w) + v[i + 1] * w)) * t


class Samples:
    """f given by values at increasing knots along the edge, linearly
    interpolated between them.  Knots must start at 0 and end at the edge
    length (the last knot may be off by float dust; ``check`` snaps it).

    A checked profile is row ``_row`` of float64 tables (``_table``) of
    knots, values, F at each knot, F's steps and the segments' slopes, and
    holds no copy of them:
    ``knots`` and ``values`` read its row as tuples of floats, and the
    scalar methods read it through flat memoryviews (``_flat``, with the
    flat indices of its first and last knot).  ``_bounds`` are its values'
    (min, max).  A ``CostField`` checks its sampled profiles together, one
    table for each knot count.  An unchecked profile keeps its lists as
    given (``_given``) and builds a table of one row on first use."""

    __slots__ = ("_given", "_table", "_row", "_flat", "_bounds")

    def __init__(self, knots: Sequence[float], values: Sequence[float]):
        self._given: Optional[Tuple[Sequence[float], Sequence[float]]] = (knots, values)
        self._table = self._flat = self._bounds = None
        self._row = 0

    @property
    def knots(self) -> Sequence[float]:
        return self._given[0] if self._given else tuple(self._table[0][self._row].tolist())

    @property
    def values(self) -> Sequence[float]:
        return self._given[1] if self._given else tuple(self._table[1][self._row].tolist())

    def __eq__(self, other) -> bool:
        if type(other) is not Samples:
            return NotImplemented
        return (self.knots, self.values) == (other.knots, other.values)

    def __hash__(self) -> int:
        return hash((self.knots, self.values))

    def __repr__(self) -> str:
        return "Samples(knots=%r, values=%r)" % (self.knots, self.values)

    def __getstate__(self):
        # a memoryview does not pickle: a copy makes its views on first use
        return None, {"_given": self._given, "_table": self._table, "_row": self._row, "_flat": None,
                      "_bounds": self._bounds}

    def check(self, length: float, fmin: float) -> "Samples":
        (checked,) = Samples._check_many([self], [length], fmin)
        if isinstance(checked, InputError):
            raise checked
        return checked

    @staticmethod
    def _check_many(profiles: Sequence["Samples"], lengths: Sequence[float],
                    fmin: float) -> List[Union["Samples", InputError]]:
        """``check`` on each profile, on the edge of the matching length:
        the checked profile, a row of a table, or the error that refuses it.
        The profiles with K knots make one (n, K) table of knots and one of
        values, and a row is refused in the words of the first of
        ``_SAMPLE_RULES`` it breaks.  Lists of floats of one length
        (``graph._floats``) go into the tables as they are; any others go
        through ``_reals``, which names what it refuses."""
        out: List[Union[Samples, InputError]] = [None] * len(profiles)
        groups: Dict[int, list] = {}
        for i, (prof, length) in enumerate(zip(profiles, lengths)):
            k, v = prof._given or (prof.knots, prof.values)
            if not (_floats(k) and _floats(v) and 2 <= len(k) == len(v)):
                try:
                    k = _reals(k, "sampled profile knot")
                    v = _reals(v, "sampled profile value")
                    if len(k) < 2 or len(k) != len(v):
                        raise InputError("sampled profile needs >= 2 matching knots and values")
                except InputError as exc:
                    out[i] = exc
                    continue
            groups.setdefault(len(k), []).append((i, k, v, length))
        for rows in groups.values():
            index, ks, vs, ls = zip(*rows)
            knots, values, length = np.array(ks, dtype=float), np.array(vs, dtype=float), np.array(ls)
            with np.errstate(invalid="ignore", over="ignore"):
                broken = [rule(knots, values, length, fmin) for rule, _ in _SAMPLE_RULES]
            ok = ~np.logical_or.reduce(broken)
            for j in np.flatnonzero(~ok).tolist():
                words = next(words for (_, words), row in zip(_SAMPLE_RULES, broken) if row[j])
                out[index[j]] = InputError(words(knots[j].tolist(), values[j].tolist(), ls[j], fmin))
            if not ok.all():
                index = [i for i, kept in zip(index, ok.tolist()) if kept]
                knots, values, length = knots[ok], values[ok], length[ok]
            knots[:, -1] = length
            checked = [Samples.__new__(Samples) for _ in index]
            _tabulate(checked, knots, values)
            for i, prof, bounds in zip(index, checked, zip(values.min(axis=1).tolist(),
                                                             values.max(axis=1).tolist())):
                prof._given, prof._bounds = None, bounds
                out[i] = prof
        return out

    def _rows(self) -> Tuple[memoryview, ...]:
        """``_flat``, made on first use: a copy's views of its table, or an
        unchecked profile's table of one row."""
        if self._flat is None and self._table is None:
            knots, values = self._given
            _tabulate([self], np.array([knots], dtype=float), np.array([values], dtype=float))
        elif self._flat is None:
            K = self._table[0].shape[1]
            self._flat = (*(memoryview(t.ravel()) for t in self._table), self._row * K,
                          self._row * K + K - 1)
        return self._flat

    def at(self, s: float) -> float:
        k, v, _, _, _, first, last = self._flat or self._rows()
        s = min(max(s, k[first]), k[last])
        i = bisect_right(k, s, first + 1, last) - 1
        ki = k[i]
        w = (s - ki) / (k[i + 1] - ki)
        return v[i] * (1.0 - w) + v[i + 1] * w

    @staticmethod
    def _table_at(table: Tuple[np.ndarray, ...], row: np.ndarray, s: np.ndarray) -> np.ndarray:
        """``at`` at each offset of ``s`` on the profile that is row ``row``
        of ``table`` (a profile's ``_table``), bit for bit; the rows find
        their segments together (``_lockstep``)."""
        knots, values = table[:2]
        s, i = _lockstep(knots, row, s)
        k, v = knots.ravel(), values.ravel()
        w = (s - k[i]) / (k[i + 1] - k[i])
        return v[i] * (1.0 - w) + v[i + 1] * w

    def integral(self, s0: float, s1: float) -> float:
        row = self._flat or self._rows()
        return _F(row, s1) - _F(row, s0)

    @staticmethod
    def _table_integral(table: Tuple[np.ndarray, ...], row: np.ndarray, s0: np.ndarray,
                        s1: np.ndarray) -> np.ndarray:
        """``integral`` at each pair of offsets as ``_table_at`` reads
        ``at``, bit for bit."""
        knots, values, pre = table[:3]
        s, i = _lockstep(knots, np.concatenate((row, row)), np.concatenate((s1, s0)))
        k, v = knots.ravel(), values.ravel()
        ki, vi = k[i], v[i]
        t = s - ki
        w = t / (k[i + 1] - ki)
        F = pre.ravel()[i] + 0.5 * (vi + (vi * (1.0 - w) + v[i + 1] * w)) * t
        return F[:len(s1)] - F[len(s1):]

    def inverse_integral(self, target: float) -> float:
        k, v, _, steps, slope, i, last = self._flat or self._rows()
        end = last - 1
        # march knot segments (f linear on each); the last takes what remains
        while i < end and target > (step := steps[i + 1]):
            target -= step
            i += 1
        return k[i] + _advance(v[i], slope[i], target)

    def bounds(self, length: float) -> Tuple[float, float]:
        return self._bounds or (min(self.values), max(self.values))


Profile = Union[Constant, Linear, Samples]


class CostField:
    """The running cost f over a whole graph: one profile per edge.

    Every edge must be covered.  A profile that fails its ``check`` (number
    params, structure, the floor) or whose cost overflows is refused with a
    ``ProfileError`` naming the edge, the first such edge in the order of
    ``profiles``, so integrals can assume FMIN <= f.  The sampled profiles
    are checked together first, one table per knot count, and each that
    fails is refused in its turn.
    """

    def __init__(self, graph: MetricGraph, profiles: Dict[str, Profile]):
        missing = sorted(set(graph.edges) - set(profiles))
        if missing:
            raise InputError("cost field is missing profiles for edges: %s" % ", ".join(missing))
        extra = sorted(set(profiles) - set(graph.edges))
        if extra:
            raise InputError("cost field has profiles for unknown edges: %s" % ", ".join(extra))
        sampled = [eid for eid, prof in profiles.items() if type(prof) is Samples]
        checked = dict(zip(sampled, Samples._check_many(
            [profiles[eid] for eid in sampled], [graph.edges[eid].length for eid in sampled], FMIN)))
        self.profiles: Dict[str, Profile] = {}
        for eid, prof in profiles.items():
            length = graph.edges[eid].length
            try:
                prof = checked.get(eid) or prof.check(length, FMIN)
                if isinstance(prof, InputError):
                    raise prof
                self.profiles[eid] = prof
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
            return self._edge_costs(eid._on(self.graph).edges, s0, s1)
        rec = self.graph.edge(eid)
        lo, hi = (s0, s1) if s0 <= s1 else (s1, s0)
        if lo < -1e-12 or hi > rec.length * (1 + 1e-12):
            raise InputError("segment [%r, %r] outside edge %r" % (s0, s1, eid))
        lo = max(lo, 0.0)
        hi = min(hi, rec.length)
        return self.profiles[eid].integral(lo, hi)

    @functools.cached_property
    def _rates(self) -> _Rates:
        return self.graph._rates(self.profiles)

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
        once per batch: the least f over each row's germs (``KnotBatch.germs``,
        read by the field's ``_Rates``), one germ each way inside an edge."""
        if isinstance(p, EdgeInterior):
            self.graph.validate_point(p)
            return self.profiles[p.edge].at(p.s)
        if isinstance(p, KnotBatch):
            return p._on(self.graph).column(self, self._least_germ_values)
        return min(map(self.germ_value, self.graph.germs(p)))

    def _least_germ_values(self, X: KnotBatch) -> np.ndarray:
        """The least f over each row's germs, as a column."""
        owner, G, _ = X.germs()
        return _per_row(np.minimum, self._rates.at_rows(G), owner)[:, None]

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
