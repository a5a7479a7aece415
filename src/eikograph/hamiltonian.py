"""Reduction of general Hamilton–Jacobi equations H(x, u, |∇u|) = 0 to
eikonal form, and the Kružkov change of variables.

For H coercive and strictly increasing in the slope argument past its zero,
the level-set rule

    h(x) = inf { p >= 0 : H(x, u(x), p) > 0 }

turns the general equation into |∇u| = h(x) with the same solutions.  The
reduction probes each sample point for the monotonicity it relies on and
refuses Hamiltonians that fail it, rather than returning a meaningless h.
When H depends on u itself, h and u come together from one label-setting
pass over the knots, Dijkstra-style: each knot's value is fixed once, in
increasing order.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .cost import FMIN, CostField, Samples
from .errors import (CoercivityProbeFailed, ImproperHamiltonian, InputError,
                     NonmonotoneHamiltonian, NoSubsolution)
from .graph import (GraphPoint, KnotBatch, MetricGraph, Vertex, _as_evaluator, _compose, _count,
                    _finite, _settle)
from .solver import BoundaryData, ValueFunction, solve

PROBE_POINTS = 64
BISECT_TOL = 1e-10
#: knots a reduction solves together: whole edges, up to this many knots
BATCH_KNOTS = 4096


@dataclass(frozen=True)
class Hamiltonian:
    """H(x, r, p) with the conventions the reduction machinery assumes.

    ``fn`` must be total on graph points x, reals r, and p >= 0; for p < 0
    the package extends by H(x, r, p) = H(x, r, 0), so callers may probe
    freely.  ``fn`` is called with ``p`` either a float or an ndarray and
    must act elementwise in ``p`` (numpy ufuncs such as ``np.maximum``, not
    the builtin ``max``); a value constant in ``p`` may come back as a
    scalar.  ``pmax`` must be a finite real number > 0, not a bool.

    ``x`` is a graph point or a ``KnotBatch``, which ``fn`` must broadcast
    over as it does over ``p``: the batch acts as an (n, 1) column, and
    ``CostField.value_at`` gives its f as one.  An ``fn`` that ignores ``x``
    needs nothing more.  With a batch, ``r`` is a float, or an (n, 1) column
    when u varies.

    ``reduce_to_eikonal`` makes one call of ``H`` per batch of knots, the
    sign scan over the probe grid [0, pmax] (``p`` the grid, the answer an
    (n, PROBE_POINTS) table).  It then calls ``fn`` directly for the root
    step, with ``p`` an (m, 1) column of probes for the m knots still
    bracketing: about 9 probes per knot on the catalog, never more than
    bisection's count plus one.  The r-dependent pass of ``solve_general``
    solves one knot at a time the same way, with a graph point and a Python
    float p.  Every root-step probe is > 0, where the zero-extension cannot
    act.
    """

    fn: Callable[[Union[GraphPoint, KnotBatch], Union[float, np.ndarray], Union[float, np.ndarray]],
                 Union[float, np.ndarray]]
    depends_on_r: bool = False
    pmax: float = 1e3
    name: str = ""

    def __post_init__(self):
        if not (_finite(self.pmax) and self.pmax > 0):
            raise InputError("pmax must be finite and > 0 (got %r)" % (self.pmax,))
        object.__setattr__(self, "pmax", float(self.pmax))

    def __call__(self, x: Union[GraphPoint, KnotBatch], r: Union[float, np.ndarray],
                 p: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        if isinstance(p, np.ndarray):
            # np.where(p > 0.0, p, 0.0) bit for bit, and cheaper: fmax takes the
            # 0.0 over NaN, and "+ 0.0" turns the -0.0 it may keep into +0.0
            return self.fn(x, r, np.fmax(p, 0.0) + 0.0)
        return self.fn(x, r, p if p > 0.0 else 0.0)


def _probe_grid(pmax: float) -> np.ndarray:
    return np.concatenate(([0.0], np.geomspace(pmax * 1e-9, pmax, PROBE_POINTS - 1)))


def _implicit_slope(H: Hamiltonian, x: GraphPoint, r: float, grid: np.ndarray) -> float:
    """inf{p >= 0 : H(x, r, p) > 0} by sign scan over ``grid`` (one array
    call) + an ITP root step on the bracket the scan finds, with the
    monotonicity probes that justify calling it a slope.  The result is
    within max(BISECT_TOL / 2, one ulp) of the root."""
    values = H(x, r, grid)
    positive = values > 0.0
    if not isinstance(positive, np.ndarray):  # H constant in p
        positive = np.full(grid.shape, positive)
    rise = int(positive.argmax())  # first positive; everything before is nonpositive
    if rise == 0 or np.count_nonzero(positive) != len(positive) - rise:
        _refuse(H, x, r, grid, positive)
    return _itp_root(H.fn, x, r, grid.item(rise - 1), grid.item(rise),
                     values.item(rise - 1), values.item(rise))


def _refuse(H: Hamiltonian, x: GraphPoint, r: float, grid: np.ndarray, positive: np.ndarray):
    """Raise the refusal of a knot whose sign scan ``positive`` (H > 0 on
    ``grid``) brackets no slope: it never turns positive, or it turns
    positive and back, or it is positive from p = 0 on."""
    rise = int(positive.argmax())
    if not positive[rise]:
        raise CoercivityProbeFailed(
            "H(x, r, .) never exceeds 0 up to pmax=%g at %r" % (H.pmax, x))
    # a positive value followed by a nonpositive one means H comes back down:
    # not increasing past its zero, so the infimum formula is meaningless
    if np.count_nonzero(positive) != len(positive) - rise:
        i = rise + int(positive[rise:].argmin())
        raise NonmonotoneHamiltonian(
            "H(x, r, .) drops from positive at p=%g back to nonpositive at p=%g"
            % (grid[i - 1], grid[i]),
            point=x, p_pair=(float(grid[i - 1]), float(grid[i])))
    raise NoSubsolution(
        "H(x, r, 0) = %g > 0: constants are not subsolutions at %r" % (H(x, r, 0.0), x))


def _itp_root(fn, x: GraphPoint, r: float, lo: float, hi: float,
              flo: float, fhi: float) -> float:
    """inf{p in (lo, hi] : fn(x, r, p) > 0} given fn(x, r, lo) = ``flo`` <= 0
    < ``fhi`` = fn(x, r, hi), by the ITP method (Oliveira and Takahashi, ACM
    TOMS 47(1), 2021): a regula falsi step, truncated toward the midpoint
    and kept close enough to it that after each step the bracket is no
    wider than bisection's one step earlier.  So it converges superlinearly
    on a smooth root and takes at most bisection's step count plus one on
    any other.  It stops when the bracket is BISECT_TOL wide or is two
    adjacent doubles, whichever comes first, and returns its midpoint,
    within max(BISECT_TOL / 2, one ulp) of the root.

    Every probe lies strictly inside (lo, hi), so with lo >= 0 it is a
    Python float p > 0, where H(x, r, p) is fn(x, r, p) bit for bit."""
    width = bound = hi - lo  # bound: the widest the bracket may be after the next step
    k1 = 0.2 / width  # truncation k1 * width**2, with the method's suggested k1 = 0.2 / (b - a)
    while width > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent doubles: past 2**19 they sit wider than BISECT_TOL
            break
        # regula falsi, truncated toward the midpoint and moved to within bound
        # of the far end, so that the next bracket is no wider than bound; the
        # midpoint when rounding has left bound below half the bracket
        falsi = (fhi * lo - flo * hi) / (fhi - flo)
        delta = k1 * width * width
        if falsi < mid:
            p = falsi + delta
            if p < hi - bound:
                p = hi - bound
            if not p < mid:
                p = mid
        else:  # NaN lands here too, and takes the midpoint
            p = falsi - delta
            if p > lo + bound:
                p = lo + bound
            if not p > mid:
                p = mid
        if not lo < p < hi:
            p = mid
        fp = fn(x, r, p)
        if fp > 0.0:
            hi, fhi = p, fp
        else:
            lo, flo = p, fp
        width = hi - lo
        bound *= 0.5
    return 0.5 * (lo + hi)


def _batch_slopes(H: Hamiltonian, u, X: KnotBatch, grid: np.ndarray) -> np.ndarray:
    """``_implicit_slope`` at every knot of ``X``, with r = u(knot), bit for
    bit: one array call of H scans every knot's grid, and the ITP root step
    runs on all of them in lockstep.  A knot without a slope raises its
    refusal as the scalar solve would, the first such knot in batch order."""
    n = len(X)
    ueval = _as_evaluator(u)
    r = float(u) if isinstance(u, (int, float)) else (
        np.array([ueval(x) for x in X.points()], dtype=float)[:, None])
    values = np.broadcast_to(H(X, r, grid), (n, len(grid)))
    positive = values > 0.0
    rise = positive.argmax(axis=1)  # first positive; everything before is nonpositive
    solvable = (rise > 0) & (np.count_nonzero(positive, axis=1) == len(grid) - rise)
    if not solvable.all():
        i = int(solvable.argmin())
        x = X.point(i)
        _refuse(H, x, ueval(x), grid, positive[i])
    rows = np.arange(n)
    return _itp_lockstep(H.fn, X, r, grid[rise - 1], grid[rise],
                         values[rows, rise - 1], values[rows, rise])


def _itp_lockstep(fn, X: KnotBatch, r, lo: np.ndarray, hi: np.ndarray,
                  flo: np.ndarray, fhi: np.ndarray) -> np.ndarray:
    """``_itp_root`` on every row of the brackets at once, bit for bit: the
    same steps as array operations over the rows still bracketing, each row
    leaving under the scalar stopping rule.  ``fn`` gets those rows as the
    sub-batch ``X[rows]`` with ``p`` an (m, 1) column.  Overflow and invalid
    operations are silent, as they are on Python floats."""
    out = np.empty(len(lo))
    rows = np.arange(len(lo))
    width = bound = hi - lo
    k1 = 0.2 / width
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            go = (width > BISECT_TOL) & (lo < mid) & (mid < hi)
            if not go.all():
                out[rows[~go]] = mid[~go]
                if not go.any():
                    return out
                rows, lo, hi, flo, fhi, width, bound, k1, mid = (
                    a[go] for a in (rows, lo, hi, flo, fhi, width, bound, k1, mid))
            falsi = (fhi * lo - flo * hi) / (fhi - flo)
            delta = k1 * width * width
            # the scalar step's clamps; a NaN falsi goes right, stays NaN, and
            # the bracket test below takes the midpoint, as the scalar step does
            p = np.where(falsi < mid,
                         np.minimum(np.maximum(falsi + delta, hi - bound), mid),
                         np.maximum(np.minimum(falsi - delta, lo + bound), mid))
            p = np.where((lo < p) & (p < hi), p, mid)[:, None]
            fp = fn(X[rows], r[rows] if isinstance(r, np.ndarray) else r, p)
            if np.shape(fp) != p.shape:
                fp = np.broadcast_to(fp, p.shape)
            p, fp = p[:, 0], fp[:, 0]
            up = fp > 0.0
            hi, fhi = np.where(up, p, hi), np.where(up, fp, fhi)
            lo, flo = np.where(up, lo, p), np.where(up, flo, fp)
            width = hi - lo
            bound = bound * 0.5


def _edge_knots(graph: MetricGraph, n_knots: int):
    """(edge id, the ``n_knots`` >= 2 uniform offsets where h is sampled), sorted."""
    n_knots = _count(n_knots, 2, "knot count n_knots")
    return [(eid, np.linspace(0.0, graph.edges[eid].length, n_knots))
            for eid in sorted(graph.edges)]


def reduce_to_eikonal(H: Hamiltonian, u: Union[float, Callable[[GraphPoint], float]],
                      graph: MetricGraph, n_knots: int = 65) -> CostField:
    """Materialize h(x) = inf{p : H(x, u(x), p) > 0} as a sampled cost field.

    ``u`` supplies the r-argument (a constant for r-independent H, any
    evaluable function otherwise, evaluated at every knot of a batch before
    any of them is solved).  Each edge gets ``n_knots`` uniform knots; h is
    clamped below at ``FMIN`` so the result is a legal cost field.

    The knots are solved in batches of whole edges, up to ``BATCH_KNOTS``
    knots: one call of ``H`` per batch scans every knot's probe grid as one
    (n, PROBE_POINTS) table, then the ITP root step runs on all the knots
    of the batch in lockstep, one call of ``fn`` per step on the knots
    still bracketing.  A knot takes about 9 steps on the catalog and never
    more than bisection's count plus one; a batch takes as many as its
    slowest knot.  Each h equals the scalar slope solve's bit for bit, and a
    knot without a slope is refused with its own witness, the first such
    knot in edge and knot order.
    """
    edge_knots = _edge_knots(graph, n_knots)
    grid = _probe_grid(H.pmax)
    per_batch = max(1, BATCH_KNOTS // n_knots)
    profiles: Dict[str, Samples] = {}
    for b in range(0, len(edge_knots), per_batch):
        runs = edge_knots[b:b + per_batch]
        h = np.maximum(_batch_slopes(H, u, KnotBatch(graph, runs), grid), FMIN).tolist()
        for j, (eid, knots) in enumerate(runs):
            profiles[eid] = Samples(knots.tolist(), h[j * n_knots:(j + 1) * n_knots])
    return CostField(graph, profiles)


def solve_general(H: Hamiltonian, graph: MetricGraph, data: BoundaryData,
                  n_knots: int = 65) -> ValueFunction:
    """Solve H(x, u, |∇u|) = 0 with Dirichlet data: ``solve`` of the reduced
    field, which the result keeps as ``.field``.

    r-independent H needs one reduction.  Otherwise h depends on u, and one
    label-setting pass finds both (Tsitsiklis, IEEE TAC 1995; on a network,
    Schieborn–Camilli, Calc. Var. PDE 2013).  Its nodes are the vertices and
    the interior knots, linked along each edge.  Seeded with g, it settles
    the cheapest node, fixes h there at the settled value, and relaxes each
    unsettled neighbour by one Heun step of u' = h(x, u) across the gap.

    H must be nondecreasing in r, so that h(x, r) is nonincreasing in r.  A
    settled node holds two slope solves at two values of r, the predictor's
    last and its own, and a pair in which h rises with r beyond the root
    step's tolerance is refused with ``ImproperHamiltonian``.  That costs
    no extra call of H, and it is a spot check, not a proof.
    """
    if not H.depends_on_r:
        return solve(reduce_to_eikonal(H, 0.0, graph, n_knots=n_knots), data)
    grid = _probe_grid(H.pmax)

    def slope(x: GraphPoint, r: float) -> float:
        return max(_implicit_slope(H, x, r, grid), FMIN)

    nodes: List[GraphPoint] = [Vertex(vid) for vid in graph.vertices]
    index = {vid: i for i, vid in enumerate(graph.vertices)}
    links: Dict[int, List[Tuple[int, float]]] = defaultdict(list)
    chains = []
    for eid, knots in _edge_knots(graph, n_knots):
        rec = graph.edges[eid]
        chain = [index[rec.src], *range(len(nodes), len(nodes) + n_knots - 2), index[rec.dst]]
        nodes += [graph.point(eid, float(s)) for s in knots[1:-1]]
        for a, b, gap in zip(chain, chain[1:], np.diff(knots).tolist()):
            links[a].append((b, gap))
            links[b].append((a, gap))
        chains.append((eid, knots, chain))

    h: Dict[int, float] = {}
    predicted: Dict[int, Tuple[float, float]] = {}  # node -> its last (r, slope) prediction

    def relax(i: int, c: float, settled) -> Iterator[Tuple[int, float]]:
        hi = h[i] = slope(nodes[i], c)
        if i in predicted:
            _check_proper(nodes[i], predicted.pop(i), (c, hi))
        for j, gap in links[i]:
            if j not in settled:
                r = c + gap * hi
                try:
                    hj = slope(nodes[j], r)
                    predicted[j] = (r, hj)
                except NoSubsolution:
                    # a predictor may overshoot to an r with H(x, r, 0) > 0,
                    # where the level-set formula gives 0; a settled node's
                    # slope still refuses it
                    hj = FMIN
                yield j, c + 0.5 * gap * (hi + hj)

    _settle({index[vid]: g for vid, g in data.items()}, relax)
    profiles = {eid: Samples(knots.tolist(), [h[n] for n in chain]) for eid, knots, chain in chains}
    return solve(CostField(graph, profiles), data)


def _check_proper(x: GraphPoint, first: Tuple[float, float], second: Tuple[float, float]):
    """Refuse H when two (r, h) slope solves at ``x`` show h rising with r
    by more than the root step can account for: a proper H is nondecreasing
    in r, so its slope h(x, r) is nonincreasing in r.  Each h is within
    BISECT_TOL / 2 of its root, so two can differ by BISECT_TOL either way;
    the margin is twice that, scaled for large slopes, whose last bits are
    coarser."""
    (r1, h1), (r2, h2) = sorted((first, second))
    if r1 < r2 and h2 - h1 > 2.0 * BISECT_TOL * max(1.0, h2):
        raise ImproperHamiltonian(
            "h(x, r) = inf{p : H(x, r, p) > 0} rises with r at %r: %.17g at r = %.17g, "
            "%.17g at r = %.17g; H must be nondecreasing in r (a spot check at the "
            "settled knots, not a proof that H is proper elsewhere)" % (x, h1, r1, h2, r2),
            witness=(x, r1, r2, h1, h2))


# ----------------------------------------------------------------------
# Kružkov transform
# ----------------------------------------------------------------------

def _strictly_negative(v: float, p: GraphPoint):
    if not v < 0.0:
        raise InputError("inverse transform needs strictly negative values, got %r at %r" % (v, p))


def kruzkov(u, direction: str = "forward"):
    """The transform U = -e^(-u) (``forward``), which maps solutions of
    |∇u| = f to |∇U| + f U = 0, or its inverse u = -log(-U), defined only
    where U < 0.  Both are one chain-rule composition (``graph._compose``).

    The result evaluates anywhere the input does and carries exact one-sided
    derivatives by the chain rule whenever the input has them, so slope
    computations commute with the transform.
    """
    if direction == "forward":
        return _compose(u, lambda v: -math.exp(-v), lambda v, dv: math.exp(-v) * dv)
    if direction == "inverse":
        return _compose(u, lambda v: -math.log(-v), lambda v, dv: dv / (-v), _strictly_negative)
    raise InputError("direction must be 'forward' or 'inverse', got %r" % direction)


# ----------------------------------------------------------------------
# built-in catalog
# ----------------------------------------------------------------------

def catalog(name: str, field: Optional[CostField] = None) -> Hamiltonian:
    """Named Hamiltonians for the CLI and the test batteries.

    ``eikonal-affine`` (p - f) and ``quadratic`` (p² - f²) read f from the
    supplied cost field through ``value_at``, a float at a point and a
    column for a knot batch (f ≡ 1 when no field is given).  ``quadratic``
    writes f² as ``f * f``, one correctly rounded product on floats and
    arrays alike (``f ** 2`` on a float goes through ``pow``, which rounds
    differently at some f).  The two ``nonmono-*`` entries are the canonical
    rejects whose graphs dip back below zero; ``discounted`` is the
    r-coupled p + r - 1.
    """
    fval = field.value_at if field is not None else (lambda x: 1.0)
    if name == "eikonal-affine":
        return Hamiltonian(lambda x, r, p: p - fval(x), name=name)
    if name == "quadratic":
        def quadratic(x, r, p):
            f = fval(x)
            return p * p - f * f
        return Hamiltonian(quadratic, name=name)
    if name == "nonmono-a":
        return Hamiltonian(
            lambda x, r, p: 1.0 - abs(p - 2.0) + np.square(np.maximum(p - 3.0, 0.0)),
            name=name)
    if name == "nonmono-b":
        return Hamiltonian(
            lambda x, r, p: 1.0 - abs(p) + np.square(np.maximum(p - 3.0, 0.0)),
            name=name)
    if name == "discounted":
        return Hamiltonian(lambda x, r, p: p + r - 1.0, depends_on_r=True, name=name)
    raise InputError("unknown Hamiltonian %r (catalog: eikonal-affine, quadratic, "
                     "nonmono-a, nonmono-b, discounted)" % name)
