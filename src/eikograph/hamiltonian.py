"""Reduction of general Hamilton–Jacobi equations H(x, u, |∇u|) = 0 to
eikonal form, and the Kružkov change of variables.

For H coercive and strictly increasing in the slope argument past its zero,
the level-set rule

    h(x) = inf { p >= 0 : H(x, u(x), p) > 0 }

turns the general equation into |∇u| = h(x) with the same solutions.  The
reduction probes each sample point for the monotonicity it relies on and
refuses Hamiltonians that fail it, rather than returning a meaningless h.
When H depends on u itself, a fixed-point loop re-reduces against the last
iterate until the solve stabilizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from .cost import CostField, Samples
from .errors import (CoercivityProbeFailed, DivergenceError, InputError,
                     NonmonotoneHamiltonian, NoSubsolution, PreconditionError)
from .graph import GraphPoint, MetricGraph, Vertex
from .solver import BoundaryData, ValueFunction, solve

PROBE_POINTS = 64
BISECT_TOL = 1e-10


@dataclass(frozen=True)
class Hamiltonian:
    """H(x, r, p) with the conventions the reduction machinery assumes.

    ``fn`` must be total on graph points x, reals r, and p >= 0; for p < 0
    the package extends by H(x, r, p) = H(x, r, 0), so callers may probe
    freely.  ``fn`` is called with ``p`` either a float or a 1-D ndarray
    and must act elementwise in ``p`` (numpy ufuncs such as ``np.maximum``,
    not the builtin ``max``); a value constant in ``p`` may come back as a
    scalar.  The reduction costs one array call per knot for the sign scan
    over the probe grid, then about 32 scalar calls for the bisection.  The
    declared flags describe intent, not verified fact — the probes in
    reduce_to_eikonal are what actually accept or reject.
    """

    fn: Callable[[GraphPoint, float, Union[float, np.ndarray]], Union[float, np.ndarray]]
    depends_on_r: bool = False
    claims_increasing: bool = True
    pmax: float = 1e3
    name: str = ""

    def __call__(self, x: GraphPoint, r: float,
                 p: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        if isinstance(p, np.ndarray):
            return self.fn(x, r, np.where(p > 0.0, p, 0.0))
        return self.fn(x, r, p if p > 0.0 else 0.0)


def _probe_grid(pmax: float) -> np.ndarray:
    return np.concatenate(([0.0], np.geomspace(pmax * 1e-9, pmax, PROBE_POINTS - 1)))


def _implicit_slope(H: Hamiltonian, x: GraphPoint, r: float, grid: np.ndarray) -> float:
    """inf{p >= 0 : H(x, r, p) > 0} by sign scan over ``grid`` (one array
    call) + bisection, with the monotonicity probes that justify calling it
    a slope."""
    positive = np.broadcast_to(H(x, r, grid), grid.shape) > 0.0
    rise = int(np.argmax(positive))  # first positive; everything before is nonpositive
    if not positive[rise]:
        raise CoercivityProbeFailed(
            "H(x, r, .) never exceeds 0 up to pmax=%g at %r" % (H.pmax, x))
    # a positive value followed by a nonpositive one means H comes back down:
    # not increasing past its zero, so the infimum formula is meaningless
    drops = np.flatnonzero(~positive[rise:])
    if drops.size:
        i = rise + int(drops[0])
        raise NonmonotoneHamiltonian(
            "H(x, r, .) drops from positive at p=%g back to nonpositive at p=%g"
            % (grid[i - 1], grid[i]),
            point=x, p_pair=(float(grid[i - 1]), float(grid[i])))
    if rise == 0:
        raise NoSubsolution(
            "H(x, r, 0) = %g > 0: constants are not subsolutions at %r" % (H(x, r, 0.0), x))
    lo, hi = float(grid[rise - 1]), float(grid[rise])
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if H(x, r, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _as_evaluator(u: Union[float, Callable[[GraphPoint], float]]) -> Callable[[GraphPoint], float]:
    if isinstance(u, (int, float)):
        c = float(u)
        return lambda p: c
    if hasattr(u, "evaluate"):
        return u.evaluate
    return u


def reduce_to_eikonal(H: Hamiltonian, u: Union[float, Callable[[GraphPoint], float]],
                      graph: MetricGraph, n_knots: int = 65,
                      fmin: float = 1e-6) -> CostField:
    """Materialize h(x) = inf{p : H(x, u(x), p) > 0} as a sampled cost field.

    ``u`` supplies the r-argument (a constant for r-independent H, any
    evaluable function otherwise).  Each edge gets ``n_knots`` uniform knots;
    h is clamped below at ``fmin`` so the result is a legal cost field.
    """
    if n_knots < 2:
        raise InputError("need at least 2 knots per edge (got %r)" % n_knots)
    ueval = _as_evaluator(u)
    grid = _probe_grid(H.pmax)
    profiles: Dict[str, Samples] = {}
    for eid in sorted(graph.edges):
        L = graph.edges[eid].length
        knots = np.linspace(0.0, L, n_knots)
        values = []
        for s in knots:
            p = graph.point(eid, float(s))
            values.append(max(_implicit_slope(H, p, ueval(p), grid), fmin))
        profiles[eid] = Samples(tuple(float(s) for s in knots), tuple(values))
    return CostField(graph, profiles, fmin=fmin)


def _probe_r_monotone(H: Hamiltonian, graph: MetricGraph, lam: float,
                      r_lo: float, r_hi: float, tol: float = 1e-9):
    """Spot-check H(x,r,p) - H(x,s,p) >= lam (r - s) for r > s on a small
    (x, r, p) grid; a violation voids the fixed-point argument."""
    pts: List[GraphPoint] = [Vertex(vid) for vid in list(graph.vertices)[:3]]
    eid = next(iter(sorted(graph.edges)))
    pts.append(graph.point(eid, 0.5 * graph.edges[eid].length))
    rs = np.linspace(r_lo, r_hi, 5)
    ps = [0.0, 0.5, 1.0, 5.0]
    for x in pts:
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                for p in ps:
                    gap = H(x, float(rs[j]), p) - H(x, float(rs[i]), p)
                    need = lam * (float(rs[j]) - float(rs[i]))
                    if gap < need - tol:
                        raise PreconditionError(
                            "H is not %g-monotone in r: gap %g < %g at %r, p=%g"
                            % (lam, gap, need, x, p))


def solve_general(H: Hamiltonian, graph: MetricGraph, data: BoundaryData,
                  lam: Optional[float] = None, n_knots: int = 65,
                  fmin: float = 1e-6, tol: float = 1e-8,
                  max_iter: int = 200) -> ValueFunction:
    """Solve H(x, u, |∇u|) = 0 with Dirichlet data by iterated reduction.

    r-independent H needs exactly one reduction and one solve.  Otherwise:
    start from the reduction at the constant max(g), then re-reduce against
    each solve until successive iterates agree to ``tol`` in sup norm over
    vertices and knots.  The contraction comes from H growing in r (rate
    ``lam`` when supplied, which is then spot-checked).
    """
    if not H.depends_on_r:
        field = reduce_to_eikonal(H, 0.0, graph, n_knots=n_knots, fmin=fmin)
        return solve(field, data)
    gvals = [g for _vid, g in data.items()]
    if lam is not None:
        _probe_r_monotone(H, graph, lam, min(gvals) - 1.0, max(gvals) + 1.0)

    probes: List[GraphPoint] = [Vertex(vid) for vid in graph.vertices]
    for eid in sorted(graph.edges):
        L = graph.edges[eid].length
        probes.extend(graph.point(eid, L * k / (n_knots - 1)) for k in range(1, n_knots - 1))

    u_prev = solve(reduce_to_eikonal(H, max(gvals), graph, n_knots=n_knots, fmin=fmin), data)
    history: List[float] = []
    for _ in range(max_iter):
        u_next = solve(reduce_to_eikonal(H, u_prev, graph, n_knots=n_knots, fmin=fmin), data)
        diff = max(abs(u_next.evaluate(p) - u_prev.evaluate(p)) for p in probes)
        history.append(diff)
        u_prev = u_next
        if diff < tol:
            return u_prev
    raise DivergenceError(
        "no fixed point after %d reductions (last change %g)" % (max_iter, history[-1]),
        history=history)


# ----------------------------------------------------------------------
# Kružkov transform
# ----------------------------------------------------------------------

class _KruzkovForward:
    """U = -exp(-u): maps solutions of |∇u| = f to |∇U| + f U = 0."""

    def __init__(self, u):
        self._u = u
        self._inner = _as_evaluator(u)
        g = getattr(u, "graph", None)
        if g is not None:
            self.graph = g

    def evaluate(self, p: GraphPoint) -> float:
        return -math.exp(-self._inner(p))

    __call__ = evaluate


class _KruzkovForwardDiff(_KruzkovForward):
    def germ_derivative(self, p: GraphPoint, germ) -> float:
        return math.exp(-self._inner(p)) * self._u.germ_derivative(p, germ)


class _KruzkovInverse:
    """u = -log(-U), defined only where U < 0."""

    def __init__(self, U):
        self._U = U
        self._outer = _as_evaluator(U)
        g = getattr(U, "graph", None)
        if g is not None:
            self.graph = g

    def _value(self, p: GraphPoint) -> float:
        val = self._outer(p)
        if not val < 0.0:
            raise InputError("inverse transform needs strictly negative values, got %r at %r" % (val, p))
        return val

    def evaluate(self, p: GraphPoint) -> float:
        return -math.log(-self._value(p))

    __call__ = evaluate


class _KruzkovInverseDiff(_KruzkovInverse):
    def germ_derivative(self, p: GraphPoint, germ) -> float:
        return self._U.germ_derivative(p, germ) / (-self._value(p))


def kruzkov(u, direction: str = "forward"):
    """The transform U = -e^(-u) (``forward``) or its inverse u = -log(-U).

    The result evaluates anywhere the input does and carries exact one-sided
    derivatives by the chain rule whenever the input has them, so slope
    computations commute with the transform.
    """
    diff = hasattr(u, "germ_derivative")
    if direction == "forward":
        return _KruzkovForwardDiff(u) if diff else _KruzkovForward(u)
    if direction == "inverse":
        return _KruzkovInverseDiff(u) if diff else _KruzkovInverse(u)
    raise InputError("direction must be 'forward' or 'inverse', got %r" % direction)


# ----------------------------------------------------------------------
# built-in catalog
# ----------------------------------------------------------------------

def catalog(name: str, field: Optional[CostField] = None) -> Hamiltonian:
    """Named Hamiltonians for the CLI and the test batteries.

    ``eikonal-affine`` and ``quadratic`` use the supplied cost field as f
    (f ≡ 1 when none is given); the two ``nonmono-*`` entries are the
    canonical rejects whose graphs dip back below zero; ``discounted`` is
    the r-coupled p + r - 1.
    """
    fval = (lambda x: field.value_at(x)) if field is not None else (lambda x: 1.0)
    if name == "eikonal-affine":
        return Hamiltonian(lambda x, r, p: p - fval(x), name=name)
    if name == "quadratic":
        return Hamiltonian(lambda x, r, p: p * p - fval(x) ** 2, name=name)
    if name == "nonmono-a":
        return Hamiltonian(
            lambda x, r, p: 1.0 - abs(p - 2.0) + np.square(np.maximum(p - 3.0, 0.0)),
            claims_increasing=False, name=name)
    if name == "nonmono-b":
        return Hamiltonian(
            lambda x, r, p: 1.0 - abs(p) + np.square(np.maximum(p - 3.0, 0.0)),
            claims_increasing=False, name=name)
    if name == "discounted":
        return Hamiltonian(lambda x, r, p: p + r - 1.0, depends_on_r=True, name=name)
    raise InputError("unknown Hamiltonian %r (catalog: eikonal-affine, quadratic, "
                     "nonmono-a, nonmono-b, discounted)" % name)
