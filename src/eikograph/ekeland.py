"""A constructive variational principle on finite metric spaces.

Given f bounded below and a starting point x0 with f(x0) finite, there is a
point xe with

    (a)  f(xe) + eps * d(x0, xe) <= f(x0), and
    (b)  f(y)  + eps * d(xe, y)  >  f(xe)   for every y != xe;

xe both improves on x0 (penalized by the move) and is a strict minimum of
the penalized functional centered at itself.  On a finite space the proof's
inductive sequence terminates after finitely many strict descents, so the
construction below returns an exact witness — and re-checks both conditions
by exhaustive scan before handing it over, using the same comparison shapes
as the descent loop so the check cannot disagree with the construction on
well-posed (e.g. dyadic) data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Union

from .errors import InputError, PreconditionError, VerificationError
from .graph import _count, _finite, _reals
from .spaces import FiniteMetricSpace


@dataclass
class EkelandRecord:
    point: int
    path: List[int]                      # descent iterates, x0 first
    eps: float
    x0: int
    improvement_ok: bool                 # condition (a)
    strictness_ok: bool                  # condition (b)


def _one_value_per_point(space: FiniteMetricSpace, fvals: Sequence[float]):
    if len(fvals) != len(space):
        raise InputError("need one value per point (%d points, %d values)"
                         % (len(space), len(fvals)))


def _validate(space: FiniteMetricSpace, fvals: Sequence[float], x0: int):
    _one_value_per_point(space, fvals)
    for v in fvals:
        if math.isnan(v) or v == -math.inf:
            raise InputError("values must be > -inf and not NaN (got %r)" % v)
    if not any(math.isfinite(v) for v in fvals):
        raise InputError("all values are infinite; nothing to minimize")
    if not (0 <= x0 < len(space)):
        raise InputError("start index %r out of range" % (x0,))
    if not math.isfinite(fvals[x0]):
        raise PreconditionError("f(x0) must be finite (got %r at %d)" % (fvals[x0], x0))


def ekeland_point(space: FiniteMetricSpace, fvals: Sequence[float], eps: float,
                  x0: int, full: bool = False) -> Union[int, EkelandRecord]:
    """The descent construction: from x, look at the penalized sublevel set

        S(x) = { y : f(y) + eps * d(x, y) <= f(x) }

    (which always contains x), move to the f-minimizer of S(x) — ties broken
    by smallest index — and stop when S(x) = {x}.  Every proper move strictly
    decreases f, so on a finite space this stops; the stopping condition *is*
    condition (b), and the moves telescope into condition (a).  ``fvals``
    must be real numbers by ``_reals``' rule and ``x0`` an int >= 0.
    """
    # an infinite rate makes inf * d(x, x) NaN, which drops x from S(x)
    if not (_finite(eps) and eps > 0):
        raise InputError("eps must be positive and finite (got %r)" % (eps,))
    x0 = _count(x0, 0, "start index x0")
    f = _reals(fvals, "value")
    _validate(space, f, x0)
    n = len(space)
    x = x0
    path = [x0]
    while True:
        members = [y for y in range(n) if f[y] + eps * space.d(x, y) <= f[x]]
        if len(members) == 1:
            break
        x = min(members, key=lambda y: (f[y], y))
        path.append(x)

    # exhaustive post-hoc verification of both conditions at the returned point
    a_ok = f[x] + eps * space.d(x0, x) <= f[x0]
    b_ok = all(f[y] + eps * space.d(x, y) > f[x] for y in range(n) if y != x)
    if not (a_ok and b_ok):
        raise VerificationError(
            "returned point %d fails the exhaustive check (improvement=%s, strictness=%s)"
            % (x, a_ok, b_ok))
    if full:
        return EkelandRecord(point=x, path=path, eps=float(eps), x0=x0,
                             improvement_ok=a_ok, strictness_ok=b_ok)
    return x


def ekeland_maximize(space: FiniteMetricSpace, fvals: Sequence[float], delta: float,
                     lam: float, x0: int, full: bool = False) -> Union[int, EkelandRecord]:
    """Near-maximizer refinement: if f(x0) >= sup f - delta, there is x_lam
    with  f(x_lam) >= f(x0),  d(x_lam, x0) <= lam,  and
    f(y) < f(x_lam) + (delta/lam) d(x_lam, y) for y != x_lam.

    Realized by running the descent on -f with eps = delta/lam; the three
    conclusions are re-verified on the way out.  ``fvals`` must be real
    numbers by ``_reals``' rule and ``x0`` an int >= 0.
    """
    for name, v in (("delta", delta), ("lam", lam)):
        if not (_finite(v) and v > 0):
            raise InputError("%s must be positive and finite (got %r)" % (name, v))
    eps = delta / lam  # the descent's rate, which can overflow or underflow
    if not (math.isfinite(eps) and eps > 0):
        raise InputError("delta / lam must be positive and finite (got %r / %r = %r)"
                         % (delta, lam, eps))
    x0 = _count(x0, 0, "start index x0")
    fvals = _reals(fvals, "value")
    _one_value_per_point(space, fvals)
    for v in fvals:
        if math.isnan(v) or v == math.inf:
            raise InputError("values must be < +inf and not NaN (got %r)" % v)
    finite = [v for v in fvals if math.isfinite(v)]
    if not finite:
        raise InputError("all values are infinite; nothing to maximize")
    if not (0 <= x0 < len(space)) or not math.isfinite(fvals[x0]):
        raise PreconditionError("x0 must index a finite value")
    if fvals[x0] < max(finite) - delta:
        raise PreconditionError(
            "f(x0) = %r is more than delta = %r below the supremum %r"
            % (fvals[x0], delta, max(finite)))
    neg = [-v for v in fvals]
    rec = ekeland_point(space, neg, eps, x0, full=True)
    x = rec.point
    if not (fvals[x] >= fvals[x0]):
        raise VerificationError("maximize lost ground: f(%d)=%r < f(x0)=%r" % (x, fvals[x], fvals[x0]))
    if not (space.d(x, x0) <= lam):
        raise VerificationError("maximize moved %r > lam = %r" % (space.d(x, x0), lam))
    if full:
        return EkelandRecord(point=x, path=rec.path, eps=eps, x0=x0,
                             improvement_ok=True, strictness_ok=rec.strictness_ok)
    return x
