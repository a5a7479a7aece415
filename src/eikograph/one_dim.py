"""One-dimensional toolkit on the interval (-1, 1): the viscous regularization
of |u'| = 1 with zero boundary data, monotonicity characterizations of the
viscosity inequalities, and the family of almost-everywhere solutions that
the viscosity/steepest-descent selection discards.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import InputError, PreconditionError
from .graph import _count, _finite

MONOTONE_TOL = 1e-12


class Profile1D:
    """A sampled function on a grid over [-1, 1], interpreted piecewise
    linearly between samples."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float], label: str = ""):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 3:
            raise InputError("need matching 1-D xs/ys with at least 3 samples")
        if xs[0] != -1.0 or xs[-1] != 1.0:
            raise InputError("grid must span [-1, 1] exactly (got [%r, %r])" % (xs[0], xs[-1]))
        if np.any(np.diff(xs) <= 0):
            raise InputError("grid must be strictly increasing")
        if not np.all(np.isfinite(ys)):
            raise InputError("profile values must be finite")
        self.xs = xs
        self.ys = ys
        self.label = label

    def __len__(self) -> int:
        return len(self.xs)

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.ys))

    def same_grid(self, other: "Profile1D") -> bool:
        return len(self.xs) == len(other.xs) and bool(np.all(self.xs == other.xs))


def uniform_grid(n: int) -> np.ndarray:
    """``n`` evenly spaced points on [-1, 1]; ``n`` must be an int >= 3."""
    return np.linspace(-1.0, 1.0, _count(n, 3, "grid size n"))


def logcosh(t: float) -> float:
    # |t| - log 2 + log1p(e^{-2|t|}) never overflows and is exact for large |t|
    a = abs(t)
    return a - math.log(2.0) + math.log1p(math.exp(-2.0 * a))


def viscous_solution(eps: float, grid: Sequence[float]) -> Profile1D:
    """The solution of  -eps u'' + |u'| = 1,  u(±1) = 0:

        u_eps(x) = eps [ logcosh(1/eps) - logcosh(x/eps) ].

    Even in x, zero at the endpoints exactly, and converging uniformly to
    1 - |x| at rate eps log 2 as eps → 0.
    """
    if not (_finite(eps) and eps > 0):
        raise InputError("eps must be positive and finite (got %r)" % (eps,))
    xs = np.asarray(grid, dtype=float)
    ref = logcosh(1.0 / eps)
    ys = [eps * (ref - logcosh(x / eps)) for x in xs]
    return Profile1D(xs, ys, label="eps=%g" % eps)


def limit_profile(grid: Sequence[float], label: str = "1-|x|") -> Profile1D:
    xs = np.asarray(grid, dtype=float)
    return Profile1D(xs, 1.0 - np.abs(xs), label=label)


# ----------------------------------------------------------------------
# monotonicity characterizations
# ----------------------------------------------------------------------

@dataclass
class MonotoneReport:
    ok: bool
    max_rise: float      # largest increase of the tested combination between neighbors
    at_x: Optional[float]
    tol: float = MONOTONE_TOL


def _cumtrapz(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    out = np.zeros_like(ys)
    out[1:] = np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))
    return out


def _nonincreasing(xs: np.ndarray, vals: np.ndarray) -> MonotoneReport:
    """Whether ``vals`` never rises by more than MONOTONE_TOL along ``xs``."""
    rises = np.diff(vals)
    worst = float(rises.max()) if len(rises) else 0.0
    if worst > MONOTONE_TOL:
        i = int(np.argmax(rises))
        return MonotoneReport(False, worst, float(xs[i + 1]))
    return MonotoneReport(True, max(worst, 0.0), None)


def check_subsolution_monotone(u: Profile1D, f: Profile1D) -> MonotoneReport:
    """u' <= f in the weak sense  ⟺  x ↦ u(x) - ∫_{-1}^x f  is nonincreasing.

    The integral is trapezoid on the shared grid, exact for the piecewise-
    linear reading of both profiles.
    """
    if not u.same_grid(f):
        raise InputError("u and f must share a grid")
    return _nonincreasing(u.xs, u.ys - _cumtrapz(u.xs, f.ys))


def check_supersolution_monotone(u: Profile1D, f: Profile1D) -> MonotoneReport:
    """For nonincreasing u:  |u'| >= f  ⟺  x ↦ u(x) + ∫_{-1}^x f  is
    nonincreasing.  The monotonicity of u itself is a precondition of this
    characterization, not part of the verdict."""
    if not u.same_grid(f):
        raise InputError("u and f must share a grid")
    pre = _nonincreasing(u.xs, u.ys)
    if not pre.ok:
        raise PreconditionError(
            "u must be nonincreasing; it rises by %g at x=%g" % (pre.max_rise, pre.at_x))
    return _nonincreasing(u.xs, u.ys + _cumtrapz(u.xs, f.ys))


# ----------------------------------------------------------------------
# the a.e.-solution zoo
# ----------------------------------------------------------------------

def weak_solution_zoo(k: int, grid: Sequence[float]) -> List[Profile1D]:
    """k sawtooth profiles, k an int >= 1, vanishing at ±1 with |slope| = 1 off the kinks.

    Member j has zeros at -1 + 2m/j (m = 0..j) and 2j teeth of height 1/j;
    member 1 is 1 - |x|.  Every member satisfies u' <= 1 weakly, but the
    interior zeros of members j >= 2 are local minima where the descending
    slope vanishes — the steepest-descent test singles out member 1.
    """
    k = _count(k, 1, "zoo size k")
    xs = np.asarray(grid, dtype=float)
    out = []
    for j in range(1, k + 1):
        zeros = np.array([-1.0 + 2.0 * m / j for m in range(j + 1)])
        ys = np.min(np.abs(xs[:, None] - zeros[None, :]), axis=1)
        out.append(Profile1D(xs, ys, label="teeth=%d" % (2 * j)))
    return out


def zoo_zero_set(j: int) -> List[float]:
    return [-1.0 + 2.0 * m / j for m in range(j + 1)]


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------

def profile_csv(profile: Profile1D) -> str:
    lines = ["x,u"]
    for x, y in zip(profile.xs, profile.ys):
        lines.append("%.12g,%.12g" % (x, y))
    return "\n".join(lines) + "\n"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def render_svg(profiles: Sequence[Profile1D], title: str = "") -> str:
    """An 800x600 line chart of up to 8 profiles with axes and a legend."""
    if not profiles:
        raise InputError("nothing to plot")
    if len(profiles) > 8:
        raise InputError("at most 8 profiles per chart (got %d)" % len(profiles))
    W, H = 800, 600
    ml, mr, mt, mb = 60, 20, 40, 45
    y_lo = min(float(p.ys.min()) for p in profiles)
    y_hi = max(float(p.ys.max()) for p in profiles)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def X(x: float) -> float:
        return ml + (x + 1.0) / 2.0 * (W - ml - mr)

    def Y(y: float) -> float:
        return H - mb - (y - y_lo) / (y_hi - y_lo) * (H - mt - mb)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">' % (W, H),
             '<rect width="%d" height="%d" fill="white"/>' % (W, H)]
    if title:
        parts.append('<text x="%d" y="24" font-size="16" text-anchor="middle">%s</text>'
                     % (W // 2, title))
    # frame and ticks
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#444"/>'
                 % (ml, mt, W - ml - mr, H - mt - mb))
    for xv in (-1.0, -0.5, 0.0, 0.5, 1.0):
        parts.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="#444"/>'
                     % (X(xv), H - mb, X(xv), H - mb + 5))
        parts.append('<text x="%.2f" y="%d" font-size="12" text-anchor="middle">%g</text>'
                     % (X(xv), H - mb + 20, xv))
    for k in range(5):
        yv = y_lo + (y_hi - y_lo) * k / 4.0
        parts.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#444"/>'
                     % (ml - 5, Y(yv), ml, Y(yv)))
        parts.append('<text x="%d" y="%.2f" font-size="12" text-anchor="end">%.3g</text>'
                     % (ml - 8, Y(yv) + 4, yv))
    if y_lo < 0.0 < y_hi:
        parts.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#bbb" stroke-dasharray="4 3"/>'
                     % (ml, Y(0.0), W - mr, Y(0.0)))
    for i, prof in enumerate(profiles):
        color = _PALETTE[i]
        coords = " ".join("%.2f,%.2f" % (X(float(x)), Y(float(y)))
                          for x, y in zip(prof.xs, prof.ys))
        parts.append('<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>'
                     % (coords, color))
        ly = mt + 18 + 18 * i
        parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>'
                     % (W - mr - 150, ly, W - mr - 120, ly, color))
        parts.append('<text x="%d" y="%d" font-size="12">%s</text>'
                     % (W - mr - 112, ly + 4, prof.label or ("profile %d" % (i + 1))))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
