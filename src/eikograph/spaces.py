"""Finite metric spaces given by explicit distance matrices."""
from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .errors import InputError
from .graph import _reals


class FiniteMetricSpace:
    """n points with a validated symmetric distance matrix.

    Validation covers the metric axioms exactly as stated: zero diagonal,
    symmetry, strict positivity off the diagonal, and the triangle
    inequality (with a relative tolerance scaled to the largest entry, so
    honest float matrices are not rejected for dust).  Each entry must be a
    real number by ``_reals``' rule.
    """

    def __init__(self, matrix: Sequence[Sequence[float]], labels: Optional[Sequence[str]] = None):
        rows = [list(_reals(row, "distance")) for row in matrix]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise InputError("distance matrix must be square and nonempty")
        scale = max((abs(v) for r in rows for v in r), default=1.0)
        tol = 1e-12 * max(1.0, scale)
        for i in range(n):
            if rows[i][i] != 0.0:
                raise InputError("diagonal entry d(%d,%d) = %r must be 0" % (i, i, rows[i][i]))
            for j in range(n):
                if not math.isfinite(rows[i][j]):
                    raise InputError("distance d(%d,%d) = %r is not finite" % (i, j, rows[i][j]))
                if abs(rows[i][j] - rows[j][i]) > tol:
                    raise InputError("asymmetric distances d(%d,%d)=%r vs d(%d,%d)=%r"
                                     % (i, j, rows[i][j], j, i, rows[j][i]))
                if i != j and rows[i][j] <= 0.0:
                    raise InputError("distance d(%d,%d) = %r must be positive" % (i, j, rows[i][j]))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if rows[i][k] > rows[i][j] + rows[j][k] + tol:
                        raise InputError(
                            "triangle inequality fails: d(%d,%d)=%r > d(%d,%d)+d(%d,%d)=%r"
                            % (i, k, rows[i][k], i, j, j, k, rows[i][j] + rows[j][k]))
        if labels is not None and len(labels) != n:
            raise InputError("need one label per point")
        self.matrix = rows
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]

    def __len__(self) -> int:
        return len(self.matrix)

    def d(self, i: int, j: int) -> float:
        return self.matrix[i][j]

    @classmethod
    def from_csv(cls, text: str) -> "FiniteMetricSpace":
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise InputError("bad distance row %r: %s" % (line, exc)) from None
        return cls(rows)


def parse_value_vector(text: str) -> List[float]:
    """Comma/newline-separated reals; 'inf' marks points excluded from a
    minimization (infinite functional value)."""
    out: List[float] = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        for tok in line.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                out.append(float(tok))
            except ValueError:
                raise InputError("bad value %r in value vector" % tok) from None
    if not out:
        raise InputError("empty value vector")
    return out
