"""Adaptive Gauss-Legendre panels for piecewise-smooth integrands.

The one integrand left without a closed form is the truncated-normal
error term of `weights.drift`, a smooth function times an affine
density on each piece; the divergences are closed forms
(`jurylab.divergence`).  A fixed-order panel with
bisection-on-disagreement stays exact-to-rounding on smooth panels, and
`integrate` reports whether every panel met its budget.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np


@lru_cache(maxsize=None)
def _nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gl_panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, order: int = 20) -> float:
    """Single Gauss-Legendre panel of the given order on [a, b]."""
    x, w = _nodes(order)
    half = 0.5 * (b - a)
    vals = np.asarray(f(0.5 * (a + b) + half * x), dtype=float)
    return half * float(w @ vals)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    order: int = 20,
    abs_tol: float = 1e-13,
) -> tuple[float, bool]:
    """Adaptive bisection: refine a panel until the split agrees with it.

    abs_tol is an absolute target for the whole interval; each split
    halves the budget so the recursion cannot over-spend it.  Returns
    (value, converged); converged is False when any panel reached
    depth 48 with its halves still disagreeing by more than its budget.
    """
    if not b > a:
        return 0.0, True
    whole = gl_panel(f, a, b, order)
    return _refine(f, a, b, whole, order, abs_tol, 48)


def _refine(f, a, b, whole, order, budget, depth) -> tuple[float, bool]:
    mid = 0.5 * (a + b)
    left = gl_panel(f, a, mid, order)
    right = gl_panel(f, mid, b, order)
    total = left + right
    if abs(total - whole) <= budget:
        return total, True
    if depth <= 0:
        return total, False
    half_budget = 0.5 * budget
    lv, lc = _refine(f, a, mid, left, order, half_budget, depth - 1)
    rv, rc = _refine(f, mid, b, right, order, half_budget, depth - 1)
    return lv + rv, lc and rc
