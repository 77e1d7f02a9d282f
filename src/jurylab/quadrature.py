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
    return np.polynomial.legendre.leggauss(order)


_MAX_DEPTH = 48
_POINTS_PER_CALL = 1 << 15  # bounds the integrand's arrays on a long level


def gl_panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, order: int = 20) -> float:
    """Single Gauss-Legendre panel of the given order on [a, b]."""
    return _gl_panels(f, [(a, b)], order)[0]


def _gl_panels(f, ends: list[tuple[float, float]], order: int) -> list[float]:
    """Panels on each (lo, hi) of `ends`, one integrand call per _POINTS_PER_CALL
    points.  Each panel has its own dot product (a matrix-vector product
    rounds differently), so it is the same double as the panel alone."""
    x, w = _nodes(order)
    step = max(1, _POINTS_PER_CALL // order)
    out: list[float] = []
    for start in range(0, len(ends), step):
        lo, hi = np.array(ends[start : start + step]).T
        half = 0.5 * (hi - lo)
        nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * x
        vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        out += [h * float(w @ row) for h, row in zip(half.tolist(), vals)]
    return out


def integrate(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, order: int = 20,
    abs_tol: float = 1e-13,
) -> tuple[float, bool]:
    """Adaptive bisection: refine a panel until the split agrees with it.

    abs_tol is an absolute target for the whole interval; each split
    halves the budget so the refinement cannot over-spend it.  The tree
    (Gander & Gautschi 2000) grows one depth at a time, with both halves
    of every pending panel in one integrand call, and is summed bottom-up
    in depth-first order, so the doubles are those of refining one panel
    at a time.  Returns (value, converged); converged is False when any
    panel reached depth 48 with its halves still disagreeing by more
    than its budget.
    """
    if not b > a:
        return 0.0, True
    mid = 0.5 * (a + b)
    # the first split is always taken: evaluate it with the whole panel
    whole, *halves = _gl_panels(f, [(a, b), (a, mid), (mid, b)], order)
    pending = [(a, mid, b, whole)]
    levels = []  # per depth: each pending panel's (left + right, whether it splits)
    budget, converged = abs_tol, True
    for depth in range(_MAX_DEPTH + 1):
        halves = iter(halves)
        level, split_panels = [], []
        for lo, mid, hi, whole in pending:
            left, right = next(halves), next(halves)
            total = left + right
            split = not abs(total - whole) <= budget
            if split and depth == _MAX_DEPTH:
                converged = split = False
            if split:
                split_panels.append((lo, 0.5 * (lo + mid), mid, left))
                split_panels.append((mid, 0.5 * (mid + hi), hi, right))
            level.append((total, split))
        levels.append(level)
        if not split_panels:
            break
        pending, budget = split_panels, 0.5 * budget
        halves = _gl_panels(f, [h for lo, m, hi, _ in pending for h in ((lo, m), (m, hi))], order)
    sums: list[float] = []
    for level in reversed(levels):
        children = iter(sums)
        sums = [next(children) + next(children) if split else total for total, split in level]
    return sums[0], converged
