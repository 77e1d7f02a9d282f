"""Distances and divergences between measures, plus the Kakutani test.

Total variation is reported in the doubled (L1) convention
||p - q|| = integral |rho_p - rho_q| + sum |atom differences|, so
disjoint point masses sit at distance 2.  The Kullback-Leibler
divergence is KL(p||q) with p first; it and the Bhattacharyya distance
return +inf when p is not absolutely continuous w.r.t. q on a set of
positive p-mass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .measure import MeasureSpec
from .quadrature import integrate

__all__ = [
    "DivergenceReport",
    "KakutaniVerdict",
    "divergences",
    "absolutely_continuous",
    "kakutani_criterion",
]

_ZERO_DENSITY = 1e-300


@dataclass(frozen=True)
class DivergenceReport:
    tv: float
    kl: float
    hellinger_affinity: float
    hellinger_distance: float
    bhattacharyya: float

    def value(self, choice: str) -> float:
        if choice not in ("tv", "kl", "bhattacharyya"):
            raise ValueError(f"unknown divergence choice {choice!r}")
        return getattr(self, choice)


@dataclass(frozen=True)
class KakutaniVerdict:
    partial_sums: np.ndarray
    partial_products: np.ndarray
    diagnosis: Literal["summable", "diverging", "inconclusive"]


def _merged_grid(p: MeasureSpec, q: MeasureSpec) -> list[tuple[float, float]]:
    pts = sorted(
        {0.0, 1.0}
        | {v for lo, hi, _, _ in p.pieces for v in (lo, hi)}
        | {v for lo, hi, _, _ in q.pieces for v in (lo, hi)}
    )
    return [(a, b) for a, b in zip(pts, pts[1:]) if b > a]


def _coeffs_on(spec: MeasureSpec, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    for lo, hi, c0, c1 in spec.pieces:
        if lo <= mid <= hi:
            return c0, c1
    return 0.0, 0.0


def _affine_root_inside(c0: float, c1: float, a: float, b: float) -> float | None:
    if c1 == 0.0:
        return None
    r = -c0 / c1
    return r if a < r < b else None


def _is_zero(c0: float, c1: float, a: float, b: float) -> bool:
    return abs(c0 + c1 * a) < _ZERO_DENSITY and abs(c0 + c1 * b) < _ZERO_DENSITY


def divergences(p: MeasureSpec, q: MeasureSpec, order: int = 20) -> DivergenceReport:
    """Total variation, KL(p||q), Hellinger affinity/distance, Bhattacharyya.

    Equal measures (the same pieces and atoms) give the exact identity
    values: 0 for every divergence and an affinity of 1.

    Otherwise, continuous parts are taken piece by piece on the merged
    piece grid.  Where rho_p and rho_q coincide, the piece is done in
    closed form: its affinity term is the piece mass and its TV and KL
    terms are 0.
    The other pieces are split at the affine roots of rho_p, rho_q and
    rho_p - rho_q and integrated with adaptive Gauss-Legendre panels of
    the given order. Atom terms are exact.
    """
    if p.pieces == q.pieces and p.atoms == q.atoms:
        return DivergenceReport(
            tv=0.0, kl=0.0, hellinger_affinity=1.0, hellinger_distance=0.0, bhattacharyya=0.0
        )
    tv = 0.0
    kl = 0.0
    aff = 0.0
    for a0, b0 in _merged_grid(p, q):
        pc0, pc1 = _coeffs_on(p, a0, b0)
        qc0, qc1 = _coeffs_on(q, a0, b0)
        if (pc0, pc1) == (qc0, qc1):
            aff += pc0 * (b0 - a0) + 0.5 * pc1 * (b0 * b0 - a0 * a0)
            continue
        cuts = {a0, b0}
        for c0, c1 in ((pc0, pc1), (qc0, qc1), (pc0 - qc0, pc1 - qc1)):
            r = _affine_root_inside(c0, c1, a0, b0)
            if r is not None:
                cuts.add(r)
        grid = sorted(cuts)
        for a, b in zip(grid, grid[1:]):
            p_zero = _is_zero(pc0, pc1, a, b)
            q_zero = _is_zero(qc0, qc1, a, b)
            # TV: sign of rho_p - rho_q is constant after the root split
            tv += abs(
                (pc0 - qc0) * (b - a) + 0.5 * (pc1 - qc1) * (b * b - a * a)
            )
            if not (p_zero or q_zero):
                aff += integrate(
                    lambda x: np.sqrt(
                        np.clip((pc0 + pc1 * x) * (qc0 + qc1 * x), 0.0, None)
                    ),
                    a,
                    b,
                    order=order,
                )
            if not p_zero:
                if q_zero:
                    kl = math.inf
                elif not math.isinf(kl):
                    kl += integrate(
                        lambda x: _kl_integrand(pc0, pc1, qc0, qc1, x),
                        a,
                        b,
                        order=order,
                    )
    p_atoms = dict(p.atoms)
    q_atoms = dict(q.atoms)
    for x in sorted(set(p_atoms) | set(q_atoms)):
        mp = p_atoms.get(x, 0.0)
        mq = q_atoms.get(x, 0.0)
        tv += abs(mp - mq)
        aff += math.sqrt(mp * mq)
        if mp > 0.0:
            kl = math.inf if mq == 0.0 else kl + mp * math.log(mp / mq)
    aff = min(aff, 1.0)
    hd = math.sqrt(max(0.0, 2.0 * (1.0 - aff)))
    # 0.0 - log(aff), not -log(aff): an affinity of exactly 1 gives +0.0
    bhat = 0.0 - math.log(aff) if aff > 0.0 else math.inf
    return DivergenceReport(
        tv=tv,
        kl=max(kl, 0.0) if not math.isinf(kl) else math.inf,
        hellinger_affinity=aff,
        hellinger_distance=hd,
        bhattacharyya=bhat,
    )


def _kl_integrand(pc0, pc1, qc0, qc1, x):
    rp = pc0 + pc1 * x
    rq = np.maximum(qc0 + qc1 * x, _ZERO_DENSITY)
    return np.where(rp > 0.0, rp * np.log(np.maximum(rp, _ZERO_DENSITY) / rq), 0.0)


def absolutely_continuous(p: MeasureSpec, base: MeasureSpec) -> bool:
    """True when every p-mass set of base-measure zero has p-measure zero.

    For this density class: every atom of p needs a base atom at the
    same point, and p's density may only live where base's density is
    not identically zero (isolated affine roots are harmless).
    """
    base_atoms = dict(base.atoms)
    for x, m in p.atoms:
        if m > 0.0 and base_atoms.get(x, 0.0) <= 0.0:
            return False
    for a, b in _merged_grid(p, base):
        pc0, pc1 = _coeffs_on(p, a, b)
        bc0, bc1 = _coeffs_on(base, a, b)
        if _is_zero(pc0, pc1, a, b):
            continue
        # a non-trivial affine base density vanishes on at most one
        # point of the piece, which is a base-null and p-null set
        if _is_zero(bc0, bc1, a, b):
            return False
    return True


def kakutani_criterion(
    base: MeasureSpec,
    perturbations: Iterable[MeasureSpec],
    divergence_choice: Literal["tv", "kl", "bhattacharyya"] = "tv",
    horizon: int = 64,
    sum_cap: float = 1e6,
    tail_tol: float = 1e-3,
) -> KakutaniVerdict:
    """Finite-horizon summability diagnostics for sum_n d(nu_n, nu_0).

    The true dichotomy is asymptotic and cannot be decided at finite N;
    the verdict is `summable` when the partial sums have visibly
    converged (tail test |s_N - s_{N/2}| < tail_tol * s_N), `diverging`
    when the sums blow past `sum_cap`, when the terms stop decaying, or
    when a perturbation fails absolute continuity, and `inconclusive`
    otherwise.  Hellinger-affinity partial products are reported
    alongside.
    """
    if horizon < 4:
        raise ValueError("horizon must be at least 4")
    terms: list[float] = []
    prods: list[float] = []
    running = 1.0
    dominated = True
    for spec in itertools.islice(perturbations, horizon):
        if not absolutely_continuous(spec, base):
            dominated = False
            break
        rep = divergences(spec, base)
        terms.append(rep.value(divergence_choice))
        running *= rep.hellinger_affinity
        prods.append(running)
    sums = np.cumsum(np.asarray(terms, dtype=float))
    products = np.asarray(prods, dtype=float)
    if not dominated:
        return KakutaniVerdict(sums, products, "diverging")
    n = len(terms)
    s_n = float(sums[-1])
    s_half = float(sums[n // 2 - 1])
    a_n, a_half = terms[-1], terms[n // 2 - 1]
    if s_n == 0.0 or abs(s_n - s_half) < tail_tol * s_n:
        diagnosis = "summable"
    elif s_n > sum_cap or (a_n > 0.0 and a_n >= (1.0 - tail_tol) * a_half):
        diagnosis = "diverging"
    else:
        diagnosis = "inconclusive"
    return KakutaniVerdict(sums, products, diagnosis)
