"""Distances and divergences between measures, plus the Kakutani test.

Total variation is reported in the doubled (L1) convention
||p - q|| = integral |rho_p - rho_q| + sum |atom differences|, so
disjoint point masses sit at distance 2.  The Kullback-Leibler
divergence is KL(p||q) with p first; it and the Bhattacharyya distance
return +inf when p is not absolutely continuous w.r.t. q on a set of
positive p-mass.

Every continuous term is a closed form.  Densities are affine on each
piece of the merged grid, and after a split at the roots of rho_p, rho_q
and rho_p - rho_q, each term on a sub-piece is an elementary
antiderivative (Gradshteyn & Ryzhik 2.26 and 2.72): the signed mass for
TV, the integral of sqrt(rho_p rho_q) for the affinity, and of
rho_p log(rho_p/rho_q) for KL.  The textbook forms of the last two
cancel catastrophically when a slope is small, so the affinity is
written as a sum of non-negative terms in each density's distance to
its own root, and KL about the piece midpoint with logarithmic forms
and fixed-length power series.  A density that vanishes at, or very
near, a piece end costs nothing extra.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .measure import MeasureSpec

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


_NO_DENSITY = (0.0, 0.0)  # coefficients off a measure's pieces
_PAST_END = ((math.inf, math.inf, 0.0, 0.0),)  # closes each piece list of a walk


def _merged_pieces(p: MeasureSpec, q: MeasureSpec):
    """(a, b, (pc0, pc1), (qc0, qc1)) for each piece [a, b] of the grid of
    0, 1 and both measures' piece ends: one pass with a pointer into each
    ordered piece list.  [a, b] takes the first piece whose upper end
    reaches its midpoint if that piece starts at or below it, else
    _NO_DENSITY."""
    grid = sorted({0.0, 1.0, *(x for piece in p.pieces + q.pieces for x in piece[:2])})
    pp, qq = p.pieces + _PAST_END, q.pieces + _PAST_END
    i = j = 0
    for a, b in zip(grid, grid[1:]):
        mid = 0.5 * (a + b)
        while pp[i][1] < mid:
            i += 1
        while qq[j][1] < mid:
            j += 1
        pc = pp[i][2:] if pp[i][0] <= mid else _NO_DENSITY
        qc = qq[j][2:] if qq[j][0] <= mid else _NO_DENSITY
        yield a, b, pc, qc


def _affine_root_inside(c0: float, c1: float, a: float, b: float) -> float | None:
    if c1 == 0.0:
        return None
    r = -c0 / c1
    return r if a < r < b else None


def _is_zero(c0: float, c1: float, a: float, b: float) -> bool:
    return abs(c0 + c1 * a) < _ZERO_DENSITY and abs(c0 + c1 * b) < _ZERO_DENSITY


def divergences(p: MeasureSpec, q: MeasureSpec) -> DivergenceReport:
    """Total variation, KL(p||q), Hellinger affinity/distance, Bhattacharyya.

    Equal measures (the same pieces and atoms) give the exact identity
    values: 0 for every divergence and an affinity of 1.

    Otherwise, continuous parts are taken piece by piece on the merged
    piece grid.  Where rho_p and rho_q coincide, the piece is done in
    closed form: its affinity term is the piece mass and its TV and KL
    terms are 0.  Where one of them is identically 0, the piece has only
    a TV term, and a KL of +inf if p has mass there.  The other pieces
    are split at the affine roots of rho_p, rho_q and rho_p - rho_q.  On
    each sub-piece both densities are affine and non-negative, fixed by
    their end values (exactly 0 at a cut root), and every term has a
    closed form: TV from the signed mass, the affinity from
    `_affinity_piece` and the KL term from `_kl_piece`.  Atom terms are
    exact.  No quadrature is used.
    """
    return _divergences(p, q)[0]


def _divergences(p: MeasureSpec, q: MeasureSpec) -> tuple[DivergenceReport, bool]:
    """`divergences(p, q)` and `absolutely_continuous(p, q)` from one walk
    of the merged pieces."""
    if p.pieces == q.pieces and p.atoms == q.atoms:
        report = DivergenceReport(
            tv=0.0, kl=0.0, hellinger_affinity=1.0, hellinger_distance=0.0, bhattacharyya=0.0
        )
        return report, True
    tv = kl = aff = 0.0
    dominated = True
    for a0, b0, pc, qc in _merged_pieces(p, q):
        (pc0, pc1), (qc0, qc1) = pc, qc
        if pc == qc:
            aff += pc0 * (b0 - a0) + 0.5 * pc1 * (b0 * b0 - a0 * a0)
            continue
        dc0, dc1 = pc0 - qc0, pc1 - qc1
        if pc == _NO_DENSITY or qc == _NO_DENSITY:
            # one density is 0: no affinity, and KL is +inf wherever p has
            # mass; TV is split at the other density's root
            if qc == _NO_DENSITY and not _is_zero(pc0, pc1, a0, b0):
                dominated = False
            r = _affine_root_inside(dc0, dc1, a0, b0)
            for a, b in ((a0, b0),) if r is None else ((a0, r), (r, b0)):
                tv += abs(dc0 * (b - a) + 0.5 * dc1 * (b * b - a * a))
                if qc == _NO_DENSITY and not _is_zero(pc0, pc1, a, b):
                    kl = math.inf
            continue
        p_root = _affine_root_inside(pc0, pc1, a0, b0)
        q_root = _affine_root_inside(qc0, qc1, a0, b0)
        grid = sorted({a0, b0, p_root, q_root, _affine_root_inside(dc0, dc1, a0, b0)} - {None})
        a = None
        for b in grid:
            # end values: exactly 0 at a density's own cut root, and never
            # below 0 (a spec may dip to -1e-12 at a piece end)
            rp, rq = pc0 + pc1 * b, qc0 + qc1 * b
            u1 = 0.0 if b == p_root else max(0.0, rp)
            v1 = 0.0 if b == q_root else max(0.0, rq)
            p_zero1, q_zero1 = abs(rp) < _ZERO_DENSITY, abs(rq) < _ZERO_DENSITY
            if a is not None:
                p_zero, q_zero = p_zero0 and p_zero1, q_zero0 and q_zero1
                # TV: sign of rho_p - rho_q is constant after the root split
                tv += abs(dc0 * (b - a) + 0.5 * dc1 * (b * b - a * a))
                if not (p_zero or q_zero):
                    aff += _affinity_piece(b - a, u0, u1, v0, v1)
                if not (p_zero or math.isinf(kl)):
                    kl = math.inf if q_zero else kl + _kl_piece(b - a, u0, u1, v0, v1)
            else:
                p_zero_a0, q_zero_a0 = p_zero1, q_zero1
            a, u0, v0, p_zero0, q_zero0 = b, u1, v1, p_zero1, q_zero1
        # absolute continuity: q's density is zero at both of the piece's
        # ends a0 and b0 while p's is not (an affine root inside is harmless)
        if q_zero_a0 and q_zero1 and not (p_zero_a0 and p_zero1):
            dominated = False
    p_atoms = dict(p.atoms)
    q_atoms = dict(q.atoms)
    for x in sorted(set(p_atoms) | set(q_atoms)):
        mp = p_atoms.get(x, 0.0)
        mq = q_atoms.get(x, 0.0)
        tv += abs(mp - mq)
        aff += math.sqrt(mp * mq)
        if mp > 0.0:
            kl = math.inf if mq == 0.0 else kl + mp * math.log(mp / mq)
            dominated = dominated and mq > 0.0
    aff = min(aff, 1.0)
    hd = math.sqrt(max(0.0, 2.0 * (1.0 - aff)))
    # 0.0 - log(aff), not -log(aff): an affinity of exactly 1 gives +0.0
    bhat = 0.0 - math.log(aff) if aff > 0.0 else math.inf
    report = DivergenceReport(
        tv=tv,
        kl=max(kl, 0.0) if not math.isinf(kl) else math.inf,
        hellinger_affinity=aff,
        hellinger_distance=hd,
        bhattacharyya=bhat,
    )
    return report, dominated


# Taylor coefficients.  Each series has a fixed length that reaches
# double precision where it is used (|x| <= 1/2 for the first, |x| < 1/4
# for the rest), so no loop waits on a tolerance; a slope of 0 is fine.
# (sinh x - x)/x^3 = sum_k _SINH_C[k] (x^2)^k, and (x - sin x)/x^3 the
# same at -x^2.
_SINH_C = tuple(1.0 / math.factorial(2 * k + 3) for k in range(8))
# F(a)/a^2, -L0(b)/b^2 and L1(b)/b (see _kl_piece), in powers of the square
_F_C = tuple(2.0 / ((2 * j) * (2 * j - 1) * (2 * j + 1)) for j in range(1, 15))
_L0_C = tuple(1.0 / (j * (2 * j + 1)) for j in range(1, 15))
_L1_C = tuple(2.0 / ((2 * j + 1) * (2 * j + 3)) for j in range(14))
_SERIES_BELOW = 0.25


def _poly(coeffs: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _affinity_piece(h: float, u0: float, u1: float, v0: float, v1: float) -> float:
    """Integral of sqrt(u v) over a sub-piece of width h, where u and v
    are affine with the non-negative end values u0, u1 and v0, v1.

    In t = (x - x0)/h the slopes are du = u1 - u0 and dv = v1 - v0.
    Two flat densities give h sqrt(u0 v0), and one flat density the
    3/2-power form.  Otherwise each density is written through its
    distance to its own root, d_u = u/|du| and d_v = v/|dv|, and the
    integral is h sqrt|du dv| times the integral of sqrt(d_u d_v) dt.
    When the slopes share a sign, d_u - d_v = +-2R is constant and the
    swept angle Delta is hyperbolic; when they do not, d_u + d_v = 2R and
    Delta is circular.  With M = (sqrt(d_u0 d_v1) + sqrt(d_v0 d_u1))/2,
    that integral is M^2 sinh(Delta) + R^2 (sinh(Delta) - Delta)/2, or
    M^2 sin(Delta) + R^2 (Delta - sin(Delta))/2.  Every term is
    non-negative and made of products and sums, so nothing cancels when
    a slope is small or the densities are proportional; the differences
    of Delta and sinh or sin are series for Delta <= 1/2.
    """
    if (u0 == 0.0 and u1 == 0.0) or (v0 == 0.0 and v1 == 0.0):
        return 0.0
    du, dv = u1 - u0, v1 - v0
    if du == 0.0 and dv == 0.0:
        return h * math.sqrt(u0) * math.sqrt(v0)
    if dv == 0.0:
        return h * math.sqrt(v0) * _sqrt_mean(u0, u1)
    if du == 0.0:
        return h * math.sqrt(u0) * _sqrt_mean(v0, v1)
    su, sv = abs(du), abs(dv)
    d_u0, d_u1, d_v0, d_v1 = u0 / su, u1 / su, v0 / sv, v1 / sv
    m = 0.5 * (math.sqrt(d_u0 * d_v1) + math.sqrt(d_v0 * d_u1))
    if (du > 0.0) == (dv > 0.0):
        # R from the end nearer both roots, where d_u - d_v is least rounded
        r = 0.5 * abs(d_u0 - d_v0) if d_u0 + d_v0 <= d_u1 + d_v1 else 0.5 * abs(d_u1 - d_v1)
        # sinh(Delta/2) = s = 1/(2M), so M^2 sinh(Delta) = sqrt(M^2 + 1/4);
        # M = 0 only with a common root at an end, where R = 0 too
        core = math.sqrt(m * m + 0.25)
        if r > 0.0:
            s = 0.5 / m
            delta = 2.0 * math.asinh(s)
            if delta <= 0.5:
                core += 0.5 * r * r * delta**3 * _poly(_SINH_C, delta * delta)
            else:
                core += r * r * (s * math.sqrt(1.0 + s * s) - 0.5 * delta)
    else:
        r = 0.25 * (d_u0 + d_v0 + d_u1 + d_v1)
        # sin(Delta/2) = 1/(2M) and cos(Delta/2) = c/(2R), both sums
        c = math.sqrt(d_u0 * d_u1) + math.sqrt(d_v0 * d_v1)
        delta = 2.0 * math.atan2(r, m * c)
        core = 0.5 * m * c / r
        if delta <= 0.5:
            core += 0.5 * r * r * delta**3 * _poly(_SINH_C, -delta * delta)
        else:
            core += 0.5 * r * r * (delta - math.sin(delta))
    return h * math.sqrt(su * sv) * core


def _sqrt_mean(u0: float, u1: float) -> float:
    """Mean of sqrt(u) over a piece where u is affine from u0 to u1."""
    r0, r1 = math.sqrt(u0), math.sqrt(u1)
    return (2.0 / 3.0) * (u0 + r0 * r1 + u1) / (r0 + r1)


def _kl_piece(h: float, u0: float, u1: float, v0: float, v1: float) -> float:
    """Integral of u log(u/v) over a sub-piece of width h, where u and v
    are affine with the non-negative end values u0, u1 and v0, v1.

    About the midpoint, u = ubar (1 + a s) and v = vbar (1 + b s) for s
    in [-1, 1], so the integral is (h/2) ubar [2 log(ubar/vbar) + F(a)
    - L0(b) - a L1(b)], where F(a) = int (1+as) log(1+as) ds, L0(b) =
    int log(1+bs) ds and L1(b) = int s log(1+bs) ds.  |a|, |b| <= 1, and
    a root at an end is a or b = +-1.  Each of F, L0 and L1 is a closed
    form in log(1 - a) and log(1 + a) for |a|, |b| >= 1/4, and an even
    or odd power series below that, where the closed forms would divide
    small differences by a or b^2.
    """
    us, vs = u0 + u1, v0 + v1
    if us == 0.0:
        return 0.0
    if vs == 0.0:
        return math.inf
    # 1 -+ a and 1 -+ b from the end values, not from a and b: near a root
    # at an end, 1 - |b| would lose its relative accuracy
    a, lo_u, hi_u = (u1 - u0) / us, 2.0 * u0 / us, 2.0 * u1 / us
    b, lo_v, hi_v = (v1 - v0) / vs, 2.0 * v0 / vs, 2.0 * v1 / vs
    bracket = _f(a, lo_u, hi_u) - _l0(b, lo_v, hi_v) - a * _l1(b, lo_v, hi_v)
    return 0.25 * h * us * (2.0 * math.log(us / vs) + bracket)


def _f(a: float, lo: float, hi: float) -> float:
    """int_{-1}^{1} (1 + a s) log(1 + a s) ds, given lo = 1 - a, hi = 1 + a."""
    if abs(a) < _SERIES_BELOW:
        return a * a * _poly(_F_C, a * a)
    return (hi * _xlogx(hi) - lo * _xlogx(lo)) / (2.0 * a) - 1.0


def _l0(b: float, lo: float, hi: float) -> float:
    """int_{-1}^{1} log(1 + b s) ds, given lo = 1 - b, hi = 1 + b."""
    if abs(b) < _SERIES_BELOW:
        return -b * b * _poly(_L0_C, b * b)
    return (_xlogx(hi) - _xlogx(lo)) / b - 2.0


def _l1(b: float, lo: float, hi: float) -> float:
    """int_{-1}^{1} s log(1 + b s) ds, given lo = 1 - b, hi = 1 + b."""
    if abs(b) < _SERIES_BELOW:
        return b * _poly(_L1_C, b * b)
    if lo == 0.0 or hi == 0.0:
        return 1.0 / b
    return 1.0 / b - lo * hi * (math.log(hi) - math.log(lo)) / (2.0 * b * b)


def _xlogx(x: float) -> float:
    """x log x, with its limit 0 at x = 0."""
    return x * math.log(x) if x > 0.0 else 0.0


def absolutely_continuous(p: MeasureSpec, base: MeasureSpec) -> bool:
    """True when every p-mass set of base-measure zero has p-measure zero.

    For this density class: every atom of p needs a base atom at the
    same point, and p's density may only live where base's density is
    not identically zero (isolated affine roots are harmless).  The
    verdict comes from the walk that makes `divergences(p, base)`.
    """
    return _divergences(p, base)[1]


def kakutani_criterion(
    base: MeasureSpec,
    perturbations: Iterable[MeasureSpec],
    divergence_choice: Literal["tv", "kl", "bhattacharyya"] = "tv",
    horizon: int = 64,
) -> KakutaniVerdict:
    """Finite-horizon summability diagnostics for sum_n d(nu_n, nu_0).

    The true dichotomy is asymptotic and cannot be decided at finite N;
    the verdict is `summable` when the partial sums have visibly
    converged (tail test |s_N - s_{N/2}| < 1e-3 s_N), `diverging`
    when the sums blow past 1e6, when the terms stop decaying, or
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
        # the absolute-continuity verdict comes from the report's own walk
        rep, dominated = _divergences(spec, base)
        if not dominated:
            break
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
    if s_n == 0.0 or abs(s_n - s_half) < 1e-3 * s_n:
        diagnosis = "summable"
    elif s_n > 1e6 or (a_n > 0.0 and a_n >= (1.0 - 1e-3) * a_half):
        diagnosis = "diverging"
    else:
        diagnosis = "inconclusive"
    return KakutaniVerdict(sums, products, diagnosis)
