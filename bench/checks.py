"""Reference computations and checks for the benchmark's outputs.

Every reference is computed apart from jurylab: Poisson-binomial tails
by blocked DP plus FFT convolution, weighted tallies by a doubling
enumeration, divergences and drifts by `scipy.integrate.quad`, Monte
Carlo tallies by a numpy `Generator` simulation, and the ballot-path and
random-walk values from closed forms.  Each check returns True when the
output passes; `selftest.py` shows that each one rejects an output that
is off by a small amount.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
from scipy import integrate, stats

# Absolute tolerance of an exact win probability against the FFT tail.
# The FFT reference is accurate to about n * 1e-16 (2e-12 at n = 20001).
TOL_TAIL = 1e-9
# majority(p) + majority(1 - p) = 1: two DP tails of n-term sums.
TOL_MIRROR = 1e-10
# Brute-force tallies against the doubling enumeration: the per-outcome
# scores and probabilities are formed in the same voter order, so only
# the final summation order differs.
TOL_ENUM = 1e-12
# Divergences against scipy quadrature; jurylab integrates to 1e-13.
TOL_DIV = 1e-9
# Criterion 8's inequalities, with the slack the test suite uses.
TOL_INEQ = 1e-9
# weights.drift against quadrature of scipy's truncated-normal mean.
TOL_DRIFT = 1e-9
# z-limit for Monte Carlo comparisons; a false alarm has probability
# 3.8e-8 per check.
Z_MC = 5.5

_U = 2.0**-53
_BLOCK = 64


# -- Poisson-binomial tails --------------------------------------------------

def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    size = len(a) + len(b) - 1
    if min(len(a), len(b)) <= 128:
        return np.convolve(a, b)
    nfft = 1 << (size - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:size]
    return np.maximum(out, 0.0)


def poisson_binomial_reference(ps: np.ndarray) -> np.ndarray:
    """PMF of a sum of Bernoulli(p_i): a DP inside blocks of 64 voters,
    run for all blocks at once, then a pairwise tree of FFT products."""
    ps = np.asarray(ps, dtype=float)
    n = len(ps)
    padded = np.concatenate([ps, np.zeros((-n) % _BLOCK)]).reshape(-1, _BLOCK)
    pmf = np.zeros((padded.shape[0], _BLOCK + 1))
    pmf[:, 0] = 1.0
    for j in range(_BLOCK):
        p = padded[:, j : j + 1]
        pmf[:, 1:] = pmf[:, 1:] * (1.0 - p) + pmf[:, :-1] * p
        pmf[:, 0] *= 1.0 - padded[:, j]
    polys = list(pmf)
    while len(polys) > 1:
        paired = [_fft_convolve(a, b) for a, b in zip(polys[0::2], polys[1::2])]
        polys = paired + polys[len(paired) * 2 :]
    return polys[0][: n + 1]


def majority_tail_reference(ps: np.ndarray) -> float:
    """P(sum X_i > n/2) for odd n."""
    pmf = poisson_binomial_reference(ps)
    return math.fsum(pmf[(len(ps) + 1) // 2 :])


def exact_tail_ok(ps: np.ndarray, value: float) -> bool:
    return 0.0 <= value <= 1.0 and abs(value - majority_tail_reference(ps)) <= TOL_TAIL


def mirror_ok(value: float, mirrored: float) -> bool:
    """majority(p) + majority(1 - p) = 1 for odd n."""
    return abs(value + mirrored - 1.0) <= TOL_MIRROR


# -- weighted tallies ----------------------------------------------------------

def weighted_enumeration(ps: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """(win, tie, loss) of sum w_i X_i, X_i = +-1, over all 2^n outcomes,
    built by doubling the outcome list one voter at a time."""
    score = np.zeros(1)
    prob = np.ones(1)
    for p, wi in zip(np.asarray(ps, dtype=float), np.asarray(w, dtype=float)):
        score = np.concatenate((score - wi, score + wi))
        prob = np.concatenate((prob * (1.0 - p), prob * p))
    return (
        math.fsum(prob[score > 0.0]),
        math.fsum(prob[score == 0.0]),
        math.fsum(prob[score < 0.0]),
    )


def brute_ok(ps: np.ndarray, w: np.ndarray, value: float, tie: float) -> bool:
    win, tie_ref, loss = weighted_enumeration(ps, w)
    return (
        abs(value - win) <= TOL_ENUM
        and abs(tie - tie_ref) <= TOL_ENUM
        and abs(value + tie + loss - 1.0) <= TOL_ENUM
    )


def degenerate_ok(ps: np.ndarray, threshold: float) -> bool:
    """An expert rule has no voter to count only if nobody clears it."""
    return bool(np.all(np.asarray(ps) < threshold))


def mc_reference_wins(
    ps: np.ndarray, w: np.ndarray, replicas: int, rng: np.random.Generator
) -> int:
    """Replicas of sum w_i X_i > 0, simulated with a numpy Generator in
    blocks of about 2^20 draws."""
    ps = np.asarray(ps, dtype=float)
    w = np.asarray(w, dtype=float)
    rows = max(1, (1 << 20) // len(ps))
    wins = 0
    for start in range(0, replicas, rows):
        correct = rng.random((min(rows, replicas - start), len(ps))) < ps
        wins += int(np.count_nonzero(np.where(correct, w, -w).sum(axis=1) > 0.0))
    return wins


def mc_agrees(value: float, replicas: int, ref_wins: int, ref_replicas: int) -> bool:
    """Two binomial estimates agree within Z_MC pooled standard errors."""
    pooled = (value * replicas + ref_wins) / (replicas + ref_replicas)
    se = math.sqrt(max(pooled * (1.0 - pooled), 0.0) * (1.0 / replicas + 1.0 / ref_replicas))
    return abs(value - ref_wins / ref_replicas) <= Z_MC * se + 1e-12


def hoeffding_lower_bound(ps: np.ndarray, w: np.ndarray) -> float:
    """Certified P(sum w_i X_i > 0) >= 1 - exp(-mu^2 / (2 sum w_i^2))."""
    ps = np.asarray(ps, dtype=float)
    w = np.asarray(w, dtype=float)
    mu = math.fsum(w * (2.0 * ps - 1.0))
    if mu <= 0.0:
        return 0.0
    return 1.0 - math.exp(-mu * mu / (2.0 * math.fsum(w * w)))


def hoeffding_ok(ps: np.ndarray, w: np.ndarray, value: float, half_width: float) -> bool:
    return value >= hoeffding_lower_bound(ps, w) - half_width


# -- divergences -----------------------------------------------------------------

def identity_ok(rep) -> bool:
    return (
        rep.hellinger_affinity == 1.0
        and rep.hellinger_distance == 0.0
        and rep.tv == 0.0
        and rep.kl == 0.0
    )


def inequalities_ok(rep) -> bool:
    """2(1 - h) <= TV, 2(1 - h) <= KL and Bhattacharyya >= 1 - h."""
    gap = 1.0 - rep.hellinger_affinity
    return (
        2.0 * gap <= rep.tv + TOL_INEQ
        and 2.0 * gap <= rep.kl + TOL_INEQ
        and rep.bhattacharyya >= gap - TOL_INEQ
    )


def _coeffs(spec, x: float) -> tuple[float, float]:
    for lo, hi, c0, c1 in spec.pieces:
        if lo <= x <= hi:
            return c0, c1
    return 0.0, 0.0


def _density(spec, x: float) -> float:
    c0, c1 = _coeffs(spec, x)
    return c0 + c1 * x


def _breaks(p, q) -> list[float]:
    """Piece ends plus the roots of rho_p, rho_q and rho_p - rho_q."""
    ends = sorted({0.0, 1.0} | {v for spec in (p, q) for lo, hi, _, _ in spec.pieces for v in (lo, hi)})
    pts = set(ends)
    for a, b in zip(ends, ends[1:]):
        mid = 0.5 * (a + b)
        (c0p, c1p), (c0q, c1q) = _coeffs(p, mid), _coeffs(q, mid)
        for c0, c1 in ((c0p, c1p), (c0q, c1q), (c0p - c0q, c1p - c1q)):
            if c1 != 0.0 and a < -c0 / c1 < b:
                pts.add(-c0 / c1)
    return sorted(pts)


def _quad(f, a: float, b: float) -> float:
    """quad on a mesh graded geometrically towards both ends, which
    resolves a density root at, or just outside, an end of the piece."""
    grading = [10.0**-k for k in range(1, 16)]
    points = [a + (b - a) * g for g in grading] + [b - (b - a) * g for g in grading]
    with warnings.catch_warnings():
        # the tiny end panels cannot meet epsabs and say so; the sum can
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, points=points, epsabs=1e-14, epsrel=1e-13, limit=400)[0]


def divergence_reference(p, q) -> tuple[float, float, float]:
    """(TV, Hellinger affinity, KL(p||q)) by quadrature between the
    piece ends and the roots of rho_p, rho_q and rho_p - rho_q."""

    def rp(x: float) -> float:
        return _density(p, x)

    def rq(x: float) -> float:
        return _density(q, x)

    def kl_term(x: float) -> float:
        dp, dq = rp(x), rq(x)
        # a density root is a single point: it adds nothing
        return dp * math.log(dp / dq) if dp > 0.0 and dq > 0.0 else 0.0

    tv = aff = kl = 0.0
    pts = _breaks(p, q)
    for a, b in zip(pts, pts[1:]):
        tv += _quad(lambda x: abs(rp(x) - rq(x)), a, b)
        aff += _quad(lambda x: math.sqrt(max(rp(x) * rq(x), 0.0)), a, b)
        mid = 0.5 * (a + b)
        if rp(mid) > 0.0:
            if rq(mid) <= 0.0:
                kl = math.inf
            elif not math.isinf(kl):
                kl += _quad(kl_term, a, b)
    p_atoms, q_atoms = dict(p.atoms), dict(q.atoms)
    for x in set(p_atoms) | set(q_atoms):
        mp, mq = p_atoms.get(x, 0.0), q_atoms.get(x, 0.0)
        tv += abs(mp - mq)
        aff += math.sqrt(mp * mq)
        if mp > 0.0:
            kl = math.inf if mq == 0.0 else kl + mp * math.log(mp / mq)
    return tv, aff, kl


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def divergence_ok(p, q, rep) -> bool:
    tv, aff, kl = divergence_reference(p, q)
    return (
        _close(rep.tv, tv, TOL_DIV)
        and _close(rep.hellinger_affinity, aff, TOL_DIV)
        and _close(rep.kl, kl, TOL_DIV)
    )


def kakutani_ok(verdict, expected: str) -> bool:
    """The predicted diagnosis, nondecreasing partial sums and
    nonincreasing affinity products inside [0, 1]."""
    sums, prods = verdict.partial_sums, verdict.partial_products
    return (
        verdict.diagnosis == expected
        and bool(np.all(np.diff(sums) >= 0.0))
        and bool(np.all(np.diff(prods) <= 0.0))
        and bool(np.all((prods >= 0.0) & (prods <= 1.0)))
    )


# -- weights.drift -------------------------------------------------------------------

def drift_reference(c0: float, c1: float, W: float, k: int, sigma: float) -> float:
    """Per-voter drift under the density c0 + c1*x on [0, 1]: closed-form
    moments plus quad of (2p - 1) E[eps | p] rho(p), with E[eps | p] from
    scipy's truncated normal."""

    def m(i: int) -> float:
        return c0 / (i + 1) + c1 / (i + 2)

    moments = 2.0 * m(1) - 1.0 + (W - 1.0) * (2.0 * m(k + 1) - m(k))

    def integrand(p: float) -> float:
        wd = 1.0 + (W - 1.0) * p**k
        mean = stats.truncnorm.mean((1.0 - wd) / sigma, (W - wd) / sigma, scale=sigma)
        return (2.0 * p - 1.0) * mean * (c0 + c1 * p)

    return moments + integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


def drift_ok(c0: float, c1: float, W: float, k: int, sigma: float, value: float) -> bool:
    ref = drift_reference(c0, c1, W, k, sigma)
    return abs(value - ref) <= TOL_DRIFT * max(1.0, abs(ref))


# -- profile.condition_report ---------------------------------------------------------

def q_reference(ps: np.ndarray, checkpoints) -> tuple[np.ndarray, np.ndarray]:
    """Q_k = (S_k - k/2) / sqrt(V_k) from math.fsum prefix sums, with the
    worst-case rounding bound of a running float sum over k terms."""
    ps = np.asarray(ps, dtype=float)
    pq = ps * (1.0 - ps)
    s_parts: list[float] = []
    v_parts: list[float] = []
    q = []
    tol = []
    start = 0
    for k in checkpoints:
        for lo in range(start, k, 1 << 18):
            hi = min(k, lo + (1 << 18))
            s_parts.append(math.fsum(ps[lo:hi].tolist()))
            v_parts.append(math.fsum(pq[lo:hi].tolist()))
        start = k
        s, v = math.fsum(s_parts), math.fsum(v_parts)
        qk = (s - 0.5 * k) / math.sqrt(v)
        q.append(qk)
        tol.append(2.0 * k * _U * (s / math.sqrt(v) + abs(qk)) + 1e-12)
    return np.asarray(q), np.asarray(tol)


def condition_ok(ps: np.ndarray, checkpoints, q_trace: np.ndarray) -> bool:
    q, tol = q_reference(ps, checkpoints)
    return bool(np.all(np.abs(np.asarray(q_trace) - q) <= tol))


# -- walk --------------------------------------------------------------------------------

def walk_reflection(level: int, horizon: int) -> float:
    """P(max_{t <= T} S_t >= k) = P(S_T >= k) + P(S_T > k), S_T = 2B - T."""
    half = (horizon + level) / 2.0
    ge = stats.binom.sf(math.ceil(half) - 1, horizon, 0.5)
    gt = stats.binom.sf(math.floor(half), horizon, 0.5)
    return float(ge + gt)


def walk_ok(level: int, horizon: int, value: float, half_width: float) -> bool:
    """The 95% interval widened to Z_MC contains the reflection value."""
    return abs(value - walk_reflection(level, horizon)) <= half_width * Z_MC / 1.96


def border_ok(m: int, count) -> bool:
    ref = Fraction(math.comb(2 * m + 2, m + 1), 4 ** (m + 1))
    return (
        count.enumerated == ref
        and count.closed_form == ref
        and Fraction(count.numerator, count.denominator) == ref
    )
