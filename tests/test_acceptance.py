"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (run
pytest with -s to see them).  Runtime budgets are asserted along with
the numeric targets.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from jurylab.divergence import divergences
from jurylab.measure import MeasureSpec, affine, lebesgue
from jurylab.profile import C1Source, ExplicitSource, IidSource, Profile, condition_report, generate
from jurylab.streams import stream_key
from jurylab.tally import majority_prob_exact, weighted_majority_prob
from jurylab.walk import border_measure, catalan, moa_fraction_experiment
from jurylab.weights import (
    StochasticPoly,
    TruncatedGaussianSpec,
    drift,
    find_k,
    sample_weight,
    truncated_normal_mean,
)

from conftest import random_measure

SEED = 0


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def explicit(values) -> Profile:
    return Profile(np.asarray(values, dtype=float), ExplicitSource(tuple(values)))


def _win_probs(measure: MeasureSpec, n: int, count: int, tag: int) -> np.ndarray:
    wins = np.empty(count)
    for j in range(count):
        prof = generate(IidSource(measure), n, seed=stream_key(SEED, tag, j))
        wins[j] = majority_prob_exact(prof).value
    return wins


@pytest.fixture(scope="module")
def biased_runs():
    """Criterion 5 profiles and win probabilities, shared with criterion 6."""
    n, count = 10_001, 100
    profiles = [
        generate(IidSource(affine(1.0)), n, seed=stream_key(SEED, 5, j)) for j in range(count)
    ]
    wins = np.array([majority_prob_exact(p).value for p in profiles])
    return profiles, wins


def test_criterion_1_shapley_grofman_table():
    t0 = time.time()
    sg = explicit([0.9, 0.9, 0.6, 0.6, 0.6])
    expert = weighted_majority_prob(sg, [1, 0, 0, 0, 0], mode="brute").value
    simple = majority_prob_exact(sg).value
    weighted = weighted_majority_prob(sg, [1 / 3, 1 / 3, 1 / 9, 1 / 9, 1 / 9], mode="brute").value
    elapsed = time.time() - t0
    ok = (
        abs(expert - 0.9) < 1e-12
        and abs(simple - 0.87696) < 1e-12
        and abs(weighted - 0.92664) < 1e-12
        and abs(simple - 0.877) < 5e-4
        and abs(weighted - 0.927) < 5e-4
        and elapsed < 1.0
    )
    assert _report(
        1, "shapley-grofman", ok,
        f"expert={expert} simple={simple} weighted={weighted} ({elapsed:.2f}s)",
    )


def test_criterion_2_catalan_border_identity():
    t0 = time.time()
    enum_ok = all(
        border_measure(m, enumerate_paths=True).enumerated == border_measure(m).closed_form
        for m in range(1, 11)
    )
    partial_ok = all(
        Fraction(1, 2)
        - Fraction(1, 4) * sum(Fraction(catalan(i + 1), 2 ** (2 * i + 1)) for i in range(m))
        == border_measure(m).closed_form
        for m in range(1, 31)
    )
    elapsed = time.time() - t0
    ok = enum_ok and partial_ok and elapsed < 10.0
    assert _report(
        2, "catalan-border", ok,
        f"enumeration(m<=10)={enum_ok} partial-sum(m<=30)={partial_ok} ({elapsed:.2f}s)",
    )


def test_criterion_3_stirling_asymptote():
    t0 = time.time()
    value = border_measure(10_000).value
    dev = abs(math.sqrt(math.pi * 10_000) * value - 1.0)
    elapsed = time.time() - t0
    ok = dev <= 1e-3 and elapsed < 1.0
    assert _report(3, "stirling", ok, f"deviation={dev:.2e} ({elapsed:.2f}s)")


def test_criterion_4_centered_measure_null():
    t0 = time.time()
    wins = _win_probs(lebesgue(), 10_001, 200, tag=4)
    frac_high = float(np.mean(wins > 0.99))
    med = float(np.median(wins))
    elapsed = time.time() - t0
    ok = frac_high <= 0.02 and 0.40 <= med <= 0.60 and elapsed < 180.0
    assert _report(
        4, "centered-null", ok,
        f"frac(win>0.99)={frac_high:.3f} median={med:.3f} ({elapsed:.1f}s)",
    )


def test_criterion_5_positive_bias_cjp(biased_runs):
    t0 = time.time()
    _, wins = biased_runs
    frac = float(np.mean(wins > 0.999))
    elapsed = time.time() - t0
    ok = frac >= 0.99 and elapsed < 120.0
    assert _report(5, "positive-bias", ok, f"frac(win>0.999)={frac:.3f} ({elapsed:.1f}s)")


def test_criterion_6_anti_cjp_and_reflection(biased_runs):
    t0 = time.time()
    wins_neg = _win_probs(affine(-1.0), 10_001, 100, tag=6)
    frac_low = float(np.mean(wins_neg < 0.001))
    profiles, wins_pos = biased_runs
    # reflection duality: mirrored profiles lose exactly as often as the
    # originals win, to DP rounding
    dual_dev = max(
        abs(majority_prob_exact(Profile(1.0 - p.competences, p.source)).value - (1.0 - w))
        for p, w in zip(profiles, wins_pos)
    )
    elapsed = time.time() - t0
    ok = frac_low >= 0.99 and dual_dev <= 1e-6 and elapsed < 120.0
    assert _report(
        6, "anti-cjp", ok,
        f"frac(win<0.001)={frac_low:.3f} reflection-dev={dual_dev:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_7_stochastic_weights_rescue():
    t0 = time.time()
    spec = affine(-2.0)  # density 2(1-x): mean 1/3 < 1/2, mass 1/4 above 1/2
    k = find_k(spec)
    assert k == 2
    scheme = StochasticPoly(W=100.0, k=k, sigma_w=99.0 / 50.0)
    d = drift(spec, scheme)
    n = 10_001
    prof = generate(IidSource(spec), n, seed=stream_key(SEED, 7))
    w = sample_weight(scheme, prof.competences, stream_key(SEED, 7, 1))
    weighted = weighted_majority_prob(prof, w, mode="mc", replicas=10_000, seed=SEED)
    unit = majority_prob_exact(prof).value
    elapsed = time.time() - t0
    ok = d >= 2.5 and weighted.value >= 0.99 and unit <= 0.01 and elapsed < 180.0
    assert _report(
        7, "stochastic-weights", ok,
        f"drift={d:.4f} weighted-win={weighted.value:.4f} unit-win={unit:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_8_divergence_suite():
    t0 = time.time()
    rng = np.random.default_rng(88)
    violations = 0
    for _ in range(1000):
        rep = divergences(random_measure(rng), random_measure(rng))
        h = rep.hellinger_affinity
        if 2.0 * (1.0 - h) > rep.tv + 1e-9:
            violations += 1
        if 2.0 * (1.0 - h) > rep.kl + 1e-9:
            violations += 1
        if rep.bhattacharyya < 1.0 - h - 1e-9:
            violations += 1
    spot = divergences(lebesgue(), affine(2.0))
    spot_ok = (
        abs(spot.tv - 0.5) <= 1e-9
        and abs(spot.hellinger_affinity - 2.0 * math.sqrt(2.0) / 3.0) <= 1e-9
        and abs(spot.kl - (1.0 - math.log(2.0))) <= 1e-9
    )
    elapsed = time.time() - t0
    ok = violations == 0 and spot_ok and elapsed < 30.0
    assert _report(
        8, "divergence-suite", ok,
        f"violations={violations}/3000 spot={spot_ok} ({elapsed:.1f}s)",
    )


def test_criterion_9_truncated_gaussian_mean():
    t0 = time.time()
    rng = np.random.default_rng(99)
    cases = [(1.0, -2.0, 2.0), (1.0, 0.0, math.inf), (2.0, -9.0, math.inf)]
    while len(cases) < 50:
        sigma = float(rng.uniform(0.1, 5.0))
        a = float(rng.uniform(-6.0, 4.0)) * sigma
        cases.append((sigma, a, a + float(rng.uniform(0.1, 8.0)) * sigma))
    worst = 0.0
    for i, (sigma, a, b) in enumerate(cases):
        analytic = truncated_normal_mean(TruncatedGaussianSpec(sigma, a, b))
        u = np.random.default_rng(stream_key(SEED, 9, i)).random(1_000_000)
        draws = sigma * stats.truncnorm.ppf(u, a / sigma, b / sigma)
        se = float(draws.std()) / 1000.0
        dev = abs(float(draws.mean()) - analytic)
        worst = max(worst, dev / max(se, 1e-300))
        if dev > 3.0 * se + 1e-12:
            break
    sym = truncated_normal_mean(TruncatedGaussianSpec(1.3, -0.7, 0.7))
    half = truncated_normal_mean(TruncatedGaussianSpec(1.0, 0.0, math.inf))
    edge_ok = sym == 0.0 and abs(half - math.sqrt(2.0 / math.pi)) < 1e-12
    elapsed = time.time() - t0
    ok = worst <= 3.0 and edge_ok and elapsed < 60.0
    assert _report(
        9, "truncated-gaussian", ok,
        f"worst-dev={worst:.2f}se edges={edge_ok} ({elapsed:.1f}s)",
    )


def test_criterion_10_informed_fraction():
    t0 = time.time()
    present = moa_fraction_experiment(lebesgue(), 0.1, 0.05, 10_000, 200, seed=SEED)
    absent = moa_fraction_experiment(lebesgue(), 0.1, 0.2, 10_000, 200, seed=SEED)
    elapsed = time.time() - t0
    ok = present.value >= 0.995 and absent.value <= 0.005 and elapsed < 60.0
    assert _report(
        10, "informed-fraction", ok,
        f"freq(eps=0.05)={present.value:.4f} freq(eps=0.2)={absent.value:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_11_slow_boost_diagnostics():
    t0 = time.time()
    rep = condition_report(C1Source(-0.25), (101, 1001, 10001, 100001))
    cheb = float(rep.chebyshev_bounds[-1])
    mean = float(rep.running_mean[-1])
    decreasing = bool(np.all(np.diff(rep.running_mean) < 0.0))
    elapsed = time.time() - t0
    cheb_ok = cheb <= 1e-3
    mean_ok = abs(mean - 0.5) <= 0.03
    ok = cheb_ok and mean_ok and decreasing and elapsed < 10.0
    _report(
        11, "slow-boost", ok,
        f"chebyshev={cheb:.2e} (<=1e-3: {cheb_ok}) running-mean={mean:.4f} "
        f"(within 0.5+-0.03: {mean_ok}) decreasing={decreasing} ({elapsed:.1f}s)",
    )
    # The two halves of this criterion are mutually exclusive at n = 1e5:
    # bound <= 1e-3 forces sum(eps) >= ~4984, i.e. mean >= ~0.5498, for
    # any boost sequence.  The family satisfies the bound; the stated
    # mean window cannot hold at this n (it does around n = 1e7).
    assert ok


def test_criterion_12_oracle_equivalences():
    t0 = time.time()

    def brute(ps: np.ndarray) -> float:
        n = len(ps)
        idx = np.arange(1 << n, dtype=np.uint32)
        prob = np.ones(len(idx))
        count = np.zeros(len(idx), dtype=np.int32)
        for i in range(n):
            bit = (idx >> i) & 1
            prob *= np.where(bit == 1, ps[i], 1.0 - ps[i])
            count += bit
        return float(prob[count > n / 2].sum())

    rng = np.random.default_rng(1212)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 8)) * 2 + 1
        ps = rng.random(n)
        worst = max(worst, abs(majority_prob_exact(explicit(ps)).value - brute(ps)))
    covered = 0
    for trial in range(100):
        ps = rng.uniform(0.05, 0.95, 15)
        w = rng.uniform(0.2, 3.0, 15)
        prof = explicit(ps)
        truth = weighted_majority_prob(prof, w, mode="brute").value
        est = weighted_majority_prob(prof, w, mode="mc", replicas=10_000, seed=trial)
        if abs(est.value - truth) <= est.half_width:
            covered += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and covered >= 93
    assert _report(
        12, "oracle-equivalences", ok,
        f"dp-vs-brute worst={worst:.2e} mc-coverage={covered}/100 ({elapsed:.1f}s)",
    )
