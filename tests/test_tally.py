import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import jurylab
from jurylab import streams, tally
from jurylab.measure import affine, lebesgue
from jurylab.profile import ExplicitSource, IidSource, Profile, generate
from jurylab.tally import (
    MAX_BRUTE_N,
    MAX_EXACT_N,
    MODES,
    anti_majority_prob_exact,
    majority_prob_exact,
    monte_carlo_estimate,
    poisson_binomial_pmf,
    proposition41_bound,
    weighted_majority_prob,
)
from jurylab.weights import ExpertRule, LogOdds, StochasticPoly, find_k, sample_weight

SG = [0.9, 0.9, 0.6, 0.6, 0.6]


def explicit(values) -> Profile:
    return Profile(np.asarray(values, dtype=float), ExplicitSource(tuple(values)))


def brute_majority(ps) -> float:
    """Oracle: enumerate all 2^n vote outcomes."""
    n = len(ps)
    total = 0.0
    for outcome in itertools.product((0, 1), repeat=n):
        if sum(outcome) > n / 2:
            pr = 1.0
            for p, o in zip(ps, outcome):
                pr *= p if o else 1.0 - p
            total += pr
    return total


def reference_pmf(ps) -> np.ndarray:
    """Reference: the O(n^2) voter-by-voter convolution DP."""
    n = len(ps)
    cur = np.zeros(n + 1)
    nxt = np.zeros(n + 1)
    tmp = np.zeros(n + 1)
    cur[0] = 1.0
    for k, p in enumerate(ps, start=1):
        np.multiply(cur[:k], p, out=tmp[:k])
        np.multiply(cur[:k], 1.0 - p, out=nxt[:k])
        nxt[k] = 0.0
        nxt[1 : k + 1] += tmp[:k]
        cur, nxt = nxt, cur
    return cur


def exact_pmf(ps) -> list[Fraction]:
    """Oracle: the voter-by-voter DP in exact rational arithmetic."""
    pmf = [Fraction(1)]
    for p in ps:
        p = Fraction(float(p))
        nxt = [x * (1 - p) for x in pmf] + [Fraction(0)]
        for k, x in enumerate(pmf):
            nxt[k + 1] += x * p
        pmf = nxt
    return pmf


def reference_tree_pmf(ps) -> tuple[int, np.ndarray, float]:
    """Reference: the unscaled tree stage, which convolves the leaf PMFs as
    they are and searches every band for its cut."""
    nodes = [(0, leaf_pmf) for leaf_pmf in tally._leaf_pmfs(np.asarray(ps, dtype=float))]
    trimmed = 0.0
    while len(nodes) > 1:
        paired = []
        for (off_a, a), (off_b, b) in zip(nodes[0::2], nodes[1::2]):
            band = np.convolve(a, b)
            live = np.flatnonzero(band >= tally._TRIM)
            lo, hi = int(live[0]), int(live[-1]) + 1
            trimmed += float(band[:lo].sum() + band[hi:].sum())
            paired.append((off_a + off_b + lo, band[lo:hi]))
        if len(nodes) % 2:
            paired.append(nodes[-1])
        nodes = paired
    offset, band = nodes[0]
    return offset, band, trimmed


def tree_estimate(tally_fn, profile):
    """`tally_fn` (majority or anti-majority) with the Chernoff certificate
    off: the product tree's estimate."""
    with mock.patch.object(tally, "_certifies", return_value=False):
        est = tally_fn(profile)
    assert est.method == "exact_dp"
    return est


def exact_majority(ps) -> Fraction:
    """Oracle: P(sum > n/2) from the Fraction DP."""
    return sum(exact_pmf(ps)[(len(ps) + 1) // 2 :], Fraction(0))


def full_pmf(ps) -> np.ndarray:
    """The product-tree band placed in a zero vector of length n + 1."""
    offset, band, _ = poisson_binomial_pmf(np.asarray(ps, dtype=float))
    out = np.zeros(len(ps) + 1)
    live = band[: len(out) - offset]  # a single padded leaf is longer than n + 1
    out[offset : offset + len(live)] = live
    return out


def reference_brute_weighted(ps, w) -> tuple[float, float]:
    """Reference: (win, tie) from the 2^n bitmask loop over 2^20-outcome chunks."""
    n = len(ps)
    chunk = 1 << 20
    win = 0.0
    tie = 0.0
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint64)
        prob = np.ones(len(idx))
        score = np.zeros(len(idx))
        for i in range(n):
            bit = (idx >> np.uint64(i)) & np.uint64(1)
            correct = bit == 1
            prob *= np.where(correct, ps[i], 1.0 - ps[i])
            score += np.where(correct, w[i], -w[i])
        win += float(prob[score > 0.0].sum())
        tie += float(prob[score == 0.0].sum())
    return win, tie


def random_weights(rng, kind: str, ps) -> np.ndarray:
    n = len(ps)
    if kind == "real":
        w = rng.uniform(0.1, 3.0, n)
    elif kind == "expert":
        w = (rng.random(n) < 0.5).astype(float)
    elif kind == "integer":
        w = rng.integers(1, 4, n).astype(float)
    elif kind == "negative":
        w = rng.normal(0.5, 1.0, n)
    else:  # log-odds with some voters silenced
        w = np.log(ps / (1.0 - ps))
        w[rng.random(n) < 0.3] = 0.0
    if not np.any(w != 0.0):
        w[0] = 1.0
    return w


def reference_draws(n, rows, seed) -> np.ndarray:
    """Layout 2, eagerly: D[r, j] = F << 37 | G for the voter at
    heavy-first position j of replica rows[r], with every 16-bit field F
    and every 37-bit refinement G drawn, ties or not.  The voter is
    correct iff D < ceil(p * 2^53), that is iff D * 2^-53 < p."""
    j = np.arange(n, dtype=np.uint64)
    keys = streams.row_keys(seed, (tally._REPLICA_TAG,), rows)
    words = streams.fill_words(np.empty((len(rows), (n + 3) // 4), dtype=np.uint64), keys)
    fields = (words[:, j // np.uint64(4)] >> (j % np.uint64(4) * np.uint64(16))) & np.uint64(0xFFFF)
    keys = streams.row_keys(seed, (tally._REFINE_TAG,), rows)
    refine = streams.fill_words(np.empty((len(rows), n), dtype=np.uint64), keys)
    return fields << np.uint64(37) | refine >> np.uint64(27)


def heavy_first(w) -> np.ndarray:
    """The voters in descending |w|, equal |w| in descending index."""
    return np.argsort(np.abs(w), kind="stable")[::-1]


def reference_mc_chunks(ps, w, replicas, seed):
    """(rows, correct-or-not flags in voter order, position thresholds T
    and position draws D) in chunks of 2^20 voters, from `reference_draws`."""
    n = len(ps)
    order = heavy_first(w)
    t = np.ceil(ps[order] * 2.0**53).astype(np.uint64)
    chunk = max(1, (1 << 20) // n)
    for start in range(0, replicas, chunk):
        rows = np.arange(start, min(start + chunk, replicas))
        d = reference_draws(n, rows, seed)
        correct = np.empty(d.shape, dtype=bool)
        correct[:, order] = d < t
        yield rows, correct, t, d


def reference_mc_scores(ps, w, replicas, seed) -> np.ndarray:
    """Every replica's full-row score fl(2 S - fl(sum w)): S is numpy's
    pairwise sum of the row np.where(correct, w, 0.0), which follows the
    voter order only on C-contiguous rows, as these are."""
    w_sum = float(np.sum(w))
    return np.concatenate([
        2.0 * np.where(correct, w, 0.0).sum(axis=1) - w_sum
        for _, correct, _, _ in reference_mc_chunks(ps, w, replicas, seed)
    ])


def reference_mc_value(ps, w, replicas, seed) -> float:
    """Reference: the share of replicas whose full-row score is above 0."""
    return np.count_nonzero(reference_mc_scores(ps, w, replicas, seed) > 0.0) / replicas


def reference_ties(ps, w, replicas, seed) -> int:
    """The (replica, voter) pairs whose field F equals T_hi = min(T >> 37,
    2^16 - 1) with T_lo = T - T_hi 2^37 > 0: those the kernel refines if
    it decides them."""
    ties = 0
    for _, _, t, d in reference_mc_chunks(ps, w, replicas, seed):
        t_hi = np.minimum(t >> np.uint64(37), np.uint64(0xFFFF))
        tie = (d >> np.uint64(37) == t_hi) & (t > t_hi << np.uint64(37))
        ties += int(np.count_nonzero(tie))
    return ties


class TestProductTree:
    # sizes on both sides of the 32-voter and 128-voter leaf boundaries
    SIZES = (1, 31, 33, 63, 65, 127, 129, 257, 1001, 4001)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_reference_dp(self, n):
        rng = np.random.default_rng(n)
        ps = rng.random(n)
        ps[rng.integers(0, n, max(1, n // 10))] = 0.0
        ps[rng.integers(0, n, max(1, n // 10))] = 1.0
        for profile in (ps, np.full(n, 0.5)):
            ref = reference_pmf(profile)
            assert np.max(np.abs(full_pmf(profile) - ref)) <= 1e-12
            win = majority_prob_exact(explicit(profile)).value
            assert win == pytest.approx(math.fsum(ref[(n + 1) // 2 :]), abs=1e-12)

    # one leaf, padded or full, and two or three leaves, one of them padded.
    # Past n = 129 the Fraction oracle takes tens of seconds, so the
    # voter-by-voter DP stands in, within its own gamma_3n on top
    @pytest.mark.parametrize("n", (1, 2, 3, 17, 31, 32, 33, 63, 65, 127, 129, 257))
    def test_entries_keep_relative_accuracy(self, n):
        rng = np.random.default_rng(900 + n)
        extremes = np.array([0.0, 1.0, 1e-200, 1.0 - 2.0**-53])
        profiles = (
            rng.random(n),
            rng.choice(extremes, n),
            np.where(rng.random(n) < 0.5, rng.random(n), rng.choice(extremes, n)),
        )
        for ps in profiles:
            offset, band, _ = poisson_binomial_pmf(ps)
            assert offset >= 0 and np.all(band >= 0.0)
            # a padded leaf runs past n: those entries are exactly zero
            assert not np.any(band[max(n + 1 - offset, 0) :])
            if n <= 129:
                wants, slack = exact_pmf(ps), Fraction(1e-13)
            else:
                wants = [Fraction(x) for x in reference_pmf(ps)]
                slack = Fraction(tally._relative_gamma(tally._rounding_depth(n) + 3 * n))
            for k, want in enumerate(wants):
                got = band[k - offset] if 0 <= k - offset < len(band) else 0.0
                if want >= 1e-280:
                    assert abs(Fraction(float(got)) - want) <= slack * want, (k, ps)

    @pytest.mark.parametrize("measure", ("lebesgue", "affine-1"))
    def test_leaves_match_the_voter_dp(self, measure):
        # leaf r holds voters r, r + leaves, ...; each entry is a sum of
        # non-negative terms on both sides, within gamma of the leaf's own
        # depth and of the DP's 3 roundings per voter
        n = 20_001
        ps = generate(IidSource(TestScaledTree.MEASURES[measure]), n, seed=41).competences
        pmfs = tally._leaf_pmfs(ps)
        leaf = tally._leaf_size(n)
        assert pmfs.shape == (-(-n // leaf), leaf + 1)
        padded = np.zeros(pmfs.shape[0] * leaf)
        padded[:n] = ps
        slack = tally._relative_gamma(tally._rounding_depth(leaf) + 3 * leaf)
        for r, row in enumerate(pmfs):
            ref = reference_pmf(padded[r :: len(pmfs)])
            assert np.all(np.abs(row - ref) <= slack * ref), r

    def test_band_independent_of_blas_threads(self):
        code = (
            "import hashlib, numpy as np\n"
            "from jurylab.tally import poisson_binomial_pmf\n"
            "offset, band, trimmed = poisson_binomial_pmf(np.random.default_rng(7).random(4001))\n"
            "print(offset, len(band), trimmed.hex(), hashlib.sha256(band.tobytes()).hexdigest())\n"
        )
        outs = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONPATH": str(Path(jurylab.__file__).parents[1]),
                "OPENBLAS_NUM_THREADS": threads,
            }
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
            )
            outs.append(out.stdout.split())
        assert outs[0] == outs[1]
        offset, band, trimmed = poisson_binomial_pmf(np.random.default_rng(7).random(4001))
        assert outs[0] == [str(offset), str(len(band)), trimmed.hex(),
                           hashlib.sha256(band.tobytes()).hexdigest()]

    def test_band_independent_of_call_and_input_buffer(self):
        # a second call, and competences that start 8 bytes into another
        # array, give the same band bit for bit
        n = 4001
        big = np.random.default_rng(7).random(n + 1)
        offset, band, trimmed = poisson_binomial_pmf(big[1:].copy())
        for ps in (big[1:].copy(), big[1 : n + 1]):
            again = poisson_binomial_pmf(ps)
            assert (again[0], again[2].hex()) == (offset, trimmed.hex())
            assert again[1].tobytes() == band.tobytes()

    def test_peak_memory_at_the_cap(self):
        # the leaf stage's first two level buffers, 60 bytes per padded
        # voter, set the peak at 11.5 MiB
        prof = explicit(np.random.default_rng(6).random(MAX_EXACT_N))
        tracemalloc.start()
        try:
            est = majority_prob_exact(prof)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.method == "exact_dp"
        assert peak < 12 * 2**20

    def test_sure_majority_is_exactly_one(self):
        # the band's total mass rounds to 1 - 5.5e-14 here, so summing the
        # upper tail would give 0.9999999999999448
        prof = explicit(np.full(10_001, 0.99))
        assert majority_prob_exact(prof).value == 1.0
        assert anti_majority_prob_exact(prof).value == 0.0

    def test_values_in_unit_interval_unclamped(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(0, 3000)) * 2 + 1
            centre = rng.uniform(0.0, 1.0)
            prof = explicit(np.clip(rng.normal(centre, 0.05, n), 0.0, 1.0))
            for est in (majority_prob_exact(prof), anti_majority_prob_exact(prof)):
                assert 0.0 <= est.value <= 1.0
                assert 0.0 <= est.trimmed_mass < 1e-280 + 2**-30 * est.rounding_bound

    def test_cap_size_mirror_identity(self):
        prof = explicit(np.random.default_rng(16).random(MAX_EXACT_N))
        win = majority_prob_exact(prof)
        anti = anti_majority_prob_exact(prof)
        assert win.value + anti.value == pytest.approx(1.0, abs=1e-10)
        for est in (win, anti):
            assert est.method == "exact_dp"
            assert 0.0 < est.trimmed_mass < 1e-280 + 2**-30 * est.rounding_bound


class TestScaledTree:
    MEASURES = {"lebesgue": lebesgue(), "affine+1": affine(1.0), "affine-1": affine(-1.0)}

    @pytest.mark.parametrize("n", (1001, 4001, 20_001))
    @pytest.mark.parametrize("measure", sorted(MEASURES))
    def test_matches_unscaled_tree(self, measure, n):
        # scaling by 2^1000 is exact: entries whose products were normal
        # match bit for bit, the rest can only move by their last bit
        ps = generate(IidSource(self.MEASURES[measure]), n, seed=31).competences
        offset, band, trimmed = poisson_binomial_pmf(ps)
        ref_offset, ref_band, ref_trimmed = reference_tree_pmf(ps)
        assert (offset, len(band), trimmed) == (ref_offset, len(ref_band), ref_trimmed)
        assert np.all(np.abs(band - ref_band) <= np.spacing(ref_band))

    @pytest.mark.parametrize("n", (2 * tally._LEAF + 1, 4001))
    @pytest.mark.parametrize("halves", (0, 1, 20))
    def test_certain_voters_never_overflow(self, n, halves):
        # the scaled leaf holds 2^1000 where the band is 1: no product or
        # sum may reach inf, and halves p = 0.5 voters give C(halves, k)
        # 2^-halves exactly, dyadic all the way
        ps = np.random.default_rng(n + halves).choice([0.0, 1.0], n)
        ps[:halves] = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            offset, band, trimmed = poisson_binomial_pmf(ps)
        want = [math.comb(halves, k) * 2.0**-halves for k in range(halves + 1)]
        assert offset == np.count_nonzero(ps == 1.0)
        assert band.tolist() == want
        assert trimmed == 0.0


class TestRoundingBound:
    @pytest.mark.parametrize("n", (1, 3, 17, 33, 65))
    def test_covers_the_fraction_oracle(self, n):
        rng = np.random.default_rng(1700 + n)
        extremes = np.array([0.0, 1.0, 1e-200, 1.0 - 2.0**-53])
        profiles = (
            rng.random(n),
            np.full(n, 1e-200),
            rng.choice(extremes, n),
            np.where(rng.random(n) < 0.5, rng.random(n), rng.choice(extremes, n)),
        )
        for ps in profiles:
            for tally_fn, exact in (
                (majority_prob_exact, exact_majority(ps)),
                (anti_majority_prob_exact, exact_majority(1.0 - ps)),
            ):
                est = tally_fn(explicit(ps))
                # below six leaves the tree answers: no certificate
                assert est.method == "exact_dp"
                assert 0.0 < est.rounding_bound < 1e-13
                err = abs(Fraction(est.value) - exact)
                assert err <= Fraction(est.rounding_bound) + Fraction(est.trimmed_mass), ps

    def test_covers_the_band_mass_at_n_10001(self):
        # every p = 0.99: the band's mass is 1 - 5.5e-14, which the value
        # (one minus the lower tail) never shows; the per-entry bound covers it
        n = 10_001
        offset, band, trimmed = poisson_binomial_pmf(np.full(n, 0.99))
        mass = math.fsum(band.tolist())
        assert 1e-14 < 1.0 - mass
        entry = tally._relative_gamma(tally._rounding_depth(n))
        assert 1.0 - mass <= entry * mass + trimmed
        est = majority_prob_exact(explicit(np.full(n, 0.99)))
        assert 0.0 < est.rounding_bound < 1e-15


def certificate_edge(n: int, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats a < b in [lo, hi] between which the certificate for
    n voters of equal competence switches between declining and firing."""

    def fires(bits: int) -> bool:
        p = float(np.int64(bits).view(np.float64))
        return majority_prob_exact(explicit(np.full(n, p))).method == "bound"

    a, b = np.array([lo, hi]).view(np.int64).tolist()
    at_a = fires(a)
    assert fires(b) != at_a
    # positive floats order as their bit patterns
    while b - a > 1:
        c = (a + b) // 2
        a, b = (c, b) if fires(c) == at_a else (a, c)
    return tuple(np.array([a, b]).view(np.float64).tolist())


def binomial_nats(n: int, p: float, x: int) -> float:
    """ln M(theta) - theta x for n voters of competence p at
    theta = ln(q/p), the tilt that centres their sum at n/2, where
    M(theta) = (2q)^n: n ln 2 + (n - x) ln q + x ln p."""
    return n * math.log(2.0) + (n - x) * math.log1p(-p) + x * math.log(p)


def binomial_slack(n: int, p: float, x: int) -> float:
    """The certificate's allowance for rounding at that tilt:
    2^-30 (|ln M| + |theta| x + n)."""
    log_m = n * math.log(2.0 * (1.0 - p))
    return 2.0**-30 * (abs(log_m) + abs(math.log((1.0 - p) / p)) * x + n)


def chernoff_exponent(n: int, m: float) -> float:
    """f(m) = s ln(s/m) + t ln(t/(n - m)): Hoeffding's exponent (1963,
    Thm 1) for a tail P(Y >= s) of n voters whose mean is m."""
    s, t = (n + 1) // 2, (n - 1) // 2
    return s * math.log(s / m) + (t * math.log(t / (n - m)) if t else 0.0)


def hoeffding_value(ps) -> float | None:
    """The value a Chernoff-Hoeffding rule from mu = sum p alone fixes,
    or None: 1.0 when f(n - mu) >= 39, 0.0 when f(mu) >= 746 and the tree
    has a combine, with mu widened by its rounding and f lowered by its
    own, as the tally certified before it used the tilt's exact CGF."""
    n = len(ps)
    mu = float(np.sum(ps))
    rho = tally._relative_gamma(n + 4)
    mu_lo = mu * (1.0 - rho)
    if 2.0 * mu_lo >= n:
        m, value, nats = n - mu_lo, 1.0, 39.0
    else:
        mu_hi = mu * (1.0 + rho)
        if 2.0 * mu_hi > n or n <= tally._LEAF:
            return None
        m, value, nats = max(mu_hi, 2.0**-1000), 0.0, 746.0
    exponent = chernoff_exponent(n, m) * (1.0 - 2.0**-49) - 2.0**-49 * n
    return value if exponent >= nats else None


def hoeffding_margin(n: int, nats: float, lo: float, hi: float) -> float:
    """A competence p in [lo, hi] at which n equal voters' Hoeffding
    exponent is `nats`: for the loss tail (mean n q) when lo >= 1/2, else
    for the win tail (mean n p)."""
    sure = lo >= 0.5
    for _ in range(200):
        p = 0.5 * (lo + hi)
        f = chernoff_exponent(n, n * (1.0 - p) if sure else n * p)
        # f grows with p for the loss tail and falls with it for the win tail
        lo, hi = (p, hi) if (f < nats) == sure else (lo, p)
    return lo


def exact_binomial_majority(n: int, p: float) -> Fraction:
    """Oracle: P(Bin(n, p) > n/2) in exact rational arithmetic, p taken
    as its float's exact value."""
    p = Fraction(float(p))
    q = 1 - p
    return sum(
        (math.comb(n, k) * p**k * q ** (n - k) for k in range((n + 1) // 2, n + 1)), Fraction(0)
    )


def certificate_families(rng, n: int):
    """The profiles the certificate is checked on, at n voters."""
    extremes = np.array([0.0, 1.0, 1e-200, 1.0 - 2.0**-53])
    return (
        rng.random(n),
        rng.choice(extremes, n),
        np.where(rng.random(n) < 0.5, rng.random(n), rng.choice(extremes, n)),
        np.full(n, extremes[n % 4]),
        rng.uniform(0.9, 1.0, n),
        rng.uniform(0.0, 1e-30, n),
    )


class TestChernoffCertificate:
    def test_never_disagrees_with_the_tree(self):
        rng = np.random.default_rng(1717)
        seen = set()
        for n in (*range(1, 100, 2), 101, 129, 1001, 4001):
            for ps in certificate_families(rng, n):
                for tally_fn in (majority_prob_exact, anti_majority_prob_exact):
                    est = tally_fn(explicit(ps))
                    tree = tree_estimate(tally_fn, explicit(ps))
                    assert est.value.hex() == tree.value.hex(), (n, ps)
                    if est.method == "bound":
                        seen.add(est.value)
                        assert est.trimmed_mass == 0.0
                        assert 2.0**-1074 <= est.rounding_bound < 2.0**-55
                    else:
                        assert est == tree
        assert seen == {0.0, 1.0}

    @pytest.mark.parametrize("n", (641, 1001, 4001, 20_001))
    def test_no_certificate_is_lost_in_the_tilted_range(self, n):
        # from six leaves on, wherever sum p q > 0, every profile that the
        # mean-only Hoeffding rule certifies the exact CGF certifies too,
        # with the same value; constant profiles half a nat inside each of
        # Hoeffding's margins check the certificate's thresholds themselves
        rng = np.random.default_rng(1719 + n)
        profiles = (
            *certificate_families(rng, n),
            np.full(n, hoeffding_margin(n, 39.5, 0.5, 1.0)),
            np.full(n, hoeffding_margin(n, 746.5, 0.0, 0.5)),
        )
        seen = set()
        for ps in profiles:
            # the anti-majority tally is the majority tally of 1 - ps
            for tally_fn, mirrored in (
                (majority_prob_exact, ps),
                (anti_majority_prob_exact, 1.0 - ps),
            ):
                value = hoeffding_value(mirrored)
                if value is not None and np.sum(mirrored * (1.0 - mirrored)) > 0.0:
                    seen.add(value)
                    est = tally_fn(explicit(ps))
                    assert (est.method, est.value) == ("bound", value), (n, ps)
        assert seen == {0.0, 1.0}

    @pytest.mark.parametrize("n", (5001, 10_001, 20_001))
    def test_cjt_sweeps_are_certified(self, n):
        for seed in range(3):
            prof = generate(IidSource(affine(1.0)), n, seed=seed)
            est = majority_prob_exact(prof)
            assert (est.value, est.method, est.trimmed_mass) == (1.0, "bound", 0.0)
            assert 0.0 < est.rounding_bound < 2.0**-55
            assert tree_estimate(majority_prob_exact, prof).value == 1.0
            # the mirrored win tail is far above 2^-1075: the tree decides it
            anti = anti_majority_prob_exact(prof)
            assert anti.method == "exact_dp"
            assert anti == tree_estimate(anti_majority_prob_exact, prof)

    @pytest.mark.parametrize("n", (1001, 5001, 10_001, 20_001))
    def test_declines_on_the_null(self, n):
        for seed in range(5):
            prof = generate(IidSource(lebesgue()), n, seed=seed)
            assert majority_prob_exact(prof).method == "exact_dp"
            assert anti_majority_prob_exact(prof).method == "exact_dp"

    @pytest.mark.parametrize("n", (3, 101, 1001, 20_001))
    def test_either_side_of_the_sure_margin(self, n):
        t = (n - 1) // 2
        if n <= 5 * tally._LEAF:
            # no tilt below six leaves, so no certificate, even far past
            # the margin: the tree returns the double a certificate would
            p = 1.0 - 2.0**-53
            assert binomial_nats(n, p, t) < -39.0
            est = majority_prob_exact(explicit(np.full(n, p)))
            assert (est.method, est.value) == ("exact_dp", 1.0)
            return
        below, above = certificate_edge(n, 0.5, 0.999)
        # the switch sits where the exact CGF's exponent at the start tilt
        # ln(q/p) crosses -39 nats, moved only by the allowance for rounding
        assert binomial_nats(n, above, t) + binomial_slack(n, above, t) <= -39.0 + 1e-9
        assert binomial_nats(n, below, t) + binomial_slack(n, below, t) > -39.0 - 1e-9
        for p, method in ((below, "exact_dp"), (above, "bound")):
            prof = explicit(np.full(n, p))
            est = majority_prob_exact(prof)
            assert est.method == method
            assert est.value == tree_estimate(majority_prob_exact, prof).value == 1.0

    @pytest.mark.parametrize("n", (tally._LEAF + 1, 2 * tally._LEAF + 1, 1001))
    def test_either_side_of_the_null_margin(self, n):
        s = (n + 1) // 2
        if n <= 5 * tally._LEAF:
            # 64- and 128-voter leaves below six of them: the tree decides
            p = 1e-300
            assert binomial_nats(n, p, s) < -746.0
            est = majority_prob_exact(explicit(np.full(n, p)))
            assert (est.method, est.value) == ("exact_dp", 0.0)
            return
        inside, outside = certificate_edge(n, 1e-300, 0.5)
        assert binomial_nats(n, inside, s) + binomial_slack(n, inside, s) <= -746.0 + 1e-9
        assert binomial_nats(n, outside, s) + binomial_slack(n, outside, s) > -746.0 - 1e-9
        for p, method in ((inside, "bound"), (outside, "exact_dp")):
            prof = explicit(np.full(n, p))
            est = majority_prob_exact(prof)
            assert est.method == method
            assert est.value == tree_estimate(majority_prob_exact, prof).value == 0.0

    def test_near_unanimous_start_tilt(self):
        # at p = 1 - 2^-53, n - fl(sum p) is twice the gap sum q; the start
        # tilt takes the gap from sum q, so both tails are still certified
        prof = explicit(np.full(1001, 1.0 - 2.0**-53))
        for tally_fn, value in ((majority_prob_exact, 1.0), (anti_majority_prob_exact, 0.0)):
            est = tally_fn(prof)
            assert (est.method, est.value) == ("bound", value)

    def test_a_lone_leaf_is_left_to_the_tree(self):
        # below 2^-1075, but below six leaves there is no tilt and so no
        # certificate, a lone leaf (which no combine trims) included
        for n, method in (
            (tally._LEAF - 1, "exact_dp"),
            (5 * tally._LEAF - 1, "exact_dp"),
            (5 * tally._LEAF + 1, "bound"),
        ):
            assert majority_prob_exact(explicit(np.full(n, 1e-200))).method == method

    def test_covers_the_fraction_oracle_at_n_641(self):
        # a loss tail near 1e-142 and a win tail near 1e-3017, both nonzero
        n = 5 * tally._LEAF + 1
        for p, value in ((0.9, 1.0), (1e-10, 0.0)):
            est = majority_prob_exact(explicit(np.full(n, p)))
            assert (est.method, est.value) == ("bound", value)
            err = abs(Fraction(est.value) - exact_binomial_majority(n, p))
            assert 0 < err <= Fraction(est.rounding_bound)

    def test_lower_tail_sum_is_order_free(self):
        # the smaller lower tail is summed largest first: the same double as
        # summing it in band order
        rng = np.random.default_rng(1718)
        profiles = (
            rng.uniform(0.5, 0.7, 101),
            generate(IidSource(affine(1.0)), 1001, seed=4).competences,
            np.full(1001, 0.6),
        )
        for ps in profiles:
            n = len(ps)
            offset, band, _ = poisson_binomial_pmf(ps)
            lower, upper = band[: (n + 1) // 2 - offset], band[(n + 1) // 2 - offset :]
            assert lower.sum() < upper.sum()
            est = majority_prob_exact(explicit(ps))
            assert est.method == "exact_dp"
            assert 0.0 < 1.0 - est.value
            assert est.value == 1.0 - math.fsum(lower.tolist())


def reference_tail(ps, value: float) -> Fraction:
    """The 1e-300 floor-only reference tree's tail on value's side: the
    win tail for a value below 1/2, else one minus the loss tail."""
    offset, band, _ = reference_tree_pmf(ps)
    split = max((len(ps) + 1) // 2 - offset, 0)
    if value < 0.5:
        return Fraction(math.fsum(band[split:].tolist()))
    return 1 - Fraction(math.fsum(band[:split].tolist()))


class TestTiltedTrim:
    """The exact tally cuts its bands towards the tail it sums.  Its value
    stays within rounding_bound + trimmed_mass of the floor-only tree, and
    the tilt adds under 2^-30 of rounding_bound to trimmed_mass."""

    @staticmethod
    def check(est, ps) -> None:
        # far from 1/2, so the reference sums the tally's own tail
        assert not 0.4 < est.value < 0.6
        err = abs(Fraction(est.value) - reference_tail(ps, est.value))
        assert err <= Fraction(est.rounding_bound) + Fraction(est.trimmed_mass)
        assert est.trimmed_mass <= 1e-280 + 2.0**-30 * est.rounding_bound

    @pytest.mark.parametrize("n", (129, 193, 1001, 4001, 20_001))
    def test_far_tails_match_the_floor_tree(self, n):
        # anti-CJT win tails, and CJT loss tails both mirrored (a win tail
        # again) and from the tree's own loss side (a negative tilt); up
        # to five leaves (n <= 640) only the floor cuts
        tails = []
        for slope in (1.0, 2.0):
            cjt = generate(IidSource(affine(slope)), n, seed=5).competences
            anti = generate(IidSource(affine(-slope)), n, seed=5).competences
            for est, ps in (
                (majority_prob_exact(explicit(anti)), anti),
                (anti_majority_prob_exact(explicit(cjt)), 1.0 - cjt),
                (tree_estimate(majority_prob_exact, explicit(cjt)), cjt),
            ):
                self.check(est, ps)
                tail = min(est.value, 1.0 - est.value)
                tails.append(tail)
                if n > 5 * tally._LEAF and est.method == "exact_dp":
                    # each side cut adds tau times a Chernoff bound on the tail
                    assert 2.0**-110 * tail <= est.trimmed_mass
        assert min(t for t in tails if t > 0.0) < (1e-150 if n == 20_001 else 1e-3)

    def test_tilt_from_six_leaves(self):
        for n, calls in ((5 * tally._LEAF - 1, 0), (5 * tally._LEAF + 1, 1)):
            with mock.patch.object(tally, "_tilt", wraps=tally._tilt) as spy:
                majority_prob_exact(explicit(np.random.default_rng(n).random(n)))
            assert spy.call_count == calls

    def test_two_clusters_take_several_newton_steps(self):
        # voters near 0.02 in 18 of the 32 leaves and near 0.9 in the
        # others: the tilted mean is far from linear in theta, so the
        # start misses and two or more Newton steps follow it, one exp
        # each, and each leaf's window must be its own
        n = 4001
        rng = np.random.default_rng(2020)
        assert -(-n // tally._leaf_size(n)) == 32
        low = np.arange(n) % 32 < 18
        ps = np.where(low, rng.uniform(0.01, 0.03, n), rng.uniform(0.88, 0.92, n))
        with mock.patch.object(tally.math, "exp", wraps=math.exp) as steps:
            theta, _, _ = tally._tilt(ps)
        assert steps.call_count >= 3
        tilted = ps * math.exp(theta) / (1.0 - ps + ps * math.exp(theta))
        assert abs(math.fsum(tilted) - n / 2) <= 0.25
        self.check(majority_prob_exact(explicit(ps)), ps)
        self.check(anti_majority_prob_exact(explicit(ps)), 1.0 - ps)

    @pytest.mark.parametrize("n", (tally._LEAF + 1, 1001))
    def test_certain_voters_have_no_tilt(self, n):
        # sum p (1 - p) = 0: no tilt moves the mean, and the floor alone
        # cuts the exact zeros around the one outcome
        rng = np.random.default_rng(n)
        for ones in ((n - 1) // 2, (n + 1) // 2, n // 3, n):
            ps = np.zeros(n)
            ps[rng.choice(n, ones, replace=False)] = 1.0
            assert tally._tilt(ps) is None
            for tally_fn, win in (
                (majority_prob_exact, 2 * ones > n),
                (anti_majority_prob_exact, 2 * ones < n),
            ):
                est = tree_estimate(tally_fn, explicit(ps))
                assert (est.value, est.trimmed_mass) == (float(win), 0.0)

    @pytest.mark.parametrize("n", (tally._LEAF + 1, 1001))
    def test_tiny_competences(self, n):
        rng = np.random.default_rng(n + 1)
        profiles = (
            np.full(n, 1e-200),
            np.where(rng.random(n) < 0.5, 1e-200, rng.uniform(0.3, 0.9, n)),
            np.where(rng.random(n) < 0.05, 1e-200, rng.uniform(0.6, 0.95, n)),
        )
        for ps in profiles:
            self.check(tree_estimate(majority_prob_exact, explicit(ps)), ps)
            self.check(tree_estimate(anti_majority_prob_exact, explicit(ps)), 1.0 - ps)


class TestMajorityExact:
    def test_three_constant(self):
        # p^3 + 3 p^2 (1-p) enumerated over 8 outcomes
        assert majority_prob_exact(explicit([0.6] * 3)).value == pytest.approx(0.648, abs=1e-12)

    def test_two_guaranteed(self):
        assert majority_prob_exact(explicit([1.0, 1.0, 0.0])).value == 1.0

    def test_shapley_grofman_simple(self):
        est = majority_prob_exact(explicit(SG))
        assert est.value == pytest.approx(0.87696, abs=1e-12)
        assert est.method == "exact_dp"
        assert est.half_width == 0.0

    def test_even_n_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            majority_prob_exact(explicit([0.6, 0.6]))

    def test_dp_equals_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 8)) * 2 + 1  # odd n <= 15
            ps = rng.random(n)
            assert majority_prob_exact(explicit(ps)).value == pytest.approx(
                brute_majority(ps), abs=1e-12
            )

    def test_monotone_in_each_competence(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            ps = rng.uniform(0.05, 0.95, 9)
            base = majority_prob_exact(explicit(ps)).value
            i = int(rng.integers(0, 9))
            bumped = ps.copy()
            bumped[i] = min(1.0, bumped[i] + 0.05)
            assert majority_prob_exact(explicit(bumped)).value >= base - 1e-12


class TestAntiMajority:
    def test_complement(self):
        assert anti_majority_prob_exact(explicit([0.6] * 3)).value == pytest.approx(
            0.352, abs=1e-12
        )

    def test_perfect_voters(self):
        assert anti_majority_prob_exact(explicit([1.0] * 3)).value == 0.0

    def test_reflection_symmetry(self):
        assert anti_majority_prob_exact(explicit([0.4] * 3)).value == pytest.approx(
            0.648, abs=1e-12
        )

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            ps = rng.random(int(rng.integers(1, 30)) * 2 + 1)
            prof = explicit(ps)
            total = majority_prob_exact(prof).value + anti_majority_prob_exact(prof).value
            assert total == pytest.approx(1.0, abs=1e-10)


class TestWeightedMajority:
    def test_expert_rule(self):
        est = weighted_majority_prob(explicit(SG), [1, 0, 0, 0, 0], mode="brute")
        assert est.value == pytest.approx(0.9, abs=1e-12)

    def test_unit_weights_match_simple_majority(self):
        est = weighted_majority_prob(explicit(SG), [1] * 5, mode="brute")
        assert est.value == pytest.approx(0.87696, abs=1e-12)
        assert est.tie_prob == 0.0

    def test_log_odds_style_weights(self):
        est = weighted_majority_prob(
            explicit(SG), [1 / 3, 1 / 3, 1 / 9, 1 / 9, 1 / 9], mode="brute"
        )
        assert est.value == pytest.approx(0.92664, abs=1e-12)

    def test_tie_mass_reported(self):
        # two equal voters at weight 1: tie when they disagree
        est = weighted_majority_prob(explicit([0.5, 0.5, 1.0]), [1, 1, 0], mode="brute")
        assert est.tie_prob == pytest.approx(0.5, abs=1e-12)
        assert est.value == pytest.approx(0.25, abs=1e-12)  # ties lose

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="weights"):
            weighted_majority_prob(explicit(SG), [1, 2, 3], mode="brute")
        with pytest.raises(ValueError, match="finite"):
            weighted_majority_prob(explicit(SG), [1, 1, 1, 1, math.inf], mode="brute")
        with pytest.raises(ValueError, match="nonzero"):
            weighted_majority_prob(explicit(SG), [0, 0, 0, 0, 0], mode="brute")

    def test_negative_weight_reverses_vote(self):
        # a single voter with negative weight wins exactly when wrong
        prof = explicit([0.3])
        est = weighted_majority_prob(prof, [-1.0], mode="brute")
        assert est.value == pytest.approx(0.7, abs=1e-12)

    def test_brute_cap_and_replica_floor(self):
        n = MAX_BRUTE_N + 2
        with pytest.raises(ValueError, match="brute"):
            weighted_majority_prob(explicit([0.6] * n), [1.0] * n, mode="brute")
        with pytest.raises(ValueError, match="replicas"):
            weighted_majority_prob(explicit(SG), [1] * 5, mode="mc", replicas=50)

    def test_positive_scaling_invariance_bitwise(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            ps = rng.uniform(0.05, 0.95, 11)
            w = rng.uniform(0.1, 3.0, 11)
            base = weighted_majority_prob(explicit(ps), w, mode="brute").value
            for c in (0.5, 2.0, 4.0):  # power-of-two scalings are exact in float
                scaled = weighted_majority_prob(explicit(ps), c * w, mode="brute").value
                assert scaled == base

    def test_overflowing_weight_sum(self):
        # 4 sum|w| overflows while every weight is finite: the rule of
        # w / 2^k decides, as it does for w / 1e300
        ps = np.full(33, 0.999999)
        w = np.full(33, 1e307)
        w[0] = -1e307
        est = weighted_majority_prob(explicit(ps), w, mode="mc", replicas=1000, seed=1)
        small = weighted_majority_prob(explicit(ps), w / 1e300, mode="mc", replicas=1000, seed=1)
        assert est.value == small.value == 1.0
        brute = weighted_majority_prob(explicit(ps[:31]), w[:31], mode="brute")
        assert brute.value == weighted_majority_prob(explicit(ps[:31]), w[:31] / 1e300).value

    def test_mc_covers_brute_truth(self):
        # every estimate is the eager oracle's, and within z standard
        # errors of the brute-force truth, z for a family error of 1e-3
        # over the 100 tallies (Bonferroni)
        rng = np.random.default_rng(123)
        replicas, trials = 10_000, 100
        z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * trials))
        for trial in range(trials):
            ps = rng.uniform(0.05, 0.95, 15)
            w = rng.uniform(0.2, 3.0, 15)
            prof = explicit(ps)
            truth = weighted_majority_prob(prof, w, mode="brute").value
            est = weighted_majority_prob(prof, w, mode="mc", replicas=replicas, seed=trial)
            assert est.method == "monte_carlo"
            assert est.n_replicas == replicas
            assert est.value == reference_mc_value(ps, w, replicas, trial)
            assert abs(est.value - truth) <= z * math.sqrt(truth * (1.0 - truth) / replicas)

    def test_mc_deterministic_given_seed(self):
        prof = explicit(SG)
        a = weighted_majority_prob(prof, [1] * 5, mode="mc", replicas=5000, seed=9)
        b = weighted_majority_prob(prof, [1] * 5, mode="mc", replicas=5000, seed=9)
        assert a.value == b.value

    @pytest.mark.parametrize("mode", MODES + ("exact", "Auto", "monte_carlo", ""))
    def test_accepts_exactly_the_modes(self, mode):
        if mode in MODES:
            est = weighted_majority_prob(explicit(SG), [1, 2, 1, 1, 1], mode=mode, replicas=100)
            assert 0.0 < est.value < 1.0
        else:
            with pytest.raises(ValueError, match="mode"):
                weighted_majority_prob(explicit(SG), [1, 2, 1, 1, 1], mode=mode)

    def test_auto_mode_selection(self):
        small = weighted_majority_prob(explicit(SG), [1] * 5, mode="auto")
        assert small.method == "brute_force"
        big = explicit([0.6] * 51)
        est = weighted_majority_prob(big, [1.0] * 51, mode="auto", replicas=2000, seed=1)
        assert est.method == "monte_carlo"


class TestMeetInTheMiddle:
    KINDS = ("real", "expert", "integer", "negative", "zeros")

    @pytest.mark.parametrize("n", range(1, 26))
    def test_matches_reference_loop(self, n):
        # every weight kind up to n = 18; one kind each above, where the
        # reference loop takes most of a second per call
        kinds = self.KINDS if n <= 18 else self.KINDS[n % 5 : n % 5 + 1]
        rng = np.random.default_rng(700 + n)
        for kind in kinds:
            ps = rng.uniform(0.02, 0.98, n)
            w = random_weights(rng, kind, ps)
            est = weighted_majority_prob(explicit(ps), w, mode="brute")
            win, tie = reference_brute_weighted(ps, w)
            assert est.method == "brute_force"
            assert abs(est.value - win) <= 1e-14
            assert abs(est.tie_prob - tie) <= 1e-14

    def test_integer_weight_ties(self):
        # integer sums are exact: the tie mass is that of the reference
        # loop, and win + tie + loss (the mirrored win) adds up to one
        rng = np.random.default_rng(21)
        for n in (2, 5, 10, 17):
            ps = rng.random(n)
            # repeated weights (and a silent voter at odd n) can cancel out
            half = rng.integers(-3, 4, n // 2).astype(float)
            half[0] = 1.0
            w = np.concatenate((half, half, np.zeros(n % 2)))
            est = weighted_majority_prob(explicit(ps), w, mode="brute")
            loss = weighted_majority_prob(explicit(ps), -w, mode="brute")
            win, tie = reference_brute_weighted(ps, w)
            assert est.value == pytest.approx(win, abs=1e-15)
            assert est.tie_prob == pytest.approx(tie, abs=1e-15)
            assert est.tie_prob > 0.0
            assert est.tie_prob == pytest.approx(loss.tie_prob, abs=1e-15)
            assert est.value + est.tie_prob + loss.value == pytest.approx(1.0, abs=1e-14)

    def test_odd_unit_weights_never_tie(self):
        rng = np.random.default_rng(22)
        for n in range(1, 32, 2):
            est = weighted_majority_prob(explicit(rng.random(n)), np.ones(n), mode="brute")
            assert est.tie_prob == 0.0

    def test_unit_weights_at_the_cap_match_exact_dp(self):
        prof = explicit(np.random.default_rng(23).random(MAX_BRUTE_N))
        est = weighted_majority_prob(prof, np.ones(MAX_BRUTE_N), mode="auto")
        assert est.method == "brute_force"
        assert est.tie_prob == 0.0
        assert abs(est.value - majority_prob_exact(prof).value) <= 1e-14


class TestMonteCarloKernel:
    # 65537 voters exceed a chunk, so each chunk holds a single replica's row
    @pytest.mark.parametrize("n,replicas", [(27, 3000), (101, 2000), (65_537, 100)])
    def test_matches_float_reference_bitwise(self, n, replicas):
        rng = np.random.default_rng(n)
        ps = rng.random(n)
        ps[:3] = (0.0, 1.0, 0.5)
        k = rng.integers(1, 2**53, 8).astype(float)
        ps[3:11] = np.nextafter(k * 2.0**-53, np.repeat([0.0, 1.0], 4))
        for w in (np.ones(n), rng.normal(1.0, 1.0, n)):
            est = weighted_majority_prob(explicit(ps), w, mode="mc", replicas=replicas, seed=n)
            assert est.value == reference_mc_value(ps, w, replicas, n)

    def test_thresholds_exact_at_the_draws(self):
        # voter 0 alone decides, and its p sits on, just below and just
        # above draws of its own stream, so an off-by-one threshold shows;
        # on a draw, F == T_hi, so the kernel refines to settle it
        n, replicas, seed = 27, 400, 5
        w = np.zeros(n)
        w[0] = 1.0
        rows = np.arange(replicas)
        draws = reference_draws(1, rows, seed)[:, 0] * 2.0**-53
        ps = np.random.default_rng(3).random(n)
        for d in draws[:4]:
            for p0 in (np.nextafter(d, 0.0), d, np.nextafter(d, 1.0)):
                ps[0] = p0
                est = weighted_majority_prob(
                    explicit(ps), w, mode="mc", replicas=replicas, seed=seed
                )
                assert est.value == np.count_nonzero(draws < p0) / replicas
                assert est.value == reference_mc_value(ps, w, replicas, seed)


class TestTwoLevelDecision:
    """The kernel's lazy test, F < T_hi or, where F == T_hi and T_lo > 0,
    G < T_lo, against the eager comparison (F << 37 | G) < T, on fields
    and refinements that a fake stream serves."""

    PS = (0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0, 0.5, 0.3)

    @staticmethod
    def cases():
        """(p, F, G) around each p's T_hi and T_lo; p = 0.5 has T_lo = 0,
        p = 1 has T_hi = 65535 and T_lo = 2^37."""
        for p in TestTwoLevelDecision.PS:
            t = math.ceil(p * 2**53)
            t_hi = min(t >> 37, 2**16 - 1)
            t_lo = t - (t_hi << 37)
            for f in sorted({t_hi - 1, t_hi, t_hi + 1}):
                for g in sorted({0, t_lo - 1, t_lo, 2**37 - 1}):
                    if 0 <= f < 2**16 and 0 <= g < 2**37:
                        yield p, f, g

    def test_matches_the_eager_comparison(self, monkeypatch):
        cases = list(self.cases())
        ps = np.array([p for p, _, _ in cases])
        fields = [f for _, f, _ in cases] + [0] * 3
        refines = [g for _, _, g in cases]
        drawn = []

        def fill_words(out, keys, start):
            for k in range(out.shape[1]):
                lanes = fields[4 * (start + k) : 4 * (start + k) + 4]
                out[0, k] = sum(f << (16 * i) for i, f in enumerate(lanes))
            return out

        def words_at(keys, cols):
            drawn.extend(cols.tolist())
            # bits below the refinement's 37 must not count
            return np.array([refines[j] << 27 | (1 << 27) - 1 for j in cols], dtype=np.uint64)

        fake = SimpleNamespace(
            fill_words=fill_words, words_at=words_at,
            row_keys=lambda seed, path, rows: np.zeros(len(rows), dtype=np.uint64),
        )
        monkeypatch.setattr(tally, "streams", fake)
        n = len(cases)
        order = np.arange(n, dtype=np.int32)
        t_hi = tally._field_thresholds(ps, order)
        eager = [(f << 37 | g) < math.ceil(p * 2**53) for p, f, g in cases]
        ties = [j for j, (p, f, _) in enumerate(cases)
                if f == t_hi[j] and math.ceil(p * 2**53) > f << 37]
        assert 0 < len(ties) < n
        for lo in (0, 3):
            drawn.clear()
            got = tally._correct(ps, order, t_hi, 0, np.zeros(1, dtype=np.int64),
                                 np.zeros(1, dtype=np.uint64), lo, n)
            assert got[0].tolist() == eager[lo:]
            # a refinement is drawn only where it decides
            assert sorted(drawn) == [j for j in ties if j >= lo]


def near_tie(rng, n, zeros):
    """Voter 0 (p = 1/2) weighs the float sum of the others, who always
    vote right, so half the replicas score a few ulps from 0, on a side
    that only the rounding of the full-row score fixes.  `zeros`
    silent voters close the row."""
    v = rng.random(n - 1 - zeros)
    w = np.concatenate(([np.sum(v)], v, np.zeros(zeros)))
    ps = np.concatenate(([0.5], np.ones(n - 1 - zeros), rng.random(zeros)))
    return ps, w


def near_ties():
    """24 near-tie cases (ps, w, replicas, seed): n = 41, 71 and 101, each
    with and without silent voters."""
    rng = np.random.default_rng(7)
    for case in range(24):
        ps, w = near_tie(rng, (41, 71, 101)[case % 3], zeros=10 * (case % 2))
        yield ps, w, 400, case


class TestEarlyDecision:
    """The staged kernel stops drawing a replica once its outcome is
    certain; its win counts must equal the reference's count of positive
    full-row scores."""

    @staticmethod
    def estimate(ps, w, replicas, seed):
        want = reference_mc_value(ps, w, replicas, seed)
        est = weighted_majority_prob(explicit(ps), w, mode="mc", replicas=replicas, seed=seed)
        # 200 splits pieces at 25 voters, off the 4-voter words, and groups at 200 replicas
        with mock.patch.object(tally, "_MC_CHUNK", 200):
            small = weighted_majority_prob(explicit(ps), w, mode="mc", replicas=replicas, seed=seed)
        assert est.value == small.value == want
        assert est.draws == small.draws
        # an undecided replica's staged voters are decided again when it is redrawn whole
        assert 0 < est.draws <= 2 * len(ps) * replicas
        return est

    def test_exact_methods_make_no_draws(self):
        prof = explicit([0.6, 0.7, 0.8])
        assert majority_prob_exact(prof).draws == 0
        assert weighted_majority_prob(prof, [1.0, 2.0, 1.0]).draws == 0

    def test_dominant_weights_decide_in_the_first_stages(self):
        n, replicas = 301, 2000
        ps = np.random.default_rng(1).uniform(0.3, 0.9, n)
        w = np.ones(n)
        w[0] = 1e4
        # voter 0 outweighs the rest: stage 1 is voter 0 alone and decides all
        assert self.estimate(ps, w, replicas, 3).draws == replicas
        w[:3] = 1e4
        # stage 1 is voters 0 and 1; where they split, voter 2 decides
        assert self.estimate(ps, w, replicas, 4).draws <= 3 * replicas

    @pytest.mark.parametrize("p", [0.5, 0.52])
    def test_equal_weights(self, p):
        # few replicas are decided before stage 4, so most are redrawn whole
        self.estimate(np.full(301, p), np.ones(301), 1000, 5)

    def test_zero_and_negative_weights(self):
        n, replicas = 201, 2000
        ps = generate(IidSource(lebesgue()), n, seed=11).competences
        expert = ExpertRule(0.7).weight(ps)
        assert 0 < np.count_nonzero(expert) < n
        log_odds = LogOdds().weight(ps)
        assert np.any(log_odds < 0.0) and np.any(log_odds > 0.0)
        for w in (expert, log_odds):
            self.estimate(ps, w, replicas, 12)

    def test_integer_weights_with_exact_ties(self):
        n, replicas = 41, 3000
        rng = np.random.default_rng(41)
        ps = rng.uniform(0.4, 0.6, n)
        w = rng.integers(1, 4, n).astype(float)
        w[0] += np.sum(w) % 2  # an even total, so a score can be exactly 0
        ties = np.count_nonzero(reference_mc_scores(ps, w, replicas, 9) == 0.0)
        assert ties > 0
        self.estimate(ps, w, replicas, 9)

    def test_scores_within_ulps_of_zero(self):
        for ps, w, replicas, seed in near_ties():
            scores = reference_mc_scores(ps, w, replicas, seed)
            assert np.any(np.abs(scores) < 64 * len(ps) * 2.0**-53 * np.sum(w))
            self.estimate(ps, w, replicas, seed)

    def test_certain_voters(self):
        n, replicas = 101, 1000
        rng = np.random.default_rng(2)
        w = rng.normal(1.0, 1.0, n)
        for ps in (np.zeros(n), np.ones(n), rng.choice([0.0, 1.0], n)):
            est = self.estimate(ps, w, replicas, 6)
            assert est.value in (0.0, 1.0)
        ps = rng.choice([0.0, 0.5, 1.0], n)
        self.estimate(ps, w, replicas, 6)

    def test_wider_than_a_block(self):
        n, replicas = 65_537, 100
        rng = np.random.default_rng(n)
        ps = rng.uniform(0.45, 0.65, n)
        w = rng.normal(1.0, 1.0, n)
        est = self.estimate(ps, w, replicas, 8)
        assert est.draws < n * replicas
        # about 100 of the 6.5M fields tie, so the refinements are drawn
        assert reference_ties(ps, w, replicas, 8) > 0

    def test_independent_of_block_sizes(self, monkeypatch):
        n = 301
        rng = np.random.default_rng(3)
        # the near-ties' outcomes rest on the rounding of their full-row
        # scores, so they show it if that rounding depends on the batching
        cases = [(rng.uniform(0.4, 0.8, n), rng.normal(1.0, 1.0, n), 1500, 10), *near_ties()]
        default = [self.estimate(*case) for case in cases]
        # 104 splits pieces at 13 voters and groups at 104 replicas; 2^17
        # puts every replica in one group
        for chunk in (104, 1 << 17):
            monkeypatch.setattr(tally, "_MC_CHUNK", chunk)
            for (ps, w, replicas, seed), est in zip(cases, default):
                other = weighted_majority_prob(
                    explicit(ps), w, mode="mc", replicas=replicas, seed=seed
                )
                assert (other.value, other.half_width, other.n_replicas, other.draws) == (
                    est.value, est.half_width, est.n_replicas, est.draws
                )

    def test_closing_pass_alone(self, monkeypatch):
        # with no stages every replica is drawn whole in the closing pass, once
        monkeypatch.setattr(tally, "_STAGES", 0)
        for ps, w, replicas, seed in near_ties():
            est = self.estimate(ps, w, replicas, seed)
            assert est.draws == len(ps) * replicas

    def test_peak_memory_within_a_whole_row_block(self):
        # at n = 65537 a block of whole rows took 25n bytes, 1,640,448: 8n
        # of thresholds, 8n of draws and 9n of their bools and float cast;
        # the closing pass holds 4n of order and 8n of one row's draws, and
        # beside them 8n of column steps while it fills the row, then 8n of
        # uniforms and 1n of flags, then the flags and 8n of float terms
        n = 65_537
        rng = np.random.default_rng(n)
        prof = explicit(rng.random(n))
        for w in (np.ones(n), rng.normal(1.0, 1.0, n)):
            weighted_majority_prob(prof, w, mode="mc", replicas=100, seed=1)
            tracemalloc.start()
            try:
                weighted_majority_prob(prof, w, mode="mc", replicas=200, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 25 * n + 4096

    def test_peak_memory_bounded_in_replicas(self):
        n = 101
        rng = np.random.default_rng(n)
        prof, w = explicit(rng.random(n)), rng.normal(1.0, 1.0, n)
        weighted_majority_prob(prof, w, mode="mc", replicas=1000, seed=2)
        peaks = []
        for replicas in (65_536, 262_144):
            tracemalloc.start()
            try:
                weighted_majority_prob(prof, w, mode="mc", replicas=replicas, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4096


class TestMonteCarloInterval:
    def test_interior_counts_keep_wald(self):
        for wins, trials in ((1, 100), (37, 100), (9_999, 10_000)):
            p = wins / trials
            est = monte_carlo_estimate(wins, trials)
            assert est.value == p
            assert est.half_width == 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)

    @pytest.mark.parametrize("trials", [100, 2_000, 10_000])
    def test_extreme_counts_get_clopper_pearson(self, trials):
        # the exact 95% interval at 0 successes is [0, h] with (1 - h)^trials = 0.025
        for wins in (0, trials):
            est = monte_carlo_estimate(wins, trials)
            assert est.value == wins / trials
            assert (1.0 - est.half_width) ** trials == pytest.approx(0.025, rel=1e-9)

    def test_criterion_7_profile_has_positive_width(self):
        spec = affine(-2.0)
        scheme = StochasticPoly(W=100.0, k=find_k(spec), sigma_w=99.0 / 50.0)
        prof = generate(IidSource(spec), 10_001, seed=streams.stream_key(0, 7))
        w = sample_weight(scheme, prof.competences, streams.stream_key(0, 7, 1))
        est = weighted_majority_prob(prof, w, mode="mc", replicas=10_000, seed=0)
        assert est.value == 1.0
        assert 0.0 < est.half_width < 1e-3


class TestProposition41Bound:
    def test_constant_profile(self):
        value = proposition41_bound(explicit([0.75] * 100), [1.0] * 100)
        assert value == pytest.approx(0.03, abs=1e-14)

    def test_zero_variance(self):
        assert proposition41_bound(explicit([1.0] * 3), [2.0, 1.0, 1.0]) == 0.0

    def test_shapley_grofman(self):
        assert proposition41_bound(explicit(SG), [1.0] * 5) == pytest.approx(
            3.6 / 4.84, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_weights_rejected(self, bad):
        # the same weight checks as weighted_majority_prob
        with pytest.raises(ValueError, match="finite"):
            proposition41_bound(explicit([0.8, 0.7, 0.6]), [bad, 1.0, 1.0])
        with pytest.raises(ValueError, match="weights"):
            proposition41_bound(explicit([0.8, 0.7, 0.6]), [1.0, 1.0])

    @pytest.mark.parametrize("scale", (1e200, 1e307))
    def test_huge_weights(self, scale):
        # w * w overflows past about 1.3e154, but the bound does not
        # change when every weight is scaled
        unit = proposition41_bound(explicit([0.9] * 33), [1.0] * 33)
        assert unit == pytest.approx(0.017045454545454537, rel=1e-15)
        value = proposition41_bound(explicit([0.9] * 33), [scale] * 33)
        assert value == pytest.approx(unit, rel=1e-15)

    def test_nonpositive_drift_not_applicable(self):
        with pytest.raises(ValueError, match="drift"):
            proposition41_bound(explicit([0.4] * 9), [1.0] * 9)
