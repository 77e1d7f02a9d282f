import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from jurylab import streams, walk
from jurylab.measure import affine, dirac, lebesgue
from jurylab.tally import monte_carlo_estimate
from jurylab.walk import (
    MAX_ENUM_M,
    border_measure,
    border_measure_enumerated,
    catalan,
    moa_fraction_experiment,
    random_walk_return,
    stirling_asymptote,
)


def catalan_by_recurrence(n: int) -> int:
    """Oracle: C_{m+1} = sum_i C_i C_{m-i}."""
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def reference_border_enumerated(m: int) -> Fraction:
    """The original full enumeration: all 2^(2m+1) sequences in chunks of
    2^20, each tested bit by bit at every odd k."""
    n = 2 * m + 1
    total = 1 << n
    count = 0
    chunk = 1 << 20
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        ones = np.zeros(len(idx), dtype=np.int32)
        alive = np.ones(len(idx), dtype=bool)
        for k in range(1, n + 1):
            ones += ((idx >> np.uint64(k - 1)) & np.uint64(1)).astype(np.int32)
            if k % 2 == 1:
                alive &= 2 * ones > k
        count += int(np.count_nonzero(alive))
    return Fraction(count, total)


def reference_walk_return(k: int, horizon: int, replicas: int, seed: int):
    """Reference: the loop that held each 512-step block's draws, their
    int64 and int32 steps and a shifted int32 cumsum at once."""
    level = abs(k)
    hits = np.zeros(replicas, dtype=bool)
    active = np.arange(replicas)
    position = np.zeros(replicas, dtype=np.int32)
    done = 0
    while done < horizon and len(active):
        take = min(512, horizon - done)
        u = streams.uniforms_block(seed, (0x57A1,), active, take, col_start=done)
        steps = np.where(u >= 0.5, 1, -1).astype(np.int32)
        partial = np.cumsum(steps, axis=1) + position[:, None]
        hit_now = partial.max(axis=1) >= level
        hits[active[hit_now]] = True
        active = active[~hit_now]
        position = partial[~hit_now, -1]
        done += take
    return monte_carlo_estimate(int(np.count_nonzero(hits)), replicas)


class TestCatalan:
    def test_base(self):
        assert catalan(0) == 1

    def test_small_values(self):
        assert catalan(5) == 42
        assert catalan(10) == 16796

    def test_recurrence_oracle(self):
        for n in range(15):
            assert catalan(n) == catalan_by_recurrence(n)

    def test_bounds(self):
        with pytest.raises(ValueError):
            catalan(-1)
        with pytest.raises(ValueError):
            catalan(100_001)


class TestBorderMeasure:
    def test_m1(self):
        pc = border_measure(1)
        assert (pc.numerator, pc.denominator) == (6, 16)
        assert pc.closed_form == Fraction(3, 8)
        assert pc.value == 0.375

    def test_m2(self):
        pc = border_measure(2)
        assert (pc.numerator, pc.denominator) == (20, 64)
        assert pc.value == 0.3125

    def test_enumeration_matches_closed_form(self):
        for m in range(1, 11):
            pc = border_measure(m, enumerate_paths=True)
            assert pc.enumerated == pc.closed_form  # exact rational equality

    @pytest.mark.parametrize("m", range(1, 11))
    def test_enumeration_matches_full_enumeration(self, m):
        assert border_measure_enumerated(m) == reference_border_enumerated(m)

    def test_enumeration_at_cap(self):
        pc = border_measure(MAX_ENUM_M, enumerate_paths=True)
        assert pc.enumerated == pc.closed_form

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            border_measure_enumerated(13)

    def test_partial_sum_identity(self):
        # 1/2 - (1/4) sum_{i<m} C_{i+1} / 2^(2i+1) telescopes to the
        # closed form, in exact rationals
        for m in range(1, 31):
            partial = Fraction(1, 2) - Fraction(1, 4) * sum(
                Fraction(catalan(i + 1), 2 ** (2 * i + 1)) for i in range(m)
            )
            assert partial == border_measure(m).closed_form

    def test_strictly_decreasing_to_zero(self):
        values = [border_measure(m).value for m in range(1, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert border_measure(2000).value < 0.02

    def test_stirling_asymptote(self):
        pc = border_measure(10_000)
        assert abs(pc.value * math.sqrt(math.pi * 10_000) - 1.0) <= 1e-3
        assert stirling_asymptote(10_000) == pytest.approx(pc.value, rel=1e-4)


class TestRandomWalkReturn:
    def test_level_zero_immediate(self):
        est = random_walk_return(0, 10, 1000)
        assert (est.value, est.half_width) == (1.0, 0.0)
        # certain, not estimated: no replica was drawn, so no interval is claimed
        assert (est.method, est.n_replicas, est.rounding_bound) == ("bound", 0, 0.0)

    def test_pinned_values(self):
        # recorded from the float-uniform step draws (u < 1/2 steps down)
        for k, horizon, replicas, seed, value, half in (
            (3, 50, 5000, 4, 0.6732, 0.01300122118276587),
            (10, 1000, 4000, 2, 0.76625, 0.013115568778173518),
        ):
            est = random_walk_return(k, horizon, replicas, seed=seed)
            assert (est.value, est.half_width) == (value, half)

    @pytest.mark.parametrize("k,horizon,replicas,seed", [
        (1, 7, 300, 0),
        (2, 513, 1000, 1),
        (5, 1100, 800, 2),
        (-4, 1537, 500, 3),
        (12, 2000, 1500, 5),
        (40, 777, 400, 6),
    ])
    def test_matches_reference_loop(self, k, horizon, replicas, seed):
        assert random_walk_return(k, horizon, replicas, seed=seed) == reference_walk_return(
            k, horizon, replicas, seed
        )

    def test_single_step(self):
        est = random_walk_return(1, 1, 100_000)
        assert abs(est.value - 0.5) <= est.half_width

    def test_long_horizon_near_certain(self):
        est = random_walk_return(-1, 100_000, 10_000)
        assert est.value >= 0.99

    def test_monotone_in_horizon_coupled(self):
        values = [random_walk_return(3, h, 5000, seed=4).value for h in (50, 500, 5000)]
        assert values[0] <= values[1] <= values[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            random_walk_return(5, 3, 1000)
        with pytest.raises(ValueError):
            random_walk_return(1, 10, 50)


def test_monte_carlo_routines_count_their_draws():
    assert random_walk_return(0, 10, 1000).draws == 0
    # a replica stops drawing at the end of its first step block that hits
    est = random_walk_return(3, 2000, 500, seed=4)
    assert walk._STEP_BLOCK * 500 <= est.draws < 2000 * 500
    assert moa_fraction_experiment(lebesgue(), 0.1, 0.05, 101, 200).draws == 101 * 200


def test_walk_buffers_stay_one_step_block_wide():
    # the bits and step buffers take 12 bytes per replica and step: 5.9 MiB
    # for 4000 replicas and 128-step blocks (24 MiB with 512-step blocks)
    tracemalloc.start()
    try:
        random_walk_return(10, 4000, 4000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


class TestMoaFractionExperiment:
    def test_all_informed(self):
        est = moa_fraction_experiment(dirac(1.0), 0.0, 0.9, 101, 200)
        assert est.value == 1.0

    def test_uniform_above_mass(self):
        est = moa_fraction_experiment(lebesgue(), 0.1, 0.05, 10_000, 200)
        assert est.value >= 0.999

    def test_uniform_below_mass(self):
        est = moa_fraction_experiment(lebesgue(), 0.1, 0.2, 10_000, 200)
        assert est.value <= 0.001

    def test_no_successes_nonzero_width(self):
        est = moa_fraction_experiment(affine(1.0), 0.2, 0.35, 501, 400, seed=1)
        assert est.value == 0.0
        assert est.half_width == pytest.approx(1.0 - 0.025 ** (1 / 400), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            moa_fraction_experiment(lebesgue(), 0.5, 0.1, 100, 200)
        with pytest.raises(ValueError):
            moa_fraction_experiment(lebesgue(), 0.1, 0.1, 100, 50)
