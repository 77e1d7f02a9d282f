import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from jurylab.measure import MeasureSpec, affine, atom_mass, lebesgue, moment
from jurylab.profile import (
    C1Source,
    C2Source,
    CondorcetSource,
    DegenerateProfileError,
    ExplicitSource,
    IidSource,
    MoaSource,
    Profile,
    condition_report,
    condition_two_holds,
    generate,
    geometric_checkpoints,
    q_statistic,
    q_statistics,
)

COIN = MeasureSpec(atoms=((0.0, 0.5), (1.0, 0.5)), label="coin")
# density 0.5 + 0.6x plus an atom at 1, so some voters are perfectly informed
TILTED_ATOM = MeasureSpec(pieces=((0.0, 1.0, 0.5, 0.6),), atoms=((1.0, 0.2),), label="tilted+atom")
U = 2.0**-53


def fsum_prefix(values: np.ndarray, ks) -> np.ndarray:
    """math.fsum prefix sums of values at the checkpoints ks."""
    parts, out, start = [], [], 0
    for k in ks:
        parts.append(math.fsum(values[start:k].tolist()))
        out.append(math.fsum(parts))
        start = k
    return np.asarray(out)


def explicit(values) -> Profile:
    return Profile(np.asarray(values, dtype=float), ExplicitSource(tuple(values)))


class TestGenerate:
    def test_condorcet_constant(self):
        p = generate(CondorcetSource(0.1), 5)
        assert np.array_equal(p.competences, np.full(5, 0.6))

    def test_even_n_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            generate(CondorcetSource(0.1), 4)

    def test_c1_cap_and_decay(self):
        # boosts are min(i^alpha, 1/2): capped at 1/2 through i = 16 for
        # alpha = -1/4, then strictly decaying
        p = generate(C1Source(-0.25), 21).competences
        assert np.all(p[:16] == 1.0)
        assert p[16] == pytest.approx(0.5 + 17.0 ** -0.25, abs=1e-15)
        assert np.all(np.diff(p[16:]) < 0.0)

    def test_c1_alpha_range(self):
        with pytest.raises(ValueError):
            C1Source(-0.5)
        with pytest.raises(ValueError):
            C1Source(0.0)

    def test_moa_informed_count(self):
        p = generate(MoaSource(0.2), 5).competences
        assert np.sum(p == 1.0) == 1
        assert np.sum(p == 0.5) == 4
        p = generate(MoaSource(0.5), 101).competences
        assert np.sum(p == 1.0) == 50

    def test_c2_tail_pattern(self):
        p = generate(C2Source((1, 1, 1)), 11).competences
        assert np.array_equal(p, [1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1])

    def test_iid_deterministic_and_extensible(self):
        short = generate(IidSource(lebesgue()), 101, seed=3).competences
        long = generate(IidSource(lebesgue()), 1001, seed=3).competences
        assert np.array_equal(short, long[:101])

    def test_explicit_prefix(self):
        src = ExplicitSource((0.9, 0.8, 0.7, 0.6, 0.5))
        assert np.array_equal(generate(src, 3).competences, [0.9, 0.8, 0.7])
        with pytest.raises(ValueError):
            generate(ExplicitSource((0.9,)), 3)


# SHA-256 prefixes of generate(source, n, seed=11).competences at
# n = 1, 3, 101, recorded before each source carried its own `values`
GENERATE_PINS = {
    "iid_affine": ('3d156199e2e47667', '79a9d896506ff6b5', '9f647f71eadd2846'),
    "iid_atom": ('b9e87c8b0eb4a484', 'e34ea08f7b73a8e6', '399360d77be2cd80'),
    "explicit": ('af5570f5a1810b7a', '70037255a9604e78', '5e08c78440a449fd'),
    "condorcet": ('b1da31546cd297bc', 'da54f1e7f0820574', '0baef7815f3715b2'),
    "moa": ('4cfa5b42ca669328', '75c7e2477c75b7dc', '05ae1d6671ed3371'),
    "c1": ('6c3c396ed6b5c36d', 'cc143326a2646c60', '1823609ec2fad116'),
    "c2": ('6c3c396ed6b5c36d', '8423eadd63f4494b', 'e57e3cecdfbb86cd'),
    # a prefix longer than n = 1 and 3: generation takes its first n bits
    "c2_long_prefix": ('6c3c396ed6b5c36d', '68f962b48b11fe16', '0cddb6bd21fd6073'),
}
PINNED_SOURCES = {
    "iid_affine": IidSource(affine(-1.0)),
    "iid_atom": IidSource(TILTED_ATOM),
    "explicit": ExplicitSource(tuple((i % 7) / 6 for i in range(101))),
    "condorcet": CondorcetSource(0.1),
    "moa": MoaSource(0.3),
    "c1": C1Source(-0.3),
    "c2": C2Source(),
    "c2_long_prefix": C2Source((1, 0, 1, 1, 0)),
}


@pytest.mark.parametrize("name", sorted(GENERATE_PINS))
def test_generate_pinned_bit_for_bit(name):
    digests = tuple(
        hashlib.sha256(generate(PINNED_SOURCES[name], n, seed=11).competences.tobytes())
        .hexdigest()[:16]
        for n in (1, 3, 101)
    )
    assert digests == GENERATE_PINS[name]


# with three seeds, `uniforms` fills 2^16 // 3 = 21845 columns per block:
# sizes inside one block, just past it, and past 2^16
BATCH_SIZES = (1, 21_845, 21_847, 70_001)
BATCH_SOURCES = dict(
    PINNED_SOURCES, explicit=ExplicitSource(tuple((i % 7) / 6 for i in range(70_001)))
)


@pytest.mark.parametrize("n", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(BATCH_SOURCES))
def test_generate_batch_rows_match_single_seeds(name, n):
    source = BATCH_SOURCES[name]
    seeds = [11, 2**64 - 1, 0]
    batch = generate(source, n, seeds)
    assert [(prof.source, prof.seed) for prof in batch] == [(source, s) for s in seeds]
    for prof, seed in zip(batch, seeds):
        assert prof.competences.tobytes() == generate(source, n, seed).competences.tobytes()


def test_generate_no_seeds_gives_no_profiles():
    assert generate(IidSource(lebesgue()), 5, []) == []


class TestProfileValidation:
    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1, math.inf])
    def test_out_of_range_or_nan_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            Profile(np.array([0.6, bad, 0.7]), CondorcetSource(0.1))


class TestQStatistic:
    def test_rows_match_single_profiles(self):
        rows = np.vstack([generate(IidSource(affine(0.5)), 51, seed=s).competences for s in range(4)])
        rows[2] = rows[2] >= 0.5  # all 0 or 1: degenerate
        q = q_statistics(rows)
        assert np.isnan(q[2])
        for i in (0, 1, 3):
            assert q[i] == q_statistic(explicit(rows[i].tolist()))

    def test_centered(self):
        assert q_statistic(explicit([0.5] * 7)) == 0.0

    def test_constant_edge(self):
        assert q_statistic(explicit([0.6] * 99 + [0.6])) == pytest.approx(
            10.0 / math.sqrt(24.0), abs=1e-12
        )

    def test_hand_case(self):
        assert q_statistic(explicit([1.0, 0.5, 0.5])) == pytest.approx(
            0.5 / math.sqrt(0.5), abs=1e-12
        )

    def test_degenerate_signalled(self):
        with pytest.raises(DegenerateProfileError):
            q_statistic(explicit([1.0, 0.0, 1.0]))


class TestConditionTwo:
    def test_leading_ones(self):
        assert condition_two_holds(explicit([1.0, 1.0, 0.0]), 1)

    def test_no_ones(self):
        assert not condition_two_holds(explicit([0.9] * 5), 1)

    def test_c2_all_ones_prefix(self):
        assert condition_two_holds(generate(C2Source((1, 1, 1)), 11), 1)

    def test_monotone_in_n0(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            bits = (rng.random(21) < 0.55).astype(float)
            prof = explicit(bits)
            results = [condition_two_holds(prof, n0) for n0 in range(1, 22, 2)]
            # once true at some n0 it stays true for larger n0
            assert all(a <= b for a, b in zip(results, results[1:]))

    def test_n0_beyond_length_rejected(self):
        with pytest.raises(ValueError):
            condition_two_holds(explicit([1.0] * 3), 5)


class TestConditionReport:
    def test_condorcet_chebyshev(self):
        rep = condition_report(CondorcetSource(0.1), [101])
        # sum pq / (sum eps)^2 = 0.24/(0.01 k) = 24/k at p = 0.6
        assert rep.chebyshev_bounds[0] == pytest.approx(24.0 / 101.0, abs=1e-12)

    def test_condorcet_q_closed_form(self):
        ks = (11, 101, 1001)
        rep = condition_report(CondorcetSource(0.1), ks)
        for k, q in zip(ks, rep.q_trace):
            assert q == pytest.approx(math.sqrt(k) * 0.1 / math.sqrt(0.24), abs=1e-10)
        assert np.all(np.diff(rep.q_trace) > 0.0)

    def test_coin_gen_eps1(self):
        rep = condition_report(IidSource(COIN), (11, 101, 1001), seed=5)
        assert np.allclose(rep.gen_eps1, 0.5)
        assert np.allclose(rep.sigma_t, np.sqrt(np.array([11, 101, 1001]) * 0.25))

    def test_c1_traces(self):
        rep = condition_report(C1Source(-0.25), (101, 1001, 10001, 100001))
        # mean competence decays toward 1/2 but is still ~0.575 at 1e5
        assert np.all(np.diff(rep.running_mean) < 0.0)
        assert rep.running_mean[-1] == pytest.approx(0.57495, abs=5e-4)
        # Chebyshev bound decays below 1e-3 by 1e5
        assert np.all(np.diff(rep.chebyshev_bounds) < 0.0)
        assert rep.chebyshev_bounds[-1] < 1e-3

    @pytest.mark.parametrize("source", [IidSource(TILTED_ATOM), C1Source(-0.25)])
    def test_traces_within_running_sum_bound_of_fsum(self, source):
        ks = geometric_checkpoints(1, 200_001)
        rep = condition_report(source, ks, seed=9)
        p = generate(source, ks[-1], seed=9).competences
        k = np.asarray(ks, dtype=float)
        s = fsum_prefix(p, ks)
        v = fsum_prefix(p * (1.0 - p), ks)
        d = s - 0.5 * k
        # a running float sum over k terms is within k*u of its total;
        # the 4u covers the final roundings of each trace
        tol = (2.0 * k + 4.0) * U
        spread = v > 0.0
        q = d[spread] / np.sqrt(v[spread])
        q_tol = tol[spread] * (s[spread] / np.sqrt(v[spread]) + np.abs(q))
        assert np.all(np.abs(rep.q_trace[spread] - q) <= q_tol)
        assert np.all(np.isnan(rep.q_trace[~spread]))
        assert np.all(np.abs(rep.running_mean - s / k) <= tol * s / k)
        lead = d > 0.0
        cheb = v[lead] / d[lead] ** 2
        assert np.all(
            np.abs(rep.chebyshev_bounds[lead] - cheb) <= tol[lead] * cheb * (1.0 + 2.0 * s[lead] / d[lead])
        )
        assert np.all(np.isnan(rep.chebyshev_bounds[~lead]))
        ones = np.cumsum(p == 1.0)[np.asarray(ks) - 1]
        assert np.array_equal(rep.s_trace, ones - 0.5 * k)
        if isinstance(source, C1Source):  # per-index means are the competences
            assert np.all(np.abs(rep.gen_cent - d / np.sqrt(k)) <= tol * (s + np.abs(d)) / np.sqrt(k))
            assert np.all(np.abs(rep.gen_noconc - v / k) <= tol * v / k)
            assert np.array_equal(rep.gen_eps1, ones / k)
            assert np.all(rep.sigma_t == 0.0)

    def test_iid_generalized_traces_closed_form(self):
        ks = geometric_checkpoints(1, 200_001)
        rep = condition_report(IidSource(TILTED_ATOM), ks, seed=9)
        m1, m2 = moment(TILTED_ATOM, 1), moment(TILTED_ATOM, 2)
        e1 = atom_mass(TILTED_ATOM, 1.0)
        assert e1 == 0.2
        for i, k in enumerate(ks):
            exact = {
                "gen_cent": float(Fraction(m1) * k - Fraction(k, 2)) / math.sqrt(k),
                "gen_noconc": float(Fraction(m1) - Fraction(m2)),
                "gen_eps1": e1,
                "sigma_t": math.sqrt(float((Fraction(m2) - Fraction(m1) ** 2) * k)),
            }
            for field, value in exact.items():
                assert getattr(rep, field)[i] == pytest.approx(value, rel=1e-15, abs=0.0), (field, k)

    def test_chebyshev_not_applicable_marked_nan(self):
        rep = condition_report(ExplicitSource((0.2, 0.3, 0.4)), (1, 3))
        assert np.all(np.isnan(rep.chebyshev_bounds))

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            condition_report(CondorcetSource(0.1), (5, 3))
        with pytest.raises(ValueError):
            condition_report(CondorcetSource(0.1), (4, 8))

    def test_iid_q_limit_distribution(self):
        # for uniform competence the drift statistic is asymptotically
        # N(0, 1/2): var(p)/E[p(1-p)] = (1/12)/(1/6)
        qs = np.array(
            [q_statistic(generate(IidSource(lebesgue()), 10001, seed=s)) for s in range(200)]
        )
        assert abs(qs.mean()) <= 0.15
        assert 0.55 <= qs.std() <= 0.90


class TestCheckpoints:
    def test_geometric_grid(self):
        grid = geometric_checkpoints(101, 10001)
        assert grid[0] == 101
        assert all(k % 2 == 1 for k in grid)
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert grid[-1] <= 10001
