import math

import numpy as np
import pytest

from jurylab.divergence import (
    absolutely_continuous,
    divergences,
    kakutani_criterion,
)
from jurylab.measure import MeasureSpec, affine, dirac, lebesgue

from conftest import random_measure


def tilt(eps: float) -> MeasureSpec:
    """Density 1 + eps*(2x - 1), a TV-distance eps/2 tilt of uniform."""
    return MeasureSpec(pieces=((0.0, 1.0, 1.0 - eps, 2.0 * eps),))


def assert_exact_identity(rep) -> None:
    assert rep.tv == 0.0
    assert rep.kl == 0.0
    assert rep.hellinger_affinity == 1.0
    assert rep.hellinger_distance == 0.0
    assert rep.bhattacharyya == 0.0
    assert math.copysign(1.0, rep.bhattacharyya) == 1.0


class TestSpotValues:
    def test_identity(self):
        rep = divergences(affine(2.0), affine(2.0))
        assert rep.tv == 0.0
        assert rep.kl == 0.0
        assert rep.hellinger_affinity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", [lebesgue(), affine(2.0)], ids=["lebesgue", "affine2"])
    def test_identity_exact(self, spec):
        assert_exact_identity(divergences(spec, spec))

    def test_identity_exact_random_measures(self, rng):
        for _ in range(2000):
            spec = random_measure(rng)
            assert_exact_identity(divergences(spec, spec))

    def test_uniform_vs_2x(self):
        rep = divergences(lebesgue(), affine(2.0))
        assert rep.tv == pytest.approx(0.5, abs=1e-9)
        assert rep.hellinger_affinity == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-9)
        assert rep.kl == pytest.approx(1.0 - math.log(2.0), abs=1e-9)

    def test_disjoint_diracs(self):
        rep = divergences(dirac(0.0), dirac(1.0))
        assert rep.tv == 2.0
        assert rep.hellinger_affinity == 0.0
        assert math.isinf(rep.kl)
        assert math.isinf(rep.bhattacharyya)

    def test_atom_missing_in_q_gives_infinite_kl(self):
        mix = MeasureSpec(pieces=((0.0, 1.0, 0.9, 0.0),), atoms=((0.5, 0.1),))
        assert math.isinf(divergences(mix, lebesgue()).kl)
        assert divergences(mix, lebesgue()).tv == pytest.approx(0.1 + 0.1, abs=1e-12)


class TestReportInvariants:
    def test_random_pairs(self, rng):
        for _ in range(300):
            p = random_measure(rng)
            q = random_measure(rng)
            rep = divergences(p, q)
            h = rep.hellinger_affinity
            assert rep.hellinger_distance**2 == pytest.approx(2.0 * (1.0 - h), abs=1e-9)
            assert 2.0 * (1.0 - h) <= rep.tv + 1e-9
            assert 2.0 * (1.0 - h) <= rep.kl + 1e-9
            assert rep.bhattacharyya >= 1.0 - h - 1e-9
            if h > 0.0:
                assert rep.bhattacharyya == pytest.approx(-math.log(h), abs=1e-9)

    def test_zero_iff_equal(self, rng):
        for _ in range(50):
            spec = random_measure(rng)
            rep = divergences(spec, spec)
            assert rep.tv == 0.0 and rep.kl == 0.0
            assert abs(1.0 - rep.hellinger_affinity) < 1e-12
        rep = divergences(lebesgue(), tilt(1e-3))
        assert rep.tv > 0.0 and rep.kl > 0.0

    def test_order_doubling_stable(self, rng):
        for _ in range(25):
            p = random_measure(rng, allow_atoms=False)
            q = random_measure(rng, allow_atoms=False)
            r20 = divergences(p, q, order=20)
            r40 = divergences(p, q, order=40)
            for f in ("tv", "kl", "hellinger_affinity", "bhattacharyya"):
                a, b = getattr(r20, f), getattr(r40, f)
                if math.isinf(a) or math.isinf(b):
                    assert a == b
                else:
                    assert abs(a - b) <= 1e-9


class TestAbsoluteContinuity:
    def test_density_inside_support(self):
        assert absolutely_continuous(affine(2.0), lebesgue())

    def test_atom_needs_atom(self):
        mix = MeasureSpec(pieces=((0.0, 1.0, 0.9, 0.0),), atoms=((0.5, 0.1),))
        assert not absolutely_continuous(mix, lebesgue())
        assert absolutely_continuous(mix, mix)

    def test_density_outside_support(self):
        half = MeasureSpec(pieces=((0.0, 0.5, 2.0, 0.0),))
        assert absolutely_continuous(half, lebesgue())
        assert not absolutely_continuous(lebesgue(), half)


class TestKakutani:
    def test_identical_perturbations_summable(self):
        v = kakutani_criterion(lebesgue(), (lebesgue() for _ in range(100)), "tv", horizon=40)
        assert v.diagnosis == "summable"
        assert np.all(v.partial_sums == 0.0)
        assert np.all(v.partial_products == 1.0)

    def test_geometric_tilt_summable(self):
        perturbations = (tilt(2.0**-n) for n in range(1, 100))
        v = kakutani_criterion(lebesgue(), perturbations, "tv", horizon=40)
        assert v.diagnosis == "summable"
        # tv(nu_n, uniform) = 2^-n * int|2x-1| = 2^-(n+1)
        assert v.partial_sums[0] == pytest.approx(0.25, abs=1e-12)
        assert v.partial_sums[-1] == pytest.approx(0.5, abs=1e-9)

    def test_constant_tilt_diverging(self):
        perturbations = (tilt(0.5) for _ in range(100))
        v = kakutani_criterion(lebesgue(), perturbations, "tv", horizon=40)
        assert v.diagnosis == "diverging"

    def test_slow_decay_inconclusive(self):
        perturbations = (tilt(1.0 / (n + 1) ** 2) for n in range(1, 200))
        v = kakutani_criterion(lebesgue(), perturbations, "tv", horizon=64)
        assert v.diagnosis == "inconclusive"

    def test_non_dominated_diverges_immediately(self):
        mix = MeasureSpec(pieces=((0.0, 1.0, 0.9, 0.0),), atoms=((0.5, 0.1),))
        v = kakutani_criterion(lebesgue(), (mix for _ in range(10)), "tv", horizon=10)
        assert v.diagnosis == "diverging"

    def test_monotone_traces(self):
        perturbations = (tilt(0.9 / n) for n in range(1, 100))
        v = kakutani_criterion(lebesgue(), perturbations, "bhattacharyya", horizon=32)
        assert np.all(np.diff(v.partial_sums) >= -1e-15)
        assert np.all(np.diff(v.partial_products) <= 1e-15)

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            kakutani_criterion(lebesgue(), (lebesgue() for _ in range(10)), "tv", horizon=3)
