import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import jurylab
from jurylab import weights
from jurylab.measure import MeasureSpec, affine, dirac, lebesgue, moment, sample, to_json
from jurylab.streams import generator
from jurylab.weights import (
    BoundedPoly,
    ExpertRule,
    LogOdds,
    StochasticPoly,
    TruncatedGaussianSpec,
    UnitWeights,
    deterministic_weight,
    drift,
    f_function,
    find_k,
    moment_criterion,
    sample_weight,
    truncated_normal_mean,
)

DOWN = affine(-2.0)  # density 2(1-x)
T43 = StochasticPoly(W=100.0, k=2, sigma_w=99.0 / 50.0)


class TestDeterministicWeight:
    def test_unit(self):
        assert deterministic_weight(UnitWeights(), 0.37) == 1.0

    def test_log_odds_even(self):
        assert deterministic_weight(LogOdds(), 0.5) == 0.0

    def test_log_odds_point_nine(self):
        assert deterministic_weight(LogOdds(), 0.9) == pytest.approx(math.log(9.0), abs=1e-12)

    def test_log_odds_clamp(self):
        w = deterministic_weight(LogOdds(clamp=1e-6), 1.0)
        assert math.isfinite(w)
        assert w == pytest.approx(math.log((1 - 1e-6) / 1e-6), abs=1e-9)

    def test_bounded_poly_endpoints(self):
        scheme = BoundedPoly(W=10.0, k=2)
        assert deterministic_weight(scheme, 0.0) == 1.0
        assert deterministic_weight(scheme, 1.0) == 10.0

    def test_expert_indicator(self):
        scheme = ExpertRule(threshold=0.8)
        assert deterministic_weight(scheme, 0.9) == 1.0
        assert deterministic_weight(scheme, 0.6) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExpertRule(threshold=0.5)
        with pytest.raises(ValueError):
            BoundedPoly(W=1.0, k=1)
        with pytest.raises(ValueError):
            StochasticPoly(W=10.0, k=1, sigma_w=0.0)


class TestTruncatedNormalMean:
    def test_symmetric_is_zero(self):
        assert truncated_normal_mean(TruncatedGaussianSpec(1.7, -2.3, 2.3)) == 0.0

    def test_half_normal(self):
        v = truncated_normal_mean(TruncatedGaussianSpec(1.0, 0.0, math.inf))
        assert v == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)

    def test_direct_formula_case(self):
        # sigma=1, (a,b)=(-1,2): (phi(1)-phi(2)) / (Phi(2)-Phi(-1))
        v = truncated_normal_mean(TruncatedGaussianSpec(1.0, -1.0, 2.0))
        phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        expected = (phi(1.0) - phi(2.0)) / (stats.norm.cdf(2.0) - stats.norm.cdf(-1.0))
        assert v == pytest.approx(expected, abs=1e-12)
        assert v == pytest.approx(0.2296371790913290, abs=1e-12)

    @pytest.mark.parametrize(
        "a,b", [(30.0, 38.0), (-38.0, -30.0), (35.0, 36.0), (0.0, 1e-9), (-38.0, 38.0)]
    )
    def test_extreme_intervals_finite(self, a, b):
        v = truncated_normal_mean(TruncatedGaussianSpec(1.0, a, b))
        assert math.isfinite(v)
        assert a - 1e-7 <= v <= b + 1e-7

    def test_far_tail_value(self):
        # conditioned far right tail behaves like a + 1/a
        v = truncated_normal_mean(TruncatedGaussianSpec(1.0, 30.0, 38.0))
        assert v == pytest.approx(30.0 + 1.0 / 30.0, abs=1e-3)

    def test_matches_quadrature(self):
        # sigma * int z phi(z) / int phi(z) over (a/sigma, b/sigma); these
        # tolerances raise no IntegrationWarning on any of the 50 cases
        def phi(z):
            return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

        rng = np.random.default_rng(8)
        cases = [(1.0, -1.0, 1.0), (1.0, 0.0, math.inf), (0.5, -0.3, 2.0)]
        for _ in range(47):
            sigma = float(rng.uniform(0.1, 5.0))
            a = float(rng.uniform(-6.0, 4.0)) * sigma
            b = a + float(rng.uniform(0.1, 8.0)) * sigma
            cases.append((sigma, a, b))
        for sigma, a, b in cases:
            analytic = truncated_normal_mean(TruncatedGaussianSpec(sigma, a, b))
            lo, hi = a / sigma, b / sigma
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                num = integrate.quad(lambda z: z * phi(z), lo, hi, epsabs=1e-13, epsrel=1e-12)[0]
                den = integrate.quad(phi, lo, hi, epsabs=0.0, epsrel=1e-12)[0]
            assert abs(sigma * num / den - analytic) <= 1e-12 * sigma


class TestFFunction:
    def test_even_odds_zero(self):
        for x in (0.5, 3.0, 50.0):
            assert f_function(x, 0.5) == 0.0

    def test_identity_with_truncated_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = float(rng.uniform(0.5, 60.0))
            p = float(rng.uniform(0.0, 1.0))
            sigma = float(rng.uniform(0.2, 3.0))
            w_range = sigma * x  # W - 1
            lhs = w_range * f_function(x, p)
            rhs = truncated_normal_mean(
                TruncatedGaussianSpec(sigma, -p * x * sigma, (1.0 - p) * x * sigma)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_deep_tail_no_nan(self):
        v = f_function(50.0, 0.25)
        assert math.isfinite(v)
        assert abs(v) <= 1e-30

    def test_requires_positive_x(self):
        with pytest.raises(ValueError):
            f_function(0.0, 0.3)


class TestMomentCriterion:
    def test_uniform(self):
        assert moment_criterion(lebesgue(), 1) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_decreasing_density(self):
        assert abs(moment_criterion(DOWN, 1)) < 1e-14
        assert moment_criterion(DOWN, 2) == pytest.approx(1.0 / 30.0, abs=1e-14)

    def test_point_mass_at_one(self):
        for k in (1, 3, 10):
            assert moment_criterion(dirac(1.0), k) == pytest.approx(1.0, abs=1e-15)

    def test_find_k(self):
        assert find_k(lebesgue()) == 1
        assert find_k(DOWN) == 2
        coin = MeasureSpec(atoms=((0.0, 0.5), (1.0, 0.5)))
        assert find_k(coin) == 1

    def test_find_k_none_when_no_upper_mass(self):
        low = MeasureSpec(pieces=((0.0, 0.5, 2.0, 0.0),))
        assert find_k(low) is None

    def test_scaled_criterion_dominated_by_mass_at_one(self):
        mix = MeasureSpec(atoms=((0.3, 0.7), (1.0, 0.3)))
        ratios = []
        for k in (5, 10, 20):
            ratios.append(2.0**k * moment_criterion(mix, k) / (0.3 * 2.0**k))
        deviations = [abs(r - 1.0) for r in ratios]
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[-1] < 1e-8


class TestSchemeInterface:
    SCHEMES = (UnitWeights(), ExpertRule(0.8), LogOdds(), BoundedPoly(W=10.0, k=2), T43)

    def test_registry_kinds(self):
        assert {k: cls.kind for k, cls in weights.SCHEMES.items()} == {
            k: k for k in ("unit", "expert", "log_odds", "bounded_poly", "stochastic")
        }
        assert [s.stochastic for s in self.SCHEMES] == [False] * 4 + [True]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
    def test_weight_keeps_shape(self, scheme):
        p = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        w = scheme.weight(p)
        assert w.shape == (3, 4)
        assert np.array_equal(w.ravel(), [deterministic_weight(scheme, v) for v in p.ravel()])

    def test_stochastic_deterministic_part(self):
        p = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(T43.weight(p), BoundedPoly(W=T43.W, k=T43.k).weight(p))


class TestSampleWeight:
    def test_bounds_one_million(self):
        rng = generator(4)
        p = rng.random(1_000_000)
        w = sample_weight(T43, p, rng)
        assert w.min() >= 1.0
        assert w.max() <= T43.W

    def test_vanishing_noise(self):
        scheme = StochasticPoly(W=10.0, k=1, sigma_w=1e-9)
        w = sample_weight(scheme, np.full(200, 0.3), generator(1))
        assert np.max(np.abs(w - 3.7)) < 1e-6

    def test_floor_at_p_zero(self):
        scheme = StochasticPoly(W=10.0, k=1, sigma_w=2.0)
        w = sample_weight(scheme, np.full(100_000, 0.0), generator(2))
        assert w.min() >= 1.0

    def test_symmetric_truncation_mean(self):
        scheme = StochasticPoly(W=10.0, k=1, sigma_w=2.0)
        w = sample_weight(scheme, np.full(1_000_000, 0.5), generator(3))
        se = w.std() / 1000.0
        assert abs(w.mean() - 5.5) <= 3.0 * se

    def test_requires_stochastic_scheme(self):
        with pytest.raises(TypeError):
            sample_weight(BoundedPoly(W=10.0, k=1), 0.5, generator(0))


class TestDrift:
    def test_perfect_voters_limit(self):
        scheme = StochasticPoly(W=1.0 + 1e-9, k=1, sigma_w=1.0)
        assert drift(dirac(1.0), scheme) == pytest.approx(1.0, abs=1e-6)

    def test_reference_config(self):
        # frozen after cross-checking against a 10M-draw sampled-weight
        # average on two seeds (agreement within 0.0015)
        assert drift(DOWN, T43) == pytest.approx(2.660822974575, abs=1e-9)

    def test_matches_sampled_weights(self):
        rng = generator(11)
        value = drift(DOWN, T43)
        p = sample(DOWN, rng, 2_000_000)
        v = sample_weight(T43, p, rng) * (2.0 * p - 1.0)
        se = v.std() / math.sqrt(len(v))
        assert abs(v.mean() - value) <= 3.0 * se

    def test_large_x_reaches_moment_limit(self):
        closed = 2.0 * moment(DOWN, 1) - 1.0 + 99.0 * moment_criterion(DOWN, 2)
        deltas = []
        for x in (1e3, 1e4, 1e5):
            scheme = StochasticPoly(W=100.0, k=2, sigma_w=99.0 / x)
            deltas.append(abs(drift(DOWN, scheme) - closed))
        assert deltas[0] > deltas[1] > deltas[2]
        assert deltas[-1] < 1e-5

    def test_increasing_in_w_when_criterion_positive(self):
        assert moment_criterion(DOWN, 2) > 0.0
        values = [
            drift(DOWN, StochasticPoly(W=w, k=2, sigma_w=2.0)) for w in (5.0, 10.0, 25.0, 100.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_converged_quadrature_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drift(DOWN, T43)

    def test_unconverged_piece_warns(self, monkeypatch):
        monkeypatch.setattr(weights, "integrate", lambda *args, **kwargs: (0.0, False))
        with pytest.warns(RuntimeWarning, match=r"piece \[0\.0, 1\.0\]"):
            value = drift(DOWN, T43)
        base = 2.0 * moment(DOWN, 1) - 1.0 + (T43.W - 1.0) * moment_criterion(DOWN, T43.k)
        assert value == base

    def test_atoms_integrated_exactly(self):
        coin = MeasureSpec(atoms=((0.0, 0.5), (1.0, 0.5)))
        scheme = StochasticPoly(W=10.0, k=1, sigma_w=1e-6)
        # (1/2)(-1)(w=1 ... error ~ half-normal at the boundary) ~ base term
        base = 2.0 * moment(coin, 1) - 1.0 + 9.0 * moment_criterion(coin, 1)
        assert drift(coin, scheme) == pytest.approx(base, abs=1e-5)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of scipy's import time; jurylab never loads it
    code = "import sys, jurylab; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(jurylab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


# float.hex values of the scaled-mass mean, pinned bit for bit; the keys
# name the kind of interval
STD_PINNED = {
    "mild": (-2.0, 0.5, "-0x1.c8710e984dbfcp-2"),
    "left_tail_finite": (-40.0, -38.5, "-0x1.34351f8ea56c3p+5"),
    "left_tail_infinite": (-math.inf, -12.0, "-0x1.82a17f9f3f832p+3"),
    "narrow": (-0.3 - 1e-9, -0.3, "-0x1.3333333bca392p-2"),
    "flipped": (1.0, 4.0, "0x1.864bedf372429p+0"),
    "flipped_tail": (20.0, math.inf, "0x1.40cbc9dfa33e9p+4"),
}
MIXED = MeasureSpec(pieces=((0.2, 0.8, 1.0, 0.0),), atoms=((0.0, 0.1), (0.9, 0.3)))
DRIFT_PINNED = [
    (DOWN, T43, "0x1.5495d8e41f626p+1"),
    (lebesgue(), StochasticPoly(W=10.0, k=1, sigma_w=2.0), "0x1.129481997be04p+0"),
    (MIXED, StochasticPoly(W=5.0, k=3, sigma_w=0.5), "0x1.c43dddd8ade02p-1"),
]


class TestPinnedTruncatedNormal:
    @pytest.mark.parametrize("case", sorted(STD_PINNED))
    def test_std_mean_scalar(self, case):
        a, b, pinned = STD_PINNED[case]
        assert float(weights._std_truncnorm_mean(a, b)).hex() == pinned

    def test_std_mean_array(self):
        a, b, pinned = zip(*STD_PINNED.values())
        out = weights._std_truncnorm_mean(np.array(a), np.array(b))
        assert [float(v).hex() for v in out] == list(pinned)

    @pytest.mark.parametrize(
        "spec, pinned",
        [
            (TruncatedGaussianSpec(1.0, -1.0, 2.0), "0x1.d64c047124c4bp-3"),
            (TruncatedGaussianSpec(2.5, 0.5, 30.0), "0x1.2969bf0be3d22p+1"),
            (TruncatedGaussianSpec(0.01, -1.0, -0.9), "-0x1.ccdb5c26756f2p-1"),
        ],
    )
    def test_truncated_normal_mean(self, spec, pinned):
        assert truncated_normal_mean(spec).hex() == pinned

    def test_f_function_array(self):
        out = f_function(50.0, np.array([0.0, 0.1, 0.5, 0.9, 1.0]))
        assert [float(v).hex() for v in out] == [
            "0x1.0573687920e48p-6",
            "0x1.fed544dbfc466p-26",
            "0x0.0p+0",
            "-0x1.fed544dbfc485p-26",
            "-0x1.0573687920e48p-6",
        ]

    @pytest.mark.parametrize("spec, scheme, pinned", DRIFT_PINNED)
    def test_drift(self, spec, scheme, pinned):
        assert drift(spec, scheme).hex() == pinned


def _fresh_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(jurylab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip()


def test_import_and_scipy_free_commands_leave_scipy_unloaded(tmp_path):
    # only the truncated-normal mean and quantile load scipy, and then
    # scipy.special alone, at their first call
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    p.write_text(to_json(lebesgue()))
    q.write_text(to_json(DOWN))
    code = f"""
import contextlib, io, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import jurylab
print(scipy_modules())
from jurylab import cli
print(scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["tally", "--profile", "0.6,0.7,0.8"]) == 0
print(scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["divergence", {str(p)!r}, {str(q)!r}]) == 0
print(scipy_modules())
"""
    assert _fresh_python(code).splitlines() == ["[]"] * 4


def test_first_drift_after_fresh_import_is_pinned():
    # the first call takes the deferred-import path inside _mirrored_masses
    code = (
        "import sys, jurylab\n"
        "assert 'scipy.special' not in sys.modules\n"
        "print(jurylab.drift(jurylab.affine(-2.0),"
        " jurylab.StochasticPoly(W=100.0, k=2, sigma_w=99.0 / 50.0)).hex())\n"
        "print('scipy.special' in sys.modules)"
    )
    assert _fresh_python(code).splitlines() == [DRIFT_PINNED[0][2], "True"]


def test_stochastic_weights_leave_scipy_stats_unloaded():
    # the truncated-normal mean and quantile need scipy.special only
    code = (
        "import sys, numpy as np, jurylab\n"
        "from jurylab.experiment import ExperimentConfig, run\n"
        "scheme = jurylab.StochasticPoly(W=10.0, k=2, sigma_w=2.0)\n"
        "jurylab.sample_weight(scheme, np.linspace(0.0, 1.0, 11), np.random.default_rng(1))\n"
        "jurylab.drift(jurylab.affine(1.0), scheme)\n"
        "run(ExperimentConfig(measure=jurylab.affine(1.0), scheme=scheme, n_grid=(5, 7, 9),"
        " profiles_per_n=10, replicas=100))\n"
        "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)"
    )
    assert _fresh_python(code) == "True False"


def _mp_mean(a: float, b: float):
    """(phi(a) - phi(b)) / (Phi(b) - Phi(a)) in mpmath, mirrored so that
    a + b <= 0, where the erfc difference cancels only on narrow intervals."""
    import mpmath

    a, b = mpmath.mpf(a), mpmath.mpf(b)
    if a + b > 0:
        return -_mp_mean(-b, -a)
    z = (mpmath.erfc(-b / mpmath.sqrt(2)) - mpmath.erfc(-a / mpmath.sqrt(2))) / 2
    return (mpmath.npdf(a) - mpmath.npdf(b)) / z


def _mp_ppf(u: float, a: float, b: float, start: float):
    """x in [a, b] with Phi(x) = Phi(a) + u (Phi(b) - Phi(a)) in mpmath,
    mirrored like the mean.  1 - u is formed before the mirror, so a u of
    1e-300 keeps its digits.  Newton steps on log Phi(x) below the median,
    or on log Phi(-x) above it, run from `start` and bisect a shrinking
    bracket whenever they would leave it; the start only saves steps."""
    import mpmath

    def cdf(x):
        return mpmath.erfc(-x / mpmath.sqrt(2)) / 2

    a, b, v, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(u), 1 - mpmath.mpf(u)
    flip = a + b > 0
    if flip:
        a, b, v, c, start = -b, -a, c, v, -start
    z = cdf(b) - cdf(a) if b <= 0 else 1 - cdf(a) - cdf(-b)
    below = cdf(a) + v * z <= 0.5
    # increasing in x, zero at the quantile
    if below:
        target = mpmath.log(cdf(a) + v * z)
        gap = lambda x: mpmath.log(cdf(x)) - target  # noqa: E731
    else:
        target = mpmath.log(cdf(-b) + c * z)
        gap = lambda x: target - mpmath.log(cdf(-x))  # noqa: E731
    if below and target == -mpmath.inf:
        return -a if flip else a
    lo, hi = max(a, mpmath.mpf(-1e3)), min(b, mpmath.mpf(1e3))
    x = min(max(mpmath.mpf(start), lo), hi) if math.isfinite(start) else (lo + hi) / 2
    for _ in range(1000):
        f = gap(x)
        lo, hi = (x, hi) if f < 0 else (lo, x)
        slope = mpmath.npdf(x) / (cdf(x) if below else cdf(-x))
        nxt = x - f / slope
        if abs(nxt - x) <= mpmath.mpf(10) ** -40 * max(1, abs(x)):
            break
        x = nxt if lo < nxt < hi else (lo + hi) / 2
    return -x if flip else x


def _truncnorm_grid() -> list[tuple[float, float]]:
    """Intervals in both tails out to |60|, narrow ones of width 1e-9 to
    1e-4, ones either side of the mean's series switch (width times
    max(1, |midpoint|) = 0.02), and one-sided and two-sided infinite ones."""
    rng = np.random.default_rng(27)
    wide = zip(rng.uniform(-60.0, 60.0, 60), 10.0 ** rng.uniform(-2.0, 2.3, 60))
    narrow = zip(rng.uniform(-60.0, 60.0, 40), 10.0 ** rng.uniform(-9.0, -4.0, 40))
    switch = [
        (m - w / 2.0, w) for m in (-50.0, -3.0, 0.3, 4.0, 45.0)
        for w in (0.019 / max(1.0, abs(m)), 0.021 / max(1.0, abs(m)))
    ]
    ends = (-60.0, -38.5, -5.0, 0.0, 5.0, 38.5, 60.0)
    return (
        [(float(a), float(a + w)) for a, w in (*wide, *narrow, *switch)]
        + [(-math.inf, e) for e in ends]
        + [(e, math.inf) for e in ends]
        + [(-math.inf, math.inf)]
    )


TRUNCNORM_GRID = _truncnorm_grid()
QUANTILE_US = (0.0, 1e-300, 2.0**-53, 1e-10, 0.25, 0.5, 0.75, 1.0 - 1e-10, 1.0 - 2.0**-53)


class TestTruncatedNormalAgainstMpmath:
    """The mean and the quantile against 60-digit mpmath on TRUNCNORM_GRID,
    in error relative above 1 and absolute below."""

    def test_mean(self):
        mpmath = pytest.importorskip("mpmath")
        a, b = np.array(TRUNCNORM_GRID).T
        got = weights._std_truncnorm_mean(a, b)
        with mpmath.workdps(60):
            want = np.array([float(_mp_mean(lo, hi)) for lo, hi in TRUNCNORM_GRID])
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_quantile(self):
        mpmath = pytest.importorskip("mpmath")
        u = np.tile(QUANTILE_US, len(TRUNCNORM_GRID))
        a, b = np.repeat(np.array(TRUNCNORM_GRID), len(QUANTILE_US), axis=0).T
        got = weights._std_truncnorm_ppf(u, a, b)
        with mpmath.workdps(60):
            want = np.array([float(_mp_ppf(*args)) for args in zip(u, a, b, got)])
        with np.errstate(invalid="ignore"):  # inf - inf where u = 0 on (-inf, b)
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert np.all((got == want) | (err <= 1e-14))
