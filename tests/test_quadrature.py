import numpy as np
import pytest

from jurylab import quadrature
from jurylab.measure import MeasureSpec, affine, lebesgue
from jurylab.quadrature import integrate
from jurylab.weights import StochasticPoly, _error_mean

from conftest import random_measure


def reference_integrate(f, a, b, order=20, abs_tol=1e-13):
    """Reference: the depth-first recursion, one integrand call per panel."""

    def panel(lo, hi):
        x, w = np.polynomial.legendre.leggauss(order)
        half = 0.5 * (hi - lo)
        return half * float(w @ np.asarray(f(0.5 * (lo + hi) + half * x), dtype=float))

    def refine(lo, hi, whole, budget, depth):
        mid = 0.5 * (lo + hi)
        left, right = panel(lo, mid), panel(mid, hi)
        total = left + right
        if abs(total - whole) <= budget:
            return total, True
        if depth <= 0:
            return total, False
        lv, lc = refine(lo, mid, left, 0.5 * budget, depth - 1)
        rv, rc = refine(mid, hi, right, 0.5 * budget, depth - 1)
        return lv + rv, lc and rc

    if not b > a:
        return 0.0, True
    return refine(a, b, panel(a, b), abs_tol, 48)


def jump(x):
    return np.where(x < 1.0 / np.sqrt(2.0), 0.0, 1.0)


def kink(x):
    return np.abs(x - 0.3) ** 1.5 + np.sin(7.0 * x)


def drift_integrand(spec: MeasureSpec, scheme: StochasticPoly):
    """The integrand `weights.drift` hands to `integrate`."""
    return lambda p: (2.0 * p - 1.0) * _error_mean(scheme, p) * spec.density(p)


DRIFT_CASES = [
    (affine(1.5), StochasticPoly(W=10.0, k=1, sigma_w=0.5)),
    (affine(-2.0), StochasticPoly(W=100.0, k=2, sigma_w=1.98)),
    (lebesgue(), StochasticPoly(W=100.0, k=4, sigma_w=10.0)),
    (affine(0.3), StochasticPoly(W=10.0, k=4, sigma_w=1.98)),
]


class TestIntegrate:
    def test_smooth_converges(self):
        value, converged = integrate(lambda x: 3.0 * x**2, 0.0, 2.0)
        assert converged is True
        assert value == pytest.approx(8.0, abs=1e-13)

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == (0.0, True)

    def test_depth_limit_reported(self):
        # a jump at an irrational point never lands on a panel edge
        value, converged = integrate(
            lambda x: np.where(x < 1.0 / np.sqrt(2.0), 0.0, 1.0), 0.0, 1.0
        )
        assert converged is False
        assert value == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=0.05)


class TestMatchesRecursion:
    """The breadth-first tree returns the recursion's doubles exactly."""

    @pytest.mark.parametrize(
        "f, a, b",
        [(lambda x: 3.0 * x**2, 0.0, 2.0), (jump, 0.0, 1.0), (kink, 0.0, 1.0)],
        ids=["smooth", "depth-limit-jump", "kink"],
    )
    def test_reference_cases(self, f, a, b):
        assert integrate(f, a, b) == reference_integrate(f, a, b)

    @pytest.mark.parametrize("spec, scheme", DRIFT_CASES)
    def test_drift_integrand(self, spec, scheme):
        f = drift_integrand(spec, scheme)
        for lo, hi, _, _ in spec.pieces:
            assert integrate(f, lo, hi, order=64, abs_tol=1e-12) == reference_integrate(
                f, lo, hi, order=64, abs_tol=1e-12
            )

    def test_drift_integrand_random_measures(self, rng):
        scheme = StochasticPoly(W=100.0, k=2, sigma_w=1.98)
        for _ in range(10):
            spec = random_measure(rng)
            f = drift_integrand(spec, scheme)
            for lo, hi, _, _ in spec.pieces:
                assert integrate(f, lo, hi, order=64, abs_tol=1e-12) == reference_integrate(
                    f, lo, hi, order=64, abs_tol=1e-12
                )

    def test_split_levels(self, monkeypatch):
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return kink(x)

        integrate(counted, 0.0, 1.0)
        whole_levels = len(sizes)
        sizes.clear()
        # three order-20 panels per integrand call: long levels take several
        monkeypatch.setattr(quadrature, "_POINTS_PER_CALL", 60)
        assert integrate(counted, 0.0, 1.0) == reference_integrate(kink, 0.0, 1.0)
        assert max(sizes) == 60
        assert len(sizes) > whole_levels
