"""Weight schemes and the stochastic bounded-weight machinery.

Deterministic schemes: unit weights, an expert threshold rule, clamped
log-odds, and the bounded polynomial w_d(p) = 1 + (W-1)*p^k that rises
from 1 to W.  The stochastic scheme adds a truncated-Gaussian error to
w_d whose truncation interval (1 - w_d(p), W - w_d(p)) pins the total
weight inside [1, W], so no voter ever drops below unit weight.
Every scheme carries its registry `kind`, a `stochastic` flag and
`weight(p)`, its deterministic weight over a float array of any shape;
`SCHEMES` maps each kind to its class.

The analytic side evaluates the truncated normal's mean and quantile,
both from one scaled form of its mass that needs only `scipy.special`,
the sharpness factor f(x, p) with x = (W-1)/sigma, the moment criterion
2 m^{k+1} - m^k that certifies a usable exponent k, and the per-voter
drift of the weighted tally under a competence measure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar, Union, get_args

import numpy as np

from .measure import MeasureSpec, moment
from .quadrature import integrate

__all__ = [
    "UnitWeights",
    "ExpertRule",
    "LogOdds",
    "BoundedPoly",
    "StochasticPoly",
    "WeightScheme",
    "SCHEMES",
    "TruncatedGaussianSpec",
    "deterministic_weight",
    "sample_weight",
    "truncated_normal_mean",
    "f_function",
    "moment_criterion",
    "find_k",
    "drift",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


@dataclass(frozen=True)
class UnitWeights:
    kind: ClassVar[str] = "unit"
    stochastic: ClassVar[bool] = False

    def weight(self, p: np.ndarray) -> np.ndarray:
        return np.ones_like(p)


@dataclass(frozen=True)
class ExpertRule:
    """Weight 1 for p >= threshold, 0 otherwise."""

    threshold: float
    kind: ClassVar[str] = "expert"
    stochastic: ClassVar[bool] = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", float(self.threshold))
        if not 0.5 < self.threshold <= 1.0:
            raise ValueError("expert threshold must lie in (1/2, 1]")

    def weight(self, p: np.ndarray) -> np.ndarray:
        return (p >= self.threshold).astype(float)


@dataclass(frozen=True)
class LogOdds:
    """log(p / (1-p)) with p clamped into [clamp, 1-clamp].

    The raw rule diverges at p in {0, 1}, hence the clamp.
    """

    clamp: float = 1e-6
    kind: ClassVar[str] = "log_odds"
    stochastic: ClassVar[bool] = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "clamp", float(self.clamp))
        if not 0.0 < self.clamp < 0.5:
            raise ValueError("clamp must lie in (0, 1/2)")

    def weight(self, p: np.ndarray) -> np.ndarray:
        clamped = np.clip(p, self.clamp, 1.0 - self.clamp)
        return np.log(clamped / (1.0 - clamped))


@dataclass(frozen=True)
class BoundedPoly:
    """w_d(p) = 1 + (W-1) * p^k, increasing from 1 to W."""

    W: float
    k: int
    kind: ClassVar[str] = "bounded_poly"
    stochastic: ClassVar[bool] = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "W", float(self.W))
        if not self.W > 1.0:
            raise ValueError("W must exceed 1")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("k must be an integer >= 1")
        object.__setattr__(self, "k", int(self.k))

    def weight(self, p: np.ndarray) -> np.ndarray:
        return 1.0 + (self.W - 1.0) * p**self.k


@dataclass(frozen=True)
class StochasticPoly(BoundedPoly):
    """Bounded polynomial weight plus truncated-Gaussian error.

    `weight` is the deterministic part w_d; `sample_weight` adds the
    error.  The noise scale relative to the weight range is summarized
    by the diagnostic x = (W-1)/sigma_w; the larger x, the closer the
    scheme tracks its deterministic part.
    """

    sigma_w: float
    kind: ClassVar[str] = "stochastic"
    stochastic: ClassVar[bool] = True

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "sigma_w", float(self.sigma_w))
        if not self.sigma_w > 0.0:
            raise ValueError("sigma_w must be positive")

    @property
    def x(self) -> float:
        return (self.W - 1.0) / self.sigma_w


WeightScheme = Union[UnitWeights, ExpertRule, LogOdds, BoundedPoly, StochasticPoly]

# kind -> class: the one place a serialized scheme is resolved
SCHEMES = {cls.kind: cls for cls in get_args(WeightScheme)}


@dataclass(frozen=True)
class TruncatedGaussianSpec:
    """Zero-mean normal with scale sigma conditioned to (a, b)."""

    sigma: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not self.a < self.b:
            raise ValueError("need a < b")


def deterministic_weight(scheme: WeightScheme, p: np.ndarray | float) -> np.ndarray | float:
    """The deterministic weight of a voter with competence p."""
    out = scheme.weight(np.asarray(p, dtype=float))
    return out if np.ndim(p) else float(out)


def _mirrored_masses(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, ...]:
    """(flip, a, b, d, lower, upper): (a, b) is (alpha, beta), or
    (-beta, -alpha) where flip, so that a + b <= 0; d = (b - a)(a + b)/2;
    lower = Phi(a)/phi(b) = R(a) e^d and upper = Phi(b)/phi(b) = R(b), with
    R(x) = sqrt(pi/2) erfcx(-x/sqrt 2).  The scaled mass upper - lower does
    not underflow and cancels only on narrow intervals (Botev 2017).  upper
    is inf past b = 37.7; (-inf, inf) keeps flip False and takes d = 0.
    """
    # imported here: scipy.special takes most of `import jurylab`'s time
    from scipy import special

    with np.errstate(invalid="ignore"):
        flip = alpha + beta > 0.0
        a = np.where(flip, -beta, alpha)
        b = np.where(flip, -alpha, beta)
        d = np.fmin(0.5 * (b - a) * (a + b), 0.0)  # fmin takes (-inf, inf)'s NaN to 0
    upper = _SQRT_HALF_PI * special.erfcx(-b / _SQRT2)
    return flip, a, b, d, _SQRT_HALF_PI * special.erfcx(-a / _SQRT2) * np.exp(d), upper


def _std_truncnorm_mean(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Mean of a standard normal conditioned to (alpha, beta).

    (phi(a) - phi(b))/Z = expm1(d)/(upper - lower) on `_mirrored_masses`'
    interval.  Where its width h times max(1, |m|), m the midpoint, is
    below 0.02, that cancels to about eps/0.02, so the series
    m (1 - h^2/12 + (m^2 + 2) h^4/720) is taken, off by under 0.02^6/5040
    of m.  Never NaN for alpha < beta.
    """
    flip, a, b, d, lower, upper = _mirrored_masses(alpha, beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        m, h2 = 0.5 * (a + b), (b - a) ** 2
        series = m * (1.0 - h2 / 12.0 + h2 * h2 * (m * m + 2.0) / 720.0)
        out = np.where(h2 * np.fmax(1.0, m * m) < 0.02**2, series, np.expm1(d) / (upper - lower))
    return np.where(flip, -out, out)


def _std_truncnorm_ppf(u: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Quantile at u of a standard normal conditioned to (alpha, beta).

    On `_mirrored_masses`' interval the quantile is v = u, or 1 - u where
    flip: Phi(x)/Phi(b) = r + v (1 - r), r = lower/upper, is logged as it
    is below 1/2, and as log1p(-c (1 - r)) above, with c = 1 - v formed
    from u, whose low bits 1 - u loses.  x = ndtri_exp(log_ndtr(b) + log).
    """
    from scipy import special

    flip, a, b, _, lower, upper = _mirrored_masses(alpha, beta)
    v, c, r = np.where(flip, 1.0 - u, u), np.where(flip, u, 1.0 - u), lower / upper
    below = r + v * (1.0 - r)
    with np.errstate(divide="ignore"):
        log_ratio = np.where(below < 0.5, np.log(below), np.log1p(-c * (1.0 - r)))
    x = np.clip(special.ndtri_exp(special.log_ndtr(b) + log_ratio), a, b)
    return np.where(flip, -x, x)


def truncated_normal_mean(spec: TruncatedGaussianSpec) -> float:
    """sigma * (phi(alpha) - phi(beta)) / (Phi(beta) - Phi(alpha))."""
    return float(spec.sigma * _std_truncnorm_mean(spec.a / spec.sigma, spec.b / spec.sigma))


def f_function(x: float, p: np.ndarray | float) -> np.ndarray | float:
    """(phi((1-p)x) - phi(-px)) / (x (Phi(-px) - Phi((1-p)x))), x > 0.

    Scaled so that (W-1) * f(x, p) is the conditional error mean of a
    zero-mean Gaussian with sigma = (W-1)/x truncated to
    (-(W-1)p, (W-1)(1-p)): the standard truncated mean on
    (-px, (1-p)x), divided by x.
    """
    if not x > 0.0:
        raise ValueError("x must be positive")
    arr = np.asarray(p, dtype=float)
    out = _std_truncnorm_mean(-arr * x, (1.0 - arr) * x) / x
    return out if np.ndim(p) else float(out)


def _error_mean(scheme: StochasticPoly, p: np.ndarray) -> np.ndarray:
    """E(error | p) for the truncation interval (1 - w_d, W - w_d)."""
    wd = scheme.weight(p)
    alpha = (1.0 - wd) / scheme.sigma_w
    beta = (scheme.W - wd) / scheme.sigma_w
    return scheme.sigma_w * _std_truncnorm_mean(alpha, beta)


def sample_weight(
    scheme: StochasticPoly,
    p: np.ndarray | float,
    rng: np.random.Generator,
) -> np.ndarray | float:
    """Draw w = w_d(p) + error, one weight per entry of p, by inverting
    rng.random's u with `_std_truncnorm_ppf`; always lands in [1, W]."""
    if not isinstance(scheme, StochasticPoly):
        raise TypeError("sample_weight needs a stochastic scheme")
    arr = np.asarray(p, dtype=float)
    wd = scheme.weight(arr)
    alpha = (1.0 - wd) / scheme.sigma_w
    beta = (scheme.W - wd) / scheme.sigma_w
    eps = scheme.sigma_w * _std_truncnorm_ppf(rng.random(arr.shape), alpha, beta)
    w = np.clip(wd + eps, 1.0, scheme.W)
    return w if np.ndim(p) else float(w)


def moment_criterion(spec: MeasureSpec, k: int) -> float:
    """2 m^{k+1} - m^k: positive once the exponent k is large enough
    whenever the measure puts mass strictly above 1/2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2.0 * moment(spec, k + 1) - moment(spec, k)


def find_k(spec: MeasureSpec) -> int | None:
    """Smallest k <= 64 with moment_criterion(spec, k) > 1e-12."""
    for k in range(1, 65):
        if moment_criterion(spec, k) > 1e-12:
            return k
    return None


def drift(spec: MeasureSpec, scheme: StochasticPoly) -> float:
    """Per-voter limit of (1/n) sum w_i (p_i - q_i) under the scheme.

    Closed-form moments carry the deterministic part; the error term
    E[(2p-1) E(eps|p)] is integrated by adaptive order-64 Gauss-Legendre
    panels against the density and summed exactly over atoms.  The truncation
    interval is the scheme's own (1 - w_d, W - w_d), so this limit is
    exactly what sampled weights average to.  A piece whose quadrature
    stops at its depth limit without converging raises a RuntimeWarning
    naming the piece; its value is still added.
    """
    if not isinstance(scheme, StochasticPoly):
        raise TypeError("drift needs a stochastic scheme")
    W, k = scheme.W, scheme.k
    base = 2.0 * moment(spec, 1) - 1.0 + (W - 1.0) * moment_criterion(spec, k)

    def integrand(p: np.ndarray) -> np.ndarray:
        return (2.0 * p - 1.0) * _error_mean(scheme, p) * spec.density(p)

    err_term = 0.0
    for lo, hi, _, _ in spec.pieces:
        value, converged = integrate(integrand, lo, hi, order=64, abs_tol=1e-12)
        if not converged:
            warnings.warn(
                f"drift: quadrature on piece [{lo}, {hi}] stopped at its depth limit "
                "without converging",
                RuntimeWarning,
                stacklevel=2,
            )
        err_term += value
    for x, m in spec.atoms:
        err_term += m * (2.0 * x - 1.0) * float(_error_mean(scheme, np.asarray(x)))
    return base + err_term
