"""Competence profiles (p_1, ..., p_n) and finite-n condition diagnostics.

Profiles come either from iid draws of a measure on [0,1] or from the
analytic families used throughout the package: constant-edge voters,
a mostly-uninformed electorate with a perfectly informed slice, slowly
decaying boosts with average competence one half, and deterministic
0/1 sequences.  Each source carries its own `values(n, seed)`: the
first n competences of its sequence, or for a sequence of k seeds a
(k, n) array of them, one row per seed.  The diagnostics trace the two
quantities that decide whether majority voting becomes reliable along
a sequence: the drift statistic Q_k and the count of perfectly
informed voters, plus their generalized per-index-mean versions and
Chebyshev bounds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import streams
from .measure import MeasureSpec, atom_mass, moment, quantile

__all__ = [
    "IidSource",
    "ExplicitSource",
    "CondorcetSource",
    "MoaSource",
    "C1Source",
    "C2Source",
    "ProfileSource",
    "Profile",
    "ConditionReport",
    "DegenerateProfileError",
    "generate",
    "q_statistic",
    "q_statistics",
    "condition_two_holds",
    "condition_report",
    "geometric_checkpoints",
]

_IID_TAG = 0x1D1D

Seeds = Union[int, Sequence[int]]


def _per_seed(row: np.ndarray, seed: Seeds) -> np.ndarray:
    """A deterministic source's one row, repeated once per seed of a sequence."""
    return row if np.ndim(seed) == 0 else np.tile(row, (len(seed), 1))


@dataclass(frozen=True)
class IidSource:
    """Independent draws from one measure on [0,1]."""

    measure: MeasureSpec

    def values(self, n: int, seed: Seeds) -> np.ndarray:
        """Quantiles of the seed's substream uniforms: (n,) for one seed,
        (k, n) for k seeds, drawn by one `uniforms` fill and inverted by
        one `quantile` call.  Entry i of a row depends on that row's seed
        and on i only."""
        u = streams.uniforms(seed, (_IID_TAG,), n)
        return np.asarray(quantile(self.measure, u), dtype=float)


@dataclass(frozen=True)
class ExplicitSource:
    """A literal competence sequence; generation takes its prefix."""

    competences: tuple[float, ...]

    def __post_init__(self) -> None:
        comp = tuple(float(p) for p in self.competences)
        object.__setattr__(self, "competences", comp)
        if any(not 0.0 <= p <= 1.0 for p in comp):
            raise ValueError("competences must lie in [0,1]")

    def values(self, n: int, seed: Seeds) -> np.ndarray:
        if len(self.competences) < n:
            raise ValueError(f"explicit source has {len(self.competences)} < {n} entries")
        return _per_seed(np.asarray(self.competences[:n], dtype=float), seed)


@dataclass(frozen=True)
class CondorcetSource:
    """Every voter at 1/2 + eps, eps in (0, 1/2]."""

    eps: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eps <= 0.5:
            raise ValueError("eps must lie in (0, 1/2]")

    def values(self, n: int, seed: Seeds) -> np.ndarray:
        return _per_seed(np.full(n, 0.5 + self.eps), seed)


@dataclass(frozen=True)
class MoaSource:
    """floor(eps*n) perfectly informed voters, the rest at 1/2."""

    informed_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.informed_fraction <= 1.0:
            raise ValueError("informed_fraction must lie in (0, 1]")

    def values(self, n: int, seed: Seeds) -> np.ndarray:
        p = np.full(n, 0.5)
        p[:int(np.floor(self.informed_fraction * n))] = 1.0
        return _per_seed(p, seed)


@dataclass(frozen=True)
class C1Source:
    """p_i = 1/2 + min(i^alpha, 1/2) with alpha in (-1/2, 0).

    The boosts average out to zero (mean competence tends to 1/2) while
    their sqrt(k)-normalized sum still diverges, so majority voting
    becomes reliable anyway.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not -0.5 < self.alpha < 0.0:
            raise ValueError("alpha must lie in (-1/2, 0)")

    def values(self, n: int, seed: Seeds) -> np.ndarray:
        i = np.arange(1, n + 1, dtype=float)
        return _per_seed(0.5 + np.minimum(i**self.alpha, 0.5), seed)


@dataclass(frozen=True)
class C2Source:
    """0/1 prefix followed by the tail 1, 1, 0, 1, 0, 1, ..."""

    prefix: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        pre = tuple(int(v) for v in self.prefix)
        object.__setattr__(self, "prefix", pre)
        if any(v not in (0, 1) for v in pre):
            raise ValueError("prefix entries must be 0 or 1")

    def values(self, n: int, seed: Seeds) -> np.ndarray:
        m = len(self.prefix)
        p = np.empty(n, dtype=float)
        p[:min(m, n)] = self.prefix[:n]
        tail = n - m
        if tail > 0:
            j = np.arange(1, tail + 1)
            p[m:] = np.where(j == 1, 1.0, (j % 2 == 0).astype(float))
        return _per_seed(p, seed)


ProfileSource = Union[IidSource, ExplicitSource, CondorcetSource, MoaSource, C1Source, C2Source]


@dataclass
class Profile:
    competences: np.ndarray
    source: ProfileSource
    seed: int | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.competences, dtype=float)
        if p.ndim != 1:
            raise ValueError("competences must be one-dimensional")
        if not np.all((p >= 0.0) & (p <= 1.0)):  # also rejects NaN
            raise ValueError("competences must lie in [0,1]")
        self.competences = p

    @property
    def n(self) -> int:
        return len(self.competences)


class DegenerateProfileError(ValueError):
    """All competences in {0,1}: the drift statistic is undefined."""


def _require_odd(n: int) -> None:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"voter count must be odd and positive, got {n}")


def generate(source: ProfileSource, n: int, seed: Seeds = 0) -> Profile | list[Profile]:
    """Deterministic profile of odd length n for (source, seed).

    The iid variant inverts the measure's CDF at per-index substream
    uniforms, so p_i depends on (seed, i) only and a longer profile
    extends a shorter one.  A sequence of seeds gives a list of
    profiles, one per seed, drawn by one `source.values` call; each is
    bit-identical to the profile its seed alone gives.
    """
    _require_odd(n)
    if np.ndim(seed) == 0:
        return Profile(source.values(n, seed), source, seed)
    return [Profile(row, source, s) for row, s in zip(source.values(n, seed), seed)]


def q_statistics(p: np.ndarray) -> np.ndarray:
    """(sum p_i - n/2) / sqrt(sum p_i q_i) along the last axis of p, one
    value per row; NaN for a row whose competences are all 0 or 1."""
    pq = np.sum(p * (1.0 - p), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (np.sum(p, axis=-1) - 0.5 * p.shape[-1]) / np.sqrt(pq)
    return np.where(pq > 0.0, q, np.nan)


def q_statistic(profile: Profile) -> float:
    """(sum p_i - n/2) / sqrt(sum p_i q_i)."""
    q = float(q_statistics(profile.competences))
    if np.isnan(q):
        raise DegenerateProfileError(
            "all competences are 0 or 1; fall back to the informed-count condition"
        )
    return q


def condition_two_holds(profile: Profile, n0: int = 1) -> bool:
    """True iff the perfectly-informed count S_k exceeds k/2 at every odd
    k from n0 through n (exact equality test p_i == 1)."""
    n = profile.n
    if n0 > n:
        raise ValueError(f"n0={n0} exceeds profile length {n}")
    ones = np.cumsum(profile.competences == 1.0)
    ks = np.arange(n0 if n0 % 2 == 1 else n0 + 1, n + 1, 2)
    return bool(np.all(ones[ks - 1] > 0.5 * ks))


@dataclass
class ConditionReport:
    checkpoints: np.ndarray
    q_trace: np.ndarray
    s_trace: np.ndarray
    running_mean: np.ndarray
    chebyshev_bounds: np.ndarray
    gen_cent: np.ndarray
    gen_noconc: np.ndarray
    gen_eps1: np.ndarray
    sigma_t: np.ndarray

    FIELDS = (
        "checkpoint",
        "q",
        "s_minus_half",
        "running_mean",
        "chebyshev_bound",
        "gen_cent",
        "gen_noconc",
        "gen_eps1",
        "sigma_t",
    )

    def rows(self) -> list[tuple]:
        cols = (
            self.q_trace,
            self.s_trace,
            self.running_mean,
            self.chebyshev_bounds,
            self.gen_cent,
            self.gen_noconc,
            self.gen_eps1,
            self.sigma_t,
        )
        return [
            (int(self.checkpoints[i]),) + tuple(float(col[i]) for col in cols)
            for i in range(len(self.checkpoints))
        ]


def condition_report(
    source: ProfileSource, checkpoints: tuple[int, ...] | list[int], seed: int = 0
) -> ConditionReport:
    """Finite-horizon traces of the majority-reliability diagnostics.

    Realization-level traces (Q_k, informed-count margin, running mean,
    Chebyshev bound) use the generated profile; the generalized traces
    use the per-index means, which are closed-form for the analytic
    families and measure moments for iid draws.  Chebyshev bounds are
    NaN where the mean competence does not exceed 1/2.  Sums are formed
    only at the checkpoints; the iid generalized sums are moment * k.
    """
    ks = np.asarray(list(checkpoints), dtype=int)
    if len(ks) == 0 or np.any(ks[1:] <= ks[:-1]):
        raise ValueError("checkpoints must be strictly increasing")
    if np.any(ks % 2 == 0) or ks[0] < 1:
        raise ValueError("checkpoints must be odd and positive")
    n = int(ks[-1])
    p = generate(source, n, seed).competences
    kf = ks.astype(float)
    # prefix sums at the checkpoints only: cumsums of (pairwise) segment sums
    bounds = np.concatenate(([0], ks[:-1]))
    cum_p = np.cumsum(np.add.reduceat(p, bounds))
    cum_pq = np.cumsum(np.add.reduceat(p * (1.0 - p), bounds))
    cum_ones = np.cumsum(np.add.reduceat(p == 1.0, bounds))  # int64, exact
    if isinstance(source, IidSource):
        m1 = moment(source.measure, 1)
        m2 = moment(source.measure, 2)
        e1 = atom_mass(source.measure, 1.0)
        cum_mean = m1 * kf
        cum_noconc = (m1 - m2) * kf
        cum_eps1 = e1 * kf
        cum_var = (m2 - m1 * m1) * kf
    else:
        cum_mean, cum_noconc, cum_eps1 = cum_p, cum_pq, cum_ones
        cum_var = np.zeros(len(ks))

    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(cum_pq > 0.0, (cum_p - 0.5 * kf) / np.sqrt(cum_pq), np.nan)
        drift = cum_p - 0.5 * kf
        cheb = np.where(drift > 0.0, cum_pq / drift**2, np.nan)
    return ConditionReport(
        checkpoints=ks,
        q_trace=q,
        s_trace=cum_ones - 0.5 * kf,
        running_mean=cum_p / kf,
        chebyshev_bounds=cheb,
        gen_cent=(cum_mean - 0.5 * kf) / np.sqrt(kf),
        gen_noconc=cum_noconc / kf,
        gen_eps1=cum_eps1 / kf,
        sigma_t=np.sqrt(cum_var),
    )


def geometric_checkpoints(n0: int, n_max: int) -> tuple[int, ...]:
    """Odd checkpoints n0, ~2 n0, ~4 n0, ... capped at n_max."""
    if n0 < 1 or n0 % 2 == 0:
        raise ValueError("n0 must be odd and positive")
    out = []
    x = float(n0)
    while True:
        k = int(round(x))
        k += 1 - k % 2
        k = min(k, n_max if n_max % 2 == 1 else n_max - 1)
        if not out or k > out[-1]:
            out.append(k)
        if k >= n_max - 1:
            break
        x *= 2.0
    return tuple(out)
