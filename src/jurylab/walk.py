"""Ballot-path combinatorics and random-walk experiments.

For the fair-coin measure (equal atoms at 0 and 1), the event that the
perfectly-informed count stays strictly ahead of k/2 at every odd
k <= 2m+1 has probability binom(2m+2, m+1) / 4^(m+1): a Catalan-path
count.  That value is computed exactly, checked for small m against an
enumeration that extends only the prefixes still in the lead, and
compared with its 1/sqrt(pi m) large-m asymptote.  The module also
estimates symmetric-walk first-passage probabilities and the frequency
with which an iid electorate contains a given fraction of (almost)
perfectly informed voters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import streams
from .measure import MeasureSpec, quantile
from .tally import TallyEstimate, monte_carlo_estimate

__all__ = [
    "PathCount",
    "catalan",
    "border_measure",
    "border_measure_enumerated",
    "stirling_asymptote",
    "random_walk_return",
    "moa_fraction_experiment",
    "MAX_ENUM_M",
]

MAX_ENUM_M = 12
_WALK_TAG = 0x57A1
_MOA_TAG = 0x40A0
_STEP_BLOCK = 128  # 12 bytes of buffers per replica and step: 15 MB at 1e4 replicas


@dataclass(frozen=True)
class PathCount:
    """Exact probability that the informed count leads through 2m+1 votes."""

    m: int
    numerator: int
    denominator: int
    closed_form: Fraction
    enumerated: Fraction | None = None

    @property
    def value(self) -> float:
        return self.numerator / self.denominator


def catalan(n: int) -> int:
    """n-th Catalan number binom(2n, n) / (n+1), exact."""
    if n < 0 or n > 100_000:
        raise ValueError("n must lie in [0, 1e5]")
    return math.comb(2 * n, n) // (n + 1)


def border_measure(m: int, enumerate_paths: bool = False) -> PathCount:
    """binom(2(m+1), m+1) / 2^(2(m+1)) with an optional enumeration check.

    Enumeration lists, one by one, the zero/one sequences of length
    2m+1 whose running ones-count exceeds k/2 at every odd k, an
    independent check of the closed form for m <= MAX_ENUM_M.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    num = math.comb(2 * (m + 1), m + 1)
    den = 4 ** (m + 1)
    enum = border_measure_enumerated(m) if enumerate_paths else None
    return PathCount(
        m=m, numerator=num, denominator=den, closed_form=Fraction(num, den), enumerated=enum
    )


def border_measure_enumerated(m: int) -> Fraction:
    """Exact leading-count probability by enumerating the leading sequences.

    The frontier holds one entry per zero/one prefix that has led at
    every odd k so far: its count of ones.  Each step extends every
    prefix by a 0 and by a 1, and at odd k drops the prefixes with
    2 * ones <= k.  A dropped prefix has already failed the condition,
    so no extension of it can lead throughout, and the entries left
    after step 2m+1 are exactly the leading sequences, one each.
    """
    if not 1 <= m <= MAX_ENUM_M:
        raise ValueError(f"enumeration capped at m <= {MAX_ENUM_M}")
    n = 2 * m + 1
    ones = np.zeros(1, dtype=np.int8)  # 2 * ones <= 2n <= 50 fits in int8
    for k in range(1, n + 1):
        ones = np.concatenate((ones, ones + 1))
        if k % 2 == 1:
            ones = ones[2 * ones > k]
    return Fraction(len(ones), 1 << n)


def stirling_asymptote(m: int) -> float:
    """Leading-order value 1/sqrt(pi m) of the border measure."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return 1.0 / math.sqrt(math.pi * m)


def random_walk_return(
    k: int, horizon: int, replicas: int, seed: int = 0
) -> TallyEstimate:
    """P(symmetric +-1 walk from 0 hits level k within `horizon` steps).

    Estimated by Monte Carlo with coupled step streams: for a fixed
    seed, a longer horizon replays the same steps and appends more, so
    estimates are nondecreasing in the horizon.  k = 0 is hit at the
    start: probability one, returned with method "bound", no replicas
    and no draws, since no Monte Carlo interval backs it.
    """
    if replicas < 100:
        raise ValueError("at least 100 replicas required")
    if horizon < abs(k):
        raise ValueError("horizon shorter than |k|: the level is unreachable")
    if k == 0:
        return TallyEstimate(1.0, "bound")
    level = abs(k)  # symmetric walk: hitting +k and -k are equiprobable
    # replica streams are indexed by (replica, absolute step), so the
    # live replicas' keys can be compacted without disturbing any draws
    keys = streams.row_keys(seed, (_WALK_TAG,), np.arange(replicas))
    position = np.zeros(replicas, dtype=np.int32)
    # one word buffer and one step buffer, reused by every block
    width = min(_STEP_BLOCK, horizon)
    words_buf = np.empty(replicas * width, dtype=np.uint64)
    steps_buf = np.empty(replicas * width, dtype=np.int32)
    hits = done = draws = 0
    while done < horizon and len(keys):
        take = min(_STEP_BLOCK, horizon - done)
        shape = (len(keys), take)
        size = shape[0] * take
        words = streams.fill_words(words_buf[:size].reshape(shape), keys, done)
        # a word >= 2^63 (its uniform >= 1/2) steps up: 1 or 0, mapped to
        # +1 or -1, then summed in place into the walk's offsets from `position`
        partial = np.greater_equal(words, 2**63, out=steps_buf[:size].reshape(shape))
        partial *= 2
        partial -= 1
        np.cumsum(partial, axis=1, out=partial)
        hit_now = partial.max(axis=1) + position >= level
        hits += int(np.count_nonzero(hit_now))
        keys = keys[~hit_now]
        position = position[~hit_now] + partial[~hit_now, -1]
        done += take
        draws += size
    return monte_carlo_estimate(hits, replicas, draws)


def moa_fraction_experiment(
    spec: MeasureSpec,
    eps0: float,
    eps: float,
    n: int,
    trials: int,
    seed: int = 0,
) -> TallyEstimate:
    """Frequency of iid profiles whose count of voters with
    p in [1-eps0, 1] exceeds eps * n."""
    if not 0.0 <= eps0 < 0.5:
        raise ValueError("eps0 must lie in [0, 1/2)")
    if trials < 100:
        raise ValueError("at least 100 trials required")
    if n < 1:
        raise ValueError("n must be positive")
    threshold = 1.0 - eps0
    successes = 0
    chunk = max(1, (1 << 22) // n)
    for start in range(0, trials, chunk):
        rows = np.arange(start, min(start + chunk, trials))
        u = streams.uniforms_block(seed, (_MOA_TAG,), rows, n)
        p = quantile(spec, u.ravel()).reshape(u.shape)
        counts = np.count_nonzero(p >= threshold, axis=1)
        successes += int(np.count_nonzero(counts > eps * n))
    return monte_carlo_estimate(successes, trials, trials * n)
