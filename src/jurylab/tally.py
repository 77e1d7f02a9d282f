"""Win probabilities for majority and weighted-majority rules.

Simple majority over odd n uses the exact Poisson-binomial upper tail
P(sum X_i > n/2), X_i in {0,1}.  The PMF comes from a product tree whose
leaves hold 128 voters (64 from 129 to 191 voters), or the next power of
two at or above n <= 128, padded with p = 0 voters, whose PMF [1, 0] is
neutral.  The leaf PMFs come from batched Toeplitz doubling: each voter
starts as the PMF [1 - p, p], and each of at most seven levels
convolves the first half of the PMFs with the second half, all pairs
in one einsum of the first PMFs against a Toeplitz window, a strided
view of the zero-padded second ones.  The leaves are then combined
pairwise by direct convolution of one band scaled by 2^1000 with the
other, and the result is scaled back by 2^-1000.  Kept entries are at
least 1e-300 > 2^-997, so every scaled product of two of them is normal
and no combine of trimmed bands pays for subnormal arithmetic; any
scale from 2^972 to below 2^1024 would do, and a power of two changes
no rounding of a normal product.  Every term is a sum of non-negative
products, and the window's padding adds only exact zeros, so each
entry keeps the DP's relative accuracy.  After each combine whose
band has an end below 1e-300, entries below 1e-300 are cut from both
ends and their mass is added to a running `trimmed_mass`; convolving
with probability vectors cannot grow an L1 error, so that sum bounds
the error from trimming.

The tally needs only one tail, so from _TILT_LEAVES = 6 leaves
(n > 640) on it also trims towards that tail by exponential tilting
(Chernoff 1952; Keich 2005).  A few Newton steps find the tilt theta
under which the sum's mean is within 1/4 of s - 1/2, s = (n + 1)/2,
and each combine first cuts its band to a window about the node's
tilted mean, past which a Bernstein or Hoeffding bound leaves at most
tau = 2^-110 of the node's tilted mass M_A(theta) = sum_k b_k e^(theta k)
on each side.  By the Chernoff bound
over the other voters, each side cut takes at most
tau e^(-theta s) M(theta) from theta's tail, M(theta) =
prod (q_i + p_i e^theta), and that term joins `trimmed_mass`.  So the
tally sums theta's tail with `math.fsum`: the win tail for theta >= 0,
else the loss tail, whose complement it returns; with no tilt it sums
the smaller tail.  The win probability lies in [0, 1] with no clamp,
and |value - exact| <= rounding_bound + trimmed_mass, where
`rounding_bound` bounds the rest of its error a priori, from the
number of roundings behind any band entry.

The same Chernoff bound, at the tilt's first Newton point, may already
fix the double the tree would return: 1.0 when the loss tail is
certainly below 2^-55 (theta < 0), 0.0 when the win tail is certainly
below 2^-1075 (theta >= 0).  Then the tally returns that double with
method "bound", trimmed_mass 0 and rounding_bound the certified tail
bound, so |value - exact| <= rounding_bound still holds, and no tree is
built.  This runs where the tilt does, from six leaves on; below that,
and where the tilt has no theta, the tree answers.  With many competent
voters, the paper's regime, this skips the tree.

Weighted majority uses the signed formulation X_i in {-1,+1} and
P(sum w_i X_i > 0); ties (sum exactly 0) count as a loss, which makes
every reported value a lower bound on the rule's competence.  Exact
enumeration covers n <= 31 by meet-in-the-middle (Horowitz & Sahni
1974): each half of the voters lists its 2^(n/2) scores and
probabilities, one half is sorted, and each outcome of the other half
finds the mass that beats or ties it by binary search over suffix sums.
Beyond n = 31 a seeded Monte Carlo runs two substreams per replica r,
keyed (_REPLICA_TAG, r) and (_REFINE_TAG, r), whose 64-bit words are
`streams.fill_words`' mix(key + i * gamma).  The voters take
heavy-first positions j: descending |w|, equal |w| in descending index.
Under layout 2, the voter at position j reads the 16-bit field
F = (word >> 16 (j mod 4)) mod 2^16 of word j div 4 of the first
stream, so one word decides four voters.  With T = ceil(p * 2^53),
T_hi = min(T >> 37, 2^16 - 1) and T_lo = T - T_hi 2^37 (at most 2^37),
the voter is correct iff F 2^37 + G < T, G = word j of the second
stream >> 27, a 37-bit refinement: that is, iff F < T_hi, or F == T_hi
and G < T_lo.  So G is drawn only on a tie, F == T_hi with T_lo > 0,
which has probability 2^-16.  F 2^37 + G is uniform on the integers
below 2^53, so P(correct) = T 2^-53 exactly: the law of the test u < p
on a 53-bit uniform u, from a quarter of the hashes (Knuth & Yao 1976
on drawing random bits lazily; the streams are counter-based, so a bit
can be drawn later from its index: Salmon et al., SC 2011).  Which
voters are correct depends on neither the batching nor the order in
which they are decided.  A replica wins where its full-row score
fl(2 S - fl(sum w)) is above 0, S numpy's pairwise sum of the row
np.where(correct, w, 0.0), held C-contiguous in voter order.  The order
of that sum's additions is fixed by n alone, so the score, too, depends
on the replica's draws and on nothing else.

Most replicas are decided by their heaviest voters, so the kernel
stops drawing a replica once its outcome is certain (curtailed
sampling; Wald, Sequential Analysis, 1947).  It draws the voters in
descending |w|, in _STAGES stages: stage k ends at the first voter where
the undrawn sum of |w| falls to 2^-k of the total W.  After each stage,
a replica whose partial score P and undrawn weight R satisfy
|P| > R + margin is decided, and wins iff P > 0.  With u = 2^-53 the
margin is 16 (n + 8) u W.  To first order, the full-row score is within
(3n - 2) u W of the exact score (two sums of at most n exact terms and
one subtraction: summed in any order, pairwise included, n terms are
within (n - 1) u times the sum of their magnitudes; Higham, Accuracy
and Stability of Numerical Algorithms, 2002, sec. 4.2), the computed P
within (4n - 1) u W of the exact partial score (the same for each piece
of at most n drawn voters, plus one addition per piece), the computed R
within (n - 1) u W, and R + margin rounds once, by at most u W.  These
add up to (8n - 3) u W, half the margin; the other half covers the
second-order terms.  So |P| > R + margin puts the exact score and the
full-row score on P's side of 0, and no rounding flips a decision.  A
replica still undecided after the stages is redrawn whole from its own
streams, its flags are scattered back to voter order, and it is given
its full-row score; the streams are counter-based, so no drawn flag
need be kept for it.  Every win count therefore equals the count of
positive full-row scores over all replicas, near-ties and exact ties
(losses) included, whatever the batching.  `TallyEstimate.draws`
counts every voter decision, a redrawn replica's staged ones twice, so
at most 2n per replica.

The win frequency gets a 95% interval: Wald for interior counts, and
the exact Clopper-Pearson width when every replica or none wins, so no
interval has zero width.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import streams
from .profile import Profile

__all__ = [
    "TallyEstimate",
    "majority_prob_exact",
    "anti_majority_prob_exact",
    "weighted_majority_prob",
    "monte_carlo_estimate",
    "proposition41_bound",
    "MAX_EXACT_N",
    "MAX_BRUTE_N",
    "MODES",
]

MAX_EXACT_N = 200_001
MAX_BRUTE_N = 31
# weighted_majority_prob's modes; "auto" enumerates up to MAX_BRUTE_N, else Monte Carlo
MODES = ("auto", "brute", "mc")
_REPLICA_TAG = 0x4D43
# the substream of the 37-bit refinements that settle a tied 16-bit field
_REFINE_TAG = 0x5246
# voter decisions per chunk of a Monte Carlo stage or of the rows the
# closing pass redraws, so a chunk's words, flags and float terms stay in
# cache; also the replicas per group, which bounds the kernel's memory in
# the replica count
_MC_CHUNK = 1 << 15
# Monte Carlo stages: stage k ends where the undrawn sum |w| falls to 2^-k of it
_STAGES = 4
# product-tree leaf size and the band trim threshold of the exact tally
_LEAF = 128
_TRIM = 1e-300
# exact power-of-two scale of every tree combine; see poisson_binomial_pmf
_SCALE = 2.0**1000
_UNSCALE = 2.0**-1000
# unit roundoff of float64
_U = 2.0**-53
# certified tail exponents, in nats, that fix the exact tally's double:
# e^-39 < 2^-55 and e^-746 < 2^-1075; see _certifies
_SURE_NATS = 39.0
_NULL_NATS = 746.0
# the tilted trim: each side a combine cuts holds at most _TAU of its node's
# tilted mass, by a tail bound of _TAU_NATS = -ln _TAU; see _product_tree
_TAU = 2.0**-110
_TAU_NATS = -math.log(_TAU)
# Newton steps for the tilt, and the largest |theta| at which e^theta is used
_NEWTON_STEPS = 8
_MAX_TILT = 700.0
# the fewest leaves at which the tilt repays its fixed cost, about 20 us: with
# fewer, too few of the bands it shortens are convolved again
_TILT_LEAVES = 6


@dataclass(frozen=True)
class TallyEstimate:
    value: float
    method: Literal["bound", "exact_dp", "brute_force", "monte_carlo"]
    half_width: float = 0.0
    n_replicas: int = 0
    tie_prob: float | None = None
    # the exact tally's trimming error: the mass cut below the 1e-300
    # floor plus, for each side a tilted window cut, a Chernoff bound on
    # what it took from the summed tail
    trimmed_mass: float = 0.0
    rounding_bound: float = 0.0
    # the voter or step draws a Monte Carlo estimate made, 0 for the exact
    # methods: a measure of work, so two estimates that agree compare equal
    draws: int = field(default=0, compare=False)


def _checked_probs(profile: Profile) -> np.ndarray:
    n = profile.n
    if n % 2 == 0:
        raise ValueError(f"even voter count {n}: ties are out of scope, use odd n")
    if n > MAX_EXACT_N:
        raise ValueError(f"n={n} exceeds the exact-DP cap {MAX_EXACT_N}")
    return profile.competences


def _leaf_size(n: int) -> int:
    """Voters per product-tree leaf: one leaf of the next power of two >= n
    up to _LEAF voters, _LEAF from 1.5 _LEAF on, and _LEAF / 2 between,
    where two _LEAF-voter leaves would be over a quarter padding."""
    if n <= _LEAF:
        return 1 << (n - 1).bit_length()
    return _LEAF if 2 * n >= 3 * _LEAF else _LEAF // 2


def _level_buffer(count: int, width: int, last: bool) -> tuple[np.ndarray, np.ndarray]:
    """A zeroed buffer for `count` PMFs of `width` entries, and their
    (count, width) view: a PMF per row, followed by the width - 1 zeros
    the next level's window reads, at the last level and below 8 PMFs
    per entry, else a PMF per column, between width - 1 zero rows.  So
    the einsum's inner loop, along the contiguous axis, is the longer."""
    if last or count < 8 * width:
        buf = np.zeros((count, 2 * width - 1))
        return buf, buf[:, :width]
    buf = np.zeros((3 * width - 2, count))
    return buf, buf[width - 1 : 2 * width - 1].T


def _leaf_pmfs(ps: np.ndarray) -> np.ndarray:
    """The leaf PMFs of the product tree as rows of a (leaves, leaf + 1) array.

    The voters, padded with p = 0, start as PMFs [1 - p, p], and each of
    log2(_leaf_size(n)) doubling levels convolves PMF k with PMF k + m,
    for all k < m at once: one einsum of the first PMFs against a
    Toeplitz window, a strided view of the second ones and their zero
    padding.  Leaf r therefore holds voters r, r + leaves, r + 2 leaves,
    and so on.  The buffers' layout (`_level_buffer`) keeps each einsum's
    inner loop on the longer axis.  einsum's default optimize=False never
    calls BLAS, so the leaves do not depend on its thread count.
    """
    n = max(len(ps), 1)
    leaf = _leaf_size(n)
    n_leaves = -(-n // leaf)
    count, width = n_leaves * leaf, 2
    buf, pmfs = _level_buffer(count, width, count == n_leaves)
    pmfs[: len(ps), 1] = ps
    pmfs[:, 0] = 1.0 - pmfs[:, 1]
    item = buf.itemsize
    while count > n_leaves:
        m, grown = count // 2, 2 * width - 1
        if pmfs.strides[1] == item:
            # a PMF per row: c[i] = sum_j a[w - 1 - j] b[i - w + 1 + j],
            # with a reversed so that both run forward in j
            row = buf.shape[1]
            first = np.ascontiguousarray(pmfs[:m, ::-1])
            offset, strides = (m * row - width + 1) * item, (row * item, item, item)
        else:
            # a PMF per column: c[i] = sum_j a[j] b[i - j]
            first = pmfs[:m]
            offset, strides = ((width - 1) * count + m) * item, (item, count * item, -count * item)
        window = np.ndarray((m, grown, width), buffer=buf, offset=offset, strides=strides)
        buf, pmfs = _level_buffer(m, grown, m == n_leaves)
        np.einsum("kij,kj->ki", window, first, out=pmfs)
        count, width = m, grown
    return pmfs


def poisson_binomial_pmf(ps: np.ndarray) -> tuple[int, np.ndarray, float]:
    """PMF of sum of independent Bernoulli(p_i) as (offset, band, trimmed_mass).

    band[i] is P(sum = offset + i) and every entry outside the band is
    taken as 0; trimmed_mass, the mass cut over all combines, bounds the
    L1 distance to the untrimmed PMF.  The leaf PMFs (`_leaf_pmfs`, up
    to _LEAF voters each, from batched Toeplitz doubling) are never
    trimmed.  They are convolved pairwise, level by level, and each
    product is cut to the entries at or above _TRIM; only the exact
    tally cuts by the tilt as well (`_product_tree`).

    Each combine convolves a * 2^1000 with b and scales the band back by
    2^-1000 in place.  A kept entry is at least _TRIM > 2^-997, so every
    product of two kept entries, scaled, is at least 2^-994 and normal:
    only a product with an entry of an untrimmed leaf can be subnormal,
    and a subnormal product costs tens of times a normal one on common
    x86 cores.  Entries never exceed 1 + O(u) and outputs never exceed
    2^1000 * sum(a) * max(b), so any scale from 2^972 to well below
    2^1024 is safe.  Power-of-two scaling is exact: an entry whose
    products were all normal comes out bit for bit as unscaled, and one
    with subnormal products comes out more accurate.  The band is
    searched for its cut only when an end falls below _TRIM.
    """
    offset, band, trimmed, _ = _product_tree(ps, None)
    return offset, band, trimmed


def _tilt(ps: np.ndarray) -> tuple[float, float, list[tuple[float, float, int]] | None] | None:
    """(theta, ln M(theta), leaf moments) for a tilt theta whose tilted
    mean sum p'_i, p'_i = p_i e^theta / (q_i + p_i e^theta), is within
    1/4 of n/2; None when _NEWTON_STEPS steps do not get there within
    |theta| < _MAX_TILT.  M(theta) = prod (q_i + p_i e^theta).  Leaf r
    holds voters r, r + leaves, r + 2 leaves, ... (`_leaf_pmfs`), and its
    moments are the sums of p'_i and of p'_i (1 - p'_i) over them, and
    its voter count with padding.  The moments are None, and theta the
    start, when the Chernoff bound there already fixes the tally
    (`_certifies`).

    Newton's method on the tilted mean, whose slope is the tilted
    variance.  It starts from log((n - mu) / mu), the tilt of n voters of
    competence mu / n, scaled by the ratio of their variance to
    sum p_i q_i, the slope at theta = 0; n - mu is summed as sum q_i,
    since n - fl(mu) loses the gap when it is a few ulps of n.  Each step
    is one pass over the voters into the same buffers, since fresh arrays
    cost more in page faults than in arithmetic.  A step that would leave
    the bracket the earlier steps set bisects it instead.  A profile
    whose voters all have p in {0, 1}, or whose certain voters reach n/2
    on their own, has no such theta.
    """
    n = len(ps)
    q = 1.0 - ps
    mu, rest = float(ps.sum()), float(q.sum())
    denom = np.empty(n)
    var = float(np.multiply(ps, q, out=denom).sum())
    if not var > 0.0:  # so some 0 < p_i < 1, and mu, rest > 0
        return None
    leaf = _leaf_size(n)
    # p' of the voters, padded with the p' = 0 of each leaf's padding
    pad = np.zeros((leaf, -(-n // leaf)))
    tilted = pad.reshape(-1)[:n]
    lo, hi = -_MAX_TILT, _MAX_TILT
    theta = math.log(rest / mu) * (mu * rest / n) / var
    for step in range(_NEWTON_STEPS):
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
        np.multiply(ps, math.exp(theta), out=tilted)
        np.add(q, tilted, out=denom)
        tilted /= denom
        mean = float(tilted.sum())
        gap = 0.5 * n - mean
        if abs(gap) <= 0.25 or not step:
            log_m = float(np.log(denom, out=denom).sum())
            if not step and _certifies(theta, log_m, n):
                return theta, log_m, None
        if abs(gap) <= 0.25:
            means = pad.sum(axis=0).tolist()
            tilted -= np.multiply(tilted, tilted, out=denom)
            return theta, log_m, [(m, v, leaf) for m, v in zip(means, pad.sum(axis=0).tolist())]
        if gap > 0.0:
            lo = theta
        else:
            hi = theta
        var = mean - float(np.multiply(tilted, tilted, out=denom).sum())
        theta = theta + gap / var if var > 0.0 else 0.5 * (lo + hi)
    return None


def _product_tree(
    ps: np.ndarray, moments: list[tuple[float, float, int]] | None
) -> tuple[int, np.ndarray, float, int]:
    """(offset, band, floor mass, tilt cuts) of the product tree.

    Every combine cuts its band to the entries at or above _TRIM, from
    both ends, and adds their mass to the floor mass.  Given the leaf
    `moments` of a tilt theta (`_tilt`), it first cuts the band to its
    node's window mu' +- h, widened by an entry each way, and the floor
    then applies inside the window.  mu', v' and m are the sums of the
    leaves' moments: the mean and variance of the node's sum under the
    tilted law, and its voters.  h is the lesser of Bernstein's
    L/3 + sqrt(L^2/9 + 2 L v') and Hoeffding's sqrt(L m / 2), with
    L = _TAU_NATS, so the tilted law puts at most e^-L = _TAU past the
    window on each side.  That law gives outcome k of the node the mass
    b_k e^(theta k) / M_A(theta), so the exact entries one side cuts have
    sum_k b_k e^(theta k) <= _TAU M_A(theta); each side that cuts an
    entry adds one to the tilt cuts.  A window may keep nothing, and an
    empty band makes every product it enters empty.
    """
    nodes = [(0, leaf_pmf) for leaf_pmf in _leaf_pmfs(ps)]
    width = _TAU_NATS / 3.0
    trimmed, cuts = 0.0, 0
    while len(nodes) > 1:
        paired, merged = [], []
        for i in range(0, len(nodes) - 1, 2):
            (off_a, a), (off_b, b) = nodes[i], nodes[i + 1]
            off, lo, hi = off_a + off_b, 0, len(a) + len(b) - 1
            if moments is not None:
                (mean_a, var_a, m_a), (mean_b, var_b, m_b) = moments[i], moments[i + 1]
                mean, var, voters = mean_a + mean_b, var_a + var_b, m_a + m_b
                merged.append((mean, var, voters))
                h = min(
                    width + math.sqrt(width * width + 2.0 * _TAU_NATS * var + 2.0**-20),
                    math.sqrt(0.5 * _TAU_NATS * voters),
                )
                lo = min(max(math.ceil(mean - h) - 1 - off, 0), hi)
                hi = max(min(math.floor(mean + h) + 2 - off, hi), lo)
                cuts += (lo > 0) + (hi < len(a) + len(b) - 1)
            if lo == hi or not (len(a) and len(b)):
                paired.append((off, a[:0]))
                continue
            band = np.convolve(a * _SCALE, b)
            band *= _UNSCALE
            if band[lo] < _TRIM or band[hi - 1] < _TRIM:
                live = np.flatnonzero(band[lo:hi] >= _TRIM)
                first, last = (lo + int(live[0]), lo + int(live[-1]) + 1) if len(live) else (hi, hi)
                trimmed += float(band[lo:first].sum() + band[last:hi].sum())
                lo, hi = first, last
            paired.append((off + lo, band[lo:hi]))
        if len(nodes) % 2:
            paired.append(nodes[-1])
            if moments is not None:
                merged.append(moments[-1])
        nodes, moments = paired, merged if moments is not None else None
    offset, band = nodes[0]
    return offset, band, trimmed, cuts


def _rounding_depth(n: int) -> int:
    """K, the rounding depth of every band entry of an n-voter tally.

    A level whose inputs have at most m entries makes each entry a sum
    of at most m non-negative products, and of exact zeros from a
    Toeplitz window's padding, so it scales the entry's error by at most
    1 + gamma_m, and (1 + gamma_a)(1 + gamma_b) <= 1 + gamma_(a+b).
    K adds one per voter for the rounding of 1 - p, the leaf levels'
    widths 2, 3, 5, ..., leaf / 2 + 1, and at tree level j, leaf * 2^j + 1,
    the untrimmed length of the shorter band.
    """
    leaf = _leaf_size(n)
    depth = n + leaf - 1 + leaf.bit_length() - 1
    nodes, voters = -(-n // leaf), leaf
    while nodes > 1:
        depth += voters + 1
        nodes, voters = -(-nodes // 2), 2 * voters
    return depth


def _relative_gamma(k: int) -> float:
    """gamma_k / (1 - gamma_k) with gamma_k = k u / (1 - k u): an error of
    at most gamma_k of the exact value, as a multiple of the computed one."""
    return k * _U / (1.0 - 2.0 * k * _U)


def _chernoff_nats(theta: float, log_m: float, n: int) -> float:
    """ln of a bound on theta's tail of S = sum X_i: the win tail
    P(S >= s) for theta >= 0, else the loss tail P(S <= s - 1), with
    s = (n + 1)/2 and ln M(theta) = `log_m` from `_tilt`.

    By Chernoff's bound that tail is at most M(theta) e^(-theta x), with
    x = s for the win tail and s - 1 for the loss tail.  ln M sums n logs
    of q_i + p_i e^theta, each computed within 4u and so logged within 5u
    of max(1, its log); they share theta's sign, so the exponent is
    raised by 2^-30 (|ln M| + |theta| x + n).  At n <= MAX_EXACT_N that
    covers their rounding and that of theta x, of the exponent's
    additions and of exp, and the two roundings of adding a cut term,
    times the cuts, to trimmed_mass.

    The cut term.  A side of node A's window cuts exact entries b_k with
    sum_k b_k e^(theta k) <= tau M_A(theta) (`_product_tree`), and each
    outcome k of A reaches the win tail with probability
    P(S_R >= s - k) <= M_R(theta) e^(-theta (s - k)) over the other
    voters R (Chernoff), or the loss tail with
    P(S_R <= s - 1 - k) <= M_R(theta) e^(-theta (s - 1 - k)); and
    M_A M_R = M.  So each side cut takes at most tau times the bound
    from theta's tail.
    """
    s = (n + 1) // 2
    x = s if theta >= 0.0 else s - 1
    return log_m - theta * x + 2.0**-30 * (abs(log_m) + abs(theta) * x + n)


def _certifies(theta: float, log_m: float, n: int) -> bool:
    """Whether the Chernoff bound at theta (`_chernoff_nats`) fixes the
    double the tree would return: 1.0 when theta < 0 and the loss tail L
    is at most e^-39 < 2^-55, 0.0 when theta >= 0 and the win tail W is
    at most e^-746 < 2^-1075.  `_tilt` asks at its start, so from
    _TILT_LEAVES leaves on.

    Why the tree returns the same double.  Every band entry is within
    gamma_K of the exact mass of its untrimmed outcomes, apart from
    fewer than (n + _LEAF)^2 underflows of at most 2^-1074 in all (see
    majority_prob_exact), and gamma_K < 1e-10 at n <= MAX_EXACT_N.
    - The tree's tilt, where it finds one, has theta's sign.  The tilted
      mean increases with the tilt, and the tree takes a tilt whose
      computed tilted mean is within 1/4 of n/2: each p'_i is computed
      within 2^-45, so the exact one is within 1/4 + 2^-20 of n/2.  As
      S >= 0, mu = sum p_i >= s (1 - L), so mu <= n/2 + 1/4 + 2^-20
      would give L >= (1/4 - 2^-20) / s > e^-39 at s <= 100001.  So
      L <= e^-39 puts mu, the tilted mean at 0, above the tree's, whose
      tilt is then negative.  Likewise n - mu >= s (1 - W) makes the
      tree's tilt positive when W <= e^-746.
    - 1.0: the tree's lower tail sums to at most
      (1 + u)((1 + gamma_K) 2^-55 + 2^-1000) < 2^-54, whatever the
      windows cut.  With its negative tilt, and with no tilt, where that
      sum is far below the upper one, the tree returns 1 - fsum(lower),
      which rounds to 1.0.
    - 0.0: each computed upper entry is below 2^-1000 < _TRIM.  From
      two leaves on the final band comes from a combine, and a combine
      keeps no end entry below _TRIM, whatever the tilt also cuts; the
      upper tail is the band's end, so no upper entry is left.  With its
      positive tilt, and with no tilt, where the empty upper tail is the
      smaller, the tree returns fsum([]) = 0.0.
    """
    nats = _NULL_NATS if theta >= 0.0 else _SURE_NATS
    return _chernoff_nats(theta, log_m, n) <= -nats


def majority_prob_exact(profile: Profile) -> TallyEstimate:
    """Exact P(sum X_i > n/2) for independent X_i ~ Bernoulli(p_i).

    From _TILT_LEAVES leaves on, when the Chernoff bound at the tilt's
    start already fixes the value the product tree would return (1.0 for
    theta < 0, 0.0 for theta >= 0: `_certifies`), that value comes back
    with method "bound", trimmed_mass 0 and rounding_bound
    nextafter(exp(`_chernoff_nats`), inf), at least the tail it leaves
    out with exp faithful, and at least 2^-1074; the tree is not built.
    Either way |value - exact| <= rounding_bound + trimmed_mass.

    Otherwise a tree of at least _TILT_LEAVES leaves is cut by the tilt
    theta that centres the tilted sum at s - 1/2, s = (n + 1)/2
    (`_tilt`, `_product_tree`), and the value is theta's tail: the win
    tail summed for theta >= 0, else one minus the loss tail.
    trimmed_mass is the mass the floor cut plus tau exp(`_chernoff_nats`)
    for each side a window cut, which bounds what the cut took from that
    tail; the other tail is not summed, as the tilt may cut much of it.  With
    no tilt (fewer leaves, or no theta) only the floor cuts, and the
    smaller tail is summed.

    rounding_bound is a priori: every band entry is within gamma_K (see
    _rounding_depth) of the exact mass of its untrimmed outcomes, which
    bounds the summed tail's error; to that it adds the rounding of fsum
    and of 1 - x, the slack between the computed and exact trimmed mass,
    and 2^-1074 for each product and entry that may underflow (convolving
    with PMFs never grows an L1 error).  Two PMFs of at most w entries
    take at most w^2 products that are not exact zeros of a window's
    padding, and make 2w - 1 entries, at a leaf or a tree level alike:
    with V = leaves * leaf < n + _LEAF padded voters, below
    V^2/2 + 2V log2 V + 2V in all, which is below (n + _LEAF)^2.
    """
    n = profile.n
    ps = _checked_probs(profile)
    s = (n + 1) // 2
    found = _tilt(ps) if n > (_TILT_LEAVES - 1) * _LEAF else None
    theta, log_m, moments = found or (None, 0.0, None)
    if theta is not None and moments is None:
        bound = math.nextafter(math.exp(_chernoff_nats(theta, log_m, n)), math.inf)
        return TallyEstimate(value=float(theta < 0.0), method="bound", rounding_bound=bound)
    offset, band, trimmed, cuts = _product_tree(ps, moments)
    if cuts:
        trimmed += cuts * (_TAU * math.exp(_chernoff_nats(theta, log_m, n)))
    split = max(s - offset, 0)
    lower, upper = band[:split], band[split:]
    # fsum one tail, theta's or else the smaller; the other is its complement
    if theta is None:
        win_tail = upper.sum() <= lower.sum()
    else:
        win_tail = theta >= 0.0
    if win_tail:
        tail = value = math.fsum(upper.tolist())
    else:
        # largest terms first: fsum's fast case, the same rounded sum
        tail = math.fsum(lower[::-1].tolist())
        value = 1.0 - tail
    depth = _rounding_depth(n)
    bound = (
        _relative_gamma(depth) * (1.0 + _U) * tail
        + _U * (tail + value)
        # the trim sums and their running total round at most 2n + 2 times
        + _relative_gamma(depth + 2 * n + 2) * trimmed
        + (n + _LEAF) ** 2 * 2.0**-1074
    )
    return TallyEstimate(
        value=value, method="exact_dp", trimmed_mass=trimmed, rounding_bound=bound
    )


def anti_majority_prob_exact(profile: Profile) -> TallyEstimate:
    """Exact P(sum X_i < n/2): majority computed on the mirrored profile.

    Its method and bounds are those of the mirrored profile, whose
    competences are the floats nearest 1 - p_i: "bound" with value 0.0
    or 1.0 when the Chernoff bound at the tilt's start fixes that
    profile's tally (from six leaves on), else "exact_dp".
    """
    ps = _checked_probs(profile)
    flipped = Profile(1.0 - ps, profile.source, profile.seed)
    return majority_prob_exact(flipped)


def _half_sums(ps: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score sum_i w_i x_i and probability of each of the 2^len(ps) outcomes."""
    score = np.zeros(1)
    prob = np.ones(1)
    for p, wi in zip(ps, w):
        score = np.concatenate((score - wi, score + wi))
        prob = np.concatenate((prob * (1.0 - p), prob * p))
    return score, prob


def _brute_force_weighted(ps: np.ndarray, w: np.ndarray) -> TallyEstimate:
    """Exact win and tie mass by meet-in-the-middle over the two halves.

    An outcome is a pair (a, b) of half-outcomes; it wins when
    s_b > -s_a, which holds exactly when fl(s_a + s_b) > 0, and ties
    when s_b == -s_a.  With half B sorted by score, the mass of b above
    -s_a is a suffix sum found by binary search.
    """
    h = len(ps) // 2
    sa, pa = _half_sums(ps[:h], w[:h])
    sb, pb = _half_sums(ps[h:], w[h:])
    order = np.argsort(sb, kind="stable")
    sb = sb[order]
    # tail[k] is the mass of the sorted scores from position k on; tail[-1] = 0
    tail = np.append(np.cumsum(pb[order][::-1])[::-1], 0.0)
    above = tail[np.searchsorted(sb, -sa, side="right")]
    at_least = tail[np.searchsorted(sb, -sa, side="left")]
    win = float(pa @ above)
    tie = float(pa @ (at_least - above))
    return TallyEstimate(value=win, method="brute_force", tie_prob=tie)


def monte_carlo_estimate(successes: int, trials: int, draws: int = 0) -> TallyEstimate:
    """The frequency successes / trials with a 95% interval half-width.

    Interior counts get the Wald half-width 1.96 sqrt(p(1-p)/trials).
    At 0 or `trials` successes Wald gives 0, so the half-width is the
    exact two-sided Clopper-Pearson one, 1 - 0.025^(1/trials): the whole
    width of the interval, which reaches from the frequency inwards.
    """
    p_hat = successes / trials
    if 0 < successes < trials:
        half = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    else:
        half = -math.expm1(math.log(0.025) / trials)
    return TallyEstimate(
        value=p_hat, method="monte_carlo", half_width=half, n_replicas=trials, draws=draws
    )


def _stage_ends(heavy: np.ndarray) -> list[tuple[int, float]]:
    """(end, undrawn) of each stage over |w| sorted heaviest first.

    Stage k ends at the first voter where the undrawn sum falls to 2^-k
    of the total; `undrawn` is the computed sum of |w| from `end` on.  A
    stage that would end at n is left out: the closing pass redraws the
    whole row instead.
    """
    cum = np.cumsum(heavy)
    ends = np.searchsorted(cum, cum[-1] * (1.0 - 2.0 ** -np.arange(1.0, _STAGES + 1))) + 1
    # nondecreasing; dict.fromkeys drops repeats (np.unique would load numpy.ma)
    return [(e, float(np.sum(heavy[e:]))) for e in dict.fromkeys(ends.tolist()) if e < len(heavy)]


def _correct(
    ps: np.ndarray,
    order: np.ndarray,
    t_hi: np.ndarray,
    seed: int,
    rows: np.ndarray,
    keys: np.ndarray,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Correct-or-not flags, (len(rows), hi - lo), of the voters at
    heavy-first positions lo..hi-1 for the replicas `rows` keyed `keys`,
    under layout 2 (module docstring)."""
    first = lo // 4
    words = np.empty((len(rows), (hi + 3) // 4 - first), dtype="<u8")
    streams.fill_words(words, keys, first)
    # field f of a word is its little-endian 16-bit lane f
    fields = words.view("<u2")[:, lo - 4 * first : hi - 4 * first]
    t = t_hi[lo:hi]
    correct = fields < t
    # the flat index of a 2-D array's nonzeros is far cheaper than its pairs
    tied = np.flatnonzero(fields == t)
    if len(tied):
        r, c = np.divmod(tied, hi - lo)
        j = lo + c
        # T = ceil(p * 2^53): the scaling and its ceiling are exact
        t_lo = np.ceil(ps[order[j]] * 2.0**53).astype(np.uint64)
        t_lo -= t[c].astype(np.uint64) << np.uint64(37)
        tie = t_lo > 0
        r, j, t_lo = r[tie], j[tie], t_lo[tie]
        refine = streams.words_at(streams.row_keys(seed, (_REFINE_TAG,), rows[r]), j)
        correct[r, c[tie]] = refine >> np.uint64(27) < t_lo
    return correct


def _field_thresholds(ps: np.ndarray, order: np.ndarray) -> np.ndarray:
    """T_hi = min(T >> 37, 2^16 - 1) of T = ceil(p * 2^53) for the voters
    in `order`, as uint16.  One float array holds every step, and each is
    exact: T is an integer of at most 2^53, and T * 2^-37 is exact."""
    t = ps[order]
    t *= 2.0**53
    np.ceil(t, out=t)
    t *= 2.0**-37
    np.floor(t, out=t)
    np.minimum(t, 0xFFFF, out=t)
    return t.astype(np.uint16)


def _draw_piece(
    decide: Callable[..., np.ndarray],
    w_cols: np.ndarray,
    rows: np.ndarray,
    keys: np.ndarray,
    lo: int,
    hi: int,
    score: np.ndarray,
) -> int:
    """Decide the voters at heavy-first positions lo..hi-1, of weights
    `w_cols`, for the replicas `rows` keyed `keys`, by `decide` (`_correct`
    bound to the tally), and add fl(2 fl(correct @ w_cols) - fl(sum
    w_cols)) to `score`.  Chunks hold at most _MC_CHUNK voter decisions.
    Returns the decisions."""
    w_sum = float(np.sum(w_cols))
    width = hi - lo
    step = max(1, _MC_CHUNK // width)
    for r in range(0, len(keys), step):
        correct = decide(rows[r : r + step], keys[r : r + step], lo, hi)
        score[r : r + step] += 2.0 * (correct @ w_cols) - w_sum
    return len(keys) * width


def _full_row_wins(
    decide: Callable[..., np.ndarray],
    w: np.ndarray,
    order: np.ndarray,
    rows: np.ndarray,
    keys: np.ndarray,
) -> int:
    """Wins among the replicas `rows` keyed `keys`, each redrawn whole
    by `decide`, its flags scattered back to voter order through `order`,
    and scored as fl(2 S - fl(sum w)), S numpy's pairwise sum of
    np.where(correct, w, 0.0) along the C-contiguous row, whose order is
    fixed by the row's length: so the score depends on the replica's
    draws alone.  The rows go in chunks of at most _MC_CHUNK voter
    decisions, or one row."""
    n = len(w)
    w_sum = float(np.sum(w))
    step = max(1, _MC_CHUNK // n)
    flags = np.empty(min(step, len(rows)) * n, dtype=bool)
    wins = 0
    for lo in range(0, len(rows), step):
        chunk = rows[lo : lo + step]
        correct = flags[: len(chunk) * n].reshape(len(chunk), n)
        correct[:, order] = decide(chunk, keys[lo : lo + step], 0, n)
        score = 2.0 * np.where(correct, w, 0.0).sum(axis=1) - w_sum
        wins += int(np.count_nonzero(score > 0.0))
    return wins


def _monte_carlo_weighted(
    ps: np.ndarray, w: np.ndarray, replicas: int, seed: int
) -> TallyEstimate:
    """Win frequency over `replicas` seeded replicas, drawn in stages.

    The replicas go in groups of _MC_CHUNK, so memory is bounded in
    `replicas`.  For each group, each stage's voters (heaviest first)
    are decided for the group's undecided replicas, in pieces of
    _MC_CHUNK / 8 voters (`_draw_piece`), and after each stage the
    decided replicas leave.  A replica still undecided is redrawn whole
    and scored on its full row (`_full_row_wins`), so its staged voters
    are decided twice and `draws`, which counts every voter decision,
    is at most 2n per replica.  At n = 65537 the closing pass holds 4
    bytes per voter of order and 2 of field thresholds, and beside them
    2 of one row's words, 1 of its flags in voter order and, while it
    fills the row, 2 of word steps, then 2 of flags in position order
    and their ties, then the flags and 8 of its float terms: at most 17,
    within the 25 a block of whole rows took (8 of thresholds, 8 of
    draws and 9 of their bools and float cast).
    """
    n = len(ps)
    # int32 halves the order, the one n-length array held throughout
    order = np.argsort(np.abs(w), kind="stable")[::-1].astype(np.int32)
    heavy = w[order]
    np.abs(heavy, out=heavy)
    total = float(np.sum(heavy))
    stages = _stage_ends(heavy)
    del heavy
    decide = functools.partial(_correct, ps, order, _field_thresholds(ps, order), seed)
    # past this margin no rounding flips a decision: see the module docstring
    margin = 16 * (n + 8) * _U * total
    piece = _MC_CHUNK // 8
    wins = draws = 0
    for start in range(0, replicas, _MC_CHUNK):
        rows = np.arange(start, min(start + _MC_CHUNK, replicas))
        keys = streams.row_keys(seed, (_REPLICA_TAG,), rows)
        score = np.zeros(len(rows))
        lo = 0
        for hi, undrawn in stages:
            if not len(rows):
                break
            for a in range(lo, hi, piece):
                b = min(a + piece, hi)
                draws += _draw_piece(decide, w[order[a:b]], rows, keys, a, b, score)
            lo = hi
            decided = np.abs(score) > undrawn + margin
            wins += int(np.count_nonzero(score[decided] > 0.0))
            keep = ~decided
            rows, keys, score = rows[keep], keys[keep], score[keep]
        wins += _full_row_wins(decide, w, order, rows, keys)
        draws += len(rows) * n
    return monte_carlo_estimate(wins, replicas, draws)


def _checked_weights(profile: Profile, weights: np.ndarray | list[float]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != profile.competences.shape:
        raise ValueError(f"{len(w)} weights for {profile.n} voters")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return w


def weighted_majority_prob(
    profile: Profile,
    weights: np.ndarray | list[float],
    mode: Literal["auto", "brute", "mc"] = "auto",
    replicas: int = 10_000,
    seed: int = 0,
) -> TallyEstimate:
    """P(sum w_i X_i > 0) with X_i in {-1,+1} and P(X_i = +1) = p_i.

    Ties count as failure; brute force also reports the tie mass.
    Weights may be zero (expert rules silence voters) or negative
    (log-odds weights reverse a worse-than-chance vote); at least one
    must be nonzero.  `mode` is one of MODES.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    ps = profile.competences
    w = _checked_weights(profile, weights)
    if not np.any(w != 0.0):
        raise ValueError("at least one weight must be nonzero")
    with np.errstate(over="ignore"):
        total = float(np.sum(np.abs(w)))
    if not math.isfinite(4.0 * total):
        # w / 2^k has the same rule (exactly: the division rounds nothing
        # unless a weight turns subnormal), and with 2^k > 4n no sum of
        # 4|w| / 2^k, each below 2^1024 / 2^k, overflows
        w = w * 2.0 ** -(len(w).bit_length() + 2)
    if mode == "brute" and profile.n > MAX_BRUTE_N:
        raise ValueError(f"brute force capped at n={MAX_BRUTE_N}, got {profile.n}")
    if mode == "auto":
        mode = "brute" if profile.n <= MAX_BRUTE_N else "mc"
    if mode == "brute":
        return _brute_force_weighted(ps, w)
    if replicas < 100:
        raise ValueError("at least 100 replicas required")
    return _monte_carlo_weighted(ps, w, int(replicas), seed)


def proposition41_bound(profile: Profile, weights: np.ndarray | list[float]) -> float:
    """Chebyshev bound 4*sum(w^2 p q) / (sum w (p - q))^2 on the loss
    probability of the weighted rule; requires positive drift."""
    ps = profile.competences
    w = _checked_weights(profile, weights)
    # the bound is the same for every scaling of w, and a power of two that
    # brings max |w| into [1/2, 1) is exact and keeps w * w and the sums finite
    w = np.ldexp(w, -math.frexp(float(np.max(np.abs(w))))[1])
    drift = float(np.sum(w * (2.0 * ps - 1.0)))
    if drift <= 0.0:
        raise ValueError("nonpositive drift: the bound is not applicable")
    var = float(np.sum(w * w * ps * (1.0 - ps)))
    return 4.0 * var / (drift * drift)
