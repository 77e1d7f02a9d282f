"""Deterministic counter-based random substreams.

Every stochastic kernel in the package derives its randomness from a
64-bit seed through keyed SplitMix64 streams.  A (seed, *path) pair maps
to one stream; distinct paths give statistically independent streams, so
profiles, Monte Carlo replicas and parallel workers can each own a
substream without any shared mutable state.  Results therefore never
depend on scheduling or worker count.

Word i of the stream with key k is the 64-bit integer
mix(k + i * gamma); its draw is the 53-bit integer word >> 11, and its
uniform is the draw times 2^-53.  SplitMix64's mix starts by adding
gamma, so a fill adds gamma to its row keys once, not to every entry.
Every word comes from one in-place fill, `_fill`, which mixes _BLOCK
entries at a time, so the working set of a mixing pass stays in cache
however large the request; `uniforms` converts each block into its float
output from one reused integer block.  `uniforms` also fills many
streams at once, one row per seed, so the profiles of one size cost one
pass, not one call each.  `fill_words` fills contiguous words of many
keyed rows and `words_at` any (key, index) pairs, so a kernel can read
the raw words it needs; since a word is a function of its index alone,
reading it again later gives the same word.  The weighted Monte Carlo
tally (layout 2, see `tally`) splits each word into four 16-bit voter
fields and reads a 37-bit refinement, word >> 27 of a second stream,
only where a field ties its threshold.  Where the words are uniform
and independent, as the streams are built to give, so are any disjoint
bit fields of them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_BLOCK = 1 << 16


def _mix_int(z: int) -> int:
    """SplitMix64 finalizer of z + gamma on a Python int, masked mod 2^64."""
    z = (z + _GAMMA) & _U64_MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _U64_MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _U64_MASK
    return z ^ (z >> 31)


def _finalize_inplace(z: np.ndarray, t: np.ndarray) -> None:
    """SplitMix64 finalizer of z, in place, after mix's first step
    z + gamma; t is scratch of z's shape.

    uint64 array arithmetic wraps mod 2^64, so no masks are needed.
    """
    np.right_shift(z, 30, out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, 27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, 31, out=t)
    z ^= t


def fill_words(out: np.ndarray, keys: np.ndarray, start: int = 0) -> np.ndarray:
    """out[r, j] = mix(keys[r] + (start + j) * gamma), in place: words
    start..start + width - 1 of the stream keyed keys[r], as raw 64-bit
    words.  `out` is a C-contiguous uint64 array of shape (len(keys), width).
    """
    steps = np.arange(start, start + out.shape[1], dtype=np.uint64)
    steps *= _GAMMA
    return _fill(out, keys[:, None], steps)


def words_at(keys: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """mix(keys[i] + cols[i] * gamma) for each i: word cols[i] of the
    stream keyed keys[i], one word per (key, index) pair."""
    steps = np.asarray(cols, dtype=np.uint64) * np.uint64(_GAMMA)
    return _fill(np.empty(len(steps), dtype=np.uint64), keys, steps)


def _fill(out: np.ndarray, keys: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """out = mix(keys + steps), in place, with `keys` and the 1-D `steps`
    (indices times gamma) broadcast to out's shape.

    mix's first step, + gamma, is added to the keys, not to every entry.
    Once added, `steps` is spent and serves as the mixing scratch when it
    is long enough, so a one-row fill takes no second block.
    """
    np.add(keys + np.uint64(_GAMMA), steps, out=out)
    flat = out.reshape(-1)
    size = min(flat.size, _BLOCK)
    scratch = steps[:size] if steps.size >= size else np.empty(size, dtype=np.uint64)
    for lo in range(0, flat.size, _BLOCK):
        z = flat[lo : lo + _BLOCK]
        _finalize_inplace(z, scratch[: z.size])
    return out


def stream_key(seed: int, *path: int) -> int:
    """Collapse (seed, *path) into one 64-bit stream key."""
    key = _mix_int(int(seed) & _U64_MASK)
    for part in path:
        key = _mix_int(key ^ (int(part) & _U64_MASK))
    return key


def uniforms(
    seed: int | Sequence[int], path: tuple[int, ...], count: int, start: int = 0
) -> np.ndarray:
    """`count` uniforms in [0,1) at absolute indices start..start+count-1.

    Counter-based: index i always yields the same value for a given
    (seed, path), independent of how draws are batched.  A sequence of
    k seeds gives a (k, count) array whose row r is what seed r alone
    gives; one seed is the one-row case, returned as a 1-D array.  The
    rows are filled together, in column blocks of at most _BLOCK draws
    in all, so no uint64 buffer of the whole request is held.
    """
    one = np.ndim(seed) == 0
    keys = np.array([stream_key(s, *path) for s in ([seed] if one else seed)], dtype=np.uint64)
    rows = len(keys)
    out = np.empty((rows, count))
    width = max(1, min(count, _BLOCK // max(rows, 1)))
    bits = np.empty(rows * width, dtype=np.uint64)
    for lo in range(0, count, width):
        cols = min(width, count - lo)
        block = fill_words(bits[: rows * cols].reshape(rows, cols), keys, start + lo)
        block >>= 11
        np.multiply(block, 2.0**-53, out=out[:, lo : lo + cols])
    return out[0] if one else out


def row_keys(seed: int, path: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """The uint64 keys of the substreams (path..., r) for each r in `rows`."""
    keys = np.asarray(rows, dtype=np.uint64) * np.uint64(_GAMMA)
    # mix(k + r * gamma) with mix's own + gamma added to the scalar key
    keys += np.uint64((stream_key(seed, *path) + _GAMMA) & _U64_MASK)
    _finalize_inplace(keys, np.empty_like(keys))
    return keys


def uniforms_block(
    seed: int,
    path: tuple[int, ...],
    rows: np.ndarray,
    cols: int,
    col_start: int = 0,
) -> np.ndarray:
    """(len(rows), cols) uniforms in [0,1); row r is the substream (path..., r).

    Used for replica-indexed Monte Carlo: each row is an independent
    per-replica stream, and extending `cols` extends every row in place.
    The uniforms are `fill_words` on the keys of `row_keys`, shifted right
    by 11 and times 2^-53.
    """
    words = np.empty((len(rows), cols), dtype=np.uint64)
    fill_words(words, row_keys(seed, path, rows), col_start)
    words >>= 11
    return words * 2.0**-53
