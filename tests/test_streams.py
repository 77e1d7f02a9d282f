import tracemalloc

import numpy as np
import pytest

from jurylab.streams import (
    _BLOCK,
    fill_words,
    row_keys,
    stream_key,
    uniforms,
    uniforms_block,
    words_at,
)

# Values recorded from the original allocating implementation; any change
# here re-seeds every stochastic output in the package.
KEYS = [
    ((0,), 16294208416658607535),
    ((7, 0x4D43), 16406119246767501286),
    ((2**64 - 1, 3, 2**63), 2267740729029749533),
]
UNIFORMS = [
    (0, (1,), 0, [0.2691303195904541, 0.653200308834717, 0.5781814693974294, 0.5073326484299246]),
    (7, (2, 3), 2**62 - 2,
     [0.045287123722278944, 0.9713307508570996, 0.08616972324396188, 0.0548785565683908]),
    (2**40 + 1, (), 12345,
     [0.8285744593648119, 0.46955737102716877, 0.6716319348279326, 0.20297213830744776]),
]
BLOCK = [
    [0.8752148875612342, 0.8466003259853164, 0.8265670149834773],
    [0.8001781448886728, 0.7606511488513632, 0.37981468018727504],
    [0.027015137758206742, 0.8036665019319208, 0.6695067873302539],
]


class TestPinnedValues:
    @pytest.mark.parametrize("args,key", KEYS)
    def test_stream_key(self, args, key):
        assert stream_key(*args) == key

    @pytest.mark.parametrize("seed,path,start,values", UNIFORMS)
    def test_uniforms(self, seed, path, start, values):
        assert uniforms(seed, path, 4, start).tolist() == values

    def test_uniforms_block(self):
        rows = np.array([0, 9, 2**33])
        assert uniforms_block(5, (0x57A1,), rows, 3, col_start=2**62 - 1).tolist() == BLOCK


def one_shot_uniforms(seed, path, count, start):
    """Reference: the unblocked body, which held every uint64 draw and the
    float64 result at once."""
    keys = np.array([stream_key(seed, *path)], dtype=np.uint64)
    words = fill_words(np.empty((1, count), dtype=np.uint64), keys, start)
    return (words[0] >> np.uint64(11)) * 2.0**-53


class TestBatching:
    @pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_uniforms_match_one_shot_body(self, count):
        got = uniforms(13, (5, 8), count, start=2**63 - 40)
        want = one_shot_uniforms(13, (5, 8), count, 2**63 - 40)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_uniforms_independent_of_split(self):
        # 70001 draws span more than one in-place mixing block
        whole = uniforms(3, (4,), 70_001, start=2**62 - 100)
        parts = [uniforms(3, (4,), b - a, start=2**62 - 100 + a)
                 for a, b in ((0, 1), (1, 65_537), (65_537, 70_001))]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_block_rows_and_columns_independent_of_split(self):
        rows = np.arange(5, 15)
        whole = uniforms_block(11, (2,), rows, 9_001, col_start=17)
        subset = uniforms_block(11, (2,), rows[[7, 2]], 9_001, col_start=17)
        assert np.array_equal(subset, whole[[7, 2]])
        left = uniforms_block(11, (2,), rows, 4_000, col_start=17)
        right = uniforms_block(11, (2,), rows, 5_001, col_start=4_017)
        assert np.array_equal(np.hstack([left, right]), whole)

    def test_any_columns_match_the_block(self):
        # unordered, repeated and far (key, column) pairs are the block's own words
        rows = np.arange(3, 9)
        whole = uniforms_block(11, (2,), rows, 600, col_start=2**62)
        picks = [599, 0, 17, 17, 301]
        pairs = [(r, c) for r in (5, 0, 5, 2) for c in picks]
        keys = row_keys(11, (2,), rows)[[r for r, _ in pairs]]
        cols = np.array([c for _, c in pairs], dtype=np.uint64) + np.uint64(2**62)
        got = (words_at(keys, cols) >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(got, [whole[r, c] for r, c in pairs])

    def test_words_are_the_draws_before_the_shift(self):
        # uniforms_block is fill_words >> 11 times 2^-53 on the same rows
        # and columns, and a fill split by columns or by rows gives the
        # same words
        rows = np.arange(40, 47)
        keys = row_keys(13, (9,), rows)
        whole = fill_words(np.empty((7, 70_001), dtype=np.uint64), keys, 2**61)
        u = uniforms_block(13, (9,), rows, 70_001, 2**61)
        assert np.array_equal((whole >> np.uint64(11)) * 2.0**-53, u)
        left = fill_words(np.empty((7, 65_537), dtype=np.uint64), keys, 2**61)
        right = fill_words(np.empty((7, 4_464), dtype=np.uint64), keys, 2**61 + 65_537)
        assert np.array_equal(np.hstack([left, right]), whole)
        top = fill_words(np.empty((2, 70_001), dtype=np.uint64), keys[[5, 0]], 2**61)
        assert np.array_equal(top, whole[[5, 0]])
        assert int(whole.max()) >= 2**63  # the top bits are there, not shifted out


def test_uniforms_are_scaled_bits():
    rows = np.array([0, 1, 2**20])
    u = uniforms_block(21, (6, 7), rows, 1_000, col_start=2**61)
    bits = u * 2.0**53
    assert u.dtype == np.float64 and bits.max() < 2**53
    # every uniform is a whole multiple of 2^-53: 53 bits, scaled exactly
    assert np.array_equal(bits, np.floor(bits))
    words = fill_words(np.empty((3, 1_000), dtype=np.uint64), row_keys(21, (6, 7), rows), 2**61)
    assert np.array_equal(bits, (words >> np.uint64(11)).astype(np.float64))


class TestManySeeds:
    @pytest.mark.parametrize("count", [1, _BLOCK // 3, _BLOCK // 3 + 1, _BLOCK + 3])
    def test_rows_match_single_seeds(self, count):
        seeds = [3, 2**64 - 1, 0]
        got = uniforms(seeds, (5, 8), count, start=2**62)
        assert got.shape == (3, count)
        for row, seed in zip(got, seeds):
            assert row.tobytes() == uniforms(seed, (5, 8), count, start=2**62).tobytes()

    def test_no_seeds(self):
        assert uniforms([], (1,), 7).shape == (0, 7)


def test_long_draw_holds_no_whole_length_bits():
    # the profile length of the diagnostics' condition reports: besides the
    # float output, one block of draws and one of counters or mixing scratch
    n = 2_000_001
    tracemalloc.start()
    try:
        u = uniforms(17, (0x1D1D,), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.shape == (n,)
    assert peak <= 8 * n + 2 * 8 * _BLOCK + 4096
