import tracemalloc

import numpy as np
import pytest

from jurylab.measure import (
    MeasureSpec,
    affine,
    atom_mass,
    bias,
    cdf,
    dirac,
    from_json,
    interval_mass,
    lebesgue,
    moment,
    quantile,
    reflect,
    to_json,
)
from jurylab.measure import _BLOCK, _segments
from jurylab.profile import IidSource, generate
from jurylab.streams import stream_key

from conftest import random_measure

COIN = MeasureSpec(atoms=((0.0, 0.5), (1.0, 0.5)), label="coin")
# three pieces (one flat), a gap, and atoms at 0, inside the gap and at 1
MULTI = MeasureSpec(
    pieces=((0.0, 0.2, 0.5, 1.0), (0.2, 0.5, 0.8, -0.4), (0.6, 1.0, 0.65, 0.0)),
    atoms=((0.0, 0.1), (0.55, 0.2), (1.0, 0.122)),
    label="multi",
)


def old_invert_affine_cdf(a: float, b: float, c0: float, c1: float, t: np.ndarray) -> np.ndarray:
    """Reference: the allocating inversion, solving
    (c1/2)(x^2 - a^2) + c0(x - a) = t for x in [a, b] on fresh arrays."""
    if abs(c1) < 1e-14:
        return np.clip(a + t / c0, a, b)
    A = 0.5 * c1
    K = A * a * a + c0 * a + t
    disc = np.maximum(c0 * c0 + 4.0 * A * K, 0.0)
    root = np.sqrt(disc)
    denom = c0 + root
    safe = np.abs(denom) > 1e-300
    x = np.where(safe, 2.0 * K / np.where(safe, denom, 1.0), (-c0 + root) / (2.0 * A))
    return np.clip(x, a, b)


def old_invert_block(starts: np.ndarray, segs: list[tuple], us: np.ndarray, out: np.ndarray) -> None:
    """Reference: the blocked inversion with masked copies and about 70
    bytes of temporaries per value."""
    idx = np.clip(np.searchsorted(starts, us, side="right") - 1, 0, len(segs) - 1)
    for k, seg in enumerate(segs):
        mask = idx == k
        if not np.any(mask):
            continue
        if seg[0] == "atom":
            out[mask] = seg[1]
        else:
            _, a, b, c0, c1, _mass = seg
            out[mask] = old_invert_affine_cdf(a, b, c0, c1, us[mask] - starts[k])


def reference_quantile(spec: MeasureSpec, u: np.ndarray) -> np.ndarray:
    """The original unblocked inversion: every segment masks the whole input."""
    starts, segs = _segments(spec)
    us = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty_like(us)
    idx = np.clip(np.searchsorted(starts, us, side="right") - 1, 0, len(segs) - 1)
    for k, seg in enumerate(segs):
        mask = idx == k
        if not np.any(mask):
            continue
        if seg[0] == "atom":
            out[mask] = seg[1]
        else:
            _, a, b, c0, c1, _mass = seg
            t = us[mask] - starts[k]
            out[mask] = old_invert_affine_cdf(a, b, c0, c1, t)
    return out


class TestConstruction:
    def test_mass_must_be_one(self):
        with pytest.raises(ValueError, match="total mass"):
            MeasureSpec(pieces=((0.0, 0.5, 1.0, 0.0),))

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            MeasureSpec(pieces=((0.0, 1.0, -0.5, 3.0),))

    def test_overlapping_pieces_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            MeasureSpec(pieces=((0.0, 0.6, 1.0, 0.0), (0.5, 1.0, 0.8, 0.0)))

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            MeasureSpec(atoms=((0.5, 0.5), (0.5, 0.5)))

    def test_atom_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpec(atoms=((1.5, 1.0),))

    def test_affine_family_range(self):
        with pytest.raises(ValueError):
            affine(2.5)
        with pytest.raises(ValueError):
            affine(-2.01)
        affine(2.0)
        affine(-2.0)


class TestMoments:
    def test_lebesgue_first_moment(self):
        assert moment(lebesgue(), 1) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("i", range(1, 9))
    def test_lebesgue_monomials(self, i):
        assert moment(lebesgue(), i) == pytest.approx(1.0 / (i + 1), abs=1e-14)

    def test_tilted_dense_at_one(self):
        spec = affine(2.0)  # density 2x
        assert moment(spec, 1) == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert bias(spec) == pytest.approx(2.0 / 12.0, abs=1e-14)

    @pytest.mark.parametrize("i", [1, 2, 5, 9])
    def test_coin_moments_all_half(self, i):
        assert moment(COIN, i) == pytest.approx(0.5, abs=1e-15)

    def test_moments_non_increasing_random(self, rng):
        for _ in range(200):
            spec = random_measure(rng)
            moms = [moment(spec, i) for i in range(1, 13)]
            assert all(a >= b - 1e-14 for a, b in zip(moms, moms[1:]))

    def test_holder_chain_random(self, rng):
        for _ in range(200):
            spec = random_measure(rng)
            for k in range(1, 11):
                lhs = moment(spec, k + 1) ** (1.0 / (k + 1))
                rhs = moment(spec, k) ** (1.0 / k)
                assert lhs >= rhs - 1e-12


class TestIntervalMass:
    def test_lebesgue_length(self):
        assert interval_mass(lebesgue(), 0.9, 1.0) == pytest.approx(0.1, abs=1e-14)

    def test_atom_readout(self):
        assert interval_mass(COIN, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert atom_mass(COIN, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert atom_mass(lebesgue(), 1.0) == 0.0

    def test_tilted_upper_half(self):
        assert interval_mass(affine(2.0), 0.5, 1.0) == pytest.approx(0.75, abs=1e-14)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            interval_mass(lebesgue(), 0.7, 0.3)


class TestSampling:
    def test_dirac_constant(self):
        draws = quantile(dirac(0.5), np.random.default_rng(stream_key(0)).random(100))
        assert np.all(draws == 0.5)

    def test_lebesgue_mean(self):
        draws = quantile(lebesgue(), np.random.default_rng(stream_key(42)).random(100_000))
        assert abs(draws.mean() - 0.5) < 0.01  # ~3 sigma would be 0.003

    def test_tilted_mean(self):
        draws = quantile(affine(2.0), np.random.default_rng(stream_key(43)).random(100_000))
        assert abs(draws.mean() - 2.0 / 3.0) < 0.01

    @pytest.mark.parametrize("spec", [lebesgue(), affine(2.0), affine(-1.0)])
    def test_empirical_cdf_ks(self, spec):
        n = 100_000
        x = np.sort(quantile(spec, np.random.default_rng(stream_key(7)).random(n)))
        f = cdf(spec, x)
        i = np.arange(1, n + 1)
        ks = max(np.max(np.abs(i / n - f)), np.max(np.abs((i - 1) / n - f)))
        assert ks <= 0.01

    def test_quantile_inverts_cdf(self, rng):
        u = np.linspace(1e-4, 1 - 1e-4, 777)
        for _ in range(20):
            spec = random_measure(rng, allow_atoms=False)
            x = quantile(spec, u)
            assert np.max(np.abs(cdf(spec, x) - u)) < 1e-9

    @pytest.mark.parametrize("length", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("spec", [MULTI, COIN, lebesgue(), affine(-2.0), dirac(0.3)])
    def test_blocked_matches_reference_bitwise(self, spec, length):
        starts, _ = _segments(spec)
        edges = np.concatenate((starts, [0.0, 1.0 - 2.0**-53, 1.0]))
        u = np.random.default_rng(stream_key(length)).random(length)
        u[: min(length, len(edges))] = edges[:length]
        u = np.random.default_rng(stream_key(length + 1)).permutation(u)
        got = quantile(spec, u)
        assert got.shape == u.shape
        assert np.array_equal(got, reference_quantile(spec, u))

    def test_shape_and_scalar_kept(self):
        u = np.random.default_rng(stream_key(3)).random((3, _BLOCK + 5))
        got = quantile(MULTI, u)
        assert got.shape == u.shape
        assert np.array_equal(got, reference_quantile(MULTI, u.ravel()).reshape(u.shape))
        x = quantile(MULTI, 0.7)
        assert type(x) is float
        assert x == reference_quantile(MULTI, np.array([0.7]))[0]

    @pytest.mark.parametrize("bad", [np.nan, -0.1, np.inf, -np.inf, 1.0 + 1e-11])
    def test_out_of_range_or_nan_rejected(self, bad):
        with pytest.raises(ValueError):
            quantile(lebesgue(), bad)
        spec = MeasureSpec(pieces=((0.0, 0.5, 1.0, 0.0),), atoms=((0.9, 0.5),))
        with pytest.raises(ValueError):
            quantile(spec, [bad, 0.7])
        u = np.full(2 * _BLOCK, 0.25)
        u[-1] = bad
        with pytest.raises(ValueError):
            quantile(spec, u)

    # c0 = 0 (affine(2), at u = 0) and c0 < 0 (OFF_ZERO, at u = 1/2) reach
    # the branch where the cancellation-free denominator c0 + root vanishes
    OFF_ZERO = MeasureSpec(pieces=((0.25, 1.0, -0.5, 2.0),), atoms=((0.1, 0.4375),))

    @pytest.mark.parametrize("length", [1, 777, _BLOCK + 3])
    def test_in_place_matches_old_blocks_bitwise(self, rng, length):
        specs = [random_measure(rng) for _ in range(40)]
        specs += [affine(2.0), self.OFF_ZERO, MULTI, COIN, dirac(0.0)]
        for spec in specs:
            starts, segs = _segments(spec)
            u = rng.random(length)
            edges = np.concatenate((starts, np.nextafter(starts, 1.0), [0.5, 1.0 - 2.0**-53]))
            u[: min(length, len(edges))] = edges[:length]
            want = np.empty(length)
            for lo in range(0, length, _BLOCK):
                old_invert_block(starts, segs, u[lo : lo + _BLOCK], want[lo : lo + _BLOCK])
            assert quantile(spec, u).tobytes() == want.tobytes(), spec

    def test_profile_draw_holds_few_temporaries(self):
        # three profiles of 20001 voters: 0.46 MiB of output; the old
        # inversion's temporaries took the peak to 3.23 MiB
        generate(IidSource(affine(1.0)), 11, [0])
        tracemalloc.start()
        try:
            generate(IidSource(affine(1.0)), 20_001, [0, 1, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_atom_frequency(self):
        mix = MeasureSpec(
            pieces=((0.0, 0.4, 0.25, 0.0), (0.6, 1.0, 0.5, 1.25)),
            atoms=((0.5, 0.3),),
        )
        draws = quantile(mix, np.random.default_rng(stream_key(9)).random(200_000))
        assert abs(np.mean(draws == 0.5) - 0.3) < 0.01

    def test_deterministic_given_seed(self):
        a = quantile(lebesgue(), np.random.default_rng(stream_key(5)).random(100))
        b = quantile(lebesgue(), np.random.default_rng(stream_key(5)).random(100))
        assert np.array_equal(a, b)


class TestReflect:
    def test_reflect_moments(self):
        spec = affine(1.0)
        assert moment(reflect(spec), 1) == pytest.approx(1.0 - moment(spec, 1), abs=1e-14)

    def test_reflect_atoms(self):
        assert atom_mass(reflect(dirac(0.0)), 1.0) == 1.0


class TestSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            lebesgue(),
            affine(-1.25),
            COIN,
            MeasureSpec(
                pieces=((0.0, 0.4, 0.25, 0.0), (0.6, 1.0, 0.5, 1.25)),
                atoms=((0.5, 0.3),),
                label="mix",
            ),
        ],
    )
    def test_round_trip_bit_exact(self, spec):
        back = from_json(to_json(spec))
        assert back == spec  # tuple equality on float64 fields is bitwise

    def test_decimal_inputs_round_trip(self):
        spec = MeasureSpec(pieces=((0.0, 1.0, 0.999999999999, 0.000000000002),))
        assert from_json(to_json(spec)) == spec
