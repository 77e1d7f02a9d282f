import hashlib
import math

import numpy as np
import pytest

from jurylab import divergence
from jurylab.divergence import (
    DivergenceReport,
    absolutely_continuous,
    divergences,
    kakutani_criterion,
)
from jurylab.measure import MeasureSpec, affine, dirac, lebesgue
from jurylab.quadrature import integrate

from conftest import random_measure

FIELDS = ("tv", "kl", "hellinger_affinity", "hellinger_distance", "bhattacharyya")


def tilt(eps: float) -> MeasureSpec:
    """Density 1 + eps*(2x - 1), a TV-distance eps/2 tilt of uniform."""
    return MeasureSpec(pieces=((0.0, 1.0, 1.0 - eps, 2.0 * eps),))


# density 1 + 1e-12 (x - 1/2): a slope of 1e-12 against unit density
TINY_SLOPE = MeasureSpec(pieces=((0.0, 1.0, 1.0 - 5e-13, 1e-12),))


# the reference's own grid helpers, independent of the library's merged-piece walk
def _merged_grid(p: MeasureSpec, q: MeasureSpec) -> list[tuple[float, float]]:
    pts = sorted(
        {0.0, 1.0}
        | {v for lo, hi, _, _ in p.pieces for v in (lo, hi)}
        | {v for lo, hi, _, _ in q.pieces for v in (lo, hi)}
    )
    return [(a, b) for a, b in zip(pts, pts[1:]) if b > a]


def _coeffs_on(spec: MeasureSpec, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    for lo, hi, c0, c1 in spec.pieces:
        if lo <= mid <= hi:
            return c0, c1
    return 0.0, 0.0


def _root_inside(c0: float, c1: float, a: float, b: float) -> float | None:
    """The root of c0 + c1 x when it lies strictly inside (a, b)."""
    if c1 == 0.0:
        return None
    r = -c0 / c1
    return r if a < r < b else None


def _is_zero(c0: float, c1: float, a: float, b: float) -> bool:
    return abs(c0 + c1 * a) < 1e-300 and abs(c0 + c1 * b) < 1e-300


def reference_divergences(p: MeasureSpec, q: MeasureSpec) -> DivergenceReport:
    """Reference: the same grid and atom terms with every continuous
    sqrt(rho_p rho_q) and rho_p log(rho_p/rho_q) term integrated by
    adaptive Gauss-Legendre panels of order 20.  It runs away when q's
    density nearly vanishes at a piece end where p has mass, so only
    the random measures below are given to it."""
    if p.pieces == q.pieces and p.atoms == q.atoms:
        return DivergenceReport(0.0, 0.0, 1.0, 0.0, 0.0)
    tv = kl = aff = 0.0
    for a0, b0 in _merged_grid(p, q):
        pc0, pc1 = _coeffs_on(p, a0, b0)
        qc0, qc1 = _coeffs_on(q, a0, b0)
        if (pc0, pc1) == (qc0, qc1):
            aff += pc0 * (b0 - a0) + 0.5 * pc1 * (b0 * b0 - a0 * a0)
            continue
        cuts = {a0, b0}
        for c0, c1 in ((pc0, pc1), (qc0, qc1), (pc0 - qc0, pc1 - qc1)):
            r = _root_inside(c0, c1, a0, b0)
            if r is not None:
                cuts.add(r)
        grid = sorted(cuts)
        for a, b in zip(grid, grid[1:]):
            p_zero = _is_zero(pc0, pc1, a, b)
            q_zero = _is_zero(qc0, qc1, a, b)
            tv += abs((pc0 - qc0) * (b - a) + 0.5 * (pc1 - qc1) * (b * b - a * a))

            def root_pq(x):
                return np.sqrt(np.clip((pc0 + pc1 * x) * (qc0 + qc1 * x), 0.0, None))

            def p_log_pq(x):
                rp = pc0 + pc1 * x
                rq = np.maximum(qc0 + qc1 * x, 1e-300)
                return np.where(rp > 0.0, rp * np.log(np.maximum(rp, 1e-300) / rq), 0.0)

            if not (p_zero or q_zero):
                aff += integrate(root_pq, a, b)[0]
            if not p_zero:
                kl = math.inf if q_zero or math.isinf(kl) else kl + integrate(p_log_pq, a, b)[0]
    p_atoms, q_atoms = dict(p.atoms), dict(q.atoms)
    for x in sorted(set(p_atoms) | set(q_atoms)):
        mp, mq = p_atoms.get(x, 0.0), q_atoms.get(x, 0.0)
        tv += abs(mp - mq)
        aff += math.sqrt(mp * mq)
        if mp > 0.0:
            kl = math.inf if mq == 0.0 else kl + mp * math.log(mp / mq)
    aff = min(aff, 1.0)
    return DivergenceReport(
        tv=tv,
        kl=max(kl, 0.0) if not math.isinf(kl) else math.inf,
        hellinger_affinity=aff,
        hellinger_distance=math.sqrt(max(0.0, 2.0 * (1.0 - aff))),
        bhattacharyya=0.0 - math.log(aff) if aff > 0.0 else math.inf,
    )


def assert_matches_reference(p: MeasureSpec, q: MeasureSpec) -> None:
    rep, ref = divergences(p, q), reference_divergences(p, q)
    for f in FIELDS:
        a, b = getattr(rep, f), getattr(ref, f)
        if math.isinf(a) or math.isinf(b):
            assert a == b, (f, p, q)
        else:
            assert abs(a - b) <= 1e-12, (f, a, b, p, q)


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

    @pytest.mark.parametrize("order", [(2, 1, 0), (1, 2, 0)], ids=["reversed", "rotated"])
    def test_identity_exact_for_reordered_atoms(self, order):
        # summed atom by atom, this pair's affinity rounds to 1 - 2^-53
        atoms = ((0.25, 0.3), (0.5, 0.2), (0.75, 0.1))
        p = MeasureSpec(pieces=((0.0, 1.0, 0.4, 0.0),), atoms=atoms)
        q = MeasureSpec(pieces=p.pieces, atoms=tuple(atoms[k] for k in order))
        assert_exact_identity(divergences(p, q))
        assert_exact_identity(divergences(q, p))

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

    # 50-digit mpmath integrals of the specs' own float coefficients.  The
    # first pair took about 5 s under adaptive quadrature: q's density
    # vanishes at x = 1 where p has mass.  The near-root family puts q's
    # end density at 1e-5, 1e-12 and exactly 0 against p's unit mass.
    @pytest.mark.parametrize(
        "p, q, tv, aff, kl",
        [
            (affine(0.16), affine(-2.0), 0.54, 0.93502550092560171983, 0.34792017002503253985),
            (
                lebesgue(),
                affine(-2.0 + 2e-5),
                0.49999500000000002276, 0.9428113880960456801, 0.30679678850401856834,
            ),
            (
                lebesgue(),
                affine(-2.0 + 2e-12),
                0.49999999999950001106, 0.94280904158229898408, 0.30685281942639446991,
            ),
            (lebesgue(), affine(-2.0), 0.5, 0.94280904158206336587, 0.30685281944005469058),
            (lebesgue(), affine(1.0), 0.25, 0.98904261099607320763, 0.045228747557780772324),
            (
                lebesgue(),
                MeasureSpec(pieces=((0.0, 0.5, 1.5, 0.0), (0.5, 1.0, 0.5, 0.0))),
                0.5, 0.96592582628906828675, 0.14384103622589046372,
            ),
            (
                affine(1.0),
                MeasureSpec(pieces=((0.0, 0.5, 1.0, 2.0), (0.5, 1.0, 0.5, 0.0))),
                0.75, 0.92495096888331760713, 0.31693504176167125708,
            ),
            (
                affine(2.0),
                MeasureSpec(pieces=((0.0, 0.5, 0.0, 4.0), (0.5, 1.0, 1.0, 0.0))),
                0.5, 0.96302909884200379473, 0.14486038541995898206,
            ),
            (
                TINY_SLOPE,
                affine(1.5),
                0.37499999999975, 0.97334773208070698602, 0.11606585388854756564,
            ),
            (
                affine(1.5),
                TINY_SLOPE,
                0.37499999999975, 0.97334773208070698602, 0.10015558270728342458,
            ),
        ],
        ids=[
            "runaway-pair",
            "near-root-1e-5",
            "near-root-1e-12",
            "near-root-0",
            "one-slope-zero",
            "both-slopes-zero",
            "proportional",
            "proportional-common-root",
            "slope-1e-12-in-p",
            "slope-1e-12-in-q",
        ],
    )
    def test_closed_form_values(self, p, q, tv, aff, kl):
        rep = divergences(p, q)
        assert abs(rep.tv - tv) <= 1e-14
        assert abs(rep.hellinger_affinity - aff) <= 1e-14
        assert abs(rep.kl - kl) <= 1e-14
        assert rep.bhattacharyya == 0.0 - math.log(rep.hellinger_affinity)

    def test_tv_counts_a_dip_where_the_other_density_is_zero(self):
        # p's middle piece runs from -5e-13 to 5e-13 where q has no density:
        # its TV term is the two triangles' mass, not their signed sum of 0
        c = 1.0 / 0.9
        q = MeasureSpec(pieces=((0.0, 0.5, c, 0.0), (0.6, 1.0, c, 0.0)))
        p = MeasureSpec(pieces=((0.0, 0.5, c, 0.0), (0.5, 0.6, -5.5e-12, 1e-11), (0.6, 1.0, c, 0.0)))
        for a, b in ((p, q), (q, p)):
            assert abs(divergences(a, b).tv - 2.5e-14) <= 1e-26
        assert math.isinf(divergences(p, q).kl) and not absolutely_continuous(p, q)
        assert divergences(q, p).kl == 0.0 and absolutely_continuous(q, p)

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

    def test_matches_quadrature_reference(self, rng):
        # criterion 8's pairs, then the fixture's
        crit8 = np.random.default_rng(88)
        for _ in range(1000):
            assert_matches_reference(random_measure(crit8), random_measure(crit8))
        for _ in range(300):
            assert_matches_reference(random_measure(rng), random_measure(rng))


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

    def test_base_density_below_the_zero_test(self):
        # a base piece of density 1e-301, below _ZERO_DENSITY but not the
        # zero piece: the walk's zero test must treat it as base-null
        base = MeasureSpec(pieces=((0.0, 0.5, 1e-301, 0.0), (0.5, 1.0, 2.0, 0.0)))
        assert not absolutely_continuous(lebesgue(), base)
        v = kakutani_criterion(base, (lebesgue() for _ in range(10)), "tv", horizon=10)
        assert v.diagnosis == "diverging" and len(v.partial_sums) == 0

    def test_monotone_traces(self):
        perturbations = (tilt(0.9 / n) for n in range(1, 100))
        v = kakutani_criterion(lebesgue(), perturbations, "bhattacharyya", horizon=32)
        assert np.all(np.diff(v.partial_sums) >= -1e-15)
        assert np.all(np.diff(v.partial_products) <= 1e-15)

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            kakutani_criterion(lebesgue(), (lebesgue() for _ in range(10)), "tv", horizon=3)

    @pytest.mark.parametrize("length", [0, 1, 2, 3])
    def test_short_family_rejected(self, length):
        # fewer than 4 dominated terms leave no half-way partial sum: at
        # length 1 the tail test compared sums[-1] with itself
        with pytest.raises(ValueError, match="at least 4"):
            kakutani_criterion(lebesgue(), [affine(1.0)] * length, "tv", horizon=64)
        # a perturbation that fails absolute continuity is still a verdict
        mix = MeasureSpec(pieces=((0.0, 1.0, 0.9, 0.0),), atoms=((0.5, 0.1),))
        v = kakutani_criterion(lebesgue(), [affine(1.0)] * length + [mix], "tv", horizon=64)
        assert v.diagnosis == "diverging" and len(v.partial_sums) == length

    def test_four_terms_give_a_verdict(self):
        v = kakutani_criterion(lebesgue(), [affine(1.0)] * 4, "tv", horizon=64)
        assert v.diagnosis == "diverging"
        assert v.partial_sums == pytest.approx(0.25 * np.arange(1, 5), abs=1e-12)

    def test_unknown_choice_rejected_before_any_walk(self):
        # the first term fails absolute continuity, so no report is read
        mix = MeasureSpec(pieces=((0.0, 1.0, 0.9, 0.0),), atoms=((0.5, 0.1),))
        with pytest.raises(ValueError, match="unknown divergence choice"):
            kakutani_criterion(lebesgue(), [mix] * 5, "hellinger")
        with pytest.raises(ValueError, match="unknown divergence choice"):
            kakutani_criterion(lebesgue(), [], "hellinger")


def reference_kakutani(base: MeasureSpec, family: list, choice: str, horizon: int = 64):
    """Every term walked on its own, with the sums, products and tail
    rule formed here: (partial sums, partial products, diagnosis)."""
    terms, sums, prods = [], [], []
    s, running = 0.0, 1.0
    for spec in family[:horizon]:
        if not absolutely_continuous(spec, base):
            return sums, prods, "diverging"
        rep = divergences(spec, base)
        terms.append(getattr(rep, choice))
        s += terms[-1]
        running *= rep.hellinger_affinity
        sums.append(s)
        prods.append(running)
    half = len(terms) // 2 - 1
    if s == 0.0 or abs(s - sums[half]) < 1e-3 * s:
        return sums, prods, "summable"
    if s > 1e6 or (terms[-1] > 0.0 and terms[-1] >= (1.0 - 1e-3) * terms[half]):
        return sums, prods, "diverging"
    return sums, prods, "inconclusive"


# equal pieces, different atoms: a term may only reuse the walk of an
# equal measure, not of one with the same density
ATOM_BASE = MeasureSpec(pieces=((0.0, 1.0, 0.8, 0.0),), atoms=((0.3, 0.1), (0.6, 0.1)))
ATOM_A = MeasureSpec(pieces=ATOM_BASE.pieces, atoms=((0.3, 0.2),))
ATOM_B = MeasureSpec(pieces=ATOM_BASE.pieces, atoms=((0.3, 0.15), (0.6, 0.05)))
ATOM_B_REORDERED = MeasureSpec(pieces=ATOM_B.pieces, atoms=ATOM_B.atoms[::-1])
# the same density as NEAR_BASE, with an atom the base lacks
NEAR_BASE = MeasureSpec(pieces=((0.0, 1.0, 0.9, 0.0),), atoms=((0.25, 0.1),))
OFF_ATOM = MeasureSpec(pieces=NEAR_BASE.pieces, atoms=((0.5, 0.1),))


class TestKakutaniReuse:
    """A term equal to the one before reuses its walk; every trace must
    still match a loop that walks each term on its own, bit for bit."""

    @pytest.mark.parametrize(
        "base, family",
        [
            (lebesgue(), [tilt(0.3), tilt(0.6)] * 20),
            (ATOM_BASE, [ATOM_A, ATOM_B] * 20),
            (ATOM_BASE, [ATOM_B, ATOM_B_REORDERED, ATOM_A] * 10),
            (
                lebesgue(),
                [MeasureSpec(pieces=tilt(0.4).pieces, label=f"copy {k}") for k in range(40)],
            ),
            (lebesgue(), [tilt(0.5)] * 6 + [tilt(0.25)] * 6 + [dirac(0.5)]),
            (NEAR_BASE, [MeasureSpec(pieces=NEAR_BASE.pieces, atoms=NEAR_BASE.atoms)] * 8 + [OFF_ATOM]),
        ],
        ids=[
            "alternating",
            "alternating-atoms",
            "reordered-atoms",
            "labelled-copies",
            "repeats-then-singular",
            "repeats-then-new-atom",
        ],
    )
    @pytest.mark.parametrize("choice", ["tv", "kl", "bhattacharyya"])
    def test_matches_term_by_term_loop(self, base, family, choice):
        v = kakutani_criterion(base, iter(family), choice, horizon=64)
        sums, prods, diagnosis = reference_kakutani(base, family, choice)
        assert [x.hex() for x in v.partial_sums.tolist()] == [x.hex() for x in sums]
        assert [x.hex() for x in v.partial_products.tolist()] == [x.hex() for x in prods]
        assert v.diagnosis == diagnosis

    def test_constant_family_walks_once(self, monkeypatch):
        walks, walk = [], divergence._divergences

        def counting(p, q):
            walks.append(p)
            return walk(p, q)

        monkeypatch.setattr(divergence, "_divergences", counting)
        v = kakutani_criterion(lebesgue(), [tilt(0.5)] * 64, "tv", horizon=64)
        assert v.diagnosis == "diverging" and len(v.partial_sums) == 64
        assert len(walks) == 1


def adjacent_measure(rng: np.random.Generator) -> MeasureSpec:
    """Two affine pieces that meet at a random point and cover [0, 1]."""
    x = float(rng.uniform(0.2, 0.8))
    pieces = [(0.0, x), (x, 1.0)]
    coeffs = [(float(rng.uniform(0.1, 2.0)), float(rng.uniform(-0.1, 1.0))) for _ in pieces]
    raw = [(lo, hi, c0, c1) for (lo, hi), (c0, c1) in zip(pieces, coeffs)]
    mass = sum(c0 * (hi - lo) + 0.5 * c1 * (hi * hi - lo * lo) for lo, hi, c0, c1 in raw)
    return MeasureSpec(pieces=tuple((lo, hi, c0 / mass, c1 / mass) for lo, hi, c0, c1 in raw))


def dipping_measure(rng: np.random.Generator) -> MeasureSpec:
    """A density 2x or 2(1 - x) tilted to dip below 0 by at most 1e-12
    at one end, so that its root falls just inside [0, 1]."""
    d = float(rng.uniform(1e-14, 9e-13))
    if rng.integers(0, 2):
        return MeasureSpec(pieces=((0.0, 1.0, 2.0 + d, -2.0 - 2.0 * d),))
    return MeasureSpec(pieces=((0.0, 1.0, -d, 2.0 + 2.0 * d),))


def steep_dip_measure(lo: float, slope: float, dip: float) -> MeasureSpec:
    """Density slope (x - lo) - dip on [lo, 1], constant on [0, lo]: its
    root falls just inside [lo, 1], where rounding leaves the density
    at the computed root a few ulps of slope * lo away from 0."""
    c0 = -slope * lo - dip
    mass = c0 * (1.0 - lo) + 0.5 * slope * (1.0 - lo * lo)
    return MeasureSpec(pieces=((0.0, lo, (1.0 - mass) / lo, 0.0), (lo, 1.0, c0, slope)))


def pinned_pairs() -> list[tuple[MeasureSpec, MeasureSpec]]:
    """2,000 random pairs of every kind, 200 with pieces that meet, 300
    with a density that dips below 0 inside a piece, and 200 identity
    pairs, half of them equal copies."""
    rng = np.random.default_rng(18)
    specs = [random_measure(rng) for _ in range(4000)]
    pairs = list(zip(specs[::2], specs[1::2]))
    for _ in range(100):
        pairs.append((adjacent_measure(rng), random_measure(rng)))
        pairs.append((random_measure(rng), adjacent_measure(rng)))
        pairs.append((dipping_measure(rng), random_measure(rng)))
        pairs.append((random_measure(rng), dipping_measure(rng)))
        pairs.append((dipping_measure(rng), dipping_measure(rng)))
    pairs += [(s, s) for s in specs[:100]]
    pairs += [(s, MeasureSpec(pieces=s.pieces, atoms=s.atoms)) for s in specs[100:200]]
    return pairs


def digest(values) -> str:
    return hashlib.sha256("\n".join(float(v).hex() for v in values).encode()).hexdigest()[:16]


class TestPinnedBitForBit:
    """Digests recorded with the grid-and-scan divergences that preceded
    the merged-piece walk: any moved bit of any output changes them."""

    def test_pairs_cover_every_kind(self):
        specs = [s for pair in pinned_pairs() for s in pair]
        assert {len(s.pieces) for s in specs} == {1, 2}
        assert any(s.atoms for s in specs)
        assert any(s.pieces[0][1] == s.pieces[1][0] for s in specs if len(s.pieces) == 2)

    def test_divergence_reports(self):
        reports = [divergences(p, q) for p, q in pinned_pairs()]
        assert digest(getattr(r, f) for r in reports for f in FIELDS) == "650ca37ea8645b73"

    def test_roots_just_inside_a_piece(self):
        # each density is exactly 0 at its own cut root, whatever the
        # rounding of c0 + c1 * root; recorded with the merged-piece walk
        # that preceded the flat one
        specs = [
            steep_dip_measure(lo, slope, dip)
            for lo in (0.25, 0.5, 0.75)
            for slope in (1.5, 2.0, 3.0)
            for dip in (1e-13, 3e-13, 5e-13)
        ]
        pairs = [(s, q) for s in specs for q in (lebesgue(), affine(1.0), specs[0], specs[13])]
        reports = [divergences(p, q) for a, b in pairs for p, q in ((a, b), (b, a))]
        assert digest(getattr(r, f) for r in reports for f in FIELDS) == "a00819410e858552"

    def test_absolute_continuity_verdicts(self):
        verdicts = "".join("1" if absolutely_continuous(p, q) else "0" for p, q in pinned_pairs())
        assert hashlib.sha256(verdicts.encode()).hexdigest()[:16] == "aee47d988ffad3a3"

    @pytest.mark.parametrize(
        "kind, eps, choice, pinned",
        [
            ("geometric", 0.5, "tv", "bfeeea2e96d53dfc"),
            ("geometric", 0.7, "kl", "f880203814fe1d86"),
            ("constant", 0.3, "bhattacharyya", "7c8a3d5522785cec"),
            ("constant", -0.8, "tv", "d9070b1d33076b61"),
        ],
    )
    def test_kakutani_traces(self, kind, eps, choice, pinned):
        if kind == "geometric":
            perturbations = (tilt(eps**n) for n in range(1, 100))
        else:
            perturbations = (tilt(eps) for _ in range(100))
        v = kakutani_criterion(lebesgue(), perturbations, choice, horizon=64)
        assert digest([*v.partial_sums, *v.partial_products]) == pinned
