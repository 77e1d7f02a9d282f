import hashlib
import json
import math
from statistics import NormalDist

import numpy as np
import pytest

from jurylab import experiment
from jurylab.experiment import (
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    classify_trend,
    config_from_dict,
    config_hash,
    config_to_dict,
    report_to_csv,
    report_to_json,
    report_to_svg,
    run,
    scheme_from_dict,
    scheme_to_dict,
)
from jurylab.measure import MeasureSpec, affine, lebesgue
from jurylab.tally import MAX_BRUTE_N, MODES, majority_prob_exact, weighted_majority_prob
from jurylab.weights import (
    BoundedPoly,
    ExpertRule,
    LogOdds,
    StochasticPoly,
    UnitWeights,
    drift,
    find_k,
)
from test_tally import reference_mc_value


def small_config(**overrides):
    base = dict(
        measure=lebesgue(),
        scheme=UnitWeights(),
        n_grid=(101, 301, 1001),
        profiles_per_n=30,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            small_config(n_grid=(100, 301))

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            small_config(n_grid=(301, 101))

    def test_profile_floor(self):
        with pytest.raises(ValueError):
            small_config(profiles_per_n=5)

    @pytest.mark.parametrize("scheme", [
        UnitWeights(),
        ExpertRule(threshold=0.8),
        LogOdds(clamp=1e-3),
        BoundedPoly(W=10.0, k=2),
        StochasticPoly(W=50.0, k=2, sigma_w=1.5),
    ], ids=lambda s: s.kind)
    def test_round_trip(self, scheme):
        cfg = small_config(scheme=scheme)
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg
        assert type(back.scheme) is type(scheme)

    def test_unknown_tally_mode_rejected(self):
        with pytest.raises(ValueError, match="tally_mode"):
            small_config(tally_mode="exact_typo")

    def test_replica_floor(self):
        with pytest.raises(ValueError, match="replicas"):
            small_config(replicas=5)

    @pytest.mark.parametrize("mode", MODES + ("exact", "Auto", "monte_carlo", ""))
    def test_accepts_exactly_the_tally_modes(self, mode):
        if mode in MODES:
            assert small_config(tally_mode=mode, n_grid=(11, 31)).tally_mode == mode
        else:
            with pytest.raises(ValueError, match="tally_mode"):
                small_config(tally_mode=mode, n_grid=(11, 31))

    def test_brute_above_the_enumeration_cap_rejected(self):
        # brute means exact enumeration, as in tally: refused, not rerouted
        small_config(tally_mode="brute", n_grid=(11, MAX_BRUTE_N))
        with pytest.raises(ValueError, match="brute"):
            small_config(tally_mode="brute", n_grid=(11, 101))


# config_hash of JSON docs with integer-valued scheme fields, recorded
# before schemes coerced their own numeric fields
HASH_PINS = (
    ({"kind": "bounded_poly", "W": 10, "k": 2}, "cfcf8ab4059f0459"),
    ({"kind": "stochastic", "W": 100, "k": 2, "sigma_w": 2}, "c1ccc935c78e4f21"),
    ({"kind": "expert", "threshold": 1}, "ad5ddd45d313f6f9"),
    ({"kind": "log_odds"}, "ce10194b65b421ed"),
)


class TestSchemeSerialization:
    @pytest.mark.parametrize(
        "scheme_doc,expected", HASH_PINS, ids=[d["kind"] for d, _ in HASH_PINS]
    )
    def test_config_hash_pinned(self, scheme_doc, expected):
        doc = {
            "measure": {"pieces": [[0.0, 1.0, 1.0, 0.0]], "atoms": []},
            "scheme": scheme_doc,
            "n_grid": [5, 9, 13],
            "profiles_per_n": 10,
        }
        assert config_hash(config_from_dict(doc)) == expected

    def test_scheme_to_dict_floats(self):
        assert scheme_to_dict(scheme_from_dict({"kind": "bounded_poly", "W": 10, "k": 2})) == {
            "kind": "bounded_poly", "W": 10.0, "k": 2,
        }
        assert scheme_to_dict(scheme_from_dict({"kind": "log_odds"})) == {
            "kind": "log_odds", "clamp": 1e-6,
        }
        doc = scheme_to_dict(StochasticPoly(W=100, k=2.0, sigma_w=2))
        assert doc == {"kind": "stochastic", "W": 100.0, "k": 2, "sigma_w": 2.0}
        assert [type(doc[f]) for f in ("W", "k", "sigma_w")] == [float, int, float]

    def test_equal_schemes_hash_equally(self):
        a = small_config(scheme=BoundedPoly(W=10, k=2))
        b = small_config(scheme=BoundedPoly(W=10.0, k=2))
        assert a == b
        assert config_hash(a) == config_hash(b)

    def test_unknown_kind_or_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme kind"):
            scheme_from_dict({"kind": "bounded"})
        with pytest.raises(TypeError):
            scheme_from_dict({"kind": "unit", "W": 2.0})


class TestRun:
    def test_null_measure_stays_null(self):
        report = run(small_config(profiles_per_n=50))
        assert classify_trend(report) == "null_like"
        assert report.rows[-1].frac_high <= 0.02
        assert 0.3 <= report.rows[-1].median_win <= 0.7

    def test_positive_bias_is_cjp_like(self):
        report = run(small_config(measure=affine(1.0), n_grid=(101, 1001, 3001)))
        assert classify_trend(report) == "cjp_like"
        assert report.rows[-1].frac_high == 1.0

    def test_negative_bias_is_anti_cjp_like(self):
        report = run(small_config(measure=affine(-1.0), n_grid=(101, 1001, 3001)))
        assert classify_trend(report) == "anti_cjp_like"
        assert report.rows[-1].frac_low == 1.0

    def test_reflection_swaps_fraction_columns(self):
        pos = run(small_config(measure=affine(1.0), n_grid=(101, 1001, 3001)))
        neg = run(small_config(measure=affine(-1.0), n_grid=(101, 1001, 3001)))
        for a, b in zip(pos.rows, neg.rows):
            assert a.frac_high == pytest.approx(b.frac_low, abs=0.15)
            assert a.frac_low == pytest.approx(b.frac_high, abs=0.15)
        # at the largest n the win probabilities are saturated, so the
        # swap is exact despite independent sampling
        assert pos.rows[-1].frac_high == neg.rows[-1].frac_low

    def test_deterministic(self):
        cfg = small_config(n_grid=(101, 301), profiles_per_n=16)
        assert run(cfg) == run(cfg)

    def test_stochastic_scheme_drift_consistency(self):
        spec = affine(-2.0)
        scheme = StochasticPoly(W=100.0, k=2, sigma_w=99.0 / 50.0)
        cfg = ExperimentConfig(
            measure=spec, scheme=scheme, n_grid=(1001,), profiles_per_n=10,
            replicas=2000, seed=0,
        )
        report = run(cfg)
        closed = drift(spec, scheme)
        assert report.rows[0].drift_estimate == pytest.approx(closed, rel=0.05)
        assert report.rows[0].method == "monte_carlo"

    def test_unit_weights_report_the_tally_method(self):
        # CJT profiles at n = 5001 are certified without the product tree
        cfg = small_config(measure=affine(1.0), n_grid=(1001, 5001), profiles_per_n=10)
        assert [r.method for r in run(cfg).rows] == ["exact_dp", "bound"]

    def test_unequal_deterministic_weights_small_n_use_brute(self):
        cfg = small_config(scheme=LogOdds(), n_grid=(11,), profiles_per_n=10)
        report = run(cfg)
        assert report.rows[0].method == "brute_force"

    @pytest.fixture
    def weighted_tallies(self, monkeypatch):
        """(profile, weights, seed, estimate) of every weighted tally `run` makes."""
        records = []

        def record(profile, w, **kwargs):
            est = weighted_majority_prob(profile, w, **kwargs)
            records.append((profile, w, kwargs["seed"], est))
            return est

        monkeypatch.setattr(experiment, "weighted_majority_prob", record)
        return records

    def test_unit_weights_honour_mc(self, weighted_tallies):
        # only "auto" takes the exact DP for equal weights
        replicas = 4000
        cfg = small_config(n_grid=(11, 21), profiles_per_n=10, tally_mode="mc", replicas=replicas)
        assert [r.method for r in run(cfg).rows] == ["monte_carlo"] * 2
        assert len(weighted_tallies) == 20
        # every estimate within z standard errors of the truth, z for a
        # family error of 1e-3 over the 20 tallies (Bonferroni)
        z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(weighted_tallies)))
        for prof, w, seed, est in weighted_tallies:
            assert est.value == reference_mc_value(prof.competences, w, replicas, seed)
            exact = majority_prob_exact(prof).value
            assert abs(est.value - exact) <= z * math.sqrt(exact * (1.0 - exact) / replicas)

    def test_unit_weights_honour_brute(self, weighted_tallies):
        cfg = small_config(n_grid=(11, 21), profiles_per_n=10, tally_mode="brute")
        assert [r.method for r in run(cfg).rows] == ["brute_force"] * 2
        assert len(weighted_tallies) == 20
        for prof, _, _, est in weighted_tallies:
            assert abs(est.value - majority_prob_exact(prof).value) <= 1e-12

    def test_theorem_4_3_sweep_pinned(self, weighted_tallies):
        # the stochastic-weight sweep of Theorem 4.3: 50 Monte Carlo
        # tallies, pinned by the SHA-256 prefix of one line per tally
        spec = affine(-2.0)
        cfg = ExperimentConfig(
            measure=spec, scheme=StochasticPoly(W=100.0, k=find_k(spec), sigma_w=1.98),
            n_grid=(101, 301, 1001, 3001, 10001), profiles_per_n=10, replicas=2000, seed=4300,
        )
        run(cfg)
        text = "".join(
            f"{est.value.hex()} {est.half_width.hex()} {est.n_replicas} {est.method}\n"
            for _, _, _, est in weighted_tallies
        )
        assert len(weighted_tallies) == 50
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "d230520c9c494b7a"

    def test_auto_resolved_at_the_enumeration_cap(self):
        # auto enumerates up to MAX_BRUTE_N and samples beyond it, silently
        cfg = small_config(
            scheme=LogOdds(), n_grid=(MAX_BRUTE_N, MAX_BRUTE_N + 2), profiles_per_n=10,
            replicas=500,
        )
        report = run(cfg)
        assert [r.method for r in report.rows] == ["brute_force", "monte_carlo"]


# SHA-256 prefixes of report_to_csv, recorded before profiles were drawn
# a size at a time; each config takes a different route through run.
# unit_lebesgue was re-recorded when the exact tally's leaves grew to 128
# voters: its three median_win values moved by 1 to 3 ulps;
# stochastic_monte_carlo when the Monte Carlo voter draws moved to layout 2,
# and again when its weights moved to weight draw 2 (jurylab's own streams)
RUN_PINS = {
    "unit_lebesgue": (
        dict(measure=lebesgue(), scheme=UnitWeights(), n_grid=(11, 51, 201), profiles_per_n=40),
        "6e7db3c0c31022de",
    ),
    "bounded_poly_brute": (
        dict(measure=affine(-1.0), scheme=BoundedPoly(W=10.0, k=2), n_grid=(5, 17),
             profiles_per_n=20, tally_mode="brute"),
        "9449a80ddb96f354",
    ),
    "expert_nobody_clears": (
        dict(measure=lebesgue(), scheme=ExpertRule(threshold=1.0), n_grid=(9, 31),
             profiles_per_n=10),
        "e807794056dc4107",
    ),
    "stochastic_monte_carlo": (
        dict(measure=affine(1.0), scheme=StochasticPoly(W=10.0, k=2, sigma_w=2.0),
             n_grid=(33, 101), profiles_per_n=10, replicas=200),
        "c19fa5e00d1f948f",
    ),
    "atoms_at_0_and_1": (
        dict(measure=MeasureSpec(atoms=((0.0, 0.4), (1.0, 0.6))), scheme=UnitWeights(),
             n_grid=(5, 21), profiles_per_n=10),
        "d7b091cb49731c13",
    ),
}


@pytest.mark.parametrize("name", RUN_PINS)
def test_run_pinned_bit_for_bit(name):
    kwargs, digest = RUN_PINS[name]
    text = report_to_csv(run(ExperimentConfig(seed=1313, **kwargs)))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_stochastic_run_draws_no_numpy_generator(monkeypatch):
    # profiles, stochastic weights and Monte Carlo tallies all draw from
    # jurylab's counter-based streams, so the pinned report needs no numpy RNG
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    kwargs, digest = RUN_PINS["stochastic_monte_carlo"]
    text = report_to_csv(run(ExperimentConfig(seed=1313, **kwargs)))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestClassifyTrend:
    def _report(self, highs, lows):
        rows = tuple(
            ExperimentRow(n=101 + 2 * i, frac_high=h, frac_low=lo, median_win=0.5,
                          mean_q=0.0, drift_estimate=0.0, method="exact_dp")
            for i, (h, lo) in enumerate(zip(highs, lows))
        )
        return ExperimentReport(rows=rows, config_hash="x", seed=0)

    def test_cjp_like(self):
        assert classify_trend(self._report([0.2, 0.8, 1.0], [0, 0, 0])) == "cjp_like"

    def test_anti(self):
        assert classify_trend(self._report([0, 0, 0], [0.5, 0.99, 1.0])) == "anti_cjp_like"

    def test_null(self):
        assert classify_trend(self._report([0, 0.01, 0], [0, 0, 0.02])) == "null_like"

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            classify_trend(self._report([1.0], [0.0]))


class TestReportOutputs:
    def test_csv_has_provenance_and_header(self):
        report = run(small_config(n_grid=(101, 301), profiles_per_n=10))
        text = report_to_csv(report)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# seed=0 config_hash=")
        assert lines[1].split(",")[0:3] == ["n", "frac_high", "frac_low"]
        assert len(lines) == 4

    def test_json_mirrors_csv(self):
        report = run(small_config(n_grid=(101, 301), profiles_per_n=10))
        doc = json.loads(report_to_json(report))
        assert set(doc) == {"seed", "config_hash", "rows"}
        assert doc["config_hash"] == report.config_hash
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["n"] == 101

    def test_svg_polylines(self):
        report = run(small_config(n_grid=(101, 301, 1001), profiles_per_n=10))
        svg = report_to_svg(report)
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "</svg>" in svg
