import json

import pytest

from jurylab.experiment import (
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    classify_trend,
    config_from_dict,
    config_to_dict,
    report_to_csv,
    report_to_json,
    report_to_svg,
    run,
)
from jurylab.measure import affine, lebesgue
from jurylab.tally import MAX_BRUTE_N
from jurylab.weights import LogOdds, StochasticPoly, UnitWeights, drift


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

    def test_round_trip(self):
        cfg = small_config(scheme=StochasticPoly(W=50.0, k=2, sigma_w=1.5))
        assert config_from_dict(config_to_dict(cfg)) == cfg


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

    def test_infeasible_brute_rerouted_with_warning(self):
        cfg = small_config(
            scheme=LogOdds(), n_grid=(101,), profiles_per_n=10,
            tally_mode="brute", replicas=500,
        )
        report = run(cfg)
        assert report.rows[0].method == "monte_carlo"
        assert any("rerouted" in w for w in report.warnings)

    def test_unequal_deterministic_weights_small_n_use_brute(self):
        cfg = small_config(scheme=LogOdds(), n_grid=(11,), profiles_per_n=10)
        report = run(cfg)
        assert report.rows[0].method == "brute_force"

    def test_auto_resolved_at_the_enumeration_cap(self):
        # auto enumerates up to MAX_BRUTE_N and samples beyond it, silently
        cfg = small_config(
            scheme=LogOdds(), n_grid=(MAX_BRUTE_N, MAX_BRUTE_N + 2), profiles_per_n=10,
            replicas=500,
        )
        report = run(cfg)
        assert [r.method for r in report.rows] == ["brute_force", "monte_carlo"]
        assert report.warnings == ()


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
        assert doc["config_hash"] == report.config_hash
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["n"] == 101

    def test_svg_polylines(self):
        report = run(small_config(n_grid=(101, 301, 1001), profiles_per_n=10))
        svg = report_to_svg(report)
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "</svg>" in svg
