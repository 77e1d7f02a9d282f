import json
from pathlib import Path

import pytest

from jurylab.cli import main
from jurylab.measure import affine, lebesgue, to_json
from jurylab.tally import MODES


@pytest.fixture
def measure_files(tmp_path):
    p = tmp_path / "uniform.json"
    q = tmp_path / "tilted.json"
    p.write_text(to_json(lebesgue()))
    q.write_text(to_json(affine(2.0)))
    return str(p), str(q)


class TestTally:
    def test_simple_majority_json(self, capsys):
        assert main(["tally", "--profile", "0.6,0.6,0.6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.648, abs=1e-12)
        assert doc["method"] == "exact_dp"
        assert doc["trimmed_mass"] == 0.0
        assert 0.0 < doc["rounding_bound"] < 1e-14

    def test_certified_tally_reports_its_bound(self, tmp_path, capsys):
        # 10001 voters at 0.99: the Chernoff certificate fixes the value
        path = tmp_path / "profile.txt"
        path.write_text(",".join(["0.99"] * 10_001))
        assert main(["tally", "--profile-file", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["value"], doc["method"], doc["trimmed_mass"]) == (1.0, "bound", 0.0)
        assert 0.0 < doc["rounding_bound"] < 1e-15

    def test_even_profile_exits_one(self, capsys):
        assert main(["tally", "--profile", "0.6,0.6"]) == 1
        assert "even" in capsys.readouterr().err

    def test_weighted(self, capsys):
        assert main(
            ["tally", "--profile", "0.9,0.9,0.6,0.6,0.6", "--weights", "1,0,0,0,0"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.9, abs=1e-12)
        assert "trimmed_mass" not in doc
        assert "rounding_bound" not in doc

    def test_monte_carlo_reports_draws(self, capsys):
        # one heavy voter of 41 decides most replicas after a single draw
        profile, weights = ",".join(["0.6"] * 41), ",".join(["1"] * 40 + ["60"])
        argv = ["tally", "--profile", profile, "--weights", weights, "--mode", "mc"]
        assert main([*argv, "--replicas", "200"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "monte_carlo"
        assert 200 <= doc["draws"] < 41 * 200
        assert main(["tally", "--profile", "0.6,0.6,0.6"]) == 0
        assert "draws" not in json.loads(capsys.readouterr().out)

    def test_missing_profile_exits_one(self, capsys):
        assert main(["tally"]) == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["tally", "--profile", "0.6", "--bogus", "1"]) == 1

    @pytest.mark.parametrize("weights", [[], ["--weights", "1,2,1"]], ids=["unit", "weighted"])
    @pytest.mark.parametrize("mode", MODES + ("exact", "Auto", "monte_carlo", ""))
    def test_mode_choices_are_the_tally_modes(self, mode, weights, capsys):
        argv = ["tally", "--profile", "0.6,0.7,0.8", *weights, "--mode", mode, "--replicas", "100"]
        if mode in MODES:
            assert main(argv) == 0
            assert 0.0 < json.loads(capsys.readouterr().out)["value"] < 1.0
        else:
            assert main(argv) == 1
            assert "invalid choice" in capsys.readouterr().err


class TestReproduce:
    def test_shapley_grofman_table(self, capsys):
        assert main(["reproduce", "shapley-grofman"]) == 0
        out = capsys.readouterr().out
        assert "expert" in out and "0.9" in out
        assert "0.87696" in out
        assert "0.92664" in out

    def test_unknown_scenario_exits_one(self, capsys):
        assert main(["reproduce", "nope"]) == 1


class TestWalk:
    def test_border_line(self, capsys):
        assert main(["walk", "border", "--m", "1"]) == 0
        assert "m=1, exact=6/16, float=0.375" in capsys.readouterr().out

    def test_return_mode(self, capsys):
        assert main(["walk", "return", "--level", "1", "--horizon", "1", "--replicas", "2000"]) == 0
        assert "estimate=" in capsys.readouterr().out

    def test_moa_mode(self, capsys):
        assert main(["walk", "moa", "--eps", "0.05", "--n", "500", "--trials", "100"]) == 0
        assert "frequency=" in capsys.readouterr().out


class TestDivergence:
    def test_report_json(self, measure_files, capsys):
        p, q = measure_files
        assert main(["divergence", p, q]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tv"] == pytest.approx(0.5, abs=1e-9)
        assert set(doc) == {"tv", "kl", "hellinger_affinity", "hellinger_distance", "bhattacharyya"}

    def test_missing_file_exits_one(self, capsys):
        assert main(["divergence", "/nonexistent/a.json", "/nonexistent/b.json"]) == 1


class TestConditions:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "cond.csv"
        code = main(
            ["conditions", "--source", "condorcet", "--eps", "0.1",
             "--checkpoints", "11,101", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# seed=0")
        assert lines[1].startswith("checkpoint,q,")
        assert len(lines) == 4

    def test_header_hash_pinned(self, tmp_path):
        # recorded before the provenance hash moved to experiment.json_digest
        for argv, header in (
            (["conditions", "--source", "condorcet", "--eps", "0.1", "--checkpoints", "11,101"],
             "# seed=0 config_hash=46b31a9215fe99ea"),
            (["--seed", "3", "conditions", "--source", "c2", "--prefix", "1,0",
              "--checkpoints", "11,101"],
             "# seed=3 config_hash=5e46300c5978f36a"),
        ):
            out = tmp_path / "cond.csv"
            assert main(argv + ["--out", str(out)]) == 0
            assert out.read_text().splitlines()[0] == header

    def test_bad_checkpoints_exit_one(self, capsys):
        assert main(["conditions", "--source", "condorcet", "--checkpoints", "4,8"]) == 1

    def test_header_hash_covers_measure_and_competences(self, measure_files, capsys):
        def header(*argv):
            assert main(["conditions", *argv, "--checkpoints", "1,3"]) == 0
            return capsys.readouterr().out.splitlines()[0]

        uniform, tilted = measure_files
        assert header("--source", "iid", "--measure", uniform) != header(
            "--source", "iid", "--measure", tilted
        )
        assert header("--source", "explicit", "--competences", "0.6,0.6,0.6") != header(
            "--source", "explicit", "--competences", "0.9,0.1,0.9"
        )


class TestWeightsSweep:
    def test_csv(self, capsys):
        code = main(
            ["weights-sweep", "--w-grid", "10", "--k-grid", "1", "--sigma-grid", "1.0"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "W,k,sigma_w,moment_criterion,drift"
        assert len(lines) == 3

    def test_header_hash_covers_measure_content(self, measure_files, tmp_path, capsys):
        # hashed by content: a copy elsewhere hashes alike, another measure not
        copy = tmp_path / "copy" / "uniform.json"
        copy.parent.mkdir()
        copy.write_text(Path(measure_files[0]).read_text())
        headers = []
        for path in (*measure_files, str(copy)):
            argv = ["weights-sweep", "--measure", path, "--w-grid", "10", "--k-grid", "1",
                    "--sigma-grid", "1.0"]
            assert main(argv) == 0
            headers.append(capsys.readouterr().out.splitlines()[0])
        assert headers[0] != headers[1]
        assert headers[0] == headers[2]


class TestExperiment:
    def _config_doc(self):
        return {
            "measure": {"pieces": [[0.0, 1.0, 1.0, 0.0]], "atoms": [], "label": "uniform"},
            "scheme": {"kind": "unit"},
            "n_grid": [101, 301, 1001],
            "profiles_per_n": 10,
            "replicas": 1000,
        }

    def test_outputs_written_and_reproducible(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self._config_doc()))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["--seed", "7", "experiment", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["--seed", "7", "experiment", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        for name in ("report.csv", "report.json", "report.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "report.csv").read_text().startswith("# seed=7")

    def test_brute_above_the_enumeration_cap_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self._config_doc() | {"tally_mode": "brute"}))
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "brute" in capsys.readouterr().err

    def test_stdout_mode(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self._config_doc()))
        assert main(["experiment", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "frac_high" in out
        assert "trend:" in out


class TestHelp:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_no_command_exits_one(self):
        assert main([]) == 1
