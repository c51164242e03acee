import json

import numpy as np
import pytest

import slatelearn as sl
from slatelearn.cli import main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_uniform(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code, out, _ = run(capsys, "gen", "--instance", "uniform", "--n", "5",
                           "--out", str(path))
        assert code == 0
        model = sl.load_model(path)
        np.testing.assert_array_equal(model.log_w, np.zeros(5))

    def test_geometric(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code, _, _ = run(capsys, "gen", "--instance", "geometric-ratio",
                         "--n", "4", "--rho", "2", "--out", str(path))
        assert code == 0
        model = sl.load_model(path)
        np.testing.assert_allclose(model.log_w, np.arange(1, 5) * np.log(2.0))

    def test_pseudo_mnl(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code, _, _ = run(capsys, "gen", "--instance", "pseudo-mnl",
                         "--p", "0.7", "--out", str(path))
        assert code == 0
        assert isinstance(sl.load_model(path), sl.MatchingPseudoMnl)

    def test_pseudo_mnl_without_p_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gen", "--instance", "pseudo-mnl",
                         "--out", str(tmp_path / "m.json"))
        assert code == 1


class TestLearn:
    def test_adaptive_smoke(self, capsys, tmp_path):
        model_path = tmp_path / "learned.json"
        csv_path = tmp_path / "run.csv"
        code, out, _ = run(capsys, "learn", "--instance", "geometric-ratio",
                           "--n", "6", "--eps", "0.5", "--seed", "42",
                           "--out", str(model_path), "--csv", str(csv_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["d1"] <= 0.5
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# slatelearn-csv v1"
        assert lines[1].split(",")[0] == "n"
        assert len(lines) == 3

    def test_single_item_needs_no_queries(self, capsys):
        code, out, _ = run(capsys, "learn", "--instance", "uniform",
                           "--n", "1")
        assert code == 0
        assert json.loads(out)["results"][0]["ledger"]["total"] == 0

    def test_nonadaptive_small_m_exits_3(self, capsys):
        code, _, err = run(capsys, "learn", "--instance", "uniform",
                           "--n", "4", "--algo", "nonadaptive", "--m", "5")
        assert code == 3
        assert "rebuild the replay table" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run(capsys, "learn", "--no-such-flag")
        assert code == 1

    @pytest.mark.parametrize("command", [["learn"], ["bench", "--n", "1"]])
    def test_retries_beyond_999_is_usage_error(self, capsys, tmp_path, command):
        # attempt a of trial t runs on seed + 1000 t + a; 1000 retries would
        # reuse the next trial's seeds
        args = command + ["--out", str(tmp_path / "x"), "--retries"]
        code, _, err = run(capsys, *args, "1000")
        assert code == 1
        assert "--retries" in err and "0<=x<=999" in err
        assert not (tmp_path / "x").exists()


class TestEval:
    def test_identical_models(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        sl.save_model(sl.LogWeightMnl(np.array([0.0, 1.0])), path)
        code, out, _ = run(capsys, "eval", "--model-a", str(path),
                           "--model-b", str(path))
        assert code == 0
        assert json.loads(out)["d1"] == 0.0

    def test_split_mass_counterexample(self, capsys, tmp_path):
        eps = 0.2
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        sl.save_model(sl.LogWeightMnl(np.log([1 - eps, eps / 2, eps / 2])), a)
        sl.save_model(sl.LogWeightMnl(np.log([1 - eps, 3 * eps / 4, eps / 4])), b)
        code, out, _ = run(capsys, "eval", "--model-a", str(a),
                           "--model-b", str(b))
        assert code == 0
        assert json.loads(out)["dinf"] >= 0.25 - 1e-12

    def test_sampled_mode_on_larger_n(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        sl.save_model(sl.LogWeightMnl(np.zeros(50)), path)
        code, out, _ = run(capsys, "eval", "--model-a", str(path),
                           "--model-b", str(path), "--mode", "sampled",
                           "--samples", "30")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is False and doc["d1"] == 0.0


class TestBench:
    def test_csv_rows_and_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "--instance", "uniform", "--n", "4", "--n", "6",
                "--eps", "0.5", "--algo", "balanced", "--trials", "2",
                "--seed", "7"]
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0

        def strip_seconds(path):
            return [",".join(line.split(",")[:-1])
                    for line in path.read_text().splitlines()]

        assert strip_seconds(out1) == strip_seconds(out2)
        assert len(strip_seconds(out1)) == 2 + 4  # header lines + 2n x 2 trials

    def test_trivial_single_item_row(self, capsys, tmp_path):
        out = tmp_path / "one.csv"
        code, _, _ = run(capsys, "bench", "--instance", "uniform", "--n", "1",
                         "--trials", "1", "--out", str(out))
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[0] == "1" and row[7] == "0"
