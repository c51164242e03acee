import json

import numpy as np
import pytest

import slatelearn as sl
import slatelearn.cli as cli
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

    @pytest.mark.parametrize("algo", ["nonadaptive", "balanced"])
    def test_learn_reports_the_queries_paid_beside_those_read(self, capsys,
                                                             algo):
        code, out, _ = run(capsys, "learn", "--n", "4", "--seed", "3",
                           "--algo", algo, "--m", "200000")
        assert code == 0
        result = json.loads(out)["results"][0]
        read, paid = result["ledger"], result["paid"]
        if algo == "balanced":
            assert paid == read
            return
        # the whole batch: m for each of the 6 pairs, read or not
        assert paid == {"total": 6 * 200_000, "max_per_pair": 200_000,
                        "pairs_touched": 6, "per_size": {"2": 6 * 200_000}}
        assert 0 < read["total"] < paid["total"]

    def test_nonadaptive_small_m_exits_3(self, capsys):
        code, _, err = run(capsys, "learn", "--instance", "uniform",
                           "--n", "4", "--algo", "nonadaptive", "--m", "5")
        assert code == 3
        assert "rebuild the replay table" in err

    def test_nonadaptive_demand_no_table_holds_exits_2(self, capsys):
        # the theory budget asks pair (0, 1) for about 1.8e13 answers, and
        # no table of 2 items takes an m above 2^30
        code, _, err = run(capsys, "learn", "--algo", "nonadaptive", "--budget",
                           "theory", "--n", "2", "--m", "100000000")
        assert code == 2
        assert "use the calibrated budget or a larger eps" in err
        assert "rebuild the replay table" not in err and "Traceback" not in err

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

    def test_out_writes_the_printed_json(self, capsys, tmp_path):
        a, b, out_path = (tmp_path / name for name in ("a.json", "b.json",
                                                         "d.json"))
        sl.save_model(sl.LogWeightMnl(np.log([1.0, 2.0, 4.0])), a)
        sl.save_model(sl.LogWeightMnl(np.log([1.0, 3.0, 4.0])), b)
        code, out, _ = run(capsys, "eval", "--model-a", str(a),
                           "--model-b", str(b), "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == out
        assert json.loads(out)["d1"] > 0.0

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


def csv_rows(path):
    """CSV data rows with the wall-clock seconds column dropped."""
    return [line.split(",")[:-1] for line in path.read_text().splitlines()[2:]]


class TestTrialRunner:
    @pytest.mark.parametrize("flags", [
        ["--instance", "power-law", "--n", "24", "--seed", "3"],
        ["--instance", "uniform", "--n", "5", "--algo", "balanced",
         "--retries", "2"],
        ["--instance", "geometric-ratio", "--n", "4", "--algo", "nonadaptive",
         "--m", "300000", "--oracle-mode", "stream", "--seed", "9"],
    ])
    def test_learn_and_bench_write_the_same_rows(self, capsys, tmp_path,
                                                 flags):
        a, b = tmp_path / "learn.csv", tmp_path / "bench.csv"
        common = flags + ["--eps", "0.5", "--trials", "2"]
        assert run(capsys, "learn", *common, "--csv", str(a))[0] == 0
        assert run(capsys, "bench", *common, "--out", str(b))[0] == 0
        assert csv_rows(a) == csv_rows(b)
        assert len(csv_rows(a)) == 2

    def test_trial_seeds_are_pinned(self, capsys, tmp_path):
        # trial t: instance at seed + t, learner and oracle at
        # seed + 1000 t, sampled distance (n > 20) at seed + t
        path = tmp_path / "run.csv"
        assert run(capsys, "learn", "--instance", "power-law", "--n", "24",
                   "--seed", "3", "--trials", "2", "--csv", str(path))[0] == 0
        truth = sl.generate_instance(sl.InstanceSpec("power-law", 24, 4))
        oracle = sl.LiveOracle(truth, seed=1003)
        learned = sl.learn_adaptive(oracle, 24, 0.5, 0.1, seed=1003)
        rep = sl.distance_sampled(truth, learned, 200,
                                  np.random.default_rng(4))
        assert csv_rows(path)[1] == [
            "24", "0.5", "0.1", "adaptive", "1", repr(rep.d1), repr(rep.dinf),
            str(oracle.ledger.total), str(oracle.ledger.max_per_pair)]

    def test_pseudo_mnl_reports_its_item_count(self, capsys, tmp_path):
        path = tmp_path / "p.csv"
        code, out, _ = run(capsys, "learn", "--instance", "pseudo-mnl",
                           "--p", "0.7,0.6", "--csv", str(path))
        assert code == 0
        assert json.loads(out)["n"] == 4
        assert csv_rows(path)[0][0] == "4"

    @pytest.mark.parametrize("m", ["10", "300000"])
    def test_pseudo_mnl_nonadaptive_ends_in_an_exit_code(self, capsys, m):
        # the learner must see the instance's 4 items, not --n (default 8):
        # a 4-item replay table has no pair (0, 7)
        code, _, _ = run(capsys, "learn", "--instance", "pseudo-mnl",
                         "--p", "0.7,0.6", "--algo", "nonadaptive", "--m", m)
        assert code in (0, 3)

    def test_retry_runs_the_next_seed(self, capsys, tmp_path, monkeypatch):
        real = cli.learn_adaptive

        def fail_at_42(oracle, n, eps, delta, seed=0):
            if seed == 42:
                raise sl.ForestBuildFailure("injected")
            return real(oracle, n, eps, delta, seed=seed)

        monkeypatch.setattr(cli, "learn_adaptive", fail_at_42)
        a, b = tmp_path / "retried.csv", tmp_path / "direct.csv"
        flags = ["--instance", "geometric-ratio", "--n", "6", "--eps", "0.5"]
        assert run(capsys, "learn", *flags, "--seed", "42", "--retries", "1",
                   "--csv", str(a))[0] == 0
        assert run(capsys, "learn", *flags, "--seed", "43",
                   "--csv", str(b))[0] == 0
        assert csv_rows(a) == csv_rows(b)

    def test_exhausted_retries_exit_2(self, capsys, tmp_path, monkeypatch):
        def always_fail(oracle, n, eps, delta, seed=0):
            raise sl.ForestBuildFailure("injected at {}".format(seed))

        monkeypatch.setattr(cli, "learn_adaptive", always_fail)
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "bench", "--n", "4", "--seed", "5",
                           "--trials", "1", "--retries", "2", "--out", str(out))
        assert code == 2
        assert "injected at 7" in err  # the last attempt's error is raised
        assert not out.exists()

    def test_exhausted_replay_budget_is_not_retried(self, capsys,
                                                   monkeypatch):
        # no other seed cures these, so the first attempt's error stands
        for error, exit_code in (
                (sl.ReplayBudgetExhausted((0, 1), 5, 6), 3),
                (sl.DemandTooLarge("M * N waits", 2**63, 2**62,
                                   "use a larger eps"), 2)):
            seeds = []

            def fail(oracle, n, eps, delta, m, budget, seed):
                seeds.append(seed)
                raise error

            monkeypatch.setattr(cli, "learn_nonadaptive", fail)
            code, _, err = run(capsys, "learn", "--algo", "nonadaptive",
                               "--retries", "3", "--seed", "4")
            assert code == exit_code
            assert seeds == [4]
            assert str(error) in err

    def test_stream_demand_above_the_cap_exits_2(self, capsys):
        # at the defaults the adaptive learner asks one pair for about
        # 3.1e10 stream draws
        code, _, err = run(capsys, "learn", "--oracle-mode", "stream")
        assert code == 2
        assert "stream draws" in err

    @pytest.mark.parametrize("eps", ["0.3", "0.9"])
    def test_adaptive_stream_demand_advice_names_binomial_mode(self, capsys,
                                                               eps):
        # the adaptive learner takes no budget, and eps 0.9 still asks one
        # pair for about 1.0e10 stream draws: only binomial mode helps it
        code, _, err = run(capsys, "learn", "--algo", "adaptive", "--n", "10",
                           "--eps", eps, "--oracle-mode", "stream")
        assert code == 2
        assert ("use binomial mode; the calibrated budget and a larger eps "
                "apply only to the balanced and non-adaptive learners") in err

    def test_stream_demand_advice_names_the_calibrated_budget(self, capsys):
        # binomial mode fails this run too (its M * N waits pass their cap),
        # so the advice must not send the user there alone
        code, _, err = run(capsys, "learn", "--algo", "balanced", "--budget",
                           "theory", "--oracle-mode", "stream", "--instance",
                           "power-law", "--n", "6", "--eps", "0.5")
        assert code == 2
        assert "stream draws" in err and "the calibrated budget" in err

    def test_binomial_count_of_too_many_pieces_exits_2(self, capsys):
        # cluster_sort asks about 7.6e27 queries per comparison at eps 1e-9
        code, _, err = run(capsys, "learn", "--algo", "adaptive", "--n", "6",
                           "--eps", "1e-9")
        assert code == 2
        assert "use a larger eps" in err and "Traceback" not in err

    def test_theory_budget_demand_exits_2(self, capsys):
        # M = 69 groups of N, about 1.9e21 waits each, for one estimate
        code, _, err = run(capsys, "learn", "--algo", "balanced", "--budget",
                           "theory", "--instance", "geometric-ratio", "--n",
                           "8", "--rho", "2", "--eps", "0.5")
        assert code == 2
        assert "M * N waits" in err and "Traceback" not in err

    @pytest.mark.parametrize("instance", [
        ["two-scale", "--heavy", "1e17"], ["pseudo-mnl", "--p", "0.3,0.6,0.5"]])
    def test_certain_wins_learn(self, capsys, instance):
        # both instances hold a pair whose win probability rounds to 1.0
        code, _, err = run(capsys, "learn", "--algo", "balanced", "--instance",
                           *instance, "--n", "6", "--eps", "0.5")
        assert code == 0, err

    def test_replay_batch_above_the_old_cap_runs(self, capsys):
        # 435 pairs x 1e8 answers, above the 2^30 a batch once took
        code, out, err = run(capsys, "learn", "--algo", "nonadaptive", "--m",
                             "100000000", "--n", "30")
        assert code == 0, err
        paid = json.loads(out)["results"][0]["paid"]
        assert paid == {"total": 435 * 10**8, "max_per_pair": 10**8,
                        "pairs_touched": 435, "per_size": {"2": 435 * 10**8}}


def write(path, text):
    path.write_text(text)
    return str(path)


REJECTED = {
    "learn --n 0": ["learn", "--n", "0"],
    "learn --trials 0": ["learn", "--trials", "0"],
    "learn --m 0": ["learn", "--algo", "nonadaptive", "--m", "0"],
    "learn --eps 0": ["learn", "--eps", "0"],
    "learn --eps 1": ["learn", "--eps", "1"],
    "learn --eps nan": ["learn", "--eps", "nan"],
    "learn --delta 0": ["learn", "--delta", "0"],
    "learn --delta 1.5": ["learn", "--delta", "1.5"],
    "learn --seed -1": ["learn", "--seed", "-1"],
    "learn --rho 0": ["learn", "--instance", "geometric-ratio", "--rho", "0"],
    "learn --rho inf": ["learn", "--instance", "geometric-ratio",
                        "--rho", "inf"],
    "learn --heavy -1": ["learn", "--instance", "two-scale", "--heavy", "-1"],
    "learn --gamma -1": ["learn", "--instance", "power-law", "--gamma", "-1"],
    "learn --gamma nan": ["learn", "--instance", "power-law",
                          "--gamma", "nan"],
    "learn explicit": ["learn", "--instance", "explicit"],
    "learn --p x": ["learn", "--instance", "pseudo-mnl", "--p", "0.7,x"],
    "learn --p 1.5": ["learn", "--instance", "pseudo-mnl", "--p", "1.5"],
    "learn --p nan": ["learn", "--instance", "pseudo-mnl", "--p", "nan"],
    "learn --pi 0,0": ["learn", "--instance", "pseudo-mnl", "--p", "0.7",
                       "--pi", "0,0"],
    "learn --pi short": ["learn", "--instance", "pseudo-mnl", "--p", "0.7",
                         "--pi", "0"],
    "gen --n 0": ["gen", "--n", "0"],
    "gen --p x": ["gen", "--instance", "pseudo-mnl", "--p", "x"],
    "bench --trials 0": ["bench", "--n", "4", "--trials", "0"],
    "bench --samples 0": ["bench", "--n", "4", "--samples", "0"],
    "bench --n 0": ["bench", "--n", "0"],
    "bench --eps 0": ["bench", "--n", "4", "--eps", "0.5", "--eps", "0"],
    "bench explicit": ["bench", "--n", "4", "--instance", "explicit"],
    "bench pseudo-mnl without --p": ["bench", "--n", "4",
                                     "--instance", "pseudo-mnl"],
}

BAD_MODELS = {
    "not json": "{",
    "no weights": '{"kind": "mnl"}',
    "empty weights": '{"kind": "mnl", "log_weights": []}',
    "text weights": '{"kind": "mnl", "log_weights": ["a"]}',
    "object weights": '{"kind": "mnl", "log_weights": {"a": 1}}',
    "unknown kind": '{"kind": "tree"}',
    "a list": "[1, 2]",
    "bad permutation": '{"kind": "pseudo_mnl", "p": [0.5], "pi": [0, 0]}',
}


class TestBoundary:
    """Bad input exits 1 with a message, never a traceback, and writes nothing."""

    @pytest.mark.parametrize("args", REJECTED.values(), ids=REJECTED.keys())
    def test_rejected_flag(self, capsys, tmp_path, args):
        out = tmp_path / "out"
        code, _, err = run(capsys, *args, "--out", str(out))
        assert code == 1
        assert "Error" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", BAD_MODELS.values(), ids=BAD_MODELS.keys())
    @pytest.mark.parametrize("command", ["learn", "eval"])
    def test_rejected_model_file(self, capsys, tmp_path, text, command):
        bad = write(tmp_path / "bad.json", text)
        good = tmp_path / "good.json"
        sl.save_model(sl.LogWeightMnl(np.zeros(3)), good)
        out = tmp_path / "out"
        args = (["learn", "--model", bad] if command == "learn"
                else ["eval", "--model-a", str(good), "--model-b", bad])
        code, _, err = run(capsys, *args, "--out", str(out))
        assert code == 1
        assert "bad.json" in err
        assert not out.exists()

    @pytest.mark.parametrize("sizes, mode", [((3, 4), "exact"),
                                             ((3, 4), "sampled"),
                                             ((21, 21), "exact")])
    def test_eval_usage_errors(self, capsys, tmp_path, sizes, mode):
        a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "out"
        sl.save_model(sl.LogWeightMnl(np.zeros(sizes[0])), a)
        sl.save_model(sl.LogWeightMnl(np.zeros(sizes[1])), b)
        code, _, err = run(capsys, "eval", "--model-a", str(a),
                           "--model-b", str(b), "--mode", mode,
                           "--out", str(out))
        assert code == 1
        assert "Error" in err
        assert not out.exists()

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        out = tmp_path / "no-such-dir" / "x.csv"
        code, _, err = run(capsys, "bench", "--n", "1", "--trials", "1",
                           "--out", str(out))
        assert code == 1
        assert "no-such-dir" in err
