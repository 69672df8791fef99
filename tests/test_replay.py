import csv
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from bandit_lab.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from bandit_lab.policies import Policy
from bandit_lab.runner import (
    ConfigError,
    DataFormatError,
    PolicySpec,
    ReplayDataset,
    read_replay_csv,
    run_replay,
    write_replay_csv,
)


def hand_dataset():
    # 3 rounds, 2 arms, d = 2; best rewards per round: 1.0, 0.8, 0.5
    contexts = np.array(
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.5, 0.5], [1.0, -1.0]],
            [[0.2, 0.1], [0.3, 0.4]],
        ]
    )
    rewards = np.array(
        [
            [1.0, 0.2],
            [0.3, 0.8],
            [0.5, 0.1],
        ]
    )
    return ReplayDataset(contexts=contexts, rewards=rewards)


def dataset_text():
    return (
        "round,arm_index,context_0,context_1,reward\n"
        "0,0,1.0,0.0,1.0\n"
        "0,1,0.0,1.0,0.2\n"
        "1,0,0.5,0.5,0.3\n"
        "1,1,1.0,-1.0,0.8\n"
        "2,0,0.2,0.1,0.5\n"
        "2,1,0.3,0.4,0.1\n"
    )


class TestReplayCsv:
    def test_round_trip(self, tmp_path):
        # Besides the hand values: the smallest subnormal, a signed zero, a
        # near-overflow and a shortest-repr value, each read back with the
        # bits of float() of its field.
        contexts = hand_dataset().contexts.copy()
        contexts[0, 0] = [5e-324, -0.0]
        contexts[2, 1] = [1e308, 0.30000000000000004]
        rewards = hand_dataset().rewards.copy()
        rewards[1] = [-0.0, 5e-324]
        path = tmp_path / "data.csv"
        write_replay_csv(path, ReplayDataset(contexts=contexts, rewards=rewards))
        loaded = read_replay_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        fields = np.array([[float(v) for v in row[2:]] for row in rows]).reshape(3, 2, 3)
        assert loaded.contexts.tobytes() == fields[..., :-1].tobytes() == contexts.tobytes()
        assert loaded.rewards.tobytes() == fields[..., -1].tobytes() == rewards.tobytes()
        assert all(a.flags.c_contiguous and a.flags.writeable for a in (loaded.contexts, loaded.rewards))

    def test_reading_holds_at_most_three_times_the_table(self, tmp_path):
        # 4000 rounds x 5 arms x (10 contexts + reward): a 1.76 MB float64 table.
        # Holding each row's parsed fields until the file ended peaked at 10.8x.
        rng = np.random.default_rng(20)
        dataset = ReplayDataset(contexts=rng.standard_normal((4000, 5, 10)), rewards=rng.standard_normal((4000, 5)))
        path = tmp_path / "data.csv"
        write_replay_csv(path, dataset)
        tracemalloc.start()
        try:
            loaded = read_replay_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.contexts, dataset.contexts) and np.array_equal(loaded.rewards, dataset.rewards)
        assert peak <= 3 * (loaded.contexts.nbytes + loaded.rewards.nbytes)

    def test_parse_literal_text(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(dataset_text())
        loaded = read_replay_csv(path)
        assert loaded.rounds == 3 and loaded.K == 2 and loaded.d == 2

    def test_bad_header_reports_line_one(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("round,arm,context_0,context_1,reward\n0,0,1,1,1\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_replay_csv(path)

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "round,arm_index,context_0,context_1,reward\n"
            "0,0,1.0,0.0,1.0\n"
            "0,1,0.0,1.0\n"
        )
        with pytest.raises(DataFormatError, match="line 3"):
            read_replay_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "round,arm_index,context_0,context_1,reward\n"
            "0,0,1.0,oops,1.0\n"
        )
        with pytest.raises(DataFormatError, match="line 2"):
            read_replay_csv(path)

    def test_out_of_order_arm_index_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "round,arm_index,context_0,context_1,reward\n"
            "0,1,1.0,0.0,1.0\n"
        )
        with pytest.raises(DataFormatError, match="line 2"):
            read_replay_csv(path)

    @pytest.mark.parametrize("text", ["inf", "nan", "1e999"])
    def test_non_finite_number_exits_data_naming_file_and_line(self, tmp_path, capsys, text):
        # Each was caught only once the whole log was read, as "replay data must be finite".
        path = tmp_path / "data.csv"
        path.write_text(dataset_text().replace("1.0,-1.0,0.8", f"1.0,{text},0.8"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"environment": {"K": 2, "d": 2, "T": 3}, "policies": ["uniform"], "seeds": [0]}))
        assert main(["replay", "--data", str(path), "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert f"data error: {path}: non-finite number {text} (line 5)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ragged_rounds_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "round,arm_index,context_0,context_1,reward\n"
            "0,0,1.0,0.0,1.0\n"
            "0,1,0.0,1.0,0.2\n"
            "1,0,0.5,0.5,0.3\n"
        )
        with pytest.raises(DataFormatError):
            read_replay_csv(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            (dataset_text().encode().replace(b"0.3,0.4", b"0.3,0.\xff4"), "can't decode byte 0xff"),
            (dataset_text().replace("0.3,0.4", "0.3," + "4" * 131073).encode(), "field larger than field limit (131072) (line 7)"),
        ],
        ids=["non-utf-8-byte", "field-beyond-csv-limit"],
    )
    def test_undecodable_log_exits_data_naming_the_file(self, tmp_path, capsys, data, message):
        # Each ended in a traceback (exit 1): a UnicodeDecodeError, a csv.Error.
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"environment": {"K": 2, "d": 2, "T": 3}, "policies": ["uniform"], "seeds": [0]}))
        assert main(["replay", "--data", str(path), "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {path}: " in err and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty file (line 1)"), ("round,arm_index,context_0,context_1,reward\n", "no data rows (line 2)")],
        ids=["empty", "header-only"],
    )
    def test_log_without_rows_exits_data(self, tmp_path, capsys, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"environment": {"K": 2, "d": 2, "T": 3}, "policies": ["uniform"], "seeds": [0]}))
        assert main(["replay", "--data", str(path), "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert f"data error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"environment": {"K": 2, "d": 2, "T": 3}, "policies": ["uniform", "linucb"], "seeds": [0, 1]}))
        results = []
        for name, text in [("plain", dataset_text()), ("blank", dataset_text().replace("\n", "\n\n"))]:
            (tmp_path / f"{name}.csv").write_text(text)
            out = tmp_path / name
            assert main(["replay", "--data", str(tmp_path / f"{name}.csv"), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            results.append((out / "results.csv").read_bytes())
        assert results[0] == results[1]
        assert len(results[0].splitlines()) == 1 + 2 * 2 * 3

    def test_single_arm_rejected(self):
        with pytest.raises(DataFormatError):
            ReplayDataset(contexts=np.zeros((3, 1, 2)), rewards=np.zeros((3, 1)))


class TestRunReplay:
    def test_scripted_sequence_matches_hand_sum(self):
        # arms 1, 0, 0 earn 0.2, 0.3, 0.5 against bests 1.0, 0.8, 0.5:
        # regrets 0.8, 0.5, 0.0 cumulating to 0.8, 1.3, 1.3
        spec = PolicySpec(name="scripted", params={"arms": [1, 0, 0]})
        records = list(run_replay(hand_dataset(), [spec], seeds=[0]))
        assert [rec.inst_regret for rec in records] == pytest.approx([0.8, 0.5, 0.0])
        assert [rec.cum_regret for rec in records] == pytest.approx([0.8, 1.3, 1.3])
        assert [rec.reward for rec in records] == pytest.approx([0.2, 0.3, 0.5])

    def test_dominant_arm_oracle_replay_zero_regret(self):
        contexts = np.zeros((4, 2, 2))
        rewards = np.tile([1.0, 0.0], (4, 1))
        dataset = ReplayDataset(contexts=contexts, rewards=rewards)
        spec = PolicySpec(name="scripted", params={"arms": [0]})
        records = list(run_replay(dataset, [spec], seeds=[0]))
        assert all(rec.cum_regret == 0.0 for rec in records)

    def test_constant_rewards_all_policies_tie_at_zero(self):
        contexts = np.random.default_rng(0).standard_normal((5, 3, 2))
        rewards = np.full((5, 3), 0.4)
        dataset = ReplayDataset(contexts=contexts, rewards=rewards)
        specs = [PolicySpec(name="uniform"), PolicySpec(name="linucb")]
        for rec in run_replay(dataset, specs, seeds=[0, 1]):
            assert rec.inst_regret == 0.0

    def test_rows_beyond_physical_memory_rejected_before_round_one(self):
        # Three logged rounds, but no machine holds their rows for 10**15 seeds;
        # the first record would come out of round 1.
        records = run_replay(hand_dataset(), [PolicySpec(name="uniform")], seeds=range(10**15))
        with pytest.raises(ConfigError, match="'T'"):
            next(records)

    def test_replay_metrics_absent(self):
        records = list(run_replay(hand_dataset(), [PolicySpec(name="uniform")], seeds=[0]))
        assert all(rec.rel_regret is None and rec.cos_dist is None for rec in records)

    def test_noise_covariance_is_ten_percent_sample_variance(self):
        dataset = hand_dataset()
        flat = dataset.contexts.reshape(-1, 2)
        expected = np.diag(0.1 * flat.var(axis=0))
        assert np.allclose(dataset.noise_covariance(), expected)

    def test_policies_never_see_unchosen_rewards(self):
        observed = []

        class SpyPolicy(Policy):
            def select(self, t, x, rng):
                return 0

            def observe(self, t, arm, x_arm, y):
                observed.append((t, arm, float(y)))

        from bandit_lab.runner import POLICIES

        POLICIES["_spy"] = dict(build=lambda ctx, p: SpyPolicy())
        try:
            dataset = hand_dataset()
            list(run_replay(dataset, [PolicySpec(name="_spy")], seeds=[0]))
        finally:
            del POLICIES["_spy"]
        # one observation per round, always the chosen arm's reward
        assert observed == [(1, 0, 1.0), (2, 0, 0.3), (3, 0, 0.5)]

    def test_gradient_policy_runs_in_replay_mode(self):
        spec = PolicySpec(name="gradient_linrel", params={"mc_samples": 20})
        records = list(run_replay(hand_dataset(), [spec], seeds=[0]))
        assert len(records) == 3

    def test_gradient_policy_with_overflowing_noise_covariance_exits_when_built(self, tmp_path, capsys):
        # context_1's variance, and so its 0.1 share in the noise covariance, overflows to inf
        data = tmp_path / "data.csv"
        data.write_text(
            "round,arm_index,context_0,context_1,reward\n"
            "0,0,1.0,1e200,1.0\n0,1,0.0,-1e200,0.2\n"
            "1,0,0.5,2e200,0.3\n1,1,1.0,-2e200,0.8\n"
            "2,0,0.2,1e200,0.5\n2,1,0.3,-1e200,0.1\n"
        )
        cfg = tmp_path / "cfg.json"
        environment = {
            "K": 2,
            "d": 2,
            "T": 3,
            "theta_star": [0.5, -0.4],
            "feature_distribution": {"kind": "iid", "family": {"name": "gaussian"}},
            "reward_noise_sigma": 0.1,
        }
        policies = [{"name": "gradient_linrel", "params": {"mc_samples": 20}}]
        cfg.write_text(json.dumps({"environment": environment, "policies": policies, "seeds": [0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["replay", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "gradient_linrel" in err and "finite" in err and "stopped at round" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "column, fault",
        [(["1e200", "-1e200", "2e200", "-2e200", "1e200", "-1e200"], "finite"), (["1.0"] * 6, "positive-definite")],
    )
    def test_unusable_log_covariance_is_named_as_the_logs(self, tmp_path, capsys, column, fault):
        # Overflowing or constant context_1: 0.1 of its variance is inf or 0. The
        # config's parameters are fine, so the message blames the log's covariance,
        # before round 1. noisy_linrel draws no noise, so only a non-finite one stops it.
        rows = [(0, 0, "1.0", 1.0), (0, 1, "0.0", 0.2), (1, 0, "0.5", 0.3), (1, 1, "1.0", 0.8), (2, 0, "0.2", 0.5), (2, 1, "0.3", 0.1)]
        data = tmp_path / "data.csv"
        data.write_text(
            "round,arm_index,context_0,context_1,reward\n"
            + "".join(f"{rid},{arm},{c0},{c1},{y}\n" for (rid, arm, c0, y), c1 in zip(rows, column))
        )
        cfg = tmp_path / "cfg.json"
        environment = {"K": 2, "d": 2, "T": 3, "feature_distribution": {"kind": "iid", "family": {"name": "gaussian"}}}
        for policy in [{"name": "gradient_linrel", "params": {"mc_samples": 20}}, {"name": "noisy_linrel"}]:
            cfg.write_text(json.dumps({"environment": environment, "policies": [policy], "seeds": [0]}))
            out = tmp_path / policy["name"]
            code = main(["replay", "--data", str(data), "--config", str(cfg), "--out", str(out)])
            err = capsys.readouterr().err
            if policy["name"] == "noisy_linrel" and fault == "positive-definite":
                assert code == EXIT_OK and err == ""
                continue
            assert code == EXIT_CONFIG
            assert f"policy {policy['name']!r} cannot use the replay log's noise covariance" in err and fault in err
            assert "bad parameters" not in err and "stopped at round" not in err
            assert not out.exists()
