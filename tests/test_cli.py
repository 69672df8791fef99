import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bandit_lab import env as envmod
from bandit_lab import policies as polmod
from bandit_lab.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, main
from bandit_lab.runner import ConfigError, PolicyContext, PolicySpec, build_policy


def write_config(path, **overrides):
    doc = {
        "environment": {
            "K": 3,
            "d": 2,
            "T": 30,
            "theta_star": [0.5, -0.4],
            "feature_distribution": {"kind": "iid", "family": {"name": "gaussian"}},
            "noise": {"mode": "per_arm", "covariance": {"diag": [0.2, 0.3]}},
            "reward_noise_sigma": 0.1,
        },
        "policies": [{"name": "uniform"}, {"name": "linucb"}],
        "seeds": [0, 1],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def replay_config(path, rounds=2, **overrides):
    """write_config with the environment shaped as a 2-arm, 2-d log of ``rounds`` rounds, which replay requires."""
    environment = json.loads(write_config(path).read_text())["environment"]
    return write_config(path, environment={**environment, "K": 2, "T": rounds}, **overrides)


def replay_text():
    return (
        "round,arm_index,context_0,context_1,reward\n"
        "0,0,1.0,0.0,1.0\n"
        "0,1,0.0,1.0,0.2\n"
        "1,0,0.5,0.5,0.3\n"
        "1,1,1.0,-1.0,0.8\n"
    )


class TestRunCommand:
    def test_run_writes_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "results.csv").exists()
        lines = (out / "results.csv").read_text().strip().split("\n")
        assert lines[0] == "t,policy,seed,arm,reward,inst_regret,cum_regret,rel_regret,cos_dist"
        assert len(lines) == 1 + 2 * 2 * 30

    def test_run_charts_flag(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--charts"]) == EXIT_OK
        assert (out / "chart_cum_regret.svg").exists()

    def test_identical_configs_byte_identical_csv(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == EXIT_OK
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_bad_json_exits_config(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_dimension_mismatch_exits_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        doc["environment"]["theta_star"] = [0.5, 0.5, 0.5]
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_nan_reward_noise_sigma_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        doc["environment"]["reward_noise_sigma"] = float("nan")
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "NaN" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_infinite_covariance_entry_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        doc["environment"]["noise"]["covariance"] = [[float("inf"), 0.0], [0.0, 0.3]]
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "Infinity" in capsys.readouterr().err

    def test_overflowing_number_exits_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        cfg.write_text(cfg.read_text().replace('"reward_noise_sigma": 0.1', '"reward_noise_sigma": 1e400'))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_overflowing_running_sums_exit_config(self, tmp_path, capsys):
        # Features near 1e300 overflow noisy_linrel's sum of outer products in round 2.
        cfg = write_config(tmp_path / "cfg.json", policies=["noisy_linrel"])
        doc = json.loads(cfg.read_text())
        doc["environment"]["feature_distribution"]["family"]["mean"] = 1e300
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "policy 'noisy_linrel' stopped at round 2 of seed 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_horizon_beyond_a_double_exits_config(self, tmp_path, capsys):
        # The run config bounds 'T' before any policy is built; built directly,
        # greedy's default tau, floor(T ** (2/3)) computed through a float, overflows.
        cfg = write_config(tmp_path / "cfg.json", policies=["greedy"])
        doc = json.loads(cfg.read_text())
        doc["environment"]["T"] = 10**400
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "'T' must be at most" in capsys.readouterr().err
        ctx = PolicyContext(d=2, K=3, T=10**400, noise_cov=np.eye(2), rng=np.random.default_rng(0))
        with pytest.raises(ConfigError, match="'greedy'"):
            build_policy(PolicySpec(name="greedy"), ctx)

    def test_huge_horizon_with_one_policy_exits_config(self, tmp_path):
        # One policy holds no rows up front, so only the bound on 'T' stops
        # this run; it goes in a subprocess with a deadline, so a regression
        # fails instead of playing rounds until it is killed.
        cfg = write_config(tmp_path / "cfg.json", policies=["uniform"])
        doc = json.loads(cfg.read_text())
        doc["environment"]["T"] = 10**30
        cfg.write_text(json.dumps(doc))
        cmd = [sys.executable, "-m", "bandit_lab.cli", "run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == EXIT_CONFIG
        assert "'T' must be at most" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("policies", [["uniform"], ["uniform", "linucb"]], ids=["one-policy", "two-policies"])
    def test_horizon_beyond_physical_memory_exits_config(self, tmp_path, policies):
        # 10**15 rounds are below MAX_ROUNDS, but no machine holds their rows,
        # so the run must stop before round 1; like the test above it goes in
        # a subprocess with a deadline.
        cfg = write_config(tmp_path / "cfg.json", policies=policies)
        doc = json.loads(cfg.read_text())
        doc["environment"]["T"] = 10**15
        cfg.write_text(json.dumps(doc))
        cmd = [sys.executable, "-m", "bandit_lab.cli", "run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == EXIT_CONFIG
        assert "'T'" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_linucb_with_overflowing_sums_exits_config(self, tmp_path, capsys):
        # Features near 1e300 overflow LinUCB's A = I + sum x x^T in round 1,
        # and solve(A, b) then returns NaN without raising.
        cfg = write_config(tmp_path / "cfg.json", policies=["linucb"])
        doc = json.loads(cfg.read_text())
        doc["environment"]["feature_distribution"]["family"]["mean"] = 1e300
        doc["environment"]["noise"]["mode"] = "identical"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "policy 'linucb' stopped at round 1 of seed 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_chart_labels_are_escaped(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", policies=["uniform", {"name": "linucb", "label": "R&D <x>"}])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--charts"]) == EXIT_OK
        for metric in ("cum_regret", "rel_regret", "cos_dist"):
            root = ET.parse(out / f"chart_{metric}.svg").getroot()
            assert "R&D <x>" in [text.text for text in root.iter("{http://www.w3.org/2000/svg}text")]

    def test_misspelled_policy_param_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", policies=[{"name": "linucb", "params": {"ucb_alpah": 9}}])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "'ucb_alpah'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_tiny_truncation_radius_exits_config(self, tmp_path):
        # Rejection sampling at this radius never ends, so the run goes in a
        # subprocess with a deadline: a regression fails instead of hanging.
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        doc["environment"]["noise"]["truncation_radius"] = 1e-3
        cfg.write_text(json.dumps(doc))
        cmd = [sys.executable, "-m", "bandit_lab.cli", "run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == EXIT_CONFIG
        assert "truncation radius" in proc.stderr

    @pytest.mark.parametrize(
        "family",
        [
            {"name": "gaussian", "std": "1"},
            {"name": "mixture", "weight": "0.3", "first": {"name": "gaussian"}, "second": {"name": "gaussian"}},
            {"name": "gaussian", "mean": "0"},
            {"name": "laplace", "loc": "0"},
            {"name": "gaussian", "sd": 5},
        ],
    )
    def test_family_param_of_wrong_type_exits_config(self, tmp_path, family, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        doc["environment"]["feature_distribution"]["family"] = family
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        bad_key = [key for key in family if key not in ("name", "first", "second")][0]
        assert repr(bad_key) in capsys.readouterr().err

    def test_metrics_must_be_a_list_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", metrics="cum_regret")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "'metrics' must be a list" in capsys.readouterr().err
        cfg = write_config(tmp_path / "cfg.json", metrics=["diagnostics"])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "unknown metric 'diagnostics'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_step_size_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", policies=[{"name": "gradient_linrel", "params": {"step_size": -1}}])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "step_size and ucb_coeff must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "policy, key, value",
        [
            ("gradient_linrel", "mc_samples", 1.5),
            ("gradient_linrel", "mc_samples", True),
            ("greedy", "tau", "2"),
            ("scripted", "arms", [1.7]),
        ],
    )
    def test_integer_param_of_wrong_type_exits_config(self, tmp_path, capsys, policy, key, value):
        cfg = write_config(tmp_path / "cfg.json", policies=[{"name": policy, "params": {key: value}}])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"{key!r} takes integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "policy, key, value",
        [
            ("linucb", "ucb_alpha", True),
            ("linucb", "ucb_alpha", "0.5"),
            ("noisy_linrel", "alpha_exponent", True),
            ("gradient_linrel", "alpha_exponent", True),
            ("gradient_linrel", "fd_step", True),
            ("gradient_linrel", "step_size", True),
            ("gradient_linrel", "ucb_coeff", True),
        ],
    )
    def test_number_param_of_wrong_type_exits_config(self, tmp_path, capsys, policy, key, value):
        cfg = write_config(tmp_path / "cfg.json", policies=[{"name": policy, "params": {key: value}}])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"{key!r} takes numbers" in capsys.readouterr().err

    def test_negative_tau_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", policies=[{"name": "greedy", "params": {"tau": -5}}])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "tau must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("T", 2.7), ("T", "5"), ("T", True), ("K", 3.0), ("K", "3"), ("d", True), ("d", 2.0)],
    )
    def test_environment_size_of_wrong_type_exits_config(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        doc["environment"][key] = value
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"{key!r} takes integers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [True, "0.1"])
    def test_reward_noise_sigma_of_wrong_type_exits_config(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        doc["environment"]["reward_noise_sigma"] = value
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "'reward_noise_sigma' takes numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", [[True], [0, False], [1.0], ["0"], [], 3])
    def test_seeds_of_wrong_type_exit_config(self, tmp_path, capsys, seeds):
        cfg = write_config(tmp_path / "cfg.json", seeds=seeds)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "'seeds'" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", [[2**64, 0], [-1]], ids=["2**64", "-1"])
    def test_seeds_outside_64_bits_exit_config(self, tmp_path, capsys, seeds):
        # Draws are keyed by a seed's 64 bits, so seed 2**64 would replay seed 0.
        cfg = write_config(tmp_path / "cfg.json", seeds=seeds)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "'seeds'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_largest_seed_runs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", seeds=[2**64 - 1])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_scripted_arm_out_of_range_exits_before_any_round(self, tmp_path, capsys, monkeypatch):
        sampled = []
        sample_round = envmod.sample_round
        monkeypatch.setattr(envmod, "sample_round", lambda *a, **k: sampled.append(a) or sample_round(*a, **k))
        cfg = write_config(tmp_path / "cfg.json", policies=["uniform", {"name": "scripted", "params": {"arms": [0, 7]}}])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "scripted arms [7] out of range 0..2" in capsys.readouterr().err
        assert sampled == []

    def test_unwritable_output_exits_io(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        assert main(["run", "--config", str(cfg), "--out", str(blocker / "sub")]) == EXIT_IO

    @pytest.mark.parametrize("earlier_results", [False, True], ids=["fresh", "earlier-results"])
    def test_failed_chart_write_removes_the_files_it_created(self, tmp_path, capsys, earlier_results):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        (out / "chart_rel_regret.svg").mkdir(parents=True)  # the second chart cannot be written
        if earlier_results:
            (out / "results.csv").write_text("an earlier run's results\n")
        assert main(["run", "--config", str(cfg), "--out", str(out), "--charts"]) == EXIT_IO
        assert capsys.readouterr().out == ""
        left = sorted(path.name for path in out.iterdir())
        assert left == (["chart_rel_regret.svg", "results.csv"] if earlier_results else ["chart_rel_regret.svg"])


class TestReplayCommand:
    def test_replay_runs(self, tmp_path):
        cfg = replay_config(tmp_path / "cfg.json", policies=[{"name": "linucb"}])
        data = tmp_path / "data.csv"
        data.write_text(replay_text())
        out = tmp_path / "out"
        assert main(["replay", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "results.csv").exists()

    @pytest.mark.parametrize("key, value, logged", [("K", 3, 2), ("d", 3, 2), ("T", 30, 2)])
    def test_environment_unlike_the_log_exits_config(self, tmp_path, capsys, key, value, logged):
        # Each replayed the log's 2 arms, 2 coordinates and 2 rounds with exit 0, whatever the environment said.
        cfg = write_config(tmp_path / "cfg.json", environment={"K": 2, "d": 2, "T": 2, key: value})
        data = tmp_path / "data.csv"
        data.write_text(replay_text())
        out = tmp_path / "out"
        assert main(["replay", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: environment {key!r} = {value} does not match the replay log's {logged}" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_data_exits_data(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        data = tmp_path / "data.csv"
        data.write_text("round,arm_index,context_0,reward\n0,0,bad,1\n")
        assert main(["replay", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_DATA

    def test_oracle_policy_in_replay_exits_config(self, tmp_path):
        cfg = replay_config(tmp_path / "cfg.json", policies=[{"name": "oracle_tc"}])
        data = tmp_path / "data.csv"
        data.write_text(replay_text())
        assert main(["replay", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_constant_context_column(self, tmp_path, capsys):
        # an intercept column has zero variance, so the default noise covariance is singular
        data = tmp_path / "data.csv"
        data.write_text(
            "round,arm_index,context_0,context_1,reward\n"
            "0,0,1.0,1.0,1.0\n0,1,0.0,1.0,0.2\n"
            "1,0,0.5,1.0,0.3\n1,1,1.0,1.0,0.8\n"
            "2,0,0.2,1.0,0.5\n2,1,0.3,1.0,0.1\n"
        )
        args = ["replay", "--data", str(data), "--out", str(tmp_path / "o")]
        cfg = replay_config(tmp_path / "ok.json", rounds=3, policies=["noisy_linrel", "linucb", "greedy"])
        assert main(args + ["--config", str(cfg)]) == EXIT_OK
        assert len((tmp_path / "o" / "results.csv").read_text().strip().split("\n")) == 1 + 3 * 2 * 3
        cfg = replay_config(tmp_path / "grad.json", rounds=3, policies=[{"name": "gradient_linrel", "params": {"mc_samples": 20}}])
        assert main(args + ["--config", str(cfg)]) == EXIT_CONFIG
        assert "positive-definite" in capsys.readouterr().err

    def test_unbuildable_later_policy_exits_before_any_round(self, tmp_path, capsys, monkeypatch):
        selected = []
        for cls in (polmod.NoisyLinRel, polmod.LinUCB):
            select = cls.select
            monkeypatch.setattr(cls, "select", lambda self, *a, _select=select: selected.append(a) or _select(self, *a))
        data = tmp_path / "data.csv"
        data.write_text(
            "round,arm_index,context_0,context_1,reward\n"
            "0,0,1.0,1.0,1.0\n0,1,0.0,1.0,0.2\n"
            "1,0,0.5,1.0,0.3\n1,1,1.0,1.0,0.8\n"
        )
        cfg = replay_config(
            tmp_path / "cfg.json", policies=["noisy_linrel", "linucb", {"name": "gradient_linrel", "params": {"mc_samples": 20}}]
        )
        args = ["replay", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(args) == EXIT_CONFIG
        assert "positive-definite" in capsys.readouterr().err
        assert selected == []

    def test_work_bound_names_the_logs_rounds_not_T(self, tmp_path, capsys):
        # 2 logged rounds x 1 seed x 10^12 draws x 2 arms x d = 2: over the work bound. The
        # config's 'T' only has to equal the log's count, so the message names the log's.
        cfg = replay_config(tmp_path / "cfg.json", policies=[{"name": "gradient_linrel", "params": {"mc_samples": 10**12}}], seeds=[0])
        data = tmp_path / "data.csv"
        data.write_text(replay_text())
        out = tmp_path / "o"
        assert main(["replay", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "the replay log's 2 rounds x 1 seeds x 'mc_samples' = 1000000000000 draws" in err
        assert "'T'" not in err
        assert not out.exists()


class TestGradtableCommand:
    def test_writes_two_column_csv(self, tmp_path):
        cfg = tmp_path / "grad.json"
        cfg.write_text(
            json.dumps(
                {
                    "distributions": ["gaussian", "lognormal"],
                    "theta_star_seed": 0,
                    "feature_samples": 200,
                    "mc_noise_samples": 50,
                }
            )
        )
        out = tmp_path / "table.csv"
        assert main(["gradtable", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "distribution,l2_norm"
        assert [line.split(",")[0] for line in lines[1:]] == ["gaussian", "lognormal"]
        for line in lines[1:]:
            float(line.split(",")[1])

    def test_nan_fd_step_exits_config(self, tmp_path):
        cfg = tmp_path / "grad.json"
        cfg.write_text(json.dumps({"distributions": ["gaussian"], "fd_step": float("nan")}))
        assert main(["gradtable", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG

    @pytest.mark.parametrize("value", [True, "0.1"])
    def test_fd_step_of_wrong_type_exits_config(self, tmp_path, capsys, value):
        cfg = tmp_path / "grad.json"
        cfg.write_text(json.dumps({"distributions": ["gaussian"], "feature_samples": 2, "mc_noise_samples": 2, "fd_step": value}))
        assert main(["gradtable", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG
        assert "'fd_step' takes numbers" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_unknown_distribution_exits_config(self, tmp_path):
        cfg = tmp_path / "grad.json"
        cfg.write_text(json.dumps({"distributions": ["cauchy"]}))
        assert main(["gradtable", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"d": "x"}, "'d' takes integers"),
            ({"mc_noise_samples": 0}, "'mc_noise_samples' must be at least 1"),
            ({"noise_diag": [0, 1], "d": 2}, "noise_diag must hold d=2 positive numbers"),
            ({"K": 0}, "'K' must be at least 1"),
            ({"distributions": "gaussian"}, "'distributions' must be a list"),
            ({"theta_star_seed": 2**64}, "'theta_star_seed' must be at most 18446744073709551615"),
            ({"theta_star_seed": -1}, "'theta_star_seed' must be at least 0"),
            ({"d": 10**6}, "'d' = 1000000 makes a 1000000 x 1000000 matrix"),
            ({"K": 10**12}, "'K' = 1000000000000 arms"),
            ({"fd_step": 0}, "'fd_step' must be positive"),
            ({"feature_samples": 0}, "'feature_samples' must be at least 1"),
            ({"feature_samples": 10**15, "mc_noise_samples": 10, "K": 2, "d": 2}, "'feature_samples' = 1000000000000000 feature sets x 'mc_noise_samples' = 10"),
        ],
        ids=[
            "d-string",
            "no-mc-samples",
            "zero-noise-variance",
            "no-arms",
            "distributions-string",
            "seed-aliasing-0",
            "seed-aliasing-max",
            "d-beyond-memory",
            "K-beyond-memory",
            "zero-fd-step",
            "no-feature-samples",
            "feature-samples-beyond-the-work-bound",
        ],
    )
    def test_bad_table_config_exits_config(self, tmp_path, capsys, field, message):
        cfg = tmp_path / "grad.json"
        cfg.write_text(json.dumps({"distributions": ["gaussian"], "feature_samples": 2, "mc_noise_samples": 2, **field}))
        assert main(["gradtable", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_largest_theta_star_seed_runs(self, tmp_path):
        cfg = tmp_path / "grad.json"
        cfg.write_text(json.dumps({"distributions": ["gaussian"], "feature_samples": 2, "mc_noise_samples": 2, "theta_star_seed": 2**64 - 1}))
        assert main(["gradtable", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == EXIT_OK


class TestDiagnoseCommand:
    def test_writes_checkpoints(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            environment={
                "K": 3,
                "d": 2,
                "T": 16,
                "theta_star": [0.5, -0.4],
                "feature_distribution": {"kind": "iid", "family": {"name": "gaussian"}},
                "noise": {"mode": "identical", "covariance": {"diag": [0.2, 0.3]}},
                "reward_noise_sigma": 0.1,
            },
            policies=[{"name": "uniform"}],
            seeds=[0],
        )
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,policy,seed,norm_n1,norm_n2,norm_n3"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "4", "8", "16"]

    def test_per_arm_noise_exits_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", policies=[{"name": "uniform"}])
        assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == EXIT_CONFIG

    def test_failing_run_writes_no_file(self, tmp_path, capsys):
        # noisy_linrel's running sums overflow in round 2; the checkpoint of round 1 must not be written
        cfg = write_config(
            tmp_path / "cfg.json",
            environment={
                "K": 3,
                "d": 2,
                "T": 30,
                "theta_star": [0.5, -0.4],
                "feature_distribution": {"kind": "iid", "family": {"name": "gaussian", "mean": 1e300}},
                "noise": {"mode": "identical", "covariance": {"diag": [0.2, 0.3]}},
                "reward_noise_sigma": 0.1,
            },
            policies=[{"name": "noisy_linrel"}],
            seeds=[0],
        )
        out = tmp_path / "d.csv"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "stopped at round" in capsys.readouterr().err
        assert not out.exists()

    def test_more_than_one_policy_exits_config_before_round_one(self, tmp_path, capsys, monkeypatch):
        # Every policy after the first was dropped without a word, with exit 0.
        sampled = []
        sample_round = envmod.sample_round
        monkeypatch.setattr(envmod, "sample_round", lambda *a, **k: sampled.append(a) or sample_round(*a, **k))
        environment = json.loads(write_config(tmp_path / "cfg.json").read_text())["environment"]
        environment["noise"]["mode"] = "identical"
        cfg = write_config(tmp_path / "cfg.json", environment=environment, policies=["uniform", "linucb"])
        out = tmp_path / "d.csv"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "'policies'" in capsys.readouterr().err
        assert sampled == []
        assert not out.exists()


HUGE_MEAN = {"kind": "iid", "family": {"name": "gaussian", "mean": 1e308}}


@pytest.mark.parametrize(
    "command, environment, policies, log",
    [
        # Hidden values z . theta* of 2e308: every row read inf,nan,nan,nan, with exit 0.
        ("run", {"K": 3, "d": 4, "T": 3, "theta_star": [0.5] * 4, "feature_distribution": HUGE_MEAN, "reward_noise_sigma": 0}, ["uniform"], None),
        # Logged rewards of +-1e308 in one round: an infinite inst_regret, with exit 0.
        (
            "replay",
            {"K": 2, "d": 2, "T": 3},
            ["uniform", {"name": "scripted", "params": {"arms": [1]}}],
            "round,arm_index,context_0,context_1,reward\n0,0,1.0,0.0,1e308\n0,1,0.0,1.0,-1e308\n"
            "1,0,0.5,0.5,0.3\n1,1,1.0,-1.0,0.8\n2,0,0.2,0.1,0.5\n2,1,0.3,0.4,0.1\n",
        ),
        # A logged reward of -1e308 overflows noisy_linrel's reward-weighted sum: its next scores were NaN,
        # with a RuntimeWarning from matmul.
        (
            "replay",
            {"K": 2, "d": 2, "T": 3},
            ["noisy_linrel"],
            "round,arm_index,context_0,context_1,reward\n0,0,-2.0,0.0,-1e308\n0,1,-2.0,0.1,-1e308\n"
            "1,0,0.5,0.5,0.3\n1,1,1.0,-1.0,0.8\n2,0,0.2,0.1,0.5\n2,1,0.3,0.4,0.1\n",
        ),
        # Diagnostic sums that overflow: a ValueError traceback from spectral_norm.
        (
            "diagnose",
            {"K": 3, "d": 2, "T": 8, "theta_star": [0.7, 0.7], "feature_distribution": HUGE_MEAN,
             "noise": {"mode": "identical", "covariance": {"diag": [4, 4]}}},
            ["uniform"],
            None,
        ),
    ],
    ids=["run-rewards-overflow", "replay-regret-overflows", "replay-estimate-overflows", "diagnose-sums-overflow"],
)
def test_non_finite_values_exit_config_naming_round_and_seed(tmp_path, capsys, command, environment, policies, log):
    cfg = write_config(tmp_path / "cfg.json", environment=environment, policies=policies, seeds=[0])
    out = tmp_path / "out"
    args = [command, "--config", str(cfg), "--out", str(out)]
    if log is not None:
        (tmp_path / "log.csv").write_text(log)
        args += ["--data", str(tmp_path / "log.csv")]
    assert main(args) == EXIT_CONFIG  # pytest turns a RuntimeWarning on the way into an error
    assert re.search(r"stopped at round \d+ of seed 0: .* not finite", capsys.readouterr().err)
    assert not out.exists()


MVN = "multivariate_gaussian"


@pytest.mark.parametrize(
    "command, path, value, key",
    [
        # Each of these ended in a traceback before every value's JSON type was read in one place.
        ("run", ("environment", "theta_star"), {"a": 1}, "'theta_star'"),
        ("run", ("environment", "feature_distribution"), {"kind": MVN, "covariance": {"a": 1}}, "'covariance'"),
        ("run", ("environment", "feature_distribution", "family", "name"), ["gaussian"], "'name'"),
        ("run", ("policies", 0, "name"), ["uniform"], "'name'"),
        ("run", ("policies", 0, "label"), ["a"], "'label'"),
        # Each of these ran to exit 0, reading bools or strings as numbers.
        ("run", ("environment", "noise", "truncation_radius"), True, "'truncation_radius'"),
        ("run", ("environment", "theta_star"), ["0.5", "0.1"], "'theta_star'"),
        ("run", ("environment", "noise", "covariance"), {"diag": [True, True]}, "'diag'"),
        ("run", ("environment", "noise", "covariance"), [["0.2", "0"], ["0", "0.3"]], "'covariance'"),
        ("run", ("environment", "feature_distribution"), {"kind": MVN, "covariance": [["1", "0"], ["0", "1"]]}, "'covariance'"),
        ("run", ("policies", 0, "label"), 5, "'label'"),
        ("gradtable", ("noise_diag",), [True, True], "'noise_diag'"),
        # Families whose mean or variance overflows a double, rows, a d x d matrix or a round's draw too large
        # to hold (each an array-allocation traceback before), and an integer that overflows a double.
        ("run", ("environment", "feature_distribution", "family"), {"name": "lognormal", "sigma": 30}, "feature_distribution"),
        ("run", ("environment", "feature_distribution", "family"), {"name": "gaussian", "std": 1e300}, "feature_distribution"),
        ("run", ("environment", "feature_distribution", "family"), {"name": "uniform", "low": -1e308, "high": 1e308}, "feature_distribution"),
        ("run", ("environment", "T"), 10**30, "'T'"),
        ("run", ("environment", "d"), 10**6, "'d'"),
        ("run", ("environment", "K"), 10**12, "'K'"),
        ("gradtable", ("d",), 10**6, "'d'"),
        ("run", ("environment", "reward_noise_sigma"), 10**400, "'reward_noise_sigma'"),
        # Monte-Carlo draw counts whose score entries exceed the work bound, each an array-allocation traceback before.
        ("gradtable", ("mc_noise_samples",), 10**12, "'mc_noise_samples'"),
        ("run", ("policies", 0), {"name": "gradient_linrel", "params": {"mc_samples": 10**12}}, "'mc_samples'"),
        # gradient_linrel's score entries over all rounds and seeds beyond the work bound: 5e12 of them, which
        # played until killed before. The empty path sets several top-level keys at once.
        (
            "run",
            (),
            {
                "environment": {"K": 5, "d": 10, "T": 10**6},
                "policies": [{"name": "gradient_linrel", "params": {"mc_samples": 10**5}}],
                "seeds": [0],
            },
            "'T' = 1000000 rounds x 1 seeds x 'mc_samples' = 100000 draws",
        ),
        # A family's missing or unknown parameter.
        ("run", ("environment", "feature_distribution", "family"), {"name": "uniform", "low": -1.0}, "'high'"),
        ("run", ("environment", "feature_distribution", "family"), {"name": "mixture", "weight": 0.3, "first": {"name": "gaussian"}}, "'second'"),
        ("run", ("environment", "feature_distribution", "family"), {"name": "exponential", "scale": 1}, "'scale'"),
        # Unknown keys, each ignored with exit 0 before every config object's keys were checked.
        ("run", ("metricz",), ["cum_regret"], "'metricz'"),
        ("run", ("environment", "reward_noise_sigm"), 0.5, "'reward_noise_sigm'"),
        ("run", ("environment", "feature_distribution", "extra"), 1, "'extra'"),
        ("run", ("environment", "feature_distribution", "covariance"), [[1.0, 0.0], [0.0, 1.0]], "'covariance'"),
        ("run", ("environment", "noise", "mod"), "identical", "'mod'"),
        ("run", ("environment", "noise", "covariance"), {"diag": [0.2, 0.3], "scale": 1}, "'scale'"),
        ("run", ("policies", 0, "lable"), "a", "'lable'"),
        ("gradtable", ("fd_stpe",), -1, "'fd_stpe'"),
        # Unknown names of a family and of a feature_distribution kind.
        ("run", ("environment", "feature_distribution", "family", "name"), "gaussain", "unknown family 'gaussain'"),
        ("run", ("environment", "feature_distribution", "kind"), "iid2", "unknown feature_distribution kind 'iid2'"),
    ],
    ids=[
        "theta_star-object",
        "mvn-covariance-object",
        "family-name-list",
        "policy-name-list",
        "label-list",
        "truncation_radius-bool",
        "theta_star-strings",
        "diag-bools",
        "noise-covariance-strings",
        "mvn-covariance-strings",
        "label-number",
        "noise_diag-bools",
        "lognormal-mean-overflows",
        "gaussian-variance-overflows",
        "uniform-variance-infinite",
        "huge-T",
        "run-d-beyond-memory",
        "run-K-beyond-memory",
        "gradtable-d-beyond-memory",
        "integer-beyond-a-double",
        "gradtable-mc-beyond-memory",
        "gradient_linrel-mc-beyond-memory",
        "gradient_linrel-work-beyond-the-bound",
        "uniform-without-high",
        "mixture-without-second",
        "exponential-with-scale",
        "top-level-metricz",
        "environment-reward_noise_sigm",
        "feature_distribution-extra",
        "iid-with-covariance",
        "noise-mod",
        "diag-with-scale",
        "policy-lable",
        "gradtable-fd_stpe",
        "family-gaussain",
        "kind-iid2",
    ],
)
def test_rejected_value_exits_config_naming_the_key(tmp_path, capsys, command, path, value, key):
    if command == "run":
        doc = json.loads(write_config(tmp_path / "cfg.json").read_text())
    else:
        doc = {"distributions": ["gaussian"], "d": 2, "feature_samples": 2, "mc_noise_samples": 2}
    if not path:
        doc.update(value)
    else:
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


COMMANDS = ["run", "replay", "gradtable", "diagnose"]


def command_argv(tmp_path, command, out):
    """argv of a small successful run of command writing under out, and the paths it writes, in printed order."""
    if command == "gradtable":
        cfg = tmp_path / "grad.json"
        cfg.write_text(json.dumps({"distributions": ["gaussian"], "d": 2, "K": 2, "feature_samples": 2, "mc_noise_samples": 2}))
        return ["gradtable", "--config", str(cfg), "--out", str(out)], [out]
    if command == "diagnose":
        environment = json.loads(write_config(tmp_path / "cfg.json").read_text())["environment"]
        environment["noise"]["mode"] = "identical"
        cfg = write_config(tmp_path / "cfg.json", environment=environment, policies=["uniform"])
        return ["diagnose", "--config", str(cfg), "--out", str(out)], [out]
    if command == "run":
        cfg = write_config(tmp_path / "cfg.json")
        charts = [out / f"chart_{metric}.svg" for metric in ("cum_regret", "rel_regret", "cos_dist")]
        return ["run", "--config", str(cfg), "--out", str(out), "--charts"], [out / "results.csv", *charts]
    cfg = replay_config(tmp_path / "cfg.json")
    (tmp_path / "log.csv").write_text(replay_text())
    return ["replay", "--data", str(tmp_path / "log.csv"), "--config", str(cfg), "--out", str(out)], [out / "results.csv"]


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_is_the_written_paths_one_per_line(tmp_path, capsys, command):
    out = tmp_path / "out" / "sub"
    argv, written = command_argv(tmp_path, command, out if command in ("run", "replay") else out / "table.csv")
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "".join(f"{path}\n" for path in written)
    assert sorted(path for path in (tmp_path / "out").rglob("*") if path.is_file()) == sorted(written)


@pytest.mark.parametrize("command", COMMANDS)
def test_out_below_a_regular_file_exits_io_and_writes_nothing(tmp_path, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not dir")
    argv, _ = command_argv(tmp_path, command, blocker / "sub")
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("i/o error: ") and str(blocker) in err  # the OS message names the path
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "file, not dir"


@pytest.mark.parametrize("command", COMMANDS)
def test_unwritable_stdout_exits_io(tmp_path, monkeypatch, capsys, command):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    argv, written = command_argv(tmp_path, command, tmp_path / "out")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == EXIT_IO
    assert "i/o error: [Errno 32] Broken pipe" in capsys.readouterr().err
    assert all(path.is_file() for path in written)


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command in COMMANDS for flag in ("--config", "--out")] + [("replay", "--data")],
)
def test_missing_required_flag_exits_usage(tmp_path, capsys, command, flag):
    argv, _ = command_argv(tmp_path, command, tmp_path / "out")
    at = argv.index(flag)
    with pytest.raises(SystemExit) as exc:
        main(argv[:at] + argv[at + 2 :])
    assert exc.value.code == 2
    assert f"the following arguments are required: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, code, stdout",
    [
        ({"distributions": ["gaussian"], "d": 2, "K": 2, "feature_samples": 2, "mc_noise_samples": 2}, EXIT_OK, True),
        ({"distributions": ["cauchy"]}, EXIT_CONFIG, False),
    ],
    ids=["tiny-table", "unknown-distribution"],
)
def test_module_entry_point_exits_with_mains_code(tmp_path, doc, code, stdout):
    cfg = tmp_path / "grad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "table.csv"
    cmd = [sys.executable, "-m", "bandit_lab.cli", "gradtable", "--config", str(cfg), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == code
    assert proc.stdout == (f"{out}\n" if stdout else "")
    assert out.exists() == stdout
