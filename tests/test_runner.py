import csv
import importlib
import inspect
import json
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from test_golden import ALL_POLICIES, IDENTICAL_ENV, PER_ARM_ENV

import bandit_lab
from bandit_lab import env as envmod
from bandit_lab.env import LANE_REWARD, bar_theta_arm, sample_round
from bandit_lab.linalg import spectral_norm
from bandit_lab.policies import bayes_optimal_theta
from bandit_lab.runner import (
    POLICIES,
    RESULTS_HEADER,
    ConfigError,
    DataFormatError,
    PolicyContext,
    PolicySpec,
    RunConfig,
    ReplayDataset,
    RunRecord,
    _chart_series,
    _cosine_distance,
    build_policy,
    emit_outputs,
    environment_for_seed,
    parse_run_config,
    parse_table_config,
    read_records_csv,
    run_diagnostics,
    run_replay,
    run_simulation,
    write_records_csv,
)


def base_env_spec(**overrides):
    spec = {
        "K": 3,
        "d": 2,
        "T": 50,
        "theta_star": [0.6, -0.3],
        "feature_distribution": {"kind": "iid", "family": {"name": "gaussian"}},
        "noise": {"mode": "per_arm", "covariance": {"diag": [0.2, 0.3]}},
        "reward_noise_sigma": 0.1,
    }
    spec.update(overrides)
    return spec


def make_config(policies=("uniform",), seeds=(0,), **env_overrides):
    return parse_run_config(
        {
            "environment": base_env_spec(**env_overrides),
            "policies": [{"name": p} if isinstance(p, str) else p for p in policies],
            "seeds": list(seeds),
        }
    )


class TestConfigParsing:
    def test_minimal_config_roundtrip(self):
        cfg = make_config()
        assert cfg.policies[0].name == "uniform"
        assert cfg.seeds == (0,)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            make_config(policies=("nonexistent",))

    def test_unknown_metric_rejected(self):
        # "diagnostics" is the diagnose command's output, not a results column
        for metric in ("speed", "diagnostics"):
            with pytest.raises(ConfigError, match=f"unknown metric {metric!r}"):
                parse_run_config(
                    {
                        "environment": base_env_spec(),
                        "policies": [{"name": "uniform"}],
                        "seeds": [0],
                        "metrics": [metric],
                    }
                )

    def test_dimension_mismatch_fails_before_rounds(self):
        with pytest.raises(ConfigError):
            make_config(theta_star=[0.1, 0.2, 0.3])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            make_config(seeds=())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError):
            make_config(policies=({"name": "uniform"}, {"name": "uniform"}))

    def test_unknown_policy_param_rejected_by_name(self):
        with pytest.raises(ConfigError, match="'ucb_alpah'"):
            make_config(policies=({"name": "linucb", "params": {"ucb_alpah": 9}},))

    def test_params_must_be_an_object(self):
        with pytest.raises(ConfigError):
            make_config(policies=({"name": "linucb", "params": [0.5]},))

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_declared_params_are_the_keys_the_builder_reads(self, name):
        # Builders pass the checked params to the constructor as **params, so
        # the declared keys must be exactly its keywords that the run context
        # does not fill in.
        env = environment_for_seed(base_env_spec(), 0)
        ctx = PolicyContext(
            d=env.d,
            K=env.K,
            T=env.T,
            noise_cov=env.noise.covariance,
            rng=np.random.default_rng(0),
            theta_star=env.theta_star,
            feature_dist=env.feature_dist,
        )
        policy = POLICIES[name]["build"](ctx, {"arms": [0]} if name == "scripted" else {})
        from_context = {"d", "horizon", "noise_cov", "rng", "feature_sampler", "theta", "name"}
        keywords = set(inspect.signature(type(policy)).parameters) - from_context
        assert keywords == set(POLICIES[name].get("params", ()))

    def test_readme_names_exactly_the_declared_params(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"Each policy accepts only the `params`[^:]*:(.*?)the others none", readme, re.DOTALL)
        assert sentence, "README no longer states which params each policy accepts"
        listed = {}
        for clause in sentence.group(1).split(";"):
            names = re.findall(r"`([^`]+)`", clause)
            if names:
                listed[names[0]] = tuple(names[1:])
        assert listed == {name: tuple(entry["params"]) for name, entry in POLICIES.items() if "params" in entry}

    def test_readme_json_examples_parse(self):
        # Every config object takes only its listed keys, so an example that drifts from the readers fails here.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        run_doc, table_doc = (json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.DOTALL))
        assert [spec.name for spec in parse_run_config(run_doc).policies] == ["noisy_linrel", "linucb", "gradient_linrel"]
        assert parse_table_config(table_doc)["cfg"].feature_samples == 10_000

    def test_readme_library_imports_resolve(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        namespace = {}
        exec(block, namespace)
        assert {"run_simulation", "run_replay", "run_diagnostics", "gradient_norm_table"} <= set(namespace)

    def test_every_exported_name_resolves(self):
        modules = [importlib.import_module(f"bandit_lab.{info.name}") for info in pkgutil.iter_modules(bandit_lab.__path__)]
        exporting = [module for module in modules if hasattr(module, "__all__")]
        assert {module.__name__ for module in exporting} >= {f"bandit_lab.{name}" for name in ("env", "gradient", "linalg", "policies", "runner")}
        for module in exporting:
            assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
            assert len(set(module.__all__)) == len(module.__all__), module.__name__

    def test_random_theta_star_per_seed(self):
        a = environment_for_seed(base_env_spec(theta_star="random"), 0)
        b = environment_for_seed(base_env_spec(theta_star="random"), 1)
        assert not np.array_equal(a.theta_star, b.theta_star)
        again = environment_for_seed(base_env_spec(theta_star="random"), 0)
        assert np.array_equal(a.theta_star, again.theta_star)

    def test_oracle_policy_in_replay_context_rejected(self):
        from bandit_lab.runner import PolicyContext, build_policy

        ctx = PolicyContext(d=2, K=3, T=10, noise_cov=np.eye(2), rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            build_policy(PolicySpec(name="oracle_tc"), ctx)

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_only_hidden_quantity_policies_need_a_simulated_environment(self, name):
        ctx = PolicyContext(d=2, K=3, T=10, noise_cov=np.eye(2), rng=np.random.default_rng(0))
        spec = PolicySpec(name=name, params={"arms": [0]} if name == "scripted" else {})
        if name in {"oracle_tc", "oracle_cf"}:
            with pytest.raises(ConfigError, match=f"policy {name!r} needs a simulated environment"):
                build_policy(spec, ctx)
        else:
            assert build_policy(spec, ctx).name == name

    def test_monte_carlo_draws_bounded_only_by_work(self):
        # The gradient streams each feature set's draws in blocks, so 10^9
        # draws of one set hold no more memory than 10^3; only the work bound
        # (2e9 score entries here, under 10^12) limits them. Both configs
        # used to be refused unless 80 GB of physical memory held the draws.
        doc = {"distributions": ["gaussian"], "K": 2, "d": 1, "noise_diag": [0.1], "feature_samples": 1, "mc_noise_samples": 10**9}
        assert parse_table_config(doc)["cfg"].mc_noise_samples == 10**9
        ctx = PolicyContext(d=1, K=2, T=1, noise_cov=np.eye(1), rng=np.random.default_rng(0))
        policy = build_policy(PolicySpec(name="gradient_linrel", params={"mc_samples": 10**9}), ctx)
        assert policy.grad_cfg.mc_noise_samples == 10**9


class TestRunSimulation:
    def test_zero_theta_uniform_policy_zero_regret(self):
        cfg = make_config(theta_star=[0.0, 0.0])
        records = list(run_simulation(cfg))
        assert len(records) == 50
        assert all(rec.cum_regret == 0.0 for rec in records)

    def test_single_arm_zero_regret_for_every_policy(self):
        cfg = make_config(policies=("uniform", "linucb", "greedy"), K=1)
        for rec in run_simulation(cfg):
            assert rec.inst_regret == 0.0

    def test_cum_regret_is_prefix_sum_and_nondecreasing(self):
        cfg = make_config(policies=("uniform", "linucb"), seeds=(0, 1))
        by_run = {}
        for rec in run_simulation(cfg):
            by_run.setdefault((rec.policy, rec.seed), []).append(rec)
        assert len(by_run) == 4
        for run in by_run.values():
            total = 0.0
            last = 0.0
            for rec in run:
                total += rec.inst_regret
                assert abs(rec.cum_regret - total) <= 1e-9
                assert rec.cum_regret >= last
                last = rec.cum_regret

    def test_records_ordered_policy_seed_t(self):
        cfg = make_config(policies=("uniform", "linucb"), seeds=(3, 1))
        keys = [(rec.policy, rec.seed, rec.t) for rec in run_simulation(cfg)]
        labels = ["uniform", "linucb"]
        expected = [
            (label, seed, t) for label in labels for seed in (3, 1) for t in range(1, 51)
        ]
        assert keys == expected

    def test_same_config_identical_records(self):
        cfg = make_config(policies=("noisy_linrel",), seeds=(5,))
        a = list(run_simulation(cfg))
        b = list(run_simulation(cfg))
        assert a == b

    def test_rel_regret_nonnegative_and_cos_dist_range(self):
        # rel_regret is signed: the played arm may beat theta_bar's pick, but
        # never the best arm, and it is exactly 0 on theta_bar's pick.
        cfg = make_config(policies=("linucb",), T=80)
        environment = environment_for_seed(cfg.env_spec, 0)
        theta_bar = bayes_optimal_theta(
            environment.feature_dist.covariance_matrix(environment.d),
            environment.noise.covariance,
            environment.theta_star,
        )
        for rec in run_simulation(cfg):
            assert rec.rel_regret is not None and rec.rel_regret <= rec.inst_regret
            if rec.arm == bar_theta_arm(sample_round(environment, rec.t), theta_bar):
                assert rec.rel_regret == 0.0
            if rec.cos_dist is not None:
                assert 0.0 <= rec.cos_dist <= 2.0

    def test_rel_regret_sums_to_cum_regret_over_oracle_cf(self):
        cfg = make_config(policies=("linucb", "gradient_linrel", "oracle_cf"), seeds=(0, 1), T=60)
        rel_sum, final_cum = {}, {}
        for rec in run_simulation(cfg):
            key = (rec.policy, rec.seed)
            rel_sum[key] = rel_sum.get(key, 0.0) + rec.rel_regret
            final_cum[key] = rec.cum_regret
        for seed in (0, 1):
            assert rel_sum[("oracle_cf", seed)] == 0.0
            for policy in ("linucb", "gradient_linrel"):
                expected = final_cum[(policy, seed)] - final_cum[("oracle_cf", seed)]
                assert rel_sum[(policy, seed)] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_uniform_policy_has_no_cos_dist(self):
        cfg = make_config()
        assert all(rec.cos_dist is None for rec in run_simulation(cfg))

    def test_oracle_tc_zero_cos_dist(self):
        cfg = make_config(policies=("oracle_tc",), T=10)
        for rec in run_simulation(cfg):
            assert rec.cos_dist == pytest.approx(0.0, abs=1e-12)

    def test_metrics_subset_respected(self):
        cfg = parse_run_config(
            {
                "environment": base_env_spec(),
                "policies": [{"name": "linucb"}],
                "seeds": [0],
                "metrics": ["cum_regret"],
            }
        )
        for rec in run_simulation(cfg):
            assert rec.rel_regret is None and rec.cos_dist is None

    @pytest.mark.parametrize("env", [IDENTICAL_ENV, PER_ARM_ENV], ids=["identical", "per_arm"])
    def test_lockstep_run_equals_single_policy_runs(self, env):
        def run(policies):
            return list(run_simulation(parse_run_config({"environment": env, "policies": policies, "seeds": [0, 3]})))

        together = run(ALL_POLICIES)
        alone = [rec for policy in ALL_POLICIES for rec in run([policy])]
        assert len(together) == 8 * 2 * 24
        assert together == alone

    def test_all_registered_policies_run(self):
        cfg = make_config(
            policies=(
                "uniform",
                "noisy_linrel",
                "greedy",
                "linucb",
                "oracle_tc",
                "oracle_cf",
                {"name": "gradient_linrel", "params": {"mc_samples": 20}},
                {"name": "scripted", "params": {"arms": [0, 1, 2]}},
            ),
            T=12,
        )
        assert {spec.name for spec in cfg.policies} == set(POLICIES)
        records = list(run_simulation(cfg))
        assert len(records) == 8 * 12

    def test_one_reward_noise_draw_per_round(self, monkeypatch):
        stream = envmod._round_stream
        lanes = []
        monkeypatch.setattr(envmod, "_round_stream", lambda seed, t, lane: lanes.append(lane) or stream(seed, t, lane))
        cfg = make_config(policies=("uniform", "linucb", "noisy_linrel"), seeds=(0, 1), T=40)
        assert len(list(run_simulation(cfg))) == 3 * 2 * 40
        assert lanes.count(LANE_REWARD) == 2 * 40


def _cosine_distance_by_norm(theta, reference, norm_r):
    """_cosine_distance as written with np.linalg.norm and a full finiteness check."""
    theta = np.asarray(theta, dtype=float)
    norm_t = float(np.linalg.norm(theta))
    if norm_t == 0.0 or norm_r == 0.0 or not np.all(np.isfinite(theta)):
        return None
    return float(1.0 - theta @ reference / (norm_t * norm_r))


class TestDirectNorm:
    def test_sqrt_dot_equals_linalg_norm(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 5, 10, 33, 100):
            for scale in (1e-150, 1e-3, 1.0, 1e5, 1e150):
                v = scale * rng.standard_normal(n)
                assert math.sqrt(v.dot(v)) == np.linalg.norm(v)
                tail = scale * rng.standard_normal((n, 5))  # columns of a C-ordered block, as in NoisyLinRel
                diff = tail[:, 1] - tail[:, 3]
                assert math.sqrt(diff.dot(diff)) == np.linalg.norm(diff)

    def test_spectral_norm_and_row_norms_equal_linalg_norm(self):
        # spectral_norm's largest singular value, and the row and column norms of
        # NoiseModel.sample and RegretGradientLinRel.select, without np.linalg.norm's wrapper
        rng = np.random.default_rng(19)
        for shape in ((1, 1), (3, 1), (4, 4), (10, 10), (5, 10)):
            for scale in (1e-150, 1e-3, 1.0, 1e150):
                m = scale * rng.standard_normal(shape)
                assert spectral_norm(m) == float(np.linalg.norm(m, 2))
                for axis in (0, 1):
                    assert np.array_equal(np.sqrt(np.add.reduce(m * m, axis=axis)), np.linalg.norm(m, axis=axis))

    def test_cosine_distance_unchanged(self):
        rng = np.random.default_rng(23)
        reference = rng.standard_normal(6)
        norm_r = float(np.linalg.norm(reference))
        cases = [rng.standard_normal(6) * s for s in (1e-200, 1e-3, 1.0, 1e3, 1e200)]
        cases += [np.zeros(6), np.full(6, 1e300)]  # the second's norm overflows, its entries do not
        for bad in (np.inf, -np.inf, np.nan):
            theta = rng.standard_normal(6)
            theta[2] = bad
            cases.append(theta)
        for theta in cases:
            with np.errstate(over="ignore"):  # both overflow alike on the 1e300 entries
                expected = _cosine_distance_by_norm(theta, reference, norm_r)
                assert repr(_cosine_distance(theta, reference, norm_r)) == repr(expected)
        for theta in cases[-3:]:
            assert _cosine_distance(theta, reference, norm_r) is None
        assert _cosine_distance(None, reference, norm_r) is None
        assert _cosine_distance(reference, reference, 0.0) is None


class TestEmitOutputs:
    def test_csv_header_and_single_record(self, tmp_path):
        from bandit_lab.runner import RunRecord

        rec = RunRecord(t=1, policy="uniform", seed=0, arm=2, reward=0.5, inst_regret=0.1, cum_regret=0.1)
        paths = emit_outputs([rec], tmp_path)
        text = paths[0].read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "t,policy,seed,arm,reward,inst_regret,cum_regret,rel_regret,cos_dist"
        assert len(lines) == 2
        assert lines[1] == "1,uniform,0,2,0.5,0.1,0.1,,"

    def test_csv_round_trip_lossless(self, tmp_path):
        cfg = make_config(policies=("linucb",), T=40)
        records = list(run_simulation(cfg))
        path = tmp_path / "results.csv"
        write_records_csv(path, records)
        assert read_records_csv(path) == records

    def test_header_only_results_read_as_no_records(self, tmp_path):
        path = tmp_path / "results.csv"
        write_records_csv(path, [])
        assert read_records_csv(path) == []

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", r"empty file \(line 1\)"),
            ("t,policy,seed\n", r"bad header \(line 1\): t,policy,seed"),
            (",".join(RESULTS_HEADER) + "\n1,uniform,0,2,0.5\n", r"expected 9 fields, got 5 \(line 2\)"),
            (",".join(RESULTS_HEADER) + "\n1,uniform,0,2,0.5,0.1,0.1,,\n2,uniform,0,1,x,0.1,0.2,,\n", r"'x' \(line 3\)"),
        ],
        ids=["empty", "wrong-header", "short-row", "bad-number"],
    )
    def test_malformed_results_raise_data_format_error_naming_the_line(self, tmp_path, text, message):
        path = tmp_path / "results.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError, match=re.escape(str(path)) + ": .*" + message):
            read_records_csv(path)

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = make_config(policies=("noisy_linrel", "uniform"), seeds=(0, 1), T=30)
        a = tmp_path / "a"
        b = tmp_path / "b"
        emit_outputs(run_simulation(cfg), a)
        emit_outputs(run_simulation(cfg), b)
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_unwritable_path_raises_oserror(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("i am a file")
        from bandit_lab.runner import RunRecord

        rec = RunRecord(t=1, policy="uniform", seed=0, arm=0, reward=0.0, inst_regret=0.0, cum_regret=0.0)
        with pytest.raises(OSError):
            emit_outputs([rec], target / "sub")

    def test_chart_emission(self, tmp_path):
        cfg = make_config(policies=("linucb",), seeds=(0, 1), T=20)
        paths = emit_outputs(run_simulation(cfg), tmp_path, charts=True)
        names = {p.name for p in paths}
        assert "chart_cum_regret.svg" in names
        svg = (tmp_path / "chart_cum_regret.svg").read_text()
        assert svg.startswith("<svg") and "linucb" in svg

    def test_chart_constant_series_labels_constant(self, tmp_path):
        from bandit_lab.charts import write_line_chart_svg

        ts = np.arange(1.0, 6.0)
        flat = np.full(5, 3.25)
        path = tmp_path / "flat.svg"
        write_line_chart_svg(path, title="flat", series={"p": (ts, flat, flat, flat)})
        assert "3.25" in path.read_text()

    def test_chart_bytes_deterministic(self, tmp_path):
        cfg = make_config(policies=("uniform",), seeds=(0, 1), T=15)
        a = tmp_path / "a"
        b = tmp_path / "b"
        emit_outputs(run_simulation(cfg), a, charts=True)
        emit_outputs(run_simulation(cfg), b, charts=True)
        assert (a / "chart_cum_regret.svg").read_bytes() == (b / "chart_cum_regret.svg").read_bytes()


def _csv_writer_rows(path, records):
    """The csv.writer formulation of write_records_csv, as reference."""

    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "policy", "seed", "arm", "reward", "inst_regret", "cum_regret", "rel_regret", "cos_dist"])
        for r in records:
            values = (r.reward, r.inst_regret, r.cum_regret, r.rel_regret, r.cos_dist)
            writer.writerow([r.t, r.policy, r.seed, r.arm] + [fmt(v) for v in values])


def _chart_series_by_round(records, metric):
    """Per-policy (ts, mean, lo, hi) of one metric, one round at a time, as reference."""
    by_policy: dict = {}
    for rec in records:
        value = getattr(rec, metric)
        if value is None:
            continue
        by_policy.setdefault(rec.policy, {}).setdefault(rec.t, []).append(value)
    series = {}
    for policy, per_t in by_policy.items():
        ts = sorted(per_t)
        mean = np.array([float(np.mean(per_t[t])) for t in ts])
        lo = np.array([min(per_t[t]) for t in ts])
        hi = np.array([max(per_t[t]) for t in ts])
        series[policy] = (np.array(ts, dtype=float), mean, lo, hi)
    return series


class TestColumnarEmission:
    def test_csv_lines_equal_csv_writer_rows(self, tmp_path):
        labels = ["uniform", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " padded ", "", "R&D <x>", "naïve"]
        values = [0.5, -0.0, 1e-300, 1.7976931348623157e308, math.inf, -math.inf, math.nan, None, 3, np.int64(-4), np.float64(0.1), True]
        n = len(values)
        records = [
            RunRecord(
                t=t,
                policy=label,
                seed=2**64 - 1 if t == 2 else t,
                arm=np.int64(t % 3) if t % 2 else t % 3,
                reward=values[t % n],
                inst_regret=values[(t + 1) % n],
                cum_regret=values[(t + 2) % n],
                rel_regret=values[(t + 3) % n],
                cos_dist=values[(t + 4) % n],
            )
            for label in labels
            for t in range(1, 2 * n)
        ]
        write_records_csv(tmp_path / "lines.csv", records)
        _csv_writer_rows(tmp_path / "rows.csv", records)
        assert (tmp_path / "lines.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_chart_series_equals_per_round_loop(self):
        # Ragged rounds with 1 to 40 values, and rounds of 128, 129 and 300
        # values, past the blocks of numpy's pairwise summation.
        rng = np.random.default_rng(5)
        records = []
        for p, seeds in enumerate([1, 2, 7, 8, 9, 17, 40, 128, 129, 300]):
            rounds = 3 if seeds > 100 else 30
            for seed in range(seeds):
                cum = 0.0
                for t in range(1, rounds + 1):
                    scale = 10.0 ** rng.integers(-3, 4)
                    cum += float(rng.exponential(scale))
                    rel = float(rng.normal(0.0, scale)) if p % 3 else None
                    cos = None if rng.random() < 0.3 else float(rng.random())
                    records.append(
                        RunRecord(t=t, policy=f"p{p}", seed=seed, arm=0, reward=0.0, inst_regret=0.0, cum_regret=cum, rel_regret=rel, cos_dist=cos)
                    )
        shuffled = [records[i] for i in rng.permutation(len(records))]
        for recs in (records, shuffled):
            series = _chart_series(recs)
            assert list(series) == ["cum_regret", "rel_regret", "cos_dist"]
            for metric, got in series.items():
                expected = _chart_series_by_round(recs, metric)
                assert sorted(got) == sorted(expected)
                for policy, arrays in expected.items():
                    for a, b in zip(got[policy], arrays):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (metric, policy)

    def test_metric_without_values_gets_no_chart(self, tmp_path):
        cfg = make_config(policies=("uniform",), seeds=(0, 1), T=10)
        names = {p.name for p in emit_outputs(run_simulation(cfg), tmp_path, charts=True)}
        assert names == {"results.csv", "chart_cum_regret.svg", "chart_rel_regret.svg"}


class TestDiagnostics:
    def diag_config(self, **overrides):
        return make_config(
            policies=("uniform",),
            noise={"mode": "identical", "covariance": {"diag": [0.2, 0.3]}},
            T=64,
            **overrides,
        )

    def test_checkpoints_are_powers_of_two(self):
        records = list(run_diagnostics(self.diag_config()))
        assert [rec.t for rec in records] == [1, 2, 4, 8, 16, 32, 64]

    def test_norms_nonnegative(self):
        for rec in run_diagnostics(self.diag_config()):
            assert rec.norm_n1 >= 0 and rec.norm_n2 >= 0 and rec.norm_n3 >= 0

    def test_per_arm_noise_rejected(self):
        cfg = make_config(policies=("uniform",), T=8)
        with pytest.raises(ConfigError):
            list(run_diagnostics(cfg))

    def test_zero_noise_zero_norms(self):
        # a vanishing noise covariance and no reward noise null every sum
        cfg = make_config(
            policies=("uniform",),
            noise={"mode": "identical", "covariance": {"diag": [1e-18, 1e-18]}},
            reward_noise_sigma=0.0,
            T=32,
        )
        for rec in run_diagnostics(cfg):
            assert rec.norm_n1 <= 1e-6
            assert rec.norm_n2 <= 1e-6
            assert rec.norm_n3 == pytest.approx(0.0, abs=1e-12)

    def test_zero_reward_noise_zeroes_n3(self):
        cfg = make_config(
            policies=("uniform",),
            noise={"mode": "identical", "covariance": {"diag": [0.2, 0.3]}},
            reward_noise_sigma=0.0,
            T=32,
        )
        for rec in run_diagnostics(cfg):
            assert rec.norm_n3 == pytest.approx(0.0, abs=1e-12)

    def test_recomputed_sums_match_and_obey_the_triangle_inequality(self):
        cfg = make_config(
            policies=("linucb",),
            seeds=(0, 1),
            noise={"mode": "identical", "covariance": {"diag": [0.2, 0.3]}},
            T=64,
        )
        records = list(run_diagnostics(cfg))
        arms = {(rec.seed, rec.t): (rec.arm, rec.reward) for rec in run_simulation(cfg)}
        for seed in cfg.seeds:
            environment = environment_for_seed(cfg.env_spec, seed)
            noise_cov = environment.noise.covariance
            n1, n2, n3 = np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2)
            expected = {}
            for t in range(1, environment.T + 1):
                round_ctx = sample_round(environment, t)
                arm, y = arms[(seed, t)]
                eps = round_ctx.eps[0]
                n1 += np.outer(round_ctx.z[arm], eps)
                n2 += np.outer(eps, eps) - noise_cov
                n3 += round_ctx.x[arm] * (y - float(round_ctx.z[arm] @ environment.theta_star))
                norm1, norm2 = spectral_norm(n1), spectral_norm(n2)
                assert spectral_norm(n1 + n2) <= norm1 + norm2 + 1e-9
                expected[t] = (norm1, norm2, float(np.linalg.norm(n3)))
            for rec in records:
                if rec.seed == seed:
                    assert (rec.norm_n1, rec.norm_n2, rec.norm_n3) == expected[rec.t]


def _replay_dataset(rounds, K=5, d=10):
    rng = np.random.default_rng(31)
    return ReplayDataset(contexts=rng.standard_normal((rounds, K, d)), rewards=rng.standard_normal((rounds, K)))


def _assert_python_numbers(records):
    for rec in records:
        assert type(rec.t) is int and type(rec.seed) is int and type(rec.arm) is int
        assert type(rec.reward) is float and type(rec.inst_regret) is float and type(rec.cum_regret) is float
        assert rec.rel_regret is None or type(rec.rel_regret) is float
        assert rec.cos_dist is None or type(rec.cos_dist) is float


class TestRecordNumbers:
    """Every number of a RunRecord is a Python int or float, the type write_records_csv formats fastest."""

    def test_simulation_records(self):
        records = list(run_simulation(parse_run_config({"environment": PER_ARM_ENV, "policies": ALL_POLICIES, "seeds": [0, 1]})))
        _assert_python_numbers(records)
        assert any(rec.rel_regret is not None for rec in records) and any(rec.cos_dist is not None for rec in records)

    def test_replay_records(self):
        specs = [PolicySpec(name=name) for name in ("uniform", "noisy_linrel", "greedy", "linucb")]
        specs.append(PolicySpec(name="gradient_linrel", params={"mc_samples": 20}))
        _assert_python_numbers(list(run_replay(_replay_dataset(12), specs, seeds=[0, 1])))


# numpy's module-level wrappers of an array method or a ufunc reduction: each
# call costs microseconds of argument handling, more than a K=5, d=10 round's
# arithmetic, so the round loops call the method or the reduction instead.
WRAPPERS = [(np, "argmax"), (np, "any"), (np, "all"), (np, "sum"), (np, "std"), (np.linalg, "norm")]
# sim_linear's shape: K=5, d=10, per-arm noise 0.1..1.0, here truncated at a
# radius that rejects many draws, so the rejection loop runs in most rounds.
GUARD_ENV = {
    "K": 5,
    "d": 10,
    "reward_noise_sigma": 0.1,
    "noise": {"mode": "per_arm", "covariance": {"diag": [0.1 * (i + 1) for i in range(10)]}, "truncation_radius": 2.5},
}
GUARD_POLICIES = ["uniform", "oracle_cf", "linucb", "noisy_linrel", "greedy"]


class TestNoPerRoundWrapperCalls:
    """Each round loop calls each wrapper as often at T rounds as at 2T: none of them once per round."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        for module, name in WRAPPERS:
            key = f"{module.__name__}.{name}"

            def counted(*args, _wrapped=getattr(module, name), _key=key, **kwargs):
                counts[_key] = counts.get(_key, 0) + 1
                return _wrapped(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        def count(run, T):
            counts.clear()
            run(T)
            return dict(counts)

        return count

    def sim_config(self, T, policies, mode="per_arm"):
        env = {**GUARD_ENV, "T": T, "noise": {**GUARD_ENV["noise"], "mode": mode}}
        return parse_run_config({"environment": env, "policies": policies, "seeds": [0, 1]})

    def test_run_simulation(self, calls):
        def run(T):
            assert len(list(run_simulation(self.sim_config(T, GUARD_POLICIES)))) == T * 2 * len(GUARD_POLICIES)

        short = calls(run, 50)
        assert short == calls(run, 100)
        assert short  # the per-seed checks of the environment are counted, so the counters work

    def test_run_replay(self, calls):
        dataset = _replay_dataset(100)
        specs = [PolicySpec(name="noisy_linrel"), PolicySpec(name="linucb")]

        def run(T):
            part = ReplayDataset(contexts=dataset.contexts[:T], rewards=dataset.rewards[:T])
            assert len(list(run_replay(part, specs, seeds=[0, 1]))) == T * 2 * 2

        assert calls(run, 50) == calls(run, 100)

    def test_run_diagnostics(self, calls):
        def run(T):
            # one more checkpoint at 2T, so spectral_norm is held to the rule too
            assert len(list(run_diagnostics(self.sim_config(T, ["noisy_linrel"], mode="identical")))) == 2 * (T.bit_length())

        assert calls(run, 64) == calls(run, 128)
