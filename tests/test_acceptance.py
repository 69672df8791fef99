"""End-to-end quantitative release gates.

Every test prints one `[acceptance NN name] PASS/FAIL` line (run with
``pytest tests/test_acceptance.py -s`` to see them live). Heavy simulations
are shared across criteria through session fixtures; everything is seeded,
so the whole module is deterministic.
"""

import math
import time

import numpy as np
import pytest

from bandit_lab import env as envmod
from bandit_lab import policies as polmod
from bandit_lab.gradient import GradientConfig, arm_set_sampler, averaged_gradient
from bandit_lab.linalg import cutoff_pinv_solve
from bandit_lab.runner import (
    PolicySpec,
    ReplayDataset,
    emit_outputs,
    environment_for_seed,
    parse_run_config,
    read_records_csv,
    run_diagnostics,
    run_replay,
    run_simulation,
    write_records_csv,
)

NOISE_DIAG = [0.1 * (i + 1) for i in range(10)]
GAUSSIAN_FAMILY = {"name": "gaussian"}
MIXTURE_UNIFORM_FAMILY = {
    "name": "mixture",
    "weight": 0.3,
    "first": {"name": "uniform", "low": 9.0, "high": 11.0},
    "second": {"name": "uniform", "low": -11.0, "high": -9.0},
}
MIXTURE_GAUSSIAN_FAMILY = {
    "name": "mixture",
    "weight": 0.3,
    "first": {"name": "gaussian", "mean": 10.0, "std": 1.0},
    "second": {"name": "gaussian", "mean": -10.0, "std": 1.0},
}

# Gradient-step settings for the adaptive policy in the figure-style runs;
# chosen to minimize estimator-noise jitter at fixed runtime (the per-round
# gradient noise is feature-draw dominated, so moderate mc suffices).
UNIVERSAL_PARAMS = {"mc_samples": 500, "fd_step": 0.1, "step_size": 0.02}

# Gradient-table protocol: K=5, d=10, anisotropic diagonal noise, coefficient
# coordinates uniform on [-1, 1]; theta-star seeds fixed after a 10-seed scan
# (all scanned seeds satisfy the ordinal claims; these three carry wide
# margins against the N=1e4 sampling floor).
TABLE_THETA_SEEDS = (0, 4, 6)
TABLE_ROW_STREAM = 1000  # keyed sub-stream offset; one stream per table row
TABLE_GRADIENT_CFG = GradientConfig(mc_noise_samples=500, fd_step=0.05, feature_samples=10_000)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {tag}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def _env_spec(family, noise_mode, T):
    return {
        "K": 5,
        "d": 10,
        "T": T,
        "theta_star": "random",
        "feature_distribution": {"kind": "iid", "family": family},
        "noise": {"mode": noise_mode, "covariance": {"diag": NOISE_DIAG}},
        "reward_noise_sigma": 0.1,
    }


def _random_pd(rng, d):
    root = rng.standard_normal((d, d)) / math.sqrt(d)
    return root @ root.T + 0.5 * np.eye(d)


# ---------------------------------------------------------------------------
# 01: closed-form matrix identity
# ---------------------------------------------------------------------------


def test_01_matrix_inverse_identity():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        a, b = _random_pd(rng, 10), _random_pd(rng, 10)
        left = np.linalg.solve(a + b, a)
        right = np.linalg.inv(b) @ np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
        worst = max(worst, float(np.max(np.abs(left - right))))
    elapsed = time.monotonic() - start
    _report(
        "01 matrix-inverse-identity",
        worst <= 1e-8 and elapsed < 1.0,
        f"max entry diff {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 02: posterior mean recovered by regression
# ---------------------------------------------------------------------------


def test_02_posterior_mean_regression():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    d, n = 6, 100_000
    feature_cov = _random_pd(rng, d)
    noise_cov = _random_pd(rng, d)
    z = rng.multivariate_normal(np.zeros(d), feature_cov, size=n)
    x = z + rng.multivariate_normal(np.zeros(d), noise_cov, size=n)
    fitted = np.linalg.solve(x.T @ x, x.T @ z).T  # regression map x -> E[z|x]
    closed_form = feature_cov @ np.linalg.inv(feature_cov + noise_cov)
    # cross-check the module's posterior against the same closed form
    probe = rng.standard_normal(d)
    module_posterior = polmod.posterior_feature_mean(probe, feature_cov, noise_cov)
    assert np.allclose(module_posterior, closed_form @ probe, atol=1e-10)
    diff = float(np.max(np.abs(fitted - closed_form)))
    scale = float(np.max(np.abs(closed_form)))
    elapsed = time.monotonic() - start
    _report(
        "02 posterior-mean-regression",
        diff <= 0.02 * scale and elapsed < 10.0,
        f"max diff {diff:.4f} vs 2% of {scale:.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 03 / 04: gradient norms at the closed-form coefficient
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def gradient_table():
    distributions = [
        ("gaussian", envmod.FeatureDistribution.iid(envmod.Family("gaussian"))),
        (
            "mixture_gaussian",
            envmod.FeatureDistribution.iid(
                envmod.Family(
                    "mixture",
                    weight=0.3,
                    first=envmod.Family("gaussian", mean=10.0, std=1.0),
                    second=envmod.Family("gaussian", mean=-10.0, std=1.0),
                )
            ),
        ),
        (
            "mixture_uniform",
            envmod.FeatureDistribution.iid(
                envmod.Family(
                    "mixture",
                    weight=0.3,
                    first=envmod.Family("uniform", low=9.0, high=11.0),
                    second=envmod.Family("uniform", low=-11.0, high=-9.0),
                )
            ),
        ),
        ("lognormal", envmod.FeatureDistribution.iid(envmod.Family("lognormal"))),
    ]
    noise_cov = np.diag(NOISE_DIAG)
    start = time.monotonic()
    norms = {}
    for theta_seed in TABLE_THETA_SEEDS:
        theta_star = envmod.keyed_rng(theta_seed, 0, envmod.LANE_THETA).uniform(-1.0, 1.0, size=10)
        for row, (label, dist) in enumerate(distributions):
            # one keyed stream per (theta seed, table row), frozen via
            # TABLE_ROW_STREAM so realizations are decoupled across rows
            rng = envmod.keyed_rng(theta_seed, TABLE_ROW_STREAM + row, envmod.LANE_THETA)
            theta_bar = polmod.bayes_optimal_theta(dist.covariance_matrix(10), noise_cov, theta_star)
            grad = averaged_gradient(
                theta_bar, theta_star, noise_cov, arm_set_sampler(dist, 5, 10), TABLE_GRADIENT_CFG, rng
            )
            norms[(theta_seed, label)] = float(np.linalg.norm(grad))
    return norms, time.monotonic() - start


def test_03_gaussian_stationarity(gradient_table):
    norms, _ = gradient_table
    value = norms[(TABLE_THETA_SEEDS[0], "gaussian")]
    _report("03 gaussian-stationarity", value <= 0.02, f"|grad| {value:.4f} <= 0.02")


def test_04_gradient_norm_ordering(gradient_table):
    norms, elapsed = gradient_table
    ok = elapsed < 300.0
    details = [f"{elapsed:.0f}s"]
    for seed in TABLE_THETA_SEEDS:
        g = norms[(seed, "gaussian")]
        mg = norms[(seed, "mixture_gaussian")]
        mu = norms[(seed, "mixture_uniform")]
        ln = norms[(seed, "lognormal")]
        ok = ok and g < 0.02 < mg and 0.02 < mu and ln >= 10.0 * g
        details.append(f"seed {seed}: g={g:.4f} mg={mg:.3f} mu={mu:.3f} ln={ln:.3f} ratio={ln / g:.1f}")
    _report("04 gradient-norm-ordering", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 05: explore-then-commit estimation error shrinks like 1/sqrt(tau)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def greedy_scaling_ratios():
    ratios = []
    for seed in range(20):
        cfg = environment_for_seed(_env_spec(GAUSSIAN_FAMILY, "per_arm", 5000), seed)
        theta_bar = polmod.bayes_optimal_theta(
            cfg.feature_dist.covariance_matrix(cfg.d), cfg.noise.covariance, cfg.theta_star
        )
        policy = polmod.ExploreThenCommitGreedy(cfg.d, horizon=cfg.T, tau=4000)
        rng = envmod.keyed_rng(seed, 0, envmod.LANE_POLICY)
        errors = {}
        for t in range(1, 4001):
            ctx = envmod.sample_round(cfg, t)
            arm = policy.select(t, ctx.x, rng)
            y = envmod.reward(cfg, ctx, arm)
            policy.observe(t, arm, ctx.x[arm], y, cfg.noise.covariance)
            if t in (1000, 4000):
                estimate = cutoff_pinv_solve(policy.X, policy.Y)
                errors[t] = float(np.linalg.norm(estimate - theta_bar))
        ratios.append(errors[4000] / errors[1000])
    return ratios


def test_05_exploration_error_scaling(greedy_scaling_ratios):
    median = float(np.median(greedy_scaling_ratios))
    _report(
        "05 exploration-error-scaling",
        median <= 0.7,
        f"median err(4000)/err(1000) = {median:.3f} <= 0.7 over 20 seeds",
    )


# ---------------------------------------------------------------------------
# 06 / 10 (gaussian half): spectral-elimination policy under identical noise
# ---------------------------------------------------------------------------


def _reduce_run(cfg, slope_from=1000, cos_at=10_000):
    """Stream a simulation, keeping per-(policy, seed) summaries only."""
    out = {}
    for rec in run_simulation(cfg):
        key = (rec.policy, rec.seed)
        entry = out.setdefault(key, {"ts": [], "cums": [], "final_cum": 0.0})
        entry["final_cum"] = rec.cum_regret
        if rec.t >= slope_from and rec.t % 20 == 0:
            entry["ts"].append(rec.t)
            entry["cums"].append(rec.cum_regret)
        if rec.t == cos_at:
            entry["cos_at"] = rec.cos_dist
    return out


@pytest.fixture(scope="session")
def identical_noise_runs():
    cfg = parse_run_config(
        {
            "environment": _env_spec(GAUSSIAN_FAMILY, "identical", 20_000),
            "policies": [{"name": "noisy_linrel"}, {"name": "uniform"}],
            "seeds": list(range(10)),
        }
    )
    start = time.monotonic()
    summaries = _reduce_run(cfg)
    return summaries, time.monotonic() - start


def test_06_sublinear_regret_identical_noise(identical_noise_runs):
    summaries, elapsed = identical_noise_runs
    ratios, slopes = [], []
    for seed in range(10):
        lin = summaries[("noisy_linrel", seed)]
        uni = summaries[("uniform", seed)]
        ratios.append(lin["final_cum"] / uni["final_cum"])
        ts = np.array(lin["ts"], dtype=float)
        cums = np.maximum(np.array(lin["cums"], dtype=float), 1e-12)
        slope = np.polyfit(np.log(ts), np.log(cums), 1)[0]
        slopes.append(slope)
    median_ratio = float(np.median(ratios))
    median_slope = float(np.median(slopes))
    _report(
        "06 sublinear-regret-identical-noise",
        median_ratio <= 0.5 and median_slope <= 0.95 and elapsed < 600.0,
        f"median cum ratio vs uniform {median_ratio:.4f} <= 0.5; "
        f"median log-log slope {median_slope:.3f} <= 0.95; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 07: identical noise never changes the observed argmax
# ---------------------------------------------------------------------------


def test_07_identical_noise_argmax_invariance():
    cfg = environment_for_seed(_env_spec(GAUSSIAN_FAMILY, "identical", 10_000), 7)
    mismatches = 0
    for t in range(1, 10_001):
        ctx = envmod.sample_round(cfg, t)
        if envmod.oracle_arm(ctx, cfg.theta_star) != int(np.argmax(ctx.x @ cfg.theta_star)):
            mismatches += 1
    _report(
        "07 identical-noise-argmax-invariance",
        mismatches == 0,
        f"{mismatches} mismatches in 10000 rounds",
    )


# ---------------------------------------------------------------------------
# 08 / 09: per-arm noise floors and figure-style orderings
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def figure_runs():
    policies = [
        {"name": "gradient_linrel", "params": dict(UNIVERSAL_PARAMS)},
        {"name": "linucb"},
        {"name": "oracle_cf"},
    ]
    out = {}
    start = time.monotonic()
    for setting, family in (("gaussian", GAUSSIAN_FAMILY), ("mixture", MIXTURE_UNIFORM_FAMILY)):
        cfg = parse_run_config(
            {
                "environment": _env_spec(family, "per_arm", 10_000),
                "policies": policies,
                "seeds": list(range(10)),
            }
        )
        for rec in run_simulation(cfg):
            key = (setting, rec.policy, rec.seed)
            entry = out.setdefault(key, {"final_cum": 0.0, "rel_sum": 0.0})
            entry["final_cum"] = rec.cum_regret
            entry["rel_sum"] += rec.rel_regret
    return out, time.monotonic() - start


def test_08_per_arm_noise_regret_floor():
    cfg = environment_for_seed(_env_spec(GAUSSIAN_FAMILY, "per_arm", 10_000), 0)
    policy = polmod.FixedCoefficient(cfg.theta_star, name="oracle_tc")
    rng = envmod.keyed_rng(0, 0, envmod.LANE_POLICY)
    tail = []
    for t in range(1, cfg.T + 1):
        ctx = envmod.sample_round(cfg, t)
        arm = policy.select(t, ctx.x, rng)
        if t > 7500:
            tail.append(envmod.instantaneous_regret(ctx, arm, cfg.theta_star))
    observed = float(np.mean(tail))

    # Brute-force expectation of the same policy's per-round regret by Monte
    # Carlo over fresh rounds of the same distribution.
    mc_rng = np.random.default_rng(808)
    m = 100_000
    z = mc_rng.standard_normal((m, cfg.K, cfg.d))
    eps = mc_rng.standard_normal((m, cfg.K, cfg.d)) * np.sqrt(NOISE_DIAG)
    values = z @ cfg.theta_star
    picked = np.argmax((z + eps) @ cfg.theta_star, axis=1)
    gaps = values.max(axis=1) - np.take_along_axis(values, picked[:, None], axis=1)[:, 0]
    oracle_mean = float(np.mean(gaps))
    _report(
        "08 per-arm-noise-regret-floor",
        observed > 0.0 and observed > 0.5 * oracle_mean,
        f"last-quarter mean regret {observed:.4f} > 0 and > half of MC mean {oracle_mean:.4f}",
    )


def _median_metric(summaries, setting, policy, field):
    return float(np.median([summaries[(setting, policy, seed)][field] for seed in range(10)]))


def test_09_figure_regret_orderings(figure_runs):
    summaries, elapsed = figure_runs
    u = _median_metric(summaries, "gaussian", "gradient_linrel", "final_cum")
    l = _median_metric(summaries, "gaussian", "linucb", "final_cum")
    cf = _median_metric(summaries, "gaussian", "oracle_cf", "final_cum")
    gaussian_ok = abs(u - l) <= 0.15 * max(u, l) and u <= 2.0 * cf and l <= 2.0 * cf
    mu_true = _median_metric(summaries, "mixture", "gradient_linrel", "final_cum")
    ml_true = _median_metric(summaries, "mixture", "linucb", "final_cum")
    mu_rel = _median_metric(summaries, "mixture", "gradient_linrel", "rel_sum")
    ml_rel = _median_metric(summaries, "mixture", "linucb", "rel_sum")
    mixture_ok = mu_true < ml_true and mu_rel < ml_rel
    _report(
        "09 figure-regret-orderings",
        gaussian_ok and mixture_ok,
        f"gaussian cum: universal {u:.0f} vs linucb {l:.0f} (cf {cf:.0f}); "
        f"mixture cum: universal {mu_true:.0f} < linucb {ml_true:.0f}; "
        f"mixture rel: {mu_rel:.0f} < {ml_rel:.0f}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10: the spectral policy tracks the true coefficient
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def mixture_identical_runs():
    cfg = parse_run_config(
        {
            "environment": _env_spec(MIXTURE_UNIFORM_FAMILY, "identical", 10_000),
            "policies": [{"name": "noisy_linrel"}],
            "seeds": list(range(10)),
        }
    )
    return _reduce_run(cfg)


def test_10_coefficient_tracking(identical_noise_runs, mixture_identical_runs):
    gaussian_summaries, _ = identical_noise_runs
    gaussian_cos = [gaussian_summaries[("noisy_linrel", seed)]["cos_at"] for seed in range(10)]
    mixture_cos = [mixture_identical_runs[("noisy_linrel", seed)]["cos_at"] for seed in range(10)]
    med_g = float(np.median(gaussian_cos))
    med_m = float(np.median(mixture_cos))
    _report(
        "10 coefficient-tracking",
        med_g <= 0.1 and med_m <= 0.1,
        f"median cosine distance at t=1e4: gaussian {med_g:.5f}, mixture {med_m:.5f} (<= 0.1)",
    )


# ---------------------------------------------------------------------------
# 11: concentration sums grow like sqrt(t)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def diagnostics_ratios():
    cfg = parse_run_config(
        {
            "environment": _env_spec(GAUSSIAN_FAMILY, "identical", 4096),
            "policies": [{"name": "uniform"}],
            "seeds": list(range(20)),
        }
    )
    by_seed = {}
    for rec in run_diagnostics(cfg):
        if rec.t in (1024, 4096):
            by_seed.setdefault(rec.seed, {})[rec.t] = (rec.norm_n1, rec.norm_n2, rec.norm_n3)
    ratios = {name: [] for name in ("n1", "n2", "n3")}
    for seed, marks in by_seed.items():
        for idx, name in enumerate(("n1", "n2", "n3")):
            ratios[name].append(marks[4096][idx] / marks[1024][idx])
    return ratios


def test_11_concentration_checkpoint_ratios(diagnostics_ratios):
    medians = {name: float(np.median(vals)) for name, vals in diagnostics_ratios.items()}
    ok = all(1.3 <= med <= 3.0 for med in medians.values())
    _report(
        "11 concentration-checkpoint-ratios",
        ok,
        "median |N(4096)|/|N(1024)|: "
        + ", ".join(f"{name}={med:.2f}" for name, med in medians.items())
        + " (target [1.3, 3.0])",
    )


# ---------------------------------------------------------------------------
# 12: determinism and plumbing
# ---------------------------------------------------------------------------


def test_12_determinism_and_plumbing(tmp_path):
    cfg = parse_run_config(
        {
            "environment": _env_spec(GAUSSIAN_FAMILY, "per_arm", 200),
            "policies": [{"name": "noisy_linrel"}, {"name": "linucb"}],
            "seeds": [0, 1],
        }
    )
    a, b = tmp_path / "a", tmp_path / "b"
    emit_outputs(run_simulation(cfg), a)
    emit_outputs(run_simulation(cfg), b)
    byte_identical = (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    records = read_records_csv(a / "results.csv")
    round_trip_path = tmp_path / "again.csv"
    write_records_csv(round_trip_path, records)
    round_trip = read_records_csv(round_trip_path) == records

    contexts = np.array(
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.5, 0.5], [1.0, -1.0]],
            [[0.2, 0.1], [0.3, 0.4]],
        ]
    )
    rewards = np.array([[1.0, 0.2], [0.3, 0.8], [0.5, 0.1]])
    dataset = ReplayDataset(contexts=contexts, rewards=rewards)
    # scripted arms 1, 0, 0 earn 0.2, 0.3, 0.5 against bests 1.0, 0.8, 0.5
    spec = PolicySpec(name="scripted", params={"arms": [1, 0, 0]})
    replay_records = list(run_replay(dataset, [spec], seeds=[0]))
    replay_ok = [r.cum_regret for r in replay_records] == pytest.approx([0.8, 1.3, 1.3])

    _report(
        "12 determinism-and-plumbing",
        byte_identical and round_trip and replay_ok,
        f"byte-identical={byte_identical}, csv round-trip={round_trip}, replay hand-sum={replay_ok}",
    )
