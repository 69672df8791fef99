import math
import tracemalloc

import numpy as np
import pytest

from bandit_lab import gradient as gradient_module
from bandit_lab.env import (
    FeatureDistribution,
    GaussianFamily,
    LogNormalFamily,
    MixtureFamily,
    UniformFamily,
    keyed_rng,
)
from bandit_lab.gradient import (
    GradientConfig,
    arm_set_sampler,
    averaged_gradient,
    gradient_norm_table,
    per_round_expected_regret,
    regret_gradient,
)
from bandit_lab.policies import RegretGradientLinRel, bayes_optimal_theta


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def two_arm_objective(theta: float) -> float:
    """Closed form for z = (1, -1), theta_star = 1, unit per-arm noise.

    The noisy argmax picks the bad arm when eps2 - eps1 > 2 theta / |theta|,
    so the expected gap is 2 Phi(-sqrt(2) sign(theta)).
    """
    if theta == 0.0:
        return float("nan")
    return 2.0 * norm_cdf(-math.sqrt(2.0) * math.copysign(1.0, theta))


class TestPerRoundExpectedRegret:
    def test_single_arm_is_zero(self):
        cfg = GradientConfig(mc_noise_samples=16)
        rng = np.random.default_rng(0)
        z = np.array([[0.3, -0.2]])
        assert per_round_expected_regret(np.ones(2), z, np.ones(2), np.eye(2), cfg, rng) == 0.0

    def test_vanishing_noise_matched_theta(self):
        cfg = GradientConfig(mc_noise_samples=500)
        rng = np.random.default_rng(1)
        z = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        theta = np.array([0.8, -0.1])
        value = per_round_expected_regret(theta, z, theta, 1e-18 * np.eye(2), cfg, rng)
        assert value == 0.0

    def test_two_arm_gaussian_cdf_value(self):
        # P[eps2 - eps1 > 2] with eps2 - eps1 ~ N(0, 2), times the gap of 2
        cfg = GradientConfig(mc_noise_samples=1_000_000)
        rng = np.random.default_rng(2)
        z = np.array([[1.0], [-1.0]])
        value = per_round_expected_regret(np.array([1.0]), z, np.array([1.0]), np.eye(1), cfg, rng)
        expected = 2.0 * norm_cdf(-math.sqrt(2.0))
        p = norm_cdf(-math.sqrt(2.0))
        mc_sigma = 2.0 * math.sqrt(p * (1 - p) / cfg.mc_noise_samples)
        assert abs(value - expected) < 3 * mc_sigma

    def test_every_estimate_nonnegative(self):
        rng = np.random.default_rng(3)
        cfg = GradientConfig(mc_noise_samples=64)
        for _ in range(50):
            k, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            z = rng.standard_normal((k, d))
            theta = rng.standard_normal(d)
            theta_star = rng.standard_normal(d)
            value = per_round_expected_regret(theta, z, theta_star, np.eye(d), cfg, rng)
            assert value >= 0.0

    def test_positive_scale_invariance(self):
        z = np.random.default_rng(4).standard_normal((4, 3))
        theta = np.array([0.5, -0.2, 0.1])
        theta_star = np.array([0.3, 0.3, -0.4])
        cfg = GradientConfig(mc_noise_samples=2_000)
        a = per_round_expected_regret(theta, z, theta_star, np.eye(3), cfg, keyed_rng(5))
        b = per_round_expected_regret(3.7 * theta, z, theta_star, np.eye(3), cfg, keyed_rng(5))
        assert a == b  # same noise stream, argmax unchanged by positive scaling


class TestRegretGradient:
    def test_zero_theta_star_gives_zero_gradient(self):
        cfg = GradientConfig(mc_noise_samples=128)
        rng = np.random.default_rng(6)
        z = rng.standard_normal((3, 4))
        grad = regret_gradient(np.ones(4), z, np.zeros(4), np.eye(4), cfg, rng)
        assert np.array_equal(grad, np.zeros(4))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_noise_covariance_rejected(self, bad):
        cfg = GradientConfig(mc_noise_samples=64)
        rng = np.random.default_rng(8)
        z = rng.standard_normal((3, 2))
        with pytest.raises(ValueError, match="finite"):
            regret_gradient(np.ones(2), z, np.array([0.6, -0.8]), np.diag([bad, 1.0]), cfg, rng)

    def test_single_arm_gives_zero_gradient(self):
        cfg = GradientConfig(mc_noise_samples=128)
        rng = np.random.default_rng(7)
        grad = regret_gradient(np.ones(2), np.ones((1, 2)), np.ones(2), np.eye(2), cfg, rng)
        assert np.array_equal(grad, np.zeros(2))

    def test_one_dimensional_matches_closed_form_derivative(self):
        # Oracle: numerically differentiate the closed-form objective with a
        # tiny step. The objective depends on theta only through its sign, so
        # the true derivative at theta = 1 is 0, and under CRN the estimator
        # hits it exactly.
        tiny = 1e-6
        oracle = (two_arm_objective(1.0 + tiny) - two_arm_objective(1.0 - tiny)) / (2 * tiny)
        cfg = GradientConfig(mc_noise_samples=1_000_000)
        rng = np.random.default_rng(8)
        z = np.array([[1.0], [-1.0]])
        grad = regret_gradient(np.array([1.0]), z, np.array([1.0]), np.eye(1), cfg, rng)
        assert abs(grad[0] - oracle) <= 0.05 * max(abs(oracle), 1e-3)

    def test_fd_step_halving_consistency(self):
        z = np.array([[1.0], [-1.0]])
        grads = []
        for step in (1e-2, 5e-3):
            cfg = GradientConfig(mc_noise_samples=100_000, fd_step=step)
            grads.append(regret_gradient(np.array([1.0]), z, np.array([1.0]), np.eye(1), cfg, keyed_rng(9))[0])
        assert abs(grads[0] - grads[1]) <= 0.01 * max(abs(grads[0]), 1e-3)

    def test_crn_bitwise_reproducible(self):
        cfg = GradientConfig(mc_noise_samples=512)
        z = np.random.default_rng(10).standard_normal((4, 3))
        theta = np.array([0.4, -0.3, 0.2])
        theta_star = np.array([0.2, 0.5, -0.1])
        a = regret_gradient(theta, z, theta_star, np.eye(3), cfg, keyed_rng(11))
        b = regret_gradient(theta, z, theta_star, np.eye(3), cfg, keyed_rng(11))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("integer_scores", [False, True])
    def test_crn_batch_matches_dense_argmax_reference(self, integer_scores):
        # 40 sets of 200 draws span several score blocks; integer features
        # and coefficients make many perturbed scores tie exactly, where the
        # first arm must win as with np.argmax.
        data_rng = np.random.default_rng(15)
        n, s, k_arms, d = 40, 200, 5, 10
        if integer_scores:
            zs = data_rng.integers(-2, 3, (n, k_arms, d)).astype(float)
            theta = data_rng.integers(-2, 3, d).astype(float)
            noise_diag = np.full(d, 1e-300)
        else:
            zs = data_rng.standard_normal((n, k_arms, d)) * 3.0
            theta = data_rng.standard_normal(d)
            noise_diag = data_rng.uniform(0.1, 1.0, d)
        theta_star = data_rng.standard_normal(d)
        cfg = GradientConfig(mc_noise_samples=s, fd_step=0.1)
        got = regret_gradient(theta, zs, theta_star, np.diag(noise_diag), cfg, keyed_rng(16))

        rng = keyed_rng(16)
        h = cfg.fd_step * np.linalg.norm(theta)
        noisy = zs[:, None, :, :] + rng.standard_normal((n, s, k_arms, d)) * np.sqrt(noise_diag)
        base = noisy @ theta
        shifts = h * noisy.transpose(0, 1, 3, 2)  # (n, s, d, K)
        up = np.argmax(base[:, :, None, :] + shifts, axis=3)
        down = np.argmax(base[:, :, None, :] - shifts, axis=3)
        values = zs @ theta_star
        rows = np.arange(n)[:, None, None]
        expected = (values[rows, down] - values[rows, up]).sum(axis=(0, 1)) / (2.0 * h * s) / n
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("integer_scores", [False, True])
    @pytest.mark.parametrize("k_arms", [2, 5, 130])
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_blocks_and_chunks_match_dense_argmax_reference(self, monkeypatch, d, k_arms, integer_scores):
        # Budgets of 2 sets per block and 5 per chunk split 9 sets into
        # chunks of 5 and 4, each of several blocks. The gradient divides by
        # 2hs once per chunk, so the reference sums each chunk's picked-value
        # gaps in one array, as np.sum over (sets, draws) does. A step larger
        # than theta makes most +h and -h picks differ, so few gaps are zero
        # and the order of the sum shows.
        n, s = 9, 40
        per_set = s * k_arms * d
        monkeypatch.setattr(gradient_module, "_BLOCK_SCORE_ENTRIES", 2 * per_set)
        monkeypatch.setattr(gradient_module, "_CHUNK_SCORE_ENTRIES", 5 * per_set)
        data_rng = np.random.default_rng(100 * d + k_arms)
        if integer_scores:
            zs = data_rng.integers(-2, 3, (n, k_arms, d)).astype(float)
            theta = data_rng.integers(-2, 3, d).astype(float)
            noise_diag = np.full(d, 1e-300)
        else:
            zs = data_rng.standard_normal((n, k_arms, d)) * 3.0
            theta = data_rng.standard_normal(d)
            noise_diag = data_rng.uniform(0.1, 1.0, d)
        theta_star = data_rng.standard_normal(d)
        cfg = GradientConfig(mc_noise_samples=s, fd_step=2.0)
        got = regret_gradient(theta, zs, theta_star, np.diag(noise_diag), cfg, keyed_rng(17))

        rng = keyed_rng(17)
        norm = np.linalg.norm(theta)
        h = cfg.fd_step * (norm if norm > 0 else 1.0)
        noisy = zs[:, None, :, :] + rng.standard_normal((n, s, k_arms, d)) * np.sqrt(noise_diag)
        base = noisy @ theta
        shifts = h * noisy.transpose(0, 1, 3, 2)  # (n, s, d, K)
        up = np.argmax(base[:, :, None, :] + shifts, axis=3)
        down = np.argmax(base[:, :, None, :] - shifts, axis=3)
        values = zs @ theta_star
        rows = np.arange(n)[:, None, None]
        gaps = values[rows, down] - values[rows, up]  # (n, s, d)
        expected = np.zeros(d)
        for start in (0, 5):
            expected += gaps[start : start + 5].sum(axis=(0, 1)) / (2.0 * h * s)
        assert np.array_equal(got, expected / n)

    @pytest.mark.parametrize("d", [2, 3, 10])
    def test_carried_row_sum_matches_one_sum(self, d):
        # The kernel sums a chunk block by block, carrying the running sum
        # as the first row of the next block's rows. For d >= 2 numpy adds
        # the rows of a (rows, d) array in order, so the carried sum must
        # equal the sum over the whole chunk bit for bit.
        rng = np.random.default_rng(d)
        rows = rng.standard_normal((4001, d)) * 10.0 ** rng.uniform(-8.0, 8.0, (4001, d))
        carried = rows[:7].sum(axis=0)
        for lo in range(7, len(rows), 500):
            carried = np.vstack([carried, rows[lo : lo + 500]]).sum(axis=0)
        assert np.array_equal(carried, rows.sum(axis=0))

    def test_memory_stays_within_a_block(self):
        # One gradient-table chunk: 160 sets x 500 draws x K=5 x d=10. A
        # chunk-wide (160, 500, 10) buffer of picked-value gaps alone would
        # be 6.4 MB.
        data_rng = np.random.default_rng(18)
        d = 10
        zs = data_rng.standard_normal((160, 5, d))
        theta = data_rng.standard_normal(d)
        theta_star = data_rng.standard_normal(d)
        noise_cov = np.diag(0.1 * np.arange(1, d + 1))
        cfg = GradientConfig(mc_noise_samples=500)
        tracemalloc.start()
        try:
            regret_gradient(theta, zs, theta_star, noise_cov, cfg, keyed_rng(19))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("sets", [None, 3])
    def test_policy_prebuilt_sampler_matches_covariance(self, dense, sets):
        # gradient_linrel builds its noise sampler once and hands it to
        # regret_gradient in place of the covariance; the draws and the
        # gradient must not change by a bit.
        data_rng = np.random.default_rng(31)
        d = 4
        noise_cov = np.diag(0.1 * np.arange(1, d + 1))
        if dense:
            root = data_rng.standard_normal((d, d))
            noise_cov = root @ root.T + 0.2 * np.eye(d)
        policy = RegretGradientLinRel(d, noise_cov, keyed_rng(31))
        z = data_rng.standard_normal((5, d) if sets is None else (sets, 5, d))
        theta, theta_star = data_rng.standard_normal(d), data_rng.standard_normal(d)
        cfg = GradientConfig(mc_noise_samples=200, fd_step=0.1)
        expected = regret_gradient(theta, z, theta_star, noise_cov, cfg, keyed_rng(32))
        got = regret_gradient(theta, z, theta_star, policy.noise_draw, cfg, keyed_rng(32))
        assert np.any(expected != 0.0)
        assert np.array_equal(got, expected)


class TestAveragedGradient:
    def test_single_sample_reduces_to_regret_gradient(self):
        cfg = GradientConfig(mc_noise_samples=256, feature_samples=1)
        z = np.random.default_rng(15).standard_normal((1, 4, 3))
        theta = np.array([0.3, 0.3, 0.3])
        theta_star = np.array([0.1, -0.4, 0.2])

        def sampler(rng, n):
            assert n == 1
            return z

        a = averaged_gradient(theta, theta_star, np.eye(3), sampler, cfg, keyed_rng(16))
        b = regret_gradient(theta, z[0], theta_star, np.eye(3), cfg, keyed_rng(16))
        assert np.array_equal(a, b)

    def test_gaussian_stationary_at_optimal_coefficient(self):
        # At the closed-form optimum the averaged gradient vanishes for
        # Gaussian features; checked at desk scale.
        d, k = 10, 5
        noise_cov = np.diag(0.1 * np.arange(1, d + 1))
        theta_star = keyed_rng(17).uniform(-1, 1, size=d)
        dist = FeatureDistribution.iid(GaussianFamily())
        theta_bar = bayes_optimal_theta(dist.covariance_matrix(d), noise_cov, theta_star)
        cfg = GradientConfig(mc_noise_samples=1000, feature_samples=10_000)
        grad = averaged_gradient(
            theta_bar, theta_star, noise_cov, arm_set_sampler(dist, k, d), cfg, keyed_rng(18)
        )
        assert np.linalg.norm(grad) <= 0.02

    def test_mixture_of_uniform_not_stationary(self):
        d, k = 10, 5
        noise_cov = np.diag(0.1 * np.arange(1, d + 1))
        theta_star = keyed_rng(19).uniform(-1, 1, size=d)
        dist = FeatureDistribution.iid(
            MixtureFamily(0.3, UniformFamily(9.0, 11.0), UniformFamily(-11.0, -9.0))
        )
        theta_bar = bayes_optimal_theta(dist.covariance_matrix(d), noise_cov, theta_star)
        cfg = GradientConfig(mc_noise_samples=300, feature_samples=3_000)
        grad = averaged_gradient(
            theta_bar, theta_star, noise_cov, arm_set_sampler(dist, k, d), cfg, keyed_rng(20)
        )
        assert np.linalg.norm(grad) >= 0.1


class TestGradientNormTable:
    def test_rows_and_ordering(self):
        d = 10
        noise_cov = np.diag(0.1 * np.arange(1, d + 1))
        distributions = [
            ("gaussian", FeatureDistribution.iid(GaussianFamily())),
            ("lognormal", FeatureDistribution.iid(LogNormalFamily())),
        ]
        cfg = GradientConfig(mc_noise_samples=200, feature_samples=1_000)
        rows = gradient_norm_table(distributions, 0, noise_cov, cfg)
        assert [label for label, _ in rows] == ["gaussian", "lognormal"]
        by_label = dict(rows)
        assert by_label["gaussian"] < by_label["lognormal"]

    def test_uniform_row_stays_small(self):
        # symmetric uni-modal features keep the closed form near-optimal
        d = 10
        noise_cov = np.diag(0.1 * np.arange(1, d + 1))
        distributions = [("uniform", FeatureDistribution.iid(UniformFamily(-1.0, 1.0)))]
        cfg = GradientConfig(mc_noise_samples=500, fd_step=0.05, feature_samples=4_000)
        rows = gradient_norm_table(distributions, 0, noise_cov, cfg)
        assert rows[0][1] <= 0.05


def test_config_validation():
    with pytest.raises(ValueError):
        GradientConfig(mc_noise_samples=0)
    for fd_step in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="fd_step"):
            GradientConfig(fd_step=fd_step)
        with pytest.raises(ValueError, match="fd_step"):
            RegretGradientLinRel(2, np.eye(2), np.random.default_rng(0), fd_step=fd_step)
    with pytest.raises(ValueError):
        GradientConfig(feature_samples=0)
