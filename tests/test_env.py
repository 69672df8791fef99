import random

import numpy as np
import pytest

from bandit_lab import env as envmod
from bandit_lab.env import (
    LANE_CONTEXT,
    LANE_REWARD,
    EnvironmentConfig,
    ExponentialFamily,
    FeatureDistribution,
    GaussianFamily,
    LaplaceFamily,
    LogNormalFamily,
    MixtureFamily,
    NoiseModel,
    UniformFamily,
    bar_theta_arm,
    draw_theta_star,
    instantaneous_regret,
    keyed_rng,
    oracle_arm,
    reward,
    reward_noise,
    sample_round,
)


def make_config(
    K=4,
    d=3,
    T=200,
    noise_mode="per_arm",
    noise_scale=0.25,
    reward_noise_sigma=0.1,
    seed=11,
    feature_dist=None,
    theta_star=None,
):
    if theta_star is None:
        theta_star = np.array([0.6, -0.3, 0.2])[:d]
    if feature_dist is None:
        feature_dist = FeatureDistribution.iid(GaussianFamily())
    return EnvironmentConfig(
        K=K,
        d=d,
        T=T,
        theta_star=theta_star,
        feature_dist=feature_dist,
        noise=NoiseModel(noise_mode, noise_scale * np.eye(d)),
        reward_noise_sigma=reward_noise_sigma,
        seed=seed,
    )


class TestFamilies:
    @pytest.mark.parametrize(
        "family",
        [
            UniformFamily(-1.0, 1.0),
            UniformFamily(2.0, 5.0),
            LaplaceFamily(1.5, 2.0),
            ExponentialFamily(1.0),
            ExponentialFamily(0.5),
            LogNormalFamily(0.0, 1.0),
        ],
    )
    def test_centered_families_have_zero_mean(self, family):
        rng = np.random.default_rng(0)
        draws = family.sample(rng, 200_000)
        sd = np.sqrt(family.variance())
        assert abs(draws.mean()) < 4 * sd / np.sqrt(draws.size)

    def test_mixture_keeps_literal_mean(self):
        fam = MixtureFamily(0.3, GaussianFamily(10.0, 1.0), GaussianFamily(-10.0, 1.0))
        assert fam.analytic_mean() == pytest.approx(-4.0)
        rng = np.random.default_rng(1)
        draws = fam.sample(rng, 200_000)
        sd = np.sqrt(fam.variance())
        assert abs(draws.mean() - (-4.0)) < 4 * sd / np.sqrt(draws.size)

    def test_mixture_variance_formula(self):
        fam = MixtureFamily(0.3, UniformFamily(9.0, 11.0), UniformFamily(-11.0, -9.0))
        # components have variance 1/3 about means +-10; mixture mean is -4
        expected = 0.3 * (1.0 / 3.0 + 100.0) + 0.7 * (1.0 / 3.0 + 100.0) - 16.0
        assert fam.variance() == pytest.approx(expected)
        rng = np.random.default_rng(2)
        draws = fam.sample(rng, 300_000)
        assert draws.var() == pytest.approx(expected, rel=0.02)

    def test_family_variances_match_samples(self):
        rng = np.random.default_rng(3)
        for fam in (LaplaceFamily(0.0, 1.0), ExponentialFamily(1.0), LogNormalFamily(0.0, 1.0)):
            draws = fam.sample(rng, 400_000)
            assert draws.var() == pytest.approx(fam.variance(), rel=0.05)


class TestFeatureDistribution:
    def test_gaussian_covariance_recovered(self):
        cov = np.array([[1.0, 0.4, 0.0], [0.4, 2.0, -0.3], [0.0, -0.3, 0.5]])
        dist = FeatureDistribution.multivariate_gaussian(cov)
        rng = np.random.default_rng(4)
        draws = dist.sample(rng, 100_000, 3)
        emp = np.cov(draws.T, bias=True)
        assert np.max(np.abs(emp - cov)) <= 0.05 * np.max(np.abs(cov))

    def test_iid_covariance_matrix(self):
        dist = FeatureDistribution.iid(UniformFamily(-1.0, 1.0))
        assert np.allclose(dist.covariance_matrix(4), (1.0 / 3.0) * np.eye(4))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(np.linalg.LinAlgError):
            FeatureDistribution.multivariate_gaussian([[1.0, 2.0], [2.0, 1.0]])

    def test_factors_the_covariance_once(self, monkeypatch):
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        dist = FeatureDistribution.multivariate_gaussian(cov)
        factor = np.linalg.cholesky(cov)

        def refuse(_):
            raise AssertionError("sample() must reuse the factor computed at construction")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        draws = dist.sample(keyed_rng(3), 4, 2)
        assert np.array_equal(draws, keyed_rng(3).standard_normal((4, 2)) @ factor.T)


class TestNoiseModel:
    def test_truncation_radius_enforced(self):
        model = NoiseModel("per_arm", np.eye(2), truncation_radius=1.5)
        rng = np.random.default_rng(5)
        draws = model.sample(rng, 20_000)
        assert np.all(np.linalg.norm(draws, axis=1) <= 1.5)

    def test_default_radius_six_sigma(self):
        model = NoiseModel("identical", np.diag([0.25, 4.0]))
        assert model.radius() == pytest.approx(12.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            NoiseModel("sometimes", np.eye(2))

    def test_rejects_radius_that_almost_never_holds_a_draw(self):
        # sample() would redraw for ever: a N(0, I_2) draw lands within 1e-3 of 0 with probability 5e-7
        with pytest.raises(ValueError, match="truncation radius"):
            NoiseModel("per_arm", np.eye(2), truncation_radius=1e-3)

    def test_radius_whose_square_overflows_holds_every_draw(self):
        assert NoiseModel("per_arm", np.eye(2), truncation_radius=1e300).radius() == 1e300

    def test_rejects_nan_radius(self):
        with pytest.raises(ValueError, match="positive"):
            NoiseModel("per_arm", np.eye(2), truncation_radius=float("nan"))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize(
    "build", [lambda cov: NoiseModel("per_arm", cov), FeatureDistribution.multivariate_gaussian], ids=["noise", "features"]
)
def test_rejects_non_finite_covariance(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(np.array([[bad, 0.0], [0.0, 0.3]]))


class TestEnvironmentConfig:
    def test_rejects_large_theta(self):
        with pytest.raises(ValueError):
            make_config(theta_star=np.array([1.0, 1.0, 1.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_config(theta_star=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_reward_noise_sigma(self, sigma):
        with pytest.raises(ValueError):
            make_config(reward_noise_sigma=sigma)

    def test_single_arm_allowed(self):
        cfg = make_config(K=1)
        ctx = sample_round(cfg, 1)
        assert instantaneous_regret(ctx, 0, cfg.theta_star) == 0.0


class TestSampleRound:
    def test_zero_noise_limit(self):
        cfg = make_config(noise_scale=1e-18)
        ctx = sample_round(cfg, 3)
        assert np.allclose(ctx.x, ctx.z, atol=1e-7)

    def test_identical_mode_shares_noise(self):
        cfg = make_config(noise_mode="identical")
        ctx = sample_round(cfg, 2)
        assert np.array_equal(ctx.eps, np.tile(ctx.eps[0], (cfg.K, 1)))

    def test_additivity_exact(self):
        ctx = sample_round(make_config(), 7)
        assert np.array_equal(ctx.x, ctx.z + ctx.eps)

    def test_bitwise_deterministic(self):
        cfg = make_config()
        a = sample_round(cfg, 9)
        b = sample_round(cfg, 9)
        assert np.array_equal(a.z, b.z) and np.array_equal(a.x, b.x) and np.array_equal(a.eps, b.eps)

    def test_out_of_order_generation_matches(self):
        cfg = make_config()
        forward = [sample_round(cfg, t).x for t in (1, 2, 3)]
        backward = [sample_round(cfg, t).x for t in (3, 2, 1)][::-1]
        for a, b in zip(forward, backward):
            assert np.array_equal(a, b)

    def test_equal_configs_equal_trajectories(self):
        a, b = make_config(), make_config()
        for t in range(1, 30):
            assert np.array_equal(sample_round(a, t).x, sample_round(b, t).x)
            assert reward(a, sample_round(a, t), 0) == reward(b, sample_round(b, t), 0)

    def test_round_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            sample_round(make_config(T=5), 6)


class TestReward:
    def test_noiseless_is_exact_inner_product(self):
        cfg = make_config(reward_noise_sigma=0.0)
        ctx = sample_round(cfg, 1)
        for arm in range(cfg.K):
            assert reward(cfg, ctx, arm) == float(ctx.z[arm] @ cfg.theta_star)

    def test_zero_coefficient_mean(self):
        cfg = make_config(theta_star=np.zeros(3), reward_noise_sigma=0.5)
        ctx = sample_round(cfg, 1)
        rng = np.random.default_rng(6)
        draws = np.array([reward(cfg, ctx, 0, rng) for _ in range(100_000)])
        assert abs(draws.mean()) < 3 * 0.5 / np.sqrt(draws.size)

    def test_mean_matches_inner_product(self):
        cfg = make_config(reward_noise_sigma=0.3)
        ctx = sample_round(cfg, 1)
        rng = np.random.default_rng(7)
        draws = np.array([reward(cfg, ctx, 1, rng) for _ in range(100_000)])
        expected = float(ctx.z[1] @ cfg.theta_star)
        assert abs(draws.mean() - expected) < 4 * 0.3 * 10 ** (-5 / 2)

    def test_noise_bounded(self):
        cfg = make_config(reward_noise_sigma=0.2)
        ctx = sample_round(cfg, 1)
        rng = np.random.default_rng(8)
        mean = float(ctx.z[0] @ cfg.theta_star)
        draws = np.array([reward(cfg, ctx, 0, rng) for _ in range(50_000)])
        assert np.max(np.abs(draws - mean)) <= 0.8 + 1e-12


def _keyed_reward(cfg, ctx, arm) -> float:
    """Reference reward: every call draws its noise from its own keyed (seed, t, LANE_REWARD) stream."""
    mean = float(ctx.z[arm] @ cfg.theta_star)
    if cfg.reward_noise_sigma == 0.0:
        return mean
    rng = keyed_rng(cfg.seed, ctx.t, LANE_REWARD)
    g = rng.standard_normal()
    while abs(g) > 4.0:
        g = rng.standard_normal()
    return mean + cfg.reward_noise_sigma * float(g)


class TestSharedRewardNoise:
    @pytest.mark.parametrize("sigma", [0.0, 0.1, 2.5])
    def test_pre_drawn_noise_equals_keyed_draw(self, sigma):
        checked = 0
        for seed in range(-40, 60):
            cfg = make_config(seed=seed, T=7, reward_noise_sigma=sigma)
            for t in (1, 4, 7):
                ctx = sample_round(cfg, t)
                noise = reward_noise(cfg, t)
                for arm in range(cfg.K):
                    expected = repr(_keyed_reward(cfg, ctx, arm))  # repr tells -0.0 from 0.0
                    assert repr(reward(cfg, ctx, arm, noise=noise)) == expected
                    assert repr(reward(cfg, ctx, arm)) == expected
                    checked += 1
        assert checked >= 1000

    def test_rejected_first_draw(self):
        seed = next(s for s in range(10**6) if abs(keyed_rng(s, 1, LANE_REWARD).standard_normal()) > 4.0)
        cfg = make_config(seed=seed, reward_noise_sigma=0.5)
        ctx = sample_round(cfg, 1)
        noise = reward_noise(cfg, 1)
        assert abs(noise) <= 4.0 * 0.5
        for arm in range(cfg.K):
            assert reward(cfg, ctx, arm, noise=noise) == _keyed_reward(cfg, ctx, arm)

    def test_noiseless_round_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(envmod, "_round_stream", None)  # a draw would fail
        cfg = make_config(reward_noise_sigma=0.0)
        assert reward_noise(cfg, 1) == 0.0


class TestArgmaxAndRegret:
    def test_oracle_arm_simple(self):
        ctx = _fixed_round(z=np.array([[1.0, 0.0], [0.5, 0.0]]))
        assert oracle_arm(ctx, np.array([1.0, 0.0])) == 0

    def test_oracle_arm_tie_lowest_index(self):
        ctx = _fixed_round(z=np.tile([0.3, 0.3], (3, 1)))
        assert oracle_arm(ctx, np.array([1.0, 0.0])) == 0

    def test_oracle_arm_matches_brute_force(self):
        cfg = make_config()
        for t in range(1, 40):
            ctx = sample_round(cfg, t)
            values = [float(ctx.z[i] @ cfg.theta_star) for i in range(cfg.K)]
            assert oracle_arm(ctx, cfg.theta_star) == int(np.argmax(values))

    def test_bar_theta_arm_matches_brute_force(self):
        cfg = make_config()
        theta_bar = np.array([0.2, 0.4, -0.1])
        for t in range(1, 40):
            ctx = sample_round(cfg, t)
            scores = [float(ctx.x[i] @ theta_bar) for i in range(cfg.K)]
            assert bar_theta_arm(ctx, theta_bar) == int(np.argmax(scores))

    def test_instantaneous_regret_cases(self):
        ctx = _fixed_round(z=np.array([[1.0, 0.0], [0.5, 0.0]]))
        theta = np.array([1.0, 0.0])
        assert instantaneous_regret(ctx, oracle_arm(ctx, theta), theta) == 0.0
        assert instantaneous_regret(ctx, 1, theta) == pytest.approx(0.5)

    def test_regrets_nonnegative(self):
        cfg = make_config()
        for t in range(1, 60):
            ctx = sample_round(cfg, t)
            for arm in range(cfg.K):
                inst = instantaneous_regret(ctx, arm, cfg.theta_star)
                assert inst >= 0.0

    def test_identical_noise_argmax_invariance(self):
        cfg = make_config(K=5, noise_mode="identical", noise_scale=2.0, T=10_000)
        mismatches = 0
        for t in range(1, 10_001):
            ctx = sample_round(cfg, t)
            if oracle_arm(ctx, cfg.theta_star) != int(np.argmax(ctx.x @ cfg.theta_star)):
                mismatches += 1
        assert mismatches == 0


class TestThetaStarDraw:
    def test_inside_ball_untouched(self):
        rng = np.random.default_rng(9)
        found_unscaled = False
        for _ in range(50):
            theta = draw_theta_star(2, rng)
            assert np.linalg.norm(theta) <= 1.0 + 1e-12
            if np.all(np.abs(theta) <= 1.0) and np.linalg.norm(theta) < 1.0:
                found_unscaled = True
        assert found_unscaled

    def test_no_cap(self):
        rng = np.random.default_rng(10)
        draws = np.array([np.linalg.norm(draw_theta_star(10, rng, max_norm=None)) for _ in range(100)])
        assert draws.max() > 1.0


def _fixed_round(z):
    from bandit_lab.env import RoundContext

    z = np.asarray(z, dtype=float)
    return RoundContext(t=1, z=z, x=z.copy(), eps=np.zeros_like(z))


def test_keyed_rng_streams_are_distinct():
    a = keyed_rng(1, 5, 0).standard_normal(4)
    b = keyed_rng(1, 5, 1).standard_normal(4)
    c = keyed_rng(1, 6, 0).standard_normal(4)
    d = keyed_rng(2, 5, 0).standard_normal(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


class TestRekeyedRoundStream:
    def test_same_draws_as_keyed_rng(self):
        r = random.Random(0)
        seeds = [r.randrange(-(2**70), 2**70) for _ in range(400)]
        seeds += [r.randrange(-50, 50) for _ in range(300)]
        seeds += [r.randrange(2**64, 2**66) for _ in range(300)]
        for seed in seeds:
            t, lane = r.randrange(0, 2**40), r.randrange(8)
            expected = keyed_rng(seed, t, lane)
            got = envmod._round_stream(seed, t, lane)
            # a 32-bit draw first, so a stale buffer or half-used word would show
            assert got.integers(0, 2**31, dtype=np.uint32) == expected.integers(0, 2**31, dtype=np.uint32)
            assert np.array_equal(got.standard_normal(3), expected.standard_normal(3))
            assert np.array_equal(got.random(2), expected.random(2))

    def test_held_generator_unaffected_by_sampling(self):
        cfg = make_config(seed=5)
        held, reference = keyed_rng(5, 3, LANE_CONTEXT), keyed_rng(5, 3, LANE_CONTEXT)
        first = held.standard_normal(2)
        assert np.array_equal(first, reference.standard_normal(2))
        ctx = sample_round(cfg, 3)
        reward(cfg, ctx, 1)
        assert np.array_equal(held.standard_normal(5), reference.standard_normal(5))
        again = sample_round(cfg, 3, rng=keyed_rng(5, 3, LANE_CONTEXT))
        assert np.array_equal(ctx.x, again.x)
        assert reward(cfg, ctx, 1) == reward(cfg, ctx, 1, rng=keyed_rng(5, 3, LANE_REWARD))
