import math

import numpy as np
import pytest

from bandit_lab.env import (
    EnvironmentConfig,
    Family,
    FeatureDistribution,
    NoiseModel,
    keyed_rng,
    reward,
    sample_round,
)
from bandit_lab.policies import (
    ExploreThenCommitGreedy,
    FixedCoefficient,
    LinUCB,
    NoisyLinRel,
    RegretGradientLinRel,
    ScriptedPolicy,
    UniformRandom,
    bayes_optimal_theta,
    candidate_set,
    posterior_feature_mean,
)


def random_pd(rng, d, jitter=0.3):
    root = rng.standard_normal((d, d))
    return root @ root.T + jitter * np.eye(d)


class TestBayesOptimalTheta:
    def test_equal_covariances_halve_theta(self):
        theta = np.array([0.4, -0.6, 0.2])
        got = bayes_optimal_theta(np.eye(3), np.eye(3), theta)
        assert np.allclose(got, theta / 2.0)

    def test_diagonal_arithmetic(self):
        got = bayes_optimal_theta(np.diag([2.0, 1.0]), np.eye(2), np.array([1.0, 1.0]))
        assert np.allclose(got, [2.0 / 3.0, 0.5])

    def test_matches_inverse_identity_route(self):
        # independent route: Sigma_n^-1 (Sigma_f^-1 + Sigma_n^-1)^-1 theta
        rng = np.random.default_rng(0)
        for _ in range(20):
            f, n = random_pd(rng, 4), random_pd(rng, 4)
            theta = rng.standard_normal(4)
            direct = bayes_optimal_theta(f, n, theta)
            other = np.linalg.inv(n) @ np.linalg.solve(np.linalg.inv(f) + np.linalg.inv(n), theta)
            assert np.linalg.norm(direct - other) <= 1e-8 * max(1.0, np.linalg.norm(other))

    def test_low_residual(self):
        rng = np.random.default_rng(1)
        f, n = random_pd(rng, 6), random_pd(rng, 6)
        theta = rng.standard_normal(6)
        got = bayes_optimal_theta(f, n, theta)
        assert np.linalg.norm((f + n) @ got - f @ theta) <= 1e-10 * np.linalg.norm(f @ theta)


class TestPosteriorFeatureMean:
    def test_equal_covariances_halve_observation(self):
        x = np.array([2.0, -4.0])
        assert np.allclose(posterior_feature_mean(x, np.eye(2), np.eye(2)), x / 2.0)

    def test_noiseless_limit(self):
        x = np.array([1.0, 2.0, 3.0])
        got = posterior_feature_mean(x, np.eye(3), 1e-8 * np.eye(3))
        assert np.max(np.abs(got - x)) <= 1e-6

    def test_scalar_case(self):
        # (1/2 + 1)^-1 * 1 * 3 = 2
        got = posterior_feature_mean(np.array([3.0]), np.array([[2.0]]), np.array([[1.0]]))
        assert got[0] == pytest.approx(2.0)

    def test_matches_complementary_form(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f, n = random_pd(rng, 3), random_pd(rng, 3)
            x = rng.standard_normal(3)
            got = posterior_feature_mean(x, f, n)
            other = f @ np.linalg.solve(f + n, x)
            assert np.allclose(got, other, atol=1e-9)


class TestCandidateSet:
    def test_hand_traced_elimination(self):
        # c = arm 0 first; arm 1 dies (0.5 + 0.3 <= 1.0); arm 2 survives
        # (0.9 + 0.2 > 1.0) and is promoted next.
        widths = {(1, 0): 0.3, (2, 0): 0.2}
        got = candidate_set([1.0, 0.5, 0.9], lambda i, c: widths[(i, c)])
        assert got == [0, 2]

    def test_identical_estimates_zero_widths_collapse(self):
        got = candidate_set([0.7, 0.7, 0.7], lambda i, c: 0.0)
        assert got == [0]

    def test_always_contains_global_argmax(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = rng.standard_normal(6)
            w = np.abs(rng.standard_normal((6, 6)))
            got = candidate_set(r, lambda i, c: float(w[i, c]))
            assert int(np.argmax(r)) in got
            assert len(got) >= 1

    def test_large_widths_keep_everyone(self):
        got = candidate_set([3.0, 1.0, 2.0], lambda i, c: 10.0)
        assert sorted(got) == [0, 1, 2]
        assert got[0] == 0  # promoted in estimate order


class TestNoisyLinRel:
    def test_update_from_zero_state(self):
        x, y, noise = np.array([1.0, 2.0]), 0.5, 0.1 * np.eye(2)
        policy = NoisyLinRel(d=2, noise_cov=noise)
        policy.observe(1, 0, x, y)
        assert np.array_equal(policy.Z, np.outer(x, x) - noise)
        assert np.array_equal(policy.Y, y * x)

    def test_updates_commute(self):
        noise = 0.2 * np.eye(2)
        xs = [np.array([1.0, 0.5]), np.array([-0.3, 2.0])]
        ys = [1.0, -0.5]
        a = NoisyLinRel(d=2, noise_cov=noise)
        b = NoisyLinRel(d=2, noise_cov=noise)
        a.observe(1, 0, xs[0], ys[0])
        a.observe(2, 0, xs[1], ys[1])
        b.observe(1, 0, xs[1], ys[1])
        b.observe(2, 0, xs[0], ys[0])
        assert np.allclose(a.Z, b.Z) and np.allclose(a.Y, b.Y)

    def test_noise_cancellation(self):
        x = np.array([0.6, -0.8])
        policy = NoisyLinRel(d=2, noise_cov=np.outer(x, x))
        for t in range(1, 6):
            policy.observe(t, 0, x, 0.0)
        assert np.max(np.abs(policy.Z)) == 0.0

    def test_state_exactness_against_direct_sum(self):
        rng = np.random.default_rng(4)
        noise = random_pd(rng, 3, jitter=0.5)
        policy = NoisyLinRel(d=3, noise_cov=noise)
        direct_z = np.zeros((3, 3))
        direct_y = np.zeros(3)
        for t in range(1, 200):
            x = rng.standard_normal(3)
            y = float(rng.standard_normal())
            policy.observe(t, 0, x, y)
            direct_z += np.outer(x, x) - noise
            direct_y += y * x
        assert np.max(np.abs(policy.Z - direct_z)) <= 1e-9
        assert np.max(np.abs(policy.Y - direct_y)) <= 1e-9

    def test_cold_start_explores_distinct_contexts(self):
        # With an empty spectrum nothing is estimated and the pairwise widths
        # are full feature distances, so distinct arms all stay candidates.
        policy = NoisyLinRel(d=2, noise_cov=np.zeros((2, 2)))
        x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        picks = {policy.select(1, x, keyed_rng(s)) for s in range(40)}
        assert picks == {0, 1, 2}

    def test_cold_start_identical_contexts_pick_first(self):
        policy = NoisyLinRel(d=2, noise_cov=np.zeros((2, 2)))
        x = np.tile([0.4, -0.2], (4, 1))
        for s in range(10):
            assert policy.select(1, x, keyed_rng(s)) == 0

    def test_converges_to_theta_star_identical_noise(self):
        theta_star = np.array([0.6, -0.3, 0.4])
        cfg = EnvironmentConfig(
            K=5,
            d=3,
            T=4000,
            theta_star=theta_star,
            feature_dist=FeatureDistribution.iid(Family("gaussian")),
            noise=NoiseModel("identical", 0.5 * np.eye(3)),
            reward_noise_sigma=0.1,
            seed=12,
        )
        policy = NoisyLinRel(d=3, noise_cov=cfg.noise.covariance)
        rng = keyed_rng(12, 0, 2)
        for t in range(1, cfg.T + 1):
            ctx = sample_round(cfg, t)
            arm = policy.select(t, ctx.x, rng)
            y = reward(cfg, ctx, arm)
            policy.observe(t, arm, ctx.x[arm], y)
        est = policy.theta_hat
        cos = est @ theta_star / (np.linalg.norm(est) * np.linalg.norm(theta_star))
        assert 1.0 - cos < 0.02

    def test_alpha_exponent_validated(self):
        with pytest.raises(ValueError):
            NoisyLinRel(d=2, noise_cov=np.zeros((2, 2)), alpha_exponent=0.4)

    @pytest.mark.parametrize("case", ["random", "tie", "inf", "nan"])
    @pytest.mark.parametrize("seed", range(5))
    def test_full_rank_select_matches_the_elimination_loop(self, case, seed):
        # At full rank every width is 0. select may skip the loop, but it must
        # play the arm candidate_set plus a uniform draw plays and leave the
        # generator where that draw leaves it.
        rng = np.random.default_rng(seed)
        d, k_arms, t = 10, 5, 50
        policy = NoisyLinRel(d, 0.1 * np.eye(d))
        for i in range(1, 200):
            policy.observe(i, 0, rng.standard_normal(d), float(rng.standard_normal()))
        _, k, theta = policy.estimate(t)
        assert k == d
        x = rng.standard_normal((k_arms, d))
        if case == "tie":
            x[3] = x[1] = x[int(np.argmax(x @ theta))]
        elif case == "inf":
            x[2, 0] = math.copysign(math.inf, theta[0])
        elif case == "nan":
            x[3, 0] = math.nan
        r = x @ theta
        assert case != "tie" or r[1] == r[3] == r.max()
        assert (case == "inf") == (r.max() == math.inf)
        assert (case == "nan") == np.isnan(r).any()
        expected_rng = np.random.default_rng(seed + 100)
        candidates = candidate_set(r, lambda i, c: 0.0)
        expected = candidates[int(expected_rng.integers(len(candidates)))]
        policy_rng = np.random.default_rng(seed + 100)
        assert policy.select(t, x, policy_rng) == expected
        assert policy_rng.bit_generator.state == expected_rng.bit_generator.state


class TestExploreThenCommitGreedy:
    def test_tau_from_horizon(self):
        assert ExploreThenCommitGreedy(d=2, horizon=1000).tau == 100

    def test_random_then_greedy(self):
        policy = ExploreThenCommitGreedy(d=2, horizon=1000)
        x = np.array([[0.2, 0.0], [0.9, 0.0], [-1.0, 0.0]])
        rng = keyed_rng(0)
        seen = {policy.select(t, x, rng) for t in range(1, 101)}
        assert len(seen) > 1  # explored
        assert policy.theta_hat is None
        # feed observations aligned with e1 so the estimate points along e1
        policy.X = np.eye(2)
        policy.Y = np.array([1.0, 0.0])
        assert policy.select(101, x, rng) == 1
        assert policy.theta_hat is not None

    def test_exploration_uniform_frequencies(self):
        policy = ExploreThenCommitGreedy(d=2, horizon=10**6)
        x = np.zeros((4, 2))
        rng = keyed_rng(1)
        counts = np.zeros(4)
        n = 10_000
        for t in range(1, n + 1):
            counts[policy.select(t, x, rng)] += 1
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) <= 3 * sigma)

    def test_estimate_tracks_shrunk_coefficient(self):
        theta_star = np.array([0.5, -0.5])
        cfg = EnvironmentConfig(
            K=4,
            d=2,
            T=3000,
            theta_star=theta_star,
            feature_dist=FeatureDistribution.iid(Family("gaussian")),
            noise=NoiseModel("per_arm", 0.5 * np.eye(2)),
            reward_noise_sigma=0.1,
            seed=3,
        )
        policy = ExploreThenCommitGreedy(d=2, horizon=cfg.T, tau=2500)
        rng = keyed_rng(3, 0, 2)
        for t in range(1, 2502):
            ctx = sample_round(cfg, t)
            arm = policy.select(t, ctx.x, rng)
            policy.observe(t, arm, ctx.x[arm], reward(cfg, ctx, arm))
        expected = bayes_optimal_theta(np.eye(2), 0.5 * np.eye(2), theta_star)
        assert np.linalg.norm(policy.theta_hat - expected) < 0.1

    def test_singular_design_tolerated(self):
        policy = ExploreThenCommitGreedy(d=3, horizon=8)  # tau = 4 < d
        x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rng = keyed_rng(2)
        for t in range(1, 5):
            arm = policy.select(t, x, rng)
            policy.observe(t, arm, x[arm], 1.0)
        assert policy.select(5, x, rng) in (0, 1)


class TestLinUCB:
    def test_cold_start_picks_max_norm(self):
        policy = LinUCB(d=2, ucb_alpha=0.25)
        x = np.array([[1.0, 0.0], [3.0, 4.0], [0.0, 2.0]])
        assert policy.select(1, x, keyed_rng(0)) == 1

    def test_zero_alpha_pure_greedy(self):
        policy = LinUCB(d=2, ucb_alpha=0.0)
        policy.b = policy.A @ np.array([1.0, 0.0])
        x = np.array([[0.2, 5.0], [0.9, -5.0], [-1.0, 0.0]])
        assert policy.select(1, x, keyed_rng(0)) == 1

    def test_single_update_sherman_morrison(self):
        # After one observation theta = y (I + x x^T)^-1 x = y x / (1 + |x|^2)
        policy = LinUCB(d=2)
        x, y = np.array([1.0, 2.0]), 3.0
        policy.observe(1, 0, x, y)
        expected = y * x / (1.0 + float(x @ x))
        assert np.allclose(policy.current_theta(), expected, atol=1e-12)

    def test_non_finite_scores_rejected(self):
        # A context of -1e308 made the widths inf - inf = NaN, with a RuntimeWarning, and argmax took the NaN.
        policy = LinUCB(d=2)
        for _ in range(3):
            policy.observe(1, 0, np.array([2.0, -1.5]), 0.5)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="top arm score nan is not finite"):  # as the CLI runs
            policy.select(4, np.array([[-0.6, -0.9], [0.2, -1e308]]), None)

    def test_overflowing_sums_rejected(self):
        policy = LinUCB(d=2)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="running sums A and b must be finite"):  # as the CLI runs
            policy.observe(1, 0, np.array([1e200, 1.0]), 0.5)

    def test_gram_stays_positive_definite(self):
        rng = np.random.default_rng(5)
        policy = LinUCB(d=3)
        for t in range(200):
            policy.observe(t, 0, rng.standard_normal(3) * 5, float(rng.standard_normal()))
        np.linalg.cholesky(policy.A)  # raises if not PD

    def test_one_coefficient_solve_per_round(self, monkeypatch):
        solve = np.linalg.solve
        rng = np.random.default_rng(9)
        tracked, untracked = LinUCB(d=3), LinUCB(d=3)
        coefficient_solves = []

        def counting_solve(a, b):
            if a is tracked.A and b is tracked.b:
                coefficient_solves.append(1)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        rounds = 60
        for t in range(1, rounds + 1):
            x = rng.standard_normal((4, 3))
            arm = tracked.select(t, x, None)
            assert untracked.select(t, x, None) == arm
            y = float(rng.standard_normal())
            for policy in (tracked, untracked):
                policy.observe(t, arm, x[arm], y)
            # select, observe, current_theta: the order of the simulation round core
            assert np.array_equal(tracked.current_theta(), solve(tracked.A, tracked.b))
        # one solve per round, plus round 1's select, which no current_theta preceded
        assert len(coefficient_solves) == rounds + 1
        assert np.array_equal(untracked.current_theta(), solve(untracked.A, untracked.b))


class TestFixedCoefficient:
    def test_argmax_selection(self):
        policy = FixedCoefficient(np.array([1.0, 0.0]), name="oracle_tc")
        x = np.array([[0.2, 9.0], [0.9, -9.0], [-1.0, 0.0]])
        assert policy.select(1, x, keyed_rng(0)) == 1

    def test_tie_goes_to_lowest_index(self):
        policy = FixedCoefficient(np.array([1.0, 0.0]))
        x = np.array([[0.5, 1.0], [0.5, 2.0]])
        assert policy.select(1, x, keyed_rng(0)) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(3)
        policy = FixedCoefficient(theta)
        for _ in range(50):
            x = rng.standard_normal((5, 3))
            assert policy.select(1, x, keyed_rng(0)) == int(np.argmax([xi @ theta for xi in x]))


class TestScaleInvariance:
    def test_argmax_policies_ignore_positive_scaling(self):
        rng = np.random.default_rng(7)
        theta = rng.standard_normal(4)
        for c in (0.2, 1.0, 35.0):
            a = FixedCoefficient(theta)
            b = FixedCoefficient(c * theta)
            for _ in range(50):
                x = rng.standard_normal((6, 4))
                assert a.select(1, x, keyed_rng(0)) == b.select(1, x, keyed_rng(0))

    def test_greedy_commit_ignores_positive_scaling(self):
        x = np.random.default_rng(8).standard_normal((5, 3))
        a = ExploreThenCommitGreedy(d=3, horizon=8, tau=0)
        b = ExploreThenCommitGreedy(d=3, horizon=8, tau=0)
        a.theta_hat = np.array([0.3, -0.7, 0.1])
        b.theta_hat = 12.0 * a.theta_hat
        assert a.select(1, x, keyed_rng(0)) == b.select(1, x, keyed_rng(0))


class TestUniformRandomAndScripted:
    def test_uniform_covers_all_arms(self):
        policy = UniformRandom()
        rng = keyed_rng(9)
        x = np.zeros((3, 2))
        assert {policy.select(t, x, rng) for t in range(100)} == {0, 1, 2}

    def test_scripted_cycles(self):
        policy = ScriptedPolicy([2, 0, 1])
        x = np.zeros((3, 2))
        picks = [policy.select(t, x, keyed_rng(0)) for t in range(1, 7)]
        assert picks == [2, 0, 1, 2, 0, 1]


def _run_gradient_policy(policy, cfg, T):
    rng = keyed_rng(cfg.seed, 0, 2)
    for t in range(1, T + 1):
        ctx = sample_round(cfg, t)
        arm = policy.select(t, ctx.x, rng)
        y = reward(cfg, ctx, arm)
        policy.observe(t, arm, ctx.x[arm], y)
    return policy


def _gaussian_env(seed, d=4, K=5, T=3000, noise_scale=0.5):
    theta_star = np.array([0.55, -0.35, 0.25, 0.45])[:d]
    return EnvironmentConfig(
        K=K,
        d=d,
        T=T,
        theta_star=theta_star,
        feature_dist=FeatureDistribution.iid(Family("gaussian")),
        noise=NoiseModel("per_arm", noise_scale * np.eye(d)),
        reward_noise_sigma=0.1,
        seed=seed,
    )


def _feature_sampler(cfg):
    def sampler(rng, n):
        return cfg.feature_dist.sample(rng, n * cfg.K, cfg.d).reshape(n, cfg.K, cfg.d)

    return sampler


class TestRegretGradientLinRel:
    def test_disabled_learning_is_pure_argmax(self):
        cfg = _gaussian_env(seed=20)
        policy = RegretGradientLinRel(
            cfg.d,
            cfg.noise.covariance,
            keyed_rng(20, 0, 2),
            feature_sampler=_feature_sampler(cfg),
            step_size=0.0,
            ucb_coeff=0.0,
        )
        # With learning disabled the correction never moves, so the policy
        # plays argmax x . (estimate + correction) while the estimate learns.
        correction0 = np.random.default_rng(20).standard_normal(cfg.d)
        policy.correction = correction0.copy()
        rng = keyed_rng(21)
        for t in range(1, 80):
            ctx = sample_round(cfg, t)
            _, _, estimate = policy.estimator.estimate(t)
            arm = policy.select(t, ctx.x, rng)
            assert arm == int(np.argmax(ctx.x @ (estimate + correction0)))
            policy.observe(t, arm, ctx.x[arm], reward(cfg, ctx, arm))
        assert np.array_equal(policy.correction, correction0)
        assert np.any(policy.estimator.theta_hat != 0.0)

    def test_zero_ucb_fixed_theta_picks_top_coordinate(self):
        cfg = _gaussian_env(seed=22)
        policy = RegretGradientLinRel(
            cfg.d,
            cfg.noise.covariance,
            keyed_rng(22, 0, 2),
            feature_sampler=_feature_sampler(cfg),
            step_size=0.0,
            ucb_coeff=0.0,
        )
        policy.correction = np.eye(cfg.d)[0]  # the estimate is still zero
        x = np.zeros((3, cfg.d))
        x[:, 0] = [0.2, 0.9, -1.0]
        assert policy.select(1, x, keyed_rng(0)) == 1

    @pytest.mark.parametrize("mc_samples, sets", [(500, 10), (15, 5), (13, 1), (7, 7)])
    def test_split_keeps_the_whole_sampling_budget(self, mc_samples, sets):
        cfg = _gaussian_env(seed=27)
        policy = RegretGradientLinRel(
            cfg.d, cfg.noise.covariance, keyed_rng(27), feature_sampler=_feature_sampler(cfg), mc_samples=mc_samples
        )
        assert policy.feature_sets == sets
        assert policy.feature_sets * policy.grad_cfg.mc_noise_samples == mc_samples
        replay = RegretGradientLinRel(cfg.d, cfg.noise.covariance, keyed_rng(27), mc_samples=mc_samples)
        assert (replay.feature_sets, replay.grad_cfg.mc_noise_samples) == (1, mc_samples)

    @pytest.mark.parametrize("sampler", [False, True], ids=["replay", "sampler"])
    @pytest.mark.parametrize("mc_samples", [2.5, 2.0, True, 0])
    def test_mc_samples_read_as_gradient_config_reads_counts(self, mc_samples, sampler):
        # With a sampler 2.5 failed in the divisor search, without one the error
        # named 'mc_noise_samples', and True built a policy.
        cfg = _gaussian_env(seed=30)
        feature_sampler = _feature_sampler(cfg) if sampler else None
        with pytest.raises(ValueError, match="'mc_samples' must be an integer of at least 1"):
            RegretGradientLinRel(cfg.d, cfg.noise.covariance, keyed_rng(30), feature_sampler=feature_sampler, mc_samples=mc_samples)
        policy = RegretGradientLinRel(cfg.d, cfg.noise.covariance, keyed_rng(30), feature_sampler=feature_sampler, mc_samples=np.int64(15))
        assert policy.feature_sets * policy.grad_cfg.mc_noise_samples == 15

    def test_zero_spread_skips_the_step(self, caplog):
        # Replay mode with both arms showing the same context each round: the
        # arm values' spread under any estimate is exactly 0, so once the
        # estimate keeps a direction (round 2 on) every step is skipped.
        d = 2
        policy = RegretGradientLinRel(d, 0.01 * np.eye(d), keyed_rng(31), step_size=0.05, mc_samples=20)
        rng = np.random.default_rng(31)
        with caplog.at_level("WARNING", logger="bandit_lab.policies"):
            for t in range(1, 8):
                v = 3.0 * rng.standard_normal(d)
                x = np.tile(v, (2, 1))
                arm = policy.select(t, x, rng)
                policy.observe(t, arm, x[arm], float(v @ [0.5, -0.2]))
        assert (policy.skipped_gradient_steps, policy.gradient_steps) == (6, 0)
        assert np.array_equal(policy.correction, np.zeros(d))
        assert [r.getMessage() for r in caplog.records] == [f"skipped degenerate regret-gradient step at t={t}" for t in range(2, 8)]

    def test_zero_step_plays_estimate_once_full_rank(self):
        cfg = _gaussian_env(seed=28, T=200)
        policy = RegretGradientLinRel(
            cfg.d,
            cfg.noise.covariance,
            keyed_rng(28, 0, 2),
            feature_sampler=_feature_sampler(cfg),
            step_size=0.0,
        )
        rng = keyed_rng(29)
        full_rank_rounds = 0
        for t in range(1, cfg.T + 1):
            ctx = sample_round(cfg, t)
            _, k, estimate = policy.estimator.estimate(t)
            arm = policy.select(t, ctx.x, rng)
            if k == cfg.d:
                full_rank_rounds += 1
                assert arm == int(np.argmax(ctx.x @ estimate))
            policy.observe(t, arm, ctx.x[arm], reward(cfg, ctx, arm))
        assert full_rank_rounds >= cfg.T // 2

    def test_converges_near_shrunk_coefficient_gaussian(self):
        cfg = _gaussian_env(seed=23, T=3000)
        policy = RegretGradientLinRel(
            cfg.d,
            cfg.noise.covariance,
            keyed_rng(23, 0, 2),
            feature_sampler=_feature_sampler(cfg),
            step_size=0.02,
            ucb_coeff=0.25,
            mc_samples=200,
        )
        _run_gradient_policy(policy, cfg, cfg.T)
        theta_bar = bayes_optimal_theta(np.eye(cfg.d), cfg.noise.covariance, cfg.theta_star)
        cos = policy.theta @ theta_bar / (np.linalg.norm(policy.theta) * np.linalg.norm(theta_bar))
        assert 1.0 - cos < 0.05
        assert policy.skipped_gradient_steps == 0

    def test_replay_mode_uses_observed_contexts(self):
        cfg = _gaussian_env(seed=24)
        policy = RegretGradientLinRel(
            cfg.d,
            cfg.noise.covariance,
            keyed_rng(24, 0, 2),
            feature_sampler=None,
            step_size=0.05,
            mc_samples=50,
        )
        rng = keyed_rng(25)
        # warm the internal estimate; with an all-zero estimate the gradient
        # is identically zero and no step can happen
        for t in range(1, 40):
            ctx = sample_round(cfg, t)
            arm = policy.select(t, ctx.x, rng)
            policy.observe(t, arm, ctx.x[arm], reward(cfg, ctx, arm))
        assert policy.estimator.theta_hat is not None
        # the played theta also moves with the estimate, so watch the
        # descent iterate itself; on one observed set the common-noise
        # gradient is often exactly zero (no pick flips within +-h), so
        # watch a few rounds
        steps_before, moved = policy.gradient_steps, 0
        for t in range(40, 50):
            ctx = sample_round(cfg, t)
            before = policy.descent.copy()
            arm = policy.select(t, ctx.x, rng)
            moved += not np.array_equal(policy.descent, before)
            policy.observe(t, arm, ctx.x[arm], reward(cfg, ctx, arm))
        assert policy.gradient_steps == steps_before + 10
        assert moved > 0  # stepped using x as z

