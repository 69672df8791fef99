"""Decision policies behind one select/observe interface.

A policy is built with everything it knows before round 1: the NLinRel
policies take the known feature-noise covariance, the reference policies
their fixed coefficient. ``select(t, x, rng)`` sees only the observed
per-arm features. ``observe(t, arm, x_arm, y)`` feeds back the chosen arm's
observed features and reward, and is the only mutation point of a
policy's state.
"""

import logging
import math
import numbers

import numpy as np

from .gradient import GradientConfig, regret_gradient
from .linalg import (
    cutoff_pinv_solve,
    eigendecompose,
    gaussian_sampler,
    rank_threshold,
    sym_matrix,
    truncated_pinv_apply,
)

__all__ = [
    "ALPHA_EXPONENT_DEFAULT",
    "ExploreThenCommitGreedy",
    "FixedCoefficient",
    "LinUCB",
    "NoisyLinRel",
    "Policy",
    "RegretGradientLinRel",
    "ScriptedPolicy",
    "UniformRandom",
    "bayes_optimal_theta",
    "candidate_set",
    "posterior_feature_mean",
]

log = logging.getLogger(__name__)

# Eigenvalue-threshold exponent: the spectral cut at round t sits at t**alpha.
ALPHA_EXPONENT_DEFAULT = 5.0 / 8.0


def bayes_optimal_theta(feature_cov, noise_cov, theta_star) -> np.ndarray:
    """Optimal fixed coefficient for Gaussian features observed under Gaussian noise.

    Solves (feature_cov + noise_cov) theta = feature_cov theta_star; the
    result shrinks theta_star toward directions where features dominate
    noise, and playing argmax x.theta with it is the Bayes decision when
    both laws are Gaussian.
    """
    f = np.asarray(feature_cov, dtype=float)
    n = np.asarray(noise_cov, dtype=float)
    return np.linalg.solve(f + n, f @ np.asarray(theta_star, dtype=float))


def posterior_feature_mean(x, feature_cov, noise_cov) -> np.ndarray:
    """Posterior mean of the hidden feature given its noisy observation.

    Computes (feature_cov^-1 + noise_cov^-1)^-1 noise_cov^-1 x for Gaussian
    feature and noise laws.
    """
    f = np.asarray(feature_cov, dtype=float)
    n = np.asarray(noise_cov, dtype=float)
    precision = np.linalg.inv(f) + np.linalg.inv(n)
    return np.linalg.solve(precision, np.linalg.solve(n, np.asarray(x, dtype=float)))


def candidate_set(rewards, pairwise_width) -> list[int]:
    """Elimination loop producing the surviving candidate arms.

    Repeatedly promotes the highest-estimate arm c among the undecided arms
    (ties to the lowest index), then retires every undecided arm i whose
    estimate plus the pairwise width to c cannot reach c's estimate. The
    result always contains the globally highest-estimate arm.
    """
    r = np.asarray(rewards, dtype=float)
    active = list(range(r.shape[0]))
    chosen: list[int] = []
    while active:
        c = active[int(np.argmax(r[active]))]
        chosen.append(c)
        survivors = []
        for i in active:
            if i == c:
                continue
            # elimination is sound by construction: an arm is retired only
            # when its estimate plus the width cannot reach the promoted arm
            if not r[i] + pairwise_width(i, c) <= r[c]:
                survivors.append(i)
        active = survivors
    return chosen


class Policy:
    """Base select/observe interface; subclasses own all mutable state."""

    name = "policy"

    def select(self, t: int, x: np.ndarray, rng) -> int:
        raise NotImplementedError

    def observe(self, t: int, arm: int, x_arm: np.ndarray, y: float) -> None:
        pass

    def current_theta(self) -> np.ndarray | None:
        """Coefficient vector driving decisions, for tracking metrics; None if absent."""
        return None


class UniformRandom(Policy):
    name = "uniform"

    def select(self, t, x, rng) -> int:
        return int(rng.integers(x.shape[0]))


class ScriptedPolicy(Policy):
    """Plays a fixed arm sequence, cycling; for replay baselines and tests."""

    name = "scripted"

    def __init__(self, arms):
        if not arms:
            raise ValueError("need at least one scripted arm")
        self.arms = list(arms)
        self._i = 0

    def select(self, t, x, rng) -> int:
        arm = self.arms[self._i % len(self.arms)]
        self._i += 1
        if not 0 <= arm < x.shape[0]:
            raise ValueError(f"scripted arm {arm} out of range")
        return arm


class NoisyLinRel(Policy):
    """Spectral regression on noise-corrected sums with pairwise elimination.

    State: Z accumulates x x^T minus the known noise covariance per observed
    round (an unbiased running estimate of the hidden-feature Gram matrix),
    Y accumulates reward-weighted observed features. Each round the spectrum
    of Z is cut at t**alpha; the coefficient estimate inverts only the
    retained directions, and pairwise widths are the feature differences'
    mass in the discarded directions. The played arm is drawn uniformly from
    the candidate set that survives width-based elimination. At full rank
    every width is 0, so the candidate set is the first argmax of the
    scores, which is played without a draw when its score is finite.
    """

    name = "noisy_linrel"

    def __init__(self, d: int, noise_cov, alpha_exponent: float = ALPHA_EXPONENT_DEFAULT):
        if not 0.5 < alpha_exponent < 1.0:
            raise ValueError("alpha_exponent must lie in (1/2, 1)")
        self.d = d
        self.noise_cov = sym_matrix(noise_cov)  # a symmetric input is kept bit for bit
        self.alpha_exponent = alpha_exponent
        self.Z = np.zeros((d, d))
        self.Y = np.zeros(d)
        self.theta_hat = np.zeros(d)

    def estimate(self, t: int):
        """Spectral state at round t: (eigendecomposition, retained rank, coefficient)."""
        eig = eigendecompose(self.Z)
        k = rank_threshold(eig, float(t) ** self.alpha_exponent)
        theta = truncated_pinv_apply(eig, k, self.Y)
        if not np.isfinite(theta).all():  # e.g. Y overflowed; its scores would turn NaN
            raise ValueError("the coefficient estimate is not finite")
        return eig, k, theta

    def select(self, t, x, rng) -> int:
        eig, k, theta = self.estimate(t)
        self.theta_hat = theta
        r = x @ theta
        # At full rank every width is 0: only the first argmax c survives, and
        # rng.integers(1) draws nothing. An inf or NaN score takes the loop below.
        c = int(np.argmax(r))
        if k == self.d and math.isfinite(r[c]):
            return c
        # Project all arms onto the discarded eigendirections once; each
        # pairwise width is then a cheap column difference.
        tail = eig.eigenvectors[:, k:].T @ x.T  # (d - k, K)

        def width(i: int, c: int) -> float:
            diff = tail[:, i] - tail[:, c]
            return math.sqrt(diff.dot(diff))  # np.linalg.norm(diff), without its overhead

        candidates = candidate_set(r, width)
        return candidates[int(rng.integers(len(candidates)))]

    def observe(self, t, arm, x_arm, y) -> None:
        x_arm = np.asarray(x_arm, dtype=float)
        self.Z += x_arm[:, None] * x_arm - self.noise_cov  # np.outer without its wrapper
        self.Y += y * x_arm

    def current_theta(self):
        return self.theta_hat


def _exploration_length(horizon: int) -> int:
    """floor(horizon ** (2/3)) in exact integer arithmetic."""
    target = horizon * horizon
    m = max(0, int(round(float(target) ** (1.0 / 3.0))))
    while (m + 1) ** 3 <= target:
        m += 1
    while m**3 > target:
        m -= 1
    return m


class ExploreThenCommitGreedy(Policy):
    """Uniform exploration for tau rounds, then greedy on a one-shot estimate.

    tau defaults to floor(T ** (2/3)). The estimate solves the accumulated
    normal equations by an eigenvalue-cutoff pseudo-inverse, so a singular
    design (tau < d) degrades gracefully instead of failing.
    """

    name = "greedy"

    def __init__(self, d: int, horizon: int, tau: int | None = None):
        self.d = d
        self.tau = _exploration_length(horizon) if tau is None else tau
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        self.X = np.zeros((d, d))
        self.Y = np.zeros(d)
        self.theta_hat: np.ndarray | None = None

    def select(self, t, x, rng) -> int:
        if t <= self.tau:
            return int(rng.integers(x.shape[0]))
        if self.theta_hat is None:
            self.theta_hat = cutoff_pinv_solve(self.X, self.Y)
        return int(np.argmax(x @ self.theta_hat))

    def observe(self, t, arm, x_arm, y) -> None:
        if t <= self.tau:
            x_arm = np.asarray(x_arm, dtype=float)
            self.X += x_arm[:, None] * x_arm
            self.Y += y * x_arm

    def current_theta(self):
        return self.theta_hat


class LinUCB(Policy):
    """Ridge regression on observed features with an ellipsoidal bonus.

    A and b change only in observe, so the coefficient solve(A, b) is kept
    from current_theta or select until the next observe. observe raises
    ValueError once A or b is no longer finite, and select once the top
    score is not.
    """

    name = "linucb"

    def __init__(self, d: int, ucb_alpha: float = 0.25):
        if ucb_alpha < 0:
            raise ValueError("ucb_alpha must be nonnegative")
        self.d = d
        self.ucb_alpha = ucb_alpha
        self.A = np.eye(d)
        self.b = np.zeros(d)
        self._theta = None  # solve(A, b), kept until observe changes A and b

    def select(self, t, x, rng) -> int:
        with np.errstate(over="ignore", invalid="ignore"):  # contexts near 1e308 overflow the widths, even to NaN
            widths = np.sqrt(np.sum(x * np.linalg.solve(self.A, x.T).T, axis=1))
            scores = x @ self.current_theta() + self.ucb_alpha * widths
        arm = int(np.argmax(scores))  # the first NaN, if there is one
        if not math.isfinite(scores[arm]):
            raise ValueError(f"the top arm score {float(scores[arm])!r} is not finite")
        return arm

    def observe(self, t, arm, x_arm, y) -> None:
        x_arm = np.asarray(x_arm, dtype=float)
        self.A += x_arm[:, None] * x_arm
        self.b += y * x_arm
        self._theta = None
        # solve() returns NaN for non-finite sums instead of raising
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()):
            raise ValueError("running sums A and b must be finite")

    def current_theta(self):
        if self._theta is None:
            self._theta = np.linalg.solve(self.A, self.b)
        return self._theta


class FixedCoefficient(Policy):
    """Plays argmax x.theta for a coefficient fixed at construction.

    Used for the reference policies built from hidden quantities: the true
    coefficient ("oracle_tc") and the closed-form optimum ("oracle_cf").
    """

    def __init__(self, theta, name: str = "fixed"):
        self.theta = np.asarray(theta, dtype=float).copy()
        self.name = name

    def select(self, t, x, rng) -> int:
        return int(np.argmax(x @ self.theta))

    def current_theta(self):
        return self.theta


# Most feature sets drawn per gradient step in simulation. The per-round
# gradient noise is dominated by which hidden feature set is drawn rather than
# by the feature-noise draws, so the Monte-Carlo budget is split as n sets
# times mc_samples / n noise draws each, n the largest divisor of mc_samples
# up to this cap: exactly mc_samples draws, as with one set, at the same cost,
# with less variance.
GRADIENT_FEATURE_SETS = 10
# Feature sets drawn once at construction to measure the spread of arm
# values under the estimate. The spread only sets the scale of the step, so
# a fixed sample of a few hundred arm values is enough.
SPREAD_FEATURE_SETS = 64


class RegretGradientLinRel(Policy):
    """Universal-NLinRel: the NLinRel estimate plus a correction learned by regret descent.

    Keeps the same running sums as NoisyLinRel to estimate the true
    coefficient. The played coefficient ``theta`` is that running estimate
    plus a correction that starts at zero, so the policy plays the
    noise-corrected estimate until regret descent adjusts it. Once the
    estimate keeps k >= 1 directions, each round takes one gradient step on
    a descent iterate, along the Monte-Carlo regret gradient at estimate
    plus iterate, with the estimate standing in for the true coefficient.
    The step is projected onto the k kept eigendirections, so the
    correction never moves along directions the estimate has discarded.
    Its size is ``step_size`` divided by the spread (standard deviation) of
    arm values under the estimate, which makes it independent of the
    features' scale, and by the square root of the number of steps taken.
    The played correction is the running mean of the iterates (Polyak-Ruppert
    averaging), which keeps the per-round gradient noise out of the
    decisions. The policy plays argmax of score plus a discarded-direction
    bonus.

    In simulation each step averages the gradient over up to
    GRADIENT_FEATURE_SETS drawn feature sets. With no feature sampler
    (replay mode) the round's observed contexts stand in for the hidden
    feature draw and for the spread sample.
    """

    name = "gradient_linrel"

    def __init__(
        self,
        d: int,
        noise_cov,
        rng,
        feature_sampler=None,
        alpha_exponent: float = ALPHA_EXPONENT_DEFAULT,
        step_size: float = 0.05,
        ucb_coeff: float = 0.25,
        mc_samples: int = 100,
        fd_step: float = 1e-2,
    ):
        if step_size < 0 or ucb_coeff < 0:
            raise ValueError("step_size and ucb_coeff must be nonnegative")
        if isinstance(mc_samples, bool) or not isinstance(mc_samples, numbers.Integral) or mc_samples < 1:  # as GradientConfig
            raise ValueError(f"'mc_samples' must be an integer of at least 1, got {mc_samples!r}")
        self.estimator = NoisyLinRel(d, noise_cov, alpha_exponent)
        self.noise_draw = gaussian_sampler(noise_cov)  # built once: a bad covariance fails before round 1
        self.feature_sampler = feature_sampler
        self.step_size = step_size
        self.ucb_coeff = ucb_coeff
        if feature_sampler is None:
            self.feature_sets = 1
            self.spread_sample = None
        else:
            self.feature_sets = max(n for n in range(1, GRADIENT_FEATURE_SETS + 1) if mc_samples % n == 0)
            self.spread_sample = feature_sampler(rng, SPREAD_FEATURE_SETS).reshape(-1, d)
        self.grad_cfg = GradientConfig(mc_noise_samples=mc_samples // self.feature_sets, fd_step=fd_step)
        self.descent = np.zeros(d)
        self.correction = np.zeros(d)
        self.gradient_steps = 0
        self.skipped_gradient_steps = 0

    @property
    def theta(self) -> np.ndarray:
        """Played coefficient: the running NLinRel estimate plus the learned correction."""
        return self.estimator.theta_hat + self.correction

    def select(self, t, x, rng) -> int:
        eig, k, theta_dagger = self.estimator.estimate(t)
        self.estimator.theta_hat = theta_dagger
        if self.step_size > 0.0 and k > 0:
            self._step(x, eig, k, theta_dagger, rng, t)
        scores = x @ self.theta
        if self.ucb_coeff > 0.0 and k < self.estimator.d:  # at full rank the bonus is 0
            tail = eig.eigenvectors[:, k:].T @ x.T
            scores = scores + self.ucb_coeff * np.linalg.norm(tail, axis=0)
        return int(np.argmax(scores))

    def _step(self, x, eig, k, theta_dagger, rng, t) -> None:
        """One descent step in the estimate's k kept directions, then the running mean."""
        if self.feature_sampler is None:
            z, spread_sample = x, x
        else:
            z, spread_sample = self.feature_sampler(rng, self.feature_sets), self.spread_sample
        spread = float(np.std(spread_sample @ theta_dagger))
        grad = regret_gradient(theta_dagger + self.descent, z, theta_dagger, self.noise_draw, self.grad_cfg, rng)
        if k < self.estimator.d:
            # The estimate, standing in for the true coefficient, has not
            # learnt the discarded directions, so a gradient along them is
            # not to be trusted; the exploration bonus covers them instead.
            # At full rank the projection is the identity and is skipped.
            kept = eig.eigenvectors[:, :k]
            grad = kept @ (kept.T @ grad)
        if spread > 0.0 and np.all(np.isfinite(grad)):
            self.gradient_steps += 1
            self.descent -= self.step_size / (spread * math.sqrt(self.gradient_steps)) * grad
            self.correction += (self.descent - self.correction) / self.gradient_steps
        else:
            self.skipped_gradient_steps += 1
            log.warning("skipped degenerate regret-gradient step at t=%d", t)

    def observe(self, t, arm, x_arm, y) -> None:
        self.estimator.observe(t, arm, x_arm, y)

    def current_theta(self):
        return self.theta

