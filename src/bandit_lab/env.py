"""Synthetic environment: hidden features, observed noisy features, rewards.

Every random draw is keyed by (seed, round, lane) through a counter-based
Philox generator, so any round of any configured run can be regenerated
bitwise-identically in isolation and in any order.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EnvironmentConfig",
    "ExponentialFamily",
    "FeatureDistribution",
    "GaussianFamily",
    "LANE_CONTEXT",
    "LANE_POLICY",
    "LANE_REWARD",
    "LANE_THETA",
    "LaplaceFamily",
    "LogNormalFamily",
    "MixtureFamily",
    "NoiseModel",
    "RoundContext",
    "UniformFamily",
    "bar_theta_arm",
    "draw_theta_star",
    "instantaneous_regret",
    "keyed_rng",
    "oracle_arm",
    "reward",
    "reward_noise",
    "sample_round",
]

_MASK64 = (1 << 64) - 1

# Sub-stream lanes of one run seed.
LANE_CONTEXT = 0  # hidden features + feature noise of a round
LANE_REWARD = 1  # reward noise of a round
LANE_POLICY = 2  # policy-internal randomness (whole run, t ignored)
LANE_THETA = 3  # drawing theta_star for a run


def keyed_rng(seed: int, t: int = 0, lane: int = 0) -> np.random.Generator:
    """Counter-based generator for the (seed, t, lane) sub-stream."""
    if not 0 <= lane < 8:
        raise ValueError(f"lane must be in [0, 8), got {lane}")
    key = np.array(
        [np.uint64(seed & _MASK64), np.uint64(((t << 3) | lane) & _MASK64)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


_ZEROS4 = (0, 0, 0, 0)


class _RekeyedStream(threading.local):
    """One Philox generator per thread, re-keyed for each short-lived per-round draw.

    Setting a Philox's state to a key with a zero counter and an empty
    buffer gives exactly the draws of a fresh ``keyed_rng`` for that key, at
    under a tenth of the cost of building one. The generator is handed only to
    callees that finish with it before the call that re-keyed it returns.
    """

    def __init__(self):
        self.bit_generator = np.random.Philox(0)
        self.generator = np.random.Generator(self.bit_generator)

    def __call__(self, seed: int, t: int, lane: int) -> np.random.Generator:
        self.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS4, "key": (seed & _MASK64, ((t << 3) | lane) & _MASK64)},
            "buffer": _ZEROS4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self.generator


_round_stream = _RekeyedStream()


# ---------------------------------------------------------------------------
# Per-coordinate feature families
# ---------------------------------------------------------------------------
#
# ``sample_raw`` draws the family exactly as parameterized. ``sample`` is the
# draw actually used for features: non-Gaussian scalar families are
# recentered to mean zero, while mixtures are deliberately left as written
# (their components encode the intended multi-modal shape, offset included).


@dataclass(frozen=True)
class GaussianFamily:
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError("std must be positive")

    def analytic_mean(self) -> float:
        return self.mean

    def variance(self) -> float:
        return self.std**2

    def sample_raw(self, rng, size) -> np.ndarray:
        return rng.normal(self.mean, self.std, size=size)

    sample = sample_raw


@dataclass(frozen=True)
class UniformFamily:
    low: float
    high: float

    def __post_init__(self):
        if not self.high > self.low:
            raise ValueError("need high > low")

    def analytic_mean(self) -> float:
        return (self.low + self.high) / 2.0

    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def sample_raw(self, rng, size) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)

    def sample(self, rng, size) -> np.ndarray:
        return self.sample_raw(rng, size) - self.analytic_mean()


@dataclass(frozen=True)
class LaplaceFamily:
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def analytic_mean(self) -> float:
        return self.loc

    def variance(self) -> float:
        return 2.0 * self.scale**2

    def sample_raw(self, rng, size) -> np.ndarray:
        return rng.laplace(self.loc, self.scale, size=size)

    def sample(self, rng, size) -> np.ndarray:
        return self.sample_raw(rng, size) - self.loc


@dataclass(frozen=True)
class ExponentialFamily:
    rate: float = 1.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def analytic_mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / self.rate**2

    def sample_raw(self, rng, size) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=size)

    def sample(self, rng, size) -> np.ndarray:
        return self.sample_raw(rng, size) - self.analytic_mean()


@dataclass(frozen=True)
class LogNormalFamily:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def analytic_mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def variance(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    def sample_raw(self, rng, size) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=size)

    def sample(self, rng, size) -> np.ndarray:
        return self.sample_raw(rng, size) - self.analytic_mean()


@dataclass(frozen=True)
class MixtureFamily:
    """Two-component mixture, sampled exactly as parameterized (no recentering)."""

    weight: float
    first: object
    second: object

    def __post_init__(self):
        if not 0.0 < self.weight < 1.0:
            raise ValueError("mixture weight must lie in (0, 1)")

    def analytic_mean(self) -> float:
        w = self.weight
        return w * self.first.analytic_mean() + (1 - w) * self.second.analytic_mean()

    def variance(self) -> float:
        w = self.weight
        second_moment = w * (
            self.first.variance() + self.first.analytic_mean() ** 2
        ) + (1 - w) * (self.second.variance() + self.second.analytic_mean() ** 2)
        return second_moment - self.analytic_mean() ** 2

    def sample_raw(self, rng, size) -> np.ndarray:
        pick_first = rng.random(size=size) < self.weight
        a = self.first.sample_raw(rng, size)
        b = self.second.sample_raw(rng, size)
        return np.where(pick_first, a, b)

    sample = sample_raw


# ---------------------------------------------------------------------------
# Feature distribution over R^d
# ---------------------------------------------------------------------------


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises ValueError unless cov is finite and positive-definite."""
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance entries must be finite")
    return np.linalg.cholesky(cov)


@dataclass(frozen=True)
class FeatureDistribution:
    """Hidden-feature law: full multivariate Gaussian or i.i.d. coordinates."""

    kind: str
    covariance: np.ndarray | None = None
    family: object | None = None

    def __post_init__(self):
        if self.kind == "multivariate_gaussian":
            # Factored once, as in NoiseModel; the factor doubles as the
            # positive-definite check.
            object.__setattr__(self, "_chol", _cholesky(self.covariance))

    @classmethod
    def multivariate_gaussian(cls, covariance) -> "FeatureDistribution":
        cov = np.array(covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        return cls(kind="multivariate_gaussian", covariance=(cov + cov.T) / 2.0)

    @classmethod
    def iid(cls, family) -> "FeatureDistribution":
        if not 0 < family.variance() < math.inf:
            raise ValueError("family variance must be positive and finite")
        return cls(kind="iid", family=family)

    def sample(self, rng, n: int, d: int) -> np.ndarray:
        """Draw n feature vectors of dimension d, one per row."""
        if self.kind == "multivariate_gaussian":
            if self.covariance.shape[0] != d:
                raise ValueError("covariance dimension does not match d")
            return rng.standard_normal((n, d)) @ self._chol.T
        return self.family.sample(rng, (n, d))

    def covariance_matrix(self, d: int) -> np.ndarray:
        """Analytic covariance of one feature vector (variance about the mean)."""
        if self.kind == "multivariate_gaussian":
            if self.covariance.shape[0] != d:
                raise ValueError("covariance dimension does not match d")
            return self.covariance.copy()
        return self.family.variance() * np.eye(d)


# ---------------------------------------------------------------------------
# Noise model and environment configuration
# ---------------------------------------------------------------------------

_MIN_ACCEPTANCE = 1e-3  # least admissible chance that a noise draw lands in the truncation ball


def _acceptance_bound(eigenvalues: np.ndarray, radius: float) -> float:
    """Chernoff upper bound on P(|eps| <= radius) for eps ~ N(0, C), C with these eigenvalues.

    For every s >= 0, P(sum_i l_i g_i^2 <= r^2) <= exp(s r^2 - sum_i log(1 + 2 s l_i) / 2).
    The exponent is convex in s with its minimum in [0, d / (2 r^2)], found
    by bisection on the sign of its slope.
    """
    r2 = float(radius) * float(radius)  # inf rather than an OverflowError from **
    if r2 >= eigenvalues.sum():
        return 1.0
    if r2 == 0.0:
        return 0.0
    lo, hi = 0.0, eigenvalues.size / (2.0 * r2)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if np.sum(eigenvalues / (1.0 + 2.0 * mid * eigenvalues)) > r2:
            lo = mid
        else:
            hi = mid
    return math.exp(hi * r2 - 0.5 * float(np.sum(np.log1p(2.0 * hi * eigenvalues))))


@dataclass(frozen=True)
class NoiseModel:
    """Feature-noise law, shared by all arms ("identical") or drawn per arm ("per_arm").

    Draws are rejection-truncated to a ball of ``truncation_radius`` (default
    6 standard deviations of the widest direction), which keeps the support
    bounded without materially changing the first two moments.
    """

    mode: str
    covariance: np.ndarray
    truncation_radius: float | None = None

    def __post_init__(self):
        if self.mode not in ("identical", "per_arm"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        cov = np.array(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        cov = (cov + cov.T) / 2.0
        # The factor doubles as the positive-definite check. It and the
        # radius are fixed by the frozen fields, so sample() reuses them
        # rather than factoring the covariance every round.
        object.__setattr__(self, "_chol", _cholesky(cov))
        object.__setattr__(self, "covariance", cov)
        if self.truncation_radius is not None and not self.truncation_radius > 0:
            raise ValueError("truncation_radius must be positive")
        eigenvalues = np.linalg.eigvalsh(cov)
        if self.truncation_radius is None:
            object.__setattr__(self, "_radius", 6.0 * math.sqrt(float(eigenvalues[-1])))
        else:
            object.__setattr__(self, "_radius", self.truncation_radius)
        # sample() rejects draws outside the ball until every row fits, so a
        # ball that almost never holds a draw would stall it.
        if _acceptance_bound(eigenvalues, self._radius) < _MIN_ACCEPTANCE:
            raise ValueError(
                f"truncation radius {self._radius!r} holds a noise draw with probability below {_MIN_ACCEPTANCE}"
            )

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def radius(self) -> float:
        return self._radius

    def sample(self, rng, n: int) -> np.ndarray:
        chol = self._chol
        out = rng.standard_normal((n, self.dim)) @ chol.T
        radius = self._radius
        bad = np.linalg.norm(out, axis=1) > radius
        while np.any(bad):
            out[bad] = rng.standard_normal((int(bad.sum()), self.dim)) @ chol.T
            bad = np.linalg.norm(out, axis=1) > radius
        return out


@dataclass(frozen=True)
class EnvironmentConfig:
    K: int
    d: int
    T: int
    theta_star: np.ndarray
    feature_dist: FeatureDistribution
    noise: NoiseModel
    reward_noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("need at least one arm")
        if self.d < 1 or self.T < 1:
            raise ValueError("d and T must be positive")
        theta = np.array(self.theta_star, dtype=float)
        if theta.shape != (self.d,):
            raise ValueError("theta_star length must equal d")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta_star must be finite")
        if np.linalg.norm(theta) > 1.0 + 1e-9:
            raise ValueError("theta_star must have 2-norm at most 1")
        object.__setattr__(self, "theta_star", theta)
        if self.noise.dim != self.d:
            raise ValueError("noise covariance dimension does not match d")
        self.feature_dist.covariance_matrix(self.d)  # dimension check
        if not 0 <= self.reward_noise_sigma < math.inf:
            raise ValueError("reward_noise_sigma must be finite and nonnegative")


@dataclass(frozen=True)
class RoundContext:
    """One round: hidden features z, noise eps, and observed x = z + eps."""

    t: int
    z: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    eps: np.ndarray = field(repr=False)


def draw_theta_star(d: int, rng, max_norm: float | None = 1.0) -> np.ndarray:
    """Coordinates uniform on [-1, 1]; rescaled only if the norm cap is exceeded."""
    theta = rng.uniform(-1.0, 1.0, size=d)
    if max_norm is not None:
        norm = float(np.linalg.norm(theta))
        if norm > max_norm:
            theta *= max_norm / norm
    return theta


def sample_round(cfg: EnvironmentConfig, t: int, rng=None) -> RoundContext:
    """Sample the hidden and observed features of round t.

    With rng omitted the draw is keyed by (cfg.seed, t), so repeated calls
    return bitwise-identical contexts regardless of call order.
    """
    if not 1 <= t <= cfg.T:
        raise ValueError(f"round {t} outside horizon 1..{cfg.T}")
    if rng is None:
        rng = _round_stream(cfg.seed, t, LANE_CONTEXT)
    z = cfg.feature_dist.sample(rng, cfg.K, cfg.d)
    if cfg.noise.mode == "identical":
        eps = np.tile(cfg.noise.sample(rng, 1), (cfg.K, 1))
    else:
        eps = cfg.noise.sample(rng, cfg.K)
    return RoundContext(t=t, z=z, x=z + eps, eps=eps)


def reward_noise(cfg: EnvironmentConfig, t: int, rng=None) -> float:
    """Additive reward noise sigma * g of round t, shared by every arm of the round.

    g is a standard normal rejection-truncated to [-4, 4], so the reward
    stays bounded. With rng omitted the draw is keyed by (cfg.seed, t).
    """
    if cfg.reward_noise_sigma == 0.0:
        return 0.0
    if rng is None:
        rng = _round_stream(cfg.seed, t, LANE_REWARD)
    g = rng.standard_normal()
    while abs(g) > 4.0:
        g = rng.standard_normal()
    return cfg.reward_noise_sigma * float(g)


def reward(cfg: EnvironmentConfig, round_ctx: RoundContext, arm: int, rng=None, noise: float | None = None) -> float:
    """Noisy reward of an arm: z_arm . theta_star plus reward_noise of the round.

    ``noise`` is the round's reward_noise drawn beforehand, so that several
    rewards of one round share one draw; omitted, it is drawn here.
    """
    if not 0 <= arm < cfg.K:
        raise ValueError(f"arm {arm} outside 0..{cfg.K - 1}")
    mean = float(round_ctx.z[arm] @ cfg.theta_star)
    if cfg.reward_noise_sigma == 0.0:
        return mean
    if noise is None:
        noise = reward_noise(cfg, round_ctx.t, rng)
    return mean + noise


def oracle_arm(round_ctx: RoundContext, theta_star) -> int:
    """Best arm by hidden features; ties go to the lowest index."""
    return int(np.argmax(round_ctx.z @ np.asarray(theta_star, dtype=float)))


def bar_theta_arm(round_ctx: RoundContext, theta_bar) -> int:
    """Best arm by observed features under a fixed coefficient vector."""
    return int(np.argmax(round_ctx.x @ np.asarray(theta_bar, dtype=float)))


def instantaneous_regret(round_ctx: RoundContext, arm: int, theta_star) -> float:
    values = round_ctx.z @ np.asarray(theta_star, dtype=float)
    return float(values.max() - values[arm])
