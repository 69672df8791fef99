"""Synthetic environment: hidden features, observed noisy features, rewards.

Every random draw is keyed by (seed, round, lane) through a counter-based
Philox generator, so any round of any configured run can be regenerated
bitwise-identically in isolation and in any order.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .linalg import gaussian_sampler, sym_matrix

__all__ = [
    "EnvironmentConfig",
    "FAMILIES",
    "Family",
    "FeatureDistribution",
    "LANE_CONTEXT",
    "LANE_POLICY",
    "LANE_REWARD",
    "LANE_THETA",
    "NoiseModel",
    "RoundContext",
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
# One FAMILIES entry per law: its parameters with their defaults (_REQUIRED for
# none), the range rule, the mean and variance, the numpy draw exactly as
# parameterized, and whether features are recentered to mean zero; a mixture
# names its components, the parameters that are each a Family. A Gaussian keeps
# its configured mean, and a mixture is sampled as written: its components
# encode the intended multi-modal shape, offset included.

_REQUIRED = object()


def _mixture_mean(p) -> float:
    return p["weight"] * p["first"].analytic_mean() + (1 - p["weight"]) * p["second"].analytic_mean()


def _mixture_variance(p) -> float:
    w, first, second = p["weight"], p["first"], p["second"]
    second_moment = w * (first.variance() + first.analytic_mean() ** 2) + (1 - w) * (second.variance() + second.analytic_mean() ** 2)
    return second_moment - _mixture_mean(p) ** 2


def _mixture_draw(p, rng, size) -> np.ndarray:
    pick_first = rng.random(size=size) < p["weight"]
    a = p["first"].sample_raw(rng, size)
    b = p["second"].sample_raw(rng, size)
    return np.where(pick_first, a, b)


FAMILIES = {
    "gaussian": dict(
        params={"mean": 0.0, "std": 1.0}, rule="std must be positive", valid=lambda p: p["std"] > 0,
        mean=lambda p: p["mean"], variance=lambda p: p["std"] ** 2, recentered=False,
        draw=lambda p, rng, size: rng.normal(p["mean"], p["std"], size=size)),
    "uniform": dict(
        params={"low": _REQUIRED, "high": _REQUIRED}, rule="need high > low", valid=lambda p: p["high"] > p["low"],
        mean=lambda p: (p["low"] + p["high"]) / 2.0, variance=lambda p: (p["high"] - p["low"]) ** 2 / 12.0, recentered=True,
        draw=lambda p, rng, size: rng.uniform(p["low"], p["high"], size=size)),
    "laplace": dict(
        params={"loc": 0.0, "scale": 1.0}, rule="scale must be positive", valid=lambda p: p["scale"] > 0,
        mean=lambda p: p["loc"], variance=lambda p: 2.0 * p["scale"] ** 2, recentered=True,
        draw=lambda p, rng, size: rng.laplace(p["loc"], p["scale"], size=size)),
    "exponential": dict(
        params={"rate": 1.0}, rule="rate must be positive", valid=lambda p: p["rate"] > 0,
        mean=lambda p: 1.0 / p["rate"], variance=lambda p: 1.0 / p["rate"] ** 2, recentered=True,
        draw=lambda p, rng, size: rng.exponential(1.0 / p["rate"], size=size)),
    "lognormal": dict(
        params={"mu": 0.0, "sigma": 1.0}, rule="sigma must be positive", valid=lambda p: p["sigma"] > 0,
        mean=lambda p: math.exp(p["mu"] + p["sigma"] ** 2 / 2.0),
        variance=lambda p: (math.exp(p["sigma"] ** 2) - 1.0) * math.exp(2.0 * p["mu"] + p["sigma"] ** 2), recentered=True,
        draw=lambda p, rng, size: rng.lognormal(p["mu"], p["sigma"], size=size)),
    "mixture": dict(
        params={"weight": _REQUIRED, "first": _REQUIRED, "second": _REQUIRED}, components=("first", "second"),
        rule="mixture weight must lie in (0, 1)", valid=lambda p: 0.0 < p["weight"] < 1.0,
        mean=_mixture_mean, variance=_mixture_variance, recentered=False, draw=_mixture_draw),
}


@dataclass(frozen=True, init=False)
class Family:
    """A per-coordinate feature law: a FAMILIES entry and its parameter values."""

    name: str
    params: dict

    def __init__(self, name: str, **params):
        law = FAMILIES.get(name)
        if law is None:
            raise ValueError(f"unknown family {name!r}")
        for key in params:
            if key not in law["params"]:
                raise ValueError(f"unknown parameter {key!r} for family {name!r}")
        values = {**law["params"], **params}
        for key, value in values.items():
            if value is _REQUIRED:
                raise ValueError(f"missing parameter {key!r} for family {name!r}")
        if not law["valid"](values):
            raise ValueError(f"bad parameters for family {name!r}: {law['rule']}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", values)
        object.__setattr__(self, "_law", law)

    def analytic_mean(self) -> float:
        return self._law["mean"](self.params)

    def variance(self) -> float:
        return self._law["variance"](self.params)

    def sample_raw(self, rng, size) -> np.ndarray:
        """The draw exactly as parameterized."""
        return self._law["draw"](self.params, rng, size)

    def sample(self, rng, size) -> np.ndarray:
        """The draw used for features: recentered to mean zero if the family is."""
        raw = self._law["draw"](self.params, rng, size)
        return raw - self._law["mean"](self.params) if self._law["recentered"] else raw


# ---------------------------------------------------------------------------
# Feature distribution over R^d
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureDistribution:
    """Hidden-feature law: full multivariate Gaussian or i.i.d. coordinates."""

    kind: str
    covariance: np.ndarray | None = None
    family: Family | None = None

    def __post_init__(self):
        if self.kind == "multivariate_gaussian":
            # Factored once, as in NoiseModel; the sampler doubles as the
            # positive-definite check.
            object.__setattr__(self, "covariance", sym_matrix(self.covariance))
            object.__setattr__(self, "_draw", gaussian_sampler(self.covariance))

    @classmethod
    def multivariate_gaussian(cls, covariance) -> "FeatureDistribution":
        return cls(kind="multivariate_gaussian", covariance=covariance)

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
            return self._draw(rng, (n, d))
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
        cov = sym_matrix(self.covariance)
        # The sampler doubles as the positive-definite check. It and the
        # radius are fixed by the frozen fields, so sample() reuses them
        # rather than factoring the covariance every round.
        object.__setattr__(self, "_draw", gaussian_sampler(cov))
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
        draw = self._draw
        out = draw(rng, (n, self.dim))
        radius = self._radius
        bad = np.sqrt(np.add.reduce(out * out, axis=1)) > radius  # np.linalg.norm(out, axis=1) > radius
        while bad.any():
            out[bad] = draw(rng, (int(bad.sum()), self.dim))
            bad = np.sqrt(np.add.reduce(out * out, axis=1)) > radius
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
        eps = cfg.noise.sample(rng, 1).repeat(cfg.K, axis=0)
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
    return int((round_ctx.x @ np.asarray(theta_bar, dtype=float)).argmax())


def instantaneous_regret(round_ctx: RoundContext, arm: int, theta_star) -> float:
    values = round_ctx.z @ np.asarray(theta_star, dtype=float)
    return float(values.max() - values[arm])
