"""Monte-Carlo estimation of per-round expected regret and its gradient.

The regret objective fixes a hidden K-arm feature set z, draws Gaussian
feature noise, and scores the gap between the truly best arm and the arm a
coefficient vector theta would pick from the noisy features. Gradients are
central finite differences of that objective with common random numbers
(CRN): the same frozen noise tensor is reused for every coordinate
perturbation, which is what makes the differences of a piecewise-constant
Monte-Carlo objective meaningful.

The inner loop never re-multiplies perturbed thetas against the feature
tensor: perturbing theta by +/- h along coordinate j shifts each arm score
by +/- h * (z + eps)[j], so one base score tensor plus per-coordinate
increments covers all 2d evaluations.

Feature sets are processed in blocks of at most _BLOCK_SCORE_ENTRIES score
entries, which bound the resident memory, and the gradient is divided by
2hs once per chunk of at most _CHUNK_SCORE_ENTRIES entries, which fixes the
rounding of the result. Each block's picked-value gaps are summed into a
running total, so no chunk-sized buffer is held (except for d == 1, whose
single column numpy sums pairwise over the whole chunk).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import env as envmod
from .linalg import gaussian_sampler

__all__ = [
    "GradientConfig",
    "arm_set_sampler",
    "averaged_gradient",
    "gradient_norm_table",
    "per_round_expected_regret",
    "regret_gradient",
]

# Score entries (sets x noise draws x arms x coordinates) per chunk. A chunk
# is the unit whose gap sum is divided by 2hs, so this fixes the rounding of
# the gradient, and it sizes averaged_gradient's feature-set batches. It
# bounds no memory except for d == 1.
_CHUNK_SCORE_ENTRIES = 4_000_000
# Score entries per block within a chunk. Only one block's tensors are
# resident at a time; they stay cache-sized (65536 entries, 512 KiB), and the
# passes over them run faster than over chunk-sized ones.
_BLOCK_SCORE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class GradientConfig:
    """Sampling plan for the Monte-Carlo objective and its gradient.

    mc_noise_samples: feature-noise draws per objective evaluation.
    fd_step: central-difference step, relative to the norm of theta.
    feature_samples: number of hidden feature sets averaged over (N).
    """

    mc_noise_samples: int = 1000
    fd_step: float = 1e-2
    feature_samples: int = 1

    def __post_init__(self):
        if self.mc_noise_samples < 1 or self.feature_samples < 1:
            raise ValueError("sample counts must be at least 1")
        if not 0 < self.fd_step < math.inf:
            raise ValueError("fd_step must be positive and finite")


def _as_feature_sets(z) -> np.ndarray:
    zs = np.asarray(z, dtype=float)
    if zs.ndim == 2:
        zs = zs[None, :, :]
    if zs.ndim != 3:
        raise ValueError("expected feature sets of shape (K, d) or (n, K, d)")
    return zs


def per_round_expected_regret(theta, z, theta_star, noise_cov, cfg: GradientConfig, rng) -> float:
    """Expected one-round regret of playing argmax x.theta on noisy features.

    For the fixed hidden features z, draws cfg.mc_noise_samples independent
    per-arm noise sets and averages (z_best - z_picked) . theta_star, where
    best maximizes z . theta_star and picked maximizes (z + eps) . theta.
    Every Monte-Carlo term is nonnegative by definition of the best arm.
    """
    theta = np.asarray(theta, dtype=float)
    zs = _as_feature_sets(z)[0]
    k_arms, d = zs.shape
    if k_arms == 1:
        return 0.0
    values = zs @ np.asarray(theta_star, dtype=float)
    best = float(values.max())
    draw = gaussian_sampler(noise_cov)
    s = cfg.mc_noise_samples
    eps = draw(rng, (s, k_arms, d))
    picked = np.argmax((zs[None, :, :] + eps) @ theta, axis=1)
    return float(np.mean(best - values[picked]))


def regret_gradient(theta, z, theta_star, noise_cov, cfg: GradientConfig, rng) -> np.ndarray:
    """Central-difference gradient of the one-round expected regret in theta.

    z is one (K, d) feature set or a batch (n, K, d) of them; a batch gives
    the mean gradient over its sets, each with cfg.mc_noise_samples noise
    draws. averaged_gradient draws the sets from a sampler instead.
    noise_cov may also be linalg.gaussian_sampler(noise_cov), built once.
    """
    draw = noise_cov if callable(noise_cov) else gaussian_sampler(noise_cov)
    total, count = _gradient_over_samples(theta, _as_feature_sets(z), theta_star, draw, cfg, rng)
    return total / count


def averaged_gradient(theta, theta_star, noise_cov, feature_sampler, cfg: GradientConfig, rng) -> np.ndarray:
    """Mean regret gradient over cfg.feature_samples hidden feature sets.

    feature_sampler(rng, n) must return an (n, K, d) array of independently
    drawn K-arm feature sets.
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[0]
    draw = gaussian_sampler(noise_cov)
    total = np.zeros(d)
    remaining = cfg.feature_samples
    batch = max(1, _CHUNK_SCORE_ENTRIES // max(1, cfg.mc_noise_samples * 2 * d))
    while remaining > 0:
        n = min(batch, remaining)
        zs = _as_feature_sets(feature_sampler(rng, n))
        if zs.shape[0] != n:
            raise ValueError("feature_sampler returned the wrong number of sets")
        part, count = _gradient_over_samples(theta, zs, theta_star, draw, cfg, rng)
        total += part
        remaining -= count
    return total / cfg.feature_samples


def _perturbed_argmax(base, shifts, op):
    """First index over arms of the max of op(base, shifts), for every coordinate.

    base is (K, m, s) and shifts is (K, d, m, s); returns the (d, m, s)
    argmax over K of op(base[k], shifts[k]). A running maximum over the arm
    slabs gives the same picks as np.argmax on the (d, m, s, K) scores,
    first maximum on ties, for finite scores, without building that tensor.
    The arm index only grows, so max(idx, k * better) records a strictly
    better arm exactly where a masked copy of k would.
    """
    k_arms = base.shape[0]
    best = op(base[0], shifts[0])
    cand = np.empty_like(best)
    idx = np.zeros(best.shape, dtype=np.min_scalar_type(k_arms - 1))
    step = np.empty_like(idx)
    for k in range(1, k_arms):
        op(base[k], shifts[k], out=cand)
        np.greater(cand, best, out=step)
        step *= k
        np.maximum(idx, step, out=idx)
        np.maximum(best, cand, out=best)
    return idx


def _gradient_over_samples(theta, zs, theta_star, draw, cfg, rng):
    """Sum of per-feature-set central-difference gradients over zs (n, K, d), noise from draw."""
    theta = np.asarray(theta, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    n, k_arms, d = zs.shape
    if theta.shape != (d,) or theta_star.shape != (d,):
        raise ValueError("theta and theta_star must match the feature dimension")
    norm = float(np.linalg.norm(theta))
    h = cfg.fd_step * (norm if norm > 0.0 else 1.0)
    total = np.zeros(d)
    if k_arms == 1:
        return total, n

    s = cfg.mc_noise_samples
    per_set_entries = s * k_arms * d
    chunk = max(1, _CHUNK_SCORE_ENTRIES // max(1, per_set_entries))
    block = max(1, _BLOCK_SCORE_ENTRIES // max(1, per_set_entries))
    values_all = zs @ theta_star  # (n, K)
    # Per (set, draw) row and coordinate: value of the arm picked after the
    # -h perturbation minus that after the +h one. The best-arm value cancels
    # in the central difference; only the picked-arm values matter, and
    # under CRN most picks coincide. Row 0 carries the chunk's running sum.
    # For d >= 2 numpy sums the rows of a (rows, d) array one after another,
    # so carrying the sum block by block gives the chunk-wide sum bit for
    # bit. A single column is summed pairwise instead, so for d == 1 the
    # buffer holds the whole chunk and is summed once.
    held = min(n, block if d > 1 else chunk)
    gaps = np.empty((1 + held * s, d))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        lead, row = 1, 1  # the chunk's first rows start the sum; row 0 is not yet a carry
        for lo in range(start, stop, block):
            hi = min(stop, lo + block)
            m = hi - lo
            # The noise is drawn block by block in stream order, so the draws
            # do not depend on the block size.
            noisy = draw(rng, (m, s, k_arms, d))
            noisy += zs[lo:hi, None, :, :]
            base = np.ascontiguousarray((noisy @ theta).transpose(2, 0, 1))  # (K, m, s)
            # Perturbing theta by +-h along coordinate j shifts arm scores
            # by +-h * noisy[..., j], so one base score tensor covers all
            # 2d perturbations.
            shifts = np.empty((k_arms, d, m, s))
            np.multiply(noisy.transpose(2, 3, 0, 1), h, out=shifts)
            del noisy
            offsets = (k_arms * np.arange(lo, hi))[:, None]  # flat row starts in values_all
            up = values_all.take(_perturbed_argmax(base, shifts, np.add) + offsets)  # (d, m, s)
            down = values_all.take(_perturbed_argmax(base, shifts, np.subtract) + offsets)
            np.subtract(down, up, out=gaps[row : row + m * s].reshape(m, s, d).transpose(2, 0, 1))
            row += m * s
            if d > 1 or hi == stop:
                gaps[0] = gaps[lead:row].sum(axis=0)
                lead, row = 0, 1
        total += gaps[0] / (2.0 * h * s)
    return total, n


# ---------------------------------------------------------------------------
# Gradient-norm survey across feature distributions
# ---------------------------------------------------------------------------


def arm_set_sampler(dist, k_arms: int, d: int):
    """Adapt a FeatureDistribution into an (n, K, d) feature-set sampler."""

    def sampler(rng, n: int) -> np.ndarray:
        return dist.sample(rng, n * k_arms, d).reshape(n, k_arms, d)

    return sampler


def gradient_norm_table(distributions, theta_star_seed: int, noise_cov, cfg: GradientConfig, k_arms: int = 5):
    """Gradient norms at the noise-shrunk coefficient, one row per distribution.

    ``distributions`` is a list of (label, FeatureDistribution). theta_star
    has coordinates uniform on [-1, 1] drawn from theta_star_seed; for each
    distribution the objective gradient is averaged over cfg.feature_samples
    hidden feature sets and evaluated at the closed-form coefficient derived
    from that distribution's analytic covariance. The feature sets and noise
    come from a second stream of theta_star_seed. Returns a list of
    (label, l2_norm) pairs.
    """
    from .policies import bayes_optimal_theta

    noise_cov = np.asarray(noise_cov, dtype=float)
    d = noise_cov.shape[0]
    theta_star = envmod.draw_theta_star(d, envmod.keyed_rng(theta_star_seed, 0, envmod.LANE_THETA), max_norm=None)
    rng = envmod.keyed_rng(theta_star_seed, 1, envmod.LANE_THETA)
    rows = []
    for label, dist in distributions:
        feature_cov = dist.covariance_matrix(d)
        theta_bar = bayes_optimal_theta(feature_cov, noise_cov, theta_star)
        grad = averaged_gradient(
            theta_bar, theta_star, noise_cov, arm_set_sampler(dist, k_arms, d), cfg, rng
        )
        rows.append((label, float(np.linalg.norm(grad))))
    return rows
