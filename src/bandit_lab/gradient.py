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
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GradientConfig",
    "arm_set_sampler",
    "averaged_gradient",
    "gradient_norm_table",
    "per_round_expected_regret",
    "regret_gradient",
]

# Cap on resident (samples x noise draws x arms) score entries per chunk.
_CHUNK_SCORE_ENTRIES = 4_000_000
# Cap on score entries per block within a chunk. A block's score tensors stay
# cache-sized (65536 entries, 512 KiB), and the passes over them run faster
# than over chunk-sized ones.
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
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")


def _noise_sampler(noise_cov):
    """Return draw(rng, shape) producing N(0, noise_cov) rows along the last axis.

    Diagonal covariances use an elementwise scale, which is bitwise identical
    to the Cholesky route but skips a dense matmul over the noise tensor.
    """
    cov = np.asarray(noise_cov, dtype=float)
    cov = (cov + cov.T) / 2.0
    if np.count_nonzero(cov - np.diag(np.diagonal(cov))) == 0:
        scale = np.sqrt(np.diagonal(cov))
        if np.any(scale <= 0):
            raise ValueError("noise covariance must be positive-definite")

        def draw(rng, shape):
            eps = rng.standard_normal(shape)
            eps *= scale
            return eps

        return draw
    chol = np.linalg.cholesky(cov)
    return lambda rng, shape: rng.standard_normal(shape) @ chol.T


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
    draw = _noise_sampler(noise_cov)
    s = cfg.mc_noise_samples
    eps = draw(rng, (s, k_arms, d))
    picked = np.argmax((zs[None, :, :] + eps) @ theta, axis=1)
    return float(np.mean(best - values[picked]))


def regret_gradient(theta, z, theta_star, noise_cov, cfg: GradientConfig, rng) -> np.ndarray:
    """Central-difference gradient of the one-round expected regret in theta.

    z is one (K, d) feature set or a batch (n, K, d) of them; a batch gives
    the mean gradient over its sets, each with cfg.mc_noise_samples noise
    draws. averaged_gradient draws the sets from a sampler instead.
    """
    zs = _as_feature_sets(z)
    total, count = _gradient_over_samples(theta, zs, theta_star, noise_cov, cfg, rng)
    return total / count


def averaged_gradient(theta, theta_star, noise_cov, feature_sampler, cfg: GradientConfig, rng) -> np.ndarray:
    """Mean regret gradient over cfg.feature_samples hidden feature sets.

    feature_sampler(rng, n) must return an (n, K, d) array of independently
    drawn K-arm feature sets.
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[0]
    total = np.zeros(d)
    remaining = cfg.feature_samples
    batch = max(1, _CHUNK_SCORE_ENTRIES // max(1, cfg.mc_noise_samples * 2 * d))
    while remaining > 0:
        n = min(batch, remaining)
        zs = _as_feature_sets(feature_sampler(rng, n))
        if zs.shape[0] != n:
            raise ValueError("feature_sampler returned the wrong number of sets")
        part, count = _gradient_over_samples(theta, zs, theta_star, noise_cov, cfg, rng)
        total += part
        remaining -= count
    return total / cfg.feature_samples


def _perturbed_argmax(base, shifts, op):
    """First index over arms of the max of op(base, shifts), for every coordinate.

    base is (b, s, K) and shifts is (b, s, K, d); returns the (b, s, d) argmax
    over K of op(base[..., None], shifts). A running maximum over the K arm
    slices gives the same picks as np.argmax on the (b, s, d, K) scores,
    first maximum on ties, for finite scores, without building that tensor.
    """
    best = op(base[:, :, 0, None], shifts[:, :, 0, :])
    idx = np.zeros(best.shape, dtype=np.intp)
    cand = np.empty_like(best)
    better = np.empty(best.shape, dtype=bool)
    for k in range(1, base.shape[2]):
        op(base[:, :, k, None], shifts[:, :, k, :], out=cand)
        np.greater(cand, best, out=better)
        np.copyto(idx, k, where=better)
        np.maximum(best, cand, out=best)
    return idx


def _gradient_over_samples(theta, zs, theta_star, noise_cov, cfg, rng):
    """Sum of per-feature-set central-difference gradients over zs (n, K, d)."""
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

    draw = _noise_sampler(noise_cov)
    s = cfg.mc_noise_samples
    # Chunk over feature sets so the perturbed score tensors stay within the
    # entry budget (a handful of (chunk, s, K, d)-sized arrays live at once).
    per_set_entries = s * k_arms * d
    chunk = max(1, _CHUNK_SCORE_ENTRIES // max(1, per_set_entries))
    block = max(1, _BLOCK_SCORE_ENTRIES // max(1, per_set_entries))
    values_all = zs @ theta_star  # (n, K)
    for start in range(0, n, chunk):
        zc = zs[start : start + chunk]
        vals = values_all[start : start + chunk]
        b = zc.shape[0]
        # Per (set, draw, coordinate): value of the arm picked after the
        # -h perturbation minus that after the +h one. The best-arm value
        # cancels in the central difference; only the picked-arm values
        # matter, and under CRN most picks coincide. The noise is drawn
        # block by block in stream order, so the draws do not depend on
        # the block size; the chunk's sum is taken once, as one array.
        picked_gap = np.empty((b, s, d))
        for lo in range(0, b, block):
            hi = min(b, lo + block)
            noisy = draw(rng, (hi - lo, s, k_arms, d))
            noisy += zc[lo:hi, None, :, :]
            base = noisy @ theta  # (block, s, K)
            # Perturbing theta by +-h along coordinate j shifts arm scores
            # by +-h * noisy[..., j], so one base score tensor covers all
            # 2d perturbations.
            noisy *= h
            rows = np.arange(hi - lo)[:, None, None]
            up_idx = _perturbed_argmax(base, noisy, np.add)  # (block, s, d)
            dn_idx = _perturbed_argmax(base, noisy, np.subtract)
            np.subtract(vals[lo:hi][rows, dn_idx], vals[lo:hi][rows, up_idx], out=picked_gap[lo:hi])
        total += picked_gap.sum(axis=(0, 1)) / (2.0 * h * s)
    return total, n


# ---------------------------------------------------------------------------
# Gradient-norm survey across feature distributions
# ---------------------------------------------------------------------------


def arm_set_sampler(dist, k_arms: int, d: int):
    """Adapt a FeatureDistribution into an (n, K, d) feature-set sampler."""

    def sampler(rng, n: int) -> np.ndarray:
        return dist.sample(rng, n * k_arms, d).reshape(n, k_arms, d)

    return sampler


def gradient_norm_table(
    distributions,
    theta_star_seed: int,
    noise_cov,
    cfg: GradientConfig,
    rng=None,
    k_arms: int = 5,
):
    """Gradient norms at the noise-shrunk coefficient, one row per distribution.

    ``distributions`` is a list of (label, FeatureDistribution). theta_star
    has coordinates uniform on [-1, 1] drawn from theta_star_seed; for each
    distribution the objective gradient is averaged over cfg.feature_samples
    hidden feature sets and evaluated at the closed-form coefficient derived
    from that distribution's analytic covariance. Returns a list of
    (label, l2_norm) pairs.
    """
    from .env import LANE_THETA, keyed_rng
    from .policies import bayes_optimal_theta

    noise_cov = np.asarray(noise_cov, dtype=float)
    d = noise_cov.shape[0]
    theta_star = keyed_rng(theta_star_seed, 0, LANE_THETA).uniform(-1.0, 1.0, size=d)
    if rng is None:
        rng = keyed_rng(theta_star_seed, 1, LANE_THETA)
    rows = []
    for label, dist in distributions:
        feature_cov = dist.covariance_matrix(d)
        theta_bar = bayes_optimal_theta(feature_cov, noise_cov, theta_star)
        grad = averaged_gradient(
            theta_bar, theta_star, noise_cov, arm_set_sampler(dist, k_arms, d), cfg, rng
        )
        rows.append((label, float(np.linalg.norm(grad))))
    return rows
