"""Contextual-bandit laboratory for linear payoffs under noisy arm features."""

from .env import (
    EnvironmentConfig,
    FeatureDistribution,
    NoiseModel,
    RoundContext,
    instantaneous_regret,
    relative_regret,
    reward,
    sample_round,
)
from .gradient import GradientConfig, averaged_gradient, gradient_norm_table, per_round_expected_regret, regret_gradient
from .linalg import SymEigen, eigendecompose, rank_threshold, spectral_norm
from .policies import bayes_optimal_theta, posterior_feature_mean
from .runner import RunConfig, RunRecord, run_diagnostics, run_replay, run_simulation

__version__ = "0.1.0"
