"""Golden digests: the bytes of small pinned runs must not change.

Each case writes a CSV (and, for emission, the SVG charts) through the
public runner API, or the gradient table through `bandit-lab gradtable`,
and compares its SHA-256 with a recorded value. Most cases stay at d <= 3,
which NLinRel's spectral cut keeps in full within a few rounds; the
full-rank cases run d = 10 long enough to cross from a partial to a full
kept rank. Every matrix stays small enough that BLAS threading cannot
change the floating-point results. A refactor of the
round loops must keep every digest; a deliberate change in output must
state itself and re-record the affected digest.
"""

import hashlib
import json

import numpy as np
import pytest

from bandit_lab.cli import EXIT_OK, main
from bandit_lab.runner import (
    PolicySpec,
    ReplayDataset,
    emit_outputs,
    parse_run_config,
    run_diagnostics,
    run_replay,
    run_simulation,
    write_diagnostics_csv,
    write_records_csv,
)

ALL_POLICIES = [
    "uniform",
    {"name": "scripted", "params": {"arms": [2, 0, 1, 1]}},
    "noisy_linrel",
    {"name": "greedy", "params": {"tau": 6}},
    "linucb",
    {"name": "gradient_linrel", "params": {"mc_samples": 20}},
    "oracle_tc",
    "oracle_cf",
]

IDENTICAL_ENV = {
    "K": 3,
    "d": 2,
    "T": 24,
    "theta_star": [0.7, -0.4],
    "feature_distribution": {
        "kind": "iid",
        "family": {
            "name": "mixture",
            "weight": 0.3,
            "first": {"name": "uniform", "low": 1.0, "high": 2.0},
            "second": {"name": "uniform", "low": -2.0, "high": -1.0},
        },
    },
    "noise": {"mode": "identical", "covariance": {"diag": [0.2, 0.3]}},
    "reward_noise_sigma": 0.1,
}

PER_ARM_ENV = {
    "K": 4,
    "d": 3,
    "T": 24,
    "theta_star": "random",
    "feature_distribution": {
        "kind": "multivariate_gaussian",
        "covariance": [[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]],
    },
    "noise": {"mode": "per_arm", "covariance": [[0.3, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.1]]},
    "reward_noise_sigma": 0.2,
}

EXPECTED = {
    "simulation_identical": "b8fc57e39d9ca274d8c13ca5ba057982f26bf365f7f1fa03a0331a89c5344221",
    "simulation_per_arm": "dd19ad6ca1dac298584ff98f952bcc08fbbc8244f2676963636e1fe38daf8870",
    "replay": "c9a5b5bb8a0c2b5b6a9872b7070a31d7bdc4d76cf1f5301722ae40d9d8fa7476",
    "diagnostics": "0ee9a71d297b0be6d534605c92e5ea6bf76e6a7ae2cbf38b5f5089c1b74c5cdc",
    "replay_full_rank": "b8ee9eb3a1e512407dc578996b50a0e263b873d522442ba712c2b86add615aff",
    "diagnostics_full_rank_noisy_linrel": "6c19ce0f0c4e14978b264159c91a61afbcc32f4aac5fb49e44c33bfeaeaa88a6",
    "diagnostics_full_rank_gradient_linrel": "adc359da54965a078326f4b022b9fcd2dd5555551363d0e5eb3b294c847910d7",
    "gradtable": "1056704bf2392179e69c70ae86603dc2ce4b124ebce3122b35d36e58d81c82ca",
}

# Every named distribution of `bandit-lab gradtable`, at d = 4, K = 3 and
# 40 feature sets x 30 noise draws each.
GRADTABLE_CONFIG = {
    "distributions": ["gaussian", "uniform", "laplace", "exponential", "lognormal", "mixture_gaussian", "mixture_uniform"],
    "theta_star_seed": 0,
    "K": 3,
    "d": 4,
    "feature_samples": 40,
    "mc_noise_samples": 30,
}

# d = 10, K = 5: NLinRel first keeps all ten directions between rounds 28
# and 43, depending on seed and policy, of the 60-round replay log and the
# 64-round diagnostics runs, so every case plays rounds on either side of
# the switch to full rank.
FULL_RANK_ENV = {
    "K": 5,
    "d": 10,
    "T": 64,
    "theta_star": "random",
    "feature_distribution": {"kind": "iid", "family": {"name": "gaussian"}},
    "noise": {"mode": "identical", "covariance": {"diag": [0.02 * (i + 1) for i in range(10)]}},
    "reward_noise_sigma": 0.1,
}

# Nine seeds put at least 8 values into a round's mean, so the charts'
# averages go through numpy's pairwise summation. uniform has no cos_dist,
# noisy_linrel's cos_dist is missing for some seeds in early rounds, oracle_cf
# plays one fixed coefficient (no min/max band) and two labels need CSV quoting.
EMISSION_ENV = {
    "K": 3,
    "d": 2,
    "T": 20,
    "theta_star": [0.6, -0.5],
    "feature_distribution": {"kind": "iid", "family": {"name": "gaussian"}},
    "noise": {"mode": "per_arm", "covariance": {"diag": [0.3, 0.2]}},
    "reward_noise_sigma": 0.1,
}
EMISSION_POLICIES = [
    "uniform",
    {"name": "noisy_linrel", "label": 'say "hi"'},
    {"name": "linucb", "label": "a,b"},
    "oracle_cf",
]
EXPECTED_EMISSION = {
    "results.csv": "ad4185d39a46e51965b2a20de9ac031bc3c328d6edce36bc187d8d4b62a66349",
    "chart_cum_regret.svg": "81d1bea51851c18cd2bfc64be5b4539b3cd3c5dba37f058af1894678ebbd0e88",
    "chart_rel_regret.svg": "1c160c2e6528c02b29be36a05f36302591679570005db0782d54a5d08a451a88",
    "chart_cos_dist.svg": "d7f201861d7d8b3efe681e5246fd673ac0c6978e07e2aebc12431d19156d6e75",
}


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def config(env, policies):
    return parse_run_config({"environment": env, "policies": policies, "seeds": [0, 3]})


def replay_dataset() -> ReplayDataset:
    rng = np.random.default_rng(11)
    contexts = rng.standard_normal((30, 3, 3))
    rewards = contexts @ np.array([0.5, -0.2, 0.8]) + 0.1 * rng.standard_normal((30, 3))
    return ReplayDataset(contexts=contexts, rewards=rewards)


def full_rank_replay_dataset() -> ReplayDataset:
    rng = np.random.default_rng(14)
    contexts = rng.standard_normal((60, 5, 10))
    rewards = contexts @ np.linspace(-0.5, 0.5, 10) + 0.1 * rng.standard_normal((60, 5))
    return ReplayDataset(contexts=contexts, rewards=rewards)


@pytest.mark.parametrize("name, env", [("simulation_identical", IDENTICAL_ENV), ("simulation_per_arm", PER_ARM_ENV)])
def test_simulation_results_digest(tmp_path, name, env):
    path = tmp_path / "results.csv"
    write_records_csv(path, run_simulation(config(env, ALL_POLICIES)))
    assert digest(path) == EXPECTED[name]


def test_replay_results_digest(tmp_path):
    specs = [PolicySpec(name="scripted", params={"arms": [1, 2]})] + [
        PolicySpec(name=name, params=params)
        for name, params in [
            ("uniform", {}),
            ("noisy_linrel", {}),
            ("greedy", {}),
            ("linucb", {}),
            ("gradient_linrel", {"mc_samples": 20}),
        ]
    ]
    path = tmp_path / "results.csv"
    write_records_csv(path, run_replay(replay_dataset(), specs, seeds=[0, 3]))
    assert digest(path) == EXPECTED["replay"]


def test_diagnostics_digest(tmp_path):
    env = dict(IDENTICAL_ENV, T=64)
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(path, run_diagnostics(config(env, ["noisy_linrel"])))
    assert digest(path) == EXPECTED["diagnostics"]


def test_full_rank_replay_digest(tmp_path):
    specs = [
        PolicySpec(name=name, params=params)
        for name, params in [
            ("noisy_linrel", {}),
            ("gradient_linrel", {"mc_samples": 20}),
            ("linucb", {}),
            ("greedy", {"tau": 20}),
        ]
    ]
    path = tmp_path / "results.csv"
    write_records_csv(path, run_replay(full_rank_replay_dataset(), specs, seeds=[0, 3]))
    assert digest(path) == EXPECTED["replay_full_rank"]


@pytest.mark.parametrize(
    "name, policy",
    [
        ("diagnostics_full_rank_noisy_linrel", "noisy_linrel"),
        ("diagnostics_full_rank_gradient_linrel", {"name": "gradient_linrel", "params": {"mc_samples": 20}}),
    ],
)
def test_full_rank_diagnostics_digest(tmp_path, name, policy):
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(path, run_diagnostics(config(FULL_RANK_ENV, [policy])))
    assert digest(path) == EXPECTED[name]


def test_emitted_outputs_digest(tmp_path):
    cfg = parse_run_config({"environment": EMISSION_ENV, "policies": EMISSION_POLICIES, "seeds": list(range(9))})
    written = emit_outputs(run_simulation(cfg), tmp_path, charts=True)
    assert {path.name: digest(path) for path in written} == EXPECTED_EMISSION


def test_gradtable_digest(tmp_path):
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps(GRADTABLE_CONFIG))
    path = tmp_path / "table.csv"
    assert main(["gradtable", "--config", str(cfg), "--out", str(path)]) == EXIT_OK
    assert digest(path) == EXPECTED["gradtable"]
