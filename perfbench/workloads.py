"""The four benchmark workloads: inputs from a seed, expected outputs, checks.

Everything here is standard library only, so the harness can generate
inputs and check outputs without importing numpy or bandit_lab. The
workload process itself lives in ``child.py``.

Every workload uses K=5 arms, d=10 dimensions, per-arm diagonal feature
noise 0.1..1.0 and reward noise sigma 0.1 unless its spec says otherwise.
"""

import csv
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

K_ARMS = 5
DIM = 10
NOISE_DIAG = [round(0.1 * (i + 1), 1) for i in range(DIM)]
DEFAULT_SEED = 0

GAUSSIAN = {"name": "gaussian"}
MIXTURE_UNIFORM = {
    "name": "mixture",
    "weight": 0.3,
    "first": {"name": "uniform", "low": 9.0, "high": 11.0},
    "second": {"name": "uniform", "low": -11.0, "high": -9.0},
}
# Gradient-step settings of the gate-09 figure runs (tests/test_acceptance.py).
UNIVERSAL_PARAMS = {"mc_samples": 500, "fd_step": 0.1, "step_size": 0.02}
TABLE_DISTRIBUTIONS = ["gaussian", "mixture_gaussian", "mixture_uniform", "lognormal"]

RESULTS_HEADER = ["t", "policy", "seed", "arm", "reward", "inst_regret", "cum_regret", "rel_regret", "cos_dist"]
DIAGNOSTICS_HEADER = ["t", "policy", "seed", "norm_n1", "norm_n2", "norm_n3"]
CHARTS = ["chart_cum_regret.svg", "chart_rel_regret.svg", "chart_cos_dist.svg"]


@dataclass(frozen=True)
class Workload:
    """One named workload: its size, its outputs and the boundaries it must hit.

    ``rounds`` is the horizon of the main loop (simulation T, or replay log
    length); ``seeds`` the number of run-config seeds; ``diag_rounds`` the
    horizon of the diagnostics run; ``feature_samples`` the number of
    feature sets per gradient-table row.
    """

    name: str
    rounds: int = 0
    seeds: int = 1
    diag_rounds: int = 0
    feature_samples: int = 0
    policies: tuple = ()
    outputs: tuple = ()
    must_hit: tuple = ()

    def sized(self, **sizes) -> "Workload":
        return replace(self, **sizes)

    def run_seeds(self, seed: int) -> list:
        return [seed * 1000 + i for i in range(self.seeds)]

    def labels(self) -> list:
        return [p if isinstance(p, str) else p["name"] for p in self.policies]


_ENV_HITS = (
    "env.keyed_rng",
    "env.sample_round",
    "env.NoiseModel.sample",
    "env.FeatureDistribution.sample",
    "env.reward",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim_linear",
            rounds=400,
            seeds=2,
            policies=("uniform", "oracle_cf", "linucb", "noisy_linrel", "greedy"),
            outputs=("results.csv", *CHARTS),
            must_hit=_ENV_HITS
            + tuple(f"policies.{p}.{m}" for p in ("uniform", "oracle_cf", "linucb", "noisy_linrel", "greedy") for m in ("select", "observe"))
            + (
                "linalg.eigendecompose",
                "linalg.truncated_pinv_apply",
                "linalg.cutoff_pinv_solve",
                "runner.parse_run_config",
                "runner.run_simulation",
                "runner.emit_outputs",
                "runner.write_records_csv",
                "charts.write_line_chart_svg",
            ),
        ),
        Workload(
            "sim_gradient",
            rounds=350,
            seeds=1,
            policies=({"name": "gradient_linrel", "params": UNIVERSAL_PARAMS}, "linucb", "oracle_cf"),
            outputs=("results.csv",),
            must_hit=_ENV_HITS
            + tuple(f"policies.{p}.{m}" for p in ("gradient_linrel", "linucb", "oracle_cf") for m in ("select", "observe"))
            + (
                "linalg.eigendecompose",
                "linalg.truncated_pinv_apply",
                "gradient.regret_gradient",
                "runner.parse_run_config",
                "runner.run_simulation",
                "runner.emit_outputs",
                "runner.write_records_csv",
            ),
        ),
        Workload(
            "gradtable",
            feature_samples=450,
            outputs=("gradtable.csv",),
            must_hit=(
                "env.keyed_rng",
                "env.FeatureDistribution.sample",
                "gradient.gradient_norm_table",
                "gradient.averaged_gradient",
            ),
        ),
        Workload(
            "replay_diag",
            rounds=500,
            seeds=1,
            diag_rounds=1500,
            policies=("noisy_linrel", "linucb", {"name": "gradient_linrel", "params": {"mc_samples": 100}}),
            outputs=("results.csv", "diagnostics.csv"),
            must_hit=_ENV_HITS
            + tuple(f"policies.{p}.{m}" for p in ("noisy_linrel", "linucb", "gradient_linrel") for m in ("select", "observe"))
            + (
                "linalg.eigendecompose",
                "linalg.truncated_pinv_apply",
                "linalg.spectral_norm",
                "gradient.regret_gradient",
                "runner.parse_run_config",
                "runner.read_replay_csv",
                "runner.run_replay",
                "runner.run_diagnostics",
                "runner.emit_outputs",
                "runner.write_records_csv",
                "runner.write_diagnostics_csv",
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _env_spec(family: dict, noise_mode: str, horizon: int) -> dict:
    return {
        "K": K_ARMS,
        "d": DIM,
        "T": horizon,
        "theta_star": "random",
        "feature_distribution": {"kind": "iid", "family": family},
        "noise": {"mode": noise_mode, "covariance": {"diag": NOISE_DIAG}},
        "reward_noise_sigma": 0.1,
    }


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def write_replay_log(path: Path, seed: int, rounds: int) -> None:
    """Full-information log in the README replay format, drawn from ``seed``.

    Contexts are standard normal in every coordinate (no constant column);
    each arm's reward is its context times a fixed coefficient plus
    Gaussian noise of sigma 0.1.
    """
    rng = random.Random(seed)
    theta = [rng.uniform(-1.0, 1.0) for _ in range(DIM)]
    norm = math.sqrt(sum(v * v for v in theta))
    theta = [v / norm for v in theta]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "arm_index"] + [f"context_{i}" for i in range(DIM)] + ["reward"])
        for rid in range(rounds):
            for arm in range(K_ARMS):
                x = [rng.gauss(0.0, 1.0) for _ in range(DIM)]
                y = sum(a * b for a, b in zip(x, theta)) + 0.1 * rng.gauss(0.0, 1.0)
                writer.writerow([rid, arm] + [repr(v) for v in x] + [repr(y)])


def write_inputs(w: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's config (and log) files; return their paths by role.

    The program only ever sees these files. The roles are ``run`` (run
    config), ``table`` (gradient-table config), ``replay`` + ``log``
    (replay config and log) and ``diag`` (diagnostics config).
    """
    directory.mkdir(parents=True, exist_ok=True)
    seeds = w.run_seeds(seed)
    docs = {}
    if w.name == "sim_linear":
        docs["run"] = {
            "environment": _env_spec(GAUSSIAN, "per_arm", w.rounds),
            "policies": list(w.policies),
            "seeds": seeds,
        }
    elif w.name == "sim_gradient":
        docs["run"] = {
            "environment": _env_spec(MIXTURE_UNIFORM, "per_arm", w.rounds),
            "policies": list(w.policies),
            "seeds": seeds,
        }
    elif w.name == "gradtable":
        docs["table"] = {
            "distributions": TABLE_DISTRIBUTIONS,
            "theta_star_seed": seed,
            "K": K_ARMS,
            "d": DIM,
            "noise_diag": NOISE_DIAG,
            "feature_samples": w.feature_samples,
            "mc_noise_samples": 500,
            "fd_step": 0.05,
        }
    elif w.name == "replay_diag":
        # The replay loop ignores the environment, but the config schema
        # requires one; it matches the log's shape.
        docs["replay"] = {
            "environment": _env_spec(GAUSSIAN, "per_arm", w.rounds),
            "policies": list(w.policies),
            "seeds": seeds,
        }
        docs["diag"] = {
            "environment": _env_spec(GAUSSIAN, "identical", w.diag_rounds),
            "policies": ["noisy_linrel"],
            "seeds": seeds,
        }
    else:
        raise ValueError(f"unknown workload {w.name!r}")
    paths = {}
    for role, doc in docs.items():
        paths[role] = directory / f"{role}.json"
        _write_json(paths[role], doc)
    if w.name == "replay_diag":
        paths["log"] = directory / "log.csv"
        write_replay_log(paths["log"], seed, w.rounds)
    return paths


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_results_csv(path: Path, policies: list, seeds: list, rounds: int) -> tuple:
    """Invariants of results.csv, per (policy, seed) run.

    Returns (attempted, failed, problems). A run fails when its row count is
    not ``rounds``, a filled number is not finite, an ``inst_regret`` is
    negative or its ``cum_regret`` decreases.
    """
    expected = [(p, s) for p in policies for s in seeds]
    rows: dict = {key: [] for key in expected}
    problems = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != RESULTS_HEADER:
            return len(expected), len(expected), [f"{path.name}: bad header"]
        for row in reader:
            key = (row[1], int(row[2]))
            if key not in rows:
                problems.append(f"{path.name}: unexpected run {key}")
                continue
            rows[key].append(row)
    bad = set()
    for key, run in rows.items():
        if len(run) != rounds:
            problems.append(f"{key}: {len(run)} rows, expected {rounds}")
            bad.add(key)
            continue
        prev_cum = -math.inf
        for row in run:
            numbers = [row[0], row[3]] + [v for v in row[4:] if v != ""]
            if not all(_finite(v) for v in numbers):
                problems.append(f"{key} t={row[0]}: non-finite value")
                bad.add(key)
                break
            inst, cum = float(row[5]), float(row[6])
            if inst < 0.0:
                problems.append(f"{key} t={row[0]}: inst_regret {inst} < 0")
                bad.add(key)
                break
            if cum < prev_cum:
                problems.append(f"{key} t={row[0]}: cum_regret decreased")
                bad.add(key)
                break
            prev_cum = cum
    return len(expected), len(bad), problems


def check_diagnostics_csv(path: Path, seeds: list, rounds: int) -> tuple:
    """One row per geometric checkpoint 1, 2, 4, ... <= rounds per seed, all finite."""
    checkpoints = rounds.bit_length()
    per_seed: dict = {s: [] for s in seeds}
    problems = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != DIAGNOSTICS_HEADER:
            return len(seeds), len(seeds), [f"{path.name}: bad header"]
        for row in reader:
            per_seed.setdefault(int(row[2]), []).append(row)
    bad = set()
    for seed in seeds:
        run = per_seed[seed]
        if [int(r[0]) for r in run] != [1 << i for i in range(checkpoints)]:
            problems.append(f"diagnostics seed {seed}: wrong checkpoints")
            bad.add(seed)
        elif not all(_finite(v) and float(v) >= 0.0 for r in run for v in r[3:]):
            problems.append(f"diagnostics seed {seed}: non-finite or negative norm")
            bad.add(seed)
    return len(seeds), len(bad), problems


def check_table_csv(path: Path, distributions: list) -> tuple:
    """One row per distribution, in order, with a finite nonnegative norm."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if not rows or rows[0] != ["distribution", "l2_norm"]:
        return len(distributions), len(distributions), [f"{path.name}: bad header"]
    body = {r[0]: r[1] for r in rows[1:] if len(r) == 2}
    failed = 0
    for name in distributions:
        value = body.get(name)
        if value is None or not _finite(value) or float(value) < 0.0:
            problems.append(f"table row {name!r}: {value!r}")
            failed += 1
    if len(rows) - 1 != len(distributions):
        problems.append(f"table has {len(rows) - 1} rows, expected {len(distributions)}")
        failed = len(distributions)
    return len(distributions), failed, problems


def operations(w: Workload) -> int:
    """Operations per workload instance: (policy, seed) runs, table rows, diagnostics seeds."""
    if w.name == "gradtable":
        return len(TABLE_DISTRIBUTIONS)
    return len(w.policies) * w.seeds + (w.seeds if w.diag_rounds else 0)


def check_outputs(w: Workload, seed: int, out: Path) -> tuple:
    """Check one instance's output directory; return (attempted, failed, problems)."""
    missing = [name for name in w.outputs if not (out / name).is_file()]
    if missing:
        return operations(w), operations(w), [f"missing output {name}" for name in missing]
    seeds = w.run_seeds(seed)
    if w.name == "gradtable":
        return check_table_csv(out / "gradtable.csv", TABLE_DISTRIBUTIONS)
    attempted, failed, problems = check_results_csv(out / "results.csv", w.labels(), seeds, w.rounds)
    if w.name == "replay_diag":
        a, f, p = check_diagnostics_csv(out / "diagnostics.csv", seeds, w.diag_rounds)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    return attempted, failed, problems
