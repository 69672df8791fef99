"""Experiment orchestration: configs, simulation, replay, diagnostics, CSV.

A run configuration is one JSON document (schema in the README). All
randomness flows from the configured seeds, records are emitted in
deterministic (policy, seed, t) order, and floats are written with
shortest-round-trip formatting, so identical configs produce byte-identical
CSV files.
"""

import csv
import io
import json
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from . import env as envmod
from . import policies as polmod
from .gradient import arm_set_sampler
from .linalg import gaussian_sampler, spectral_norm, sym_matrix

__all__ = [
    "ConfigError",
    "DataFormatError",
    "DiagnosticsRecord",
    "PolicySpec",
    "ReplayDataset",
    "RunConfig",
    "RunRecord",
    "build_policy",
    "emit_outputs",
    "environment_for_seed",
    "load_run_config",
    "read_json_object",
    "read_records_csv",
    "run_diagnostics",
    "run_replay",
    "run_simulation",
    "write_records_csv",
]

RESULTS_HEADER = ["t", "policy", "seed", "arm", "reward", "inst_regret", "cum_regret", "rel_regret", "cos_dist"]
DIAGNOSTICS_HEADER = ["t", "policy", "seed", "norm_n1", "norm_n2", "norm_n3"]
ALLOWED_METRICS = ("cum_regret", "rel_regret", "cos_dist")
# The random streams are keyed by the seed's 64 bits, so larger or negative
# seeds would replay the stream of another seed.
MAX_SEED = 2**64 - 1
# The random streams key a round t by the 61 bits above its 3 lane bits, so
# a later round would replay the draws of an earlier one.
MAX_ROUNDS = 2**61 - 1
# Bytes a run holds per result row: its RunRecord and its share of emitting
# it. Measured with `bandit-lab run --charts` on 5 cheap policies x 10 seeds
# x 10^4 rounds (K=5, d=10, CPython 3.11, x86-64): peak RSS 198.4 MiB against
# 38.9 MiB for a one-row run, so (198.4 - 38.9) MiB / (5 * 10^5 rows).
RECORD_BYTES = 334


class ConfigError(ValueError):
    """The run configuration is malformed or internally inconsistent."""


class DataFormatError(ValueError):
    """A logged-data file violates the replay format."""


@dataclass(slots=True)  # built once per output row; a frozen dataclass's __init__ costs ~3x as much
class RunRecord:
    t: int
    policy: str
    seed: int
    arm: int
    reward: float
    inst_regret: float
    cum_regret: float
    rel_regret: float | None = None
    cos_dist: float | None = None


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: int
    policy: str
    seed: int
    norm_n1: float
    norm_n2: float
    norm_n3: float


@dataclass(frozen=True)
class PolicySpec:
    name: str
    params: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.name)


@dataclass(frozen=True)
class RunConfig:
    env_spec: dict
    policies: tuple
    seeds: tuple
    metrics: tuple = ALLOWED_METRICS


# ---------------------------------------------------------------------------
# JSON config parsing
# ---------------------------------------------------------------------------
#
# Each config value's JSON type is decided here, by one of the readers below;
# each raises a ConfigError that names the key.


def _integer(key: str, value, minimum: int | None = None, maximum: int | None = None) -> int:
    """A JSON integer, within [minimum, maximum] where they are given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key!r} takes integers, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key!r} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{key!r} must be at most {maximum}, got {value}")
    return value


def _number(key: str, value) -> float:
    """A JSON number as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key!r} takes numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the range of a double
        raise ConfigError(f"{key!r} overflows a double") from None


def _numbers(key: str, value, shape: tuple) -> np.ndarray:
    """Nested JSON lists of numbers as a float array of exactly this shape."""
    items = [value]
    for n in shape:
        if not all(isinstance(item, list) and len(item) == n for item in items):
            raise ConfigError(f"{key!r} takes numbers in shape {shape}, got {value!r}")
        items = [x for item in items for x in item]
    return np.array([_number(key, x) for x in items]).reshape(shape)


def _integers(key: str, value, minimum: int | None = None, maximum: int | None = None) -> list:
    """A JSON list of integers, each within [minimum, maximum] where they are given."""
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} takes a list of integers, got {value!r}")
    return [_integer(key, x, minimum, maximum) for x in value]


def _string(key: str, value) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise ConfigError(f"{key!r} takes a string, got {value!r}")
    return value


def _names(key: str, value, allowed, kind: str) -> list:
    """A JSON list of strings, each one of the allowed names of this kind."""
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ConfigError(f"{key!r} must be a list of {kind} names, got {value!r}")
    for name in value:
        if name not in allowed:
            raise ConfigError(f"unknown {kind} {name!r}")
    return value


def _fit_in_memory(nbytes: int, what: str) -> None:
    """A ConfigError naming what, unless its nbytes fit in physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > memory:
        raise ConfigError(f"{what}, about {nbytes} bytes held, more than the {memory} bytes of physical memory")


def _dimensions(K, d) -> tuple:
    """K and d, each at least 1, such that one d x d float matrix and one round's K x d draw fit in memory."""
    K, d = _integer("K", K, minimum=1), _integer("d", d, minimum=1)
    _fit_in_memory(8 * d * d, f"'d' = {d} makes a {d} x {d} matrix")
    _fit_in_memory(8 * K * d, f"'K' = {K} arms x d = {d} make a {K} x {d} draw per round")
    return K, d


_FAMILY_CLASSES = {
    "gaussian": envmod.GaussianFamily,
    "uniform": envmod.UniformFamily,
    "laplace": envmod.LaplaceFamily,
    "exponential": envmod.ExponentialFamily,
    "lognormal": envmod.LogNormalFamily,
    "mixture": envmod.MixtureFamily,
}


def parse_family(spec: dict):
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"family spec must be an object with a 'name': {spec!r}")
    name = _string("name", spec["name"])
    cls = _FAMILY_CLASSES.get(name)
    if cls is None:
        raise ConfigError(f"unknown family {name!r}")
    params = {
        key: parse_family(value) if key in ("first", "second") else _number(key, value)  # a mixture's components
        for key, value in spec.items()
        if key != "name"
    }
    try:
        return cls(**params)
    except (TypeError, ValueError) as exc:  # a missing or unknown field, or a bad value
        raise ConfigError(f"bad parameters for family {name!r}: {exc}") from exc


def parse_feature_distribution(spec: dict, d: int) -> envmod.FeatureDistribution:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("feature_distribution must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "multivariate_gaussian":
            return envmod.FeatureDistribution.multivariate_gaussian(_numbers("covariance", spec.get("covariance"), (d, d)))
        if kind == "iid":
            return envmod.FeatureDistribution.iid(parse_family(spec.get("family")))
    except ValueError as exc:
        raise ConfigError(f"bad feature_distribution: {exc}") from exc
    except OverflowError as exc:  # a family's mean or variance
        raise ConfigError(f"feature_distribution moments overflow a double: {exc}") from exc
    raise ConfigError(f"unknown feature_distribution kind {kind!r}")


def _parse_covariance(spec, d: int) -> np.ndarray:
    if isinstance(spec, dict) and "diag" in spec:
        return np.diag(_numbers("diag", spec["diag"], (d,)))
    return _numbers("covariance", spec, (d, d))


def parse_noise_model(spec: dict, d: int) -> envmod.NoiseModel:
    if not isinstance(spec, dict):
        raise ConfigError("noise must be an object")
    covariance = _parse_covariance(spec["covariance"], d) if "covariance" in spec else np.eye(d)
    radius = _number("truncation_radius", spec["truncation_radius"]) if "truncation_radius" in spec else None
    try:
        return envmod.NoiseModel(mode=spec.get("mode", "per_arm"), covariance=covariance, truncation_radius=radius)
    except ValueError as exc:
        raise ConfigError(f"bad noise model: {exc}") from exc


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_json_object(path) -> dict:
    """Read a JSON file holding one object. NaN, Infinity and overflowing numbers are rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except ValueError as exc:  # malformed JSON, bytes that are not UTF-8, or a non-finite number
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return doc


def load_run_config(path) -> RunConfig:
    """Parse a JSON run configuration file, validating its schema."""
    return parse_run_config(read_json_object(path))


def parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    env_spec = doc.get("environment")
    if not isinstance(env_spec, dict):
        raise ConfigError("config needs an 'environment' object")
    policies = _parse_policy_specs(doc.get("policies"))
    seeds = tuple(_integers("seeds", doc.get("seeds"), minimum=0, maximum=MAX_SEED))
    if not seeds:
        raise ConfigError("config needs a nonempty integer list 'seeds'")
    metrics = _names("metrics", doc.get("metrics", list(ALLOWED_METRICS)), ALLOWED_METRICS, "metric")
    environment_for_seed(env_spec, seeds[0])  # fail before any round runs
    return RunConfig(env_spec=env_spec, policies=policies, seeds=seeds, metrics=tuple(metrics))


def _parse_policy_specs(raw) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config needs a nonempty 'policies' list")
    specs = []
    for item in raw:
        if isinstance(item, str):
            item = {"name": item}
        if not (isinstance(item, dict) and "name" in item and isinstance(item.get("params", {}), dict)):
            raise ConfigError(f"bad policy spec {item!r}")
        name = _string("name", item["name"])
        if name not in POLICY_BUILDERS:
            raise ConfigError(f"unknown policy {name!r}")
        readers = POLICY_PARAMS.get(name, {})
        params = {}
        for key, value in item.get("params", {}).items():
            if key not in readers:
                raise ConfigError(f"unknown parameter {key!r} for policy {name!r}")
            params[key] = readers[key](key, value)
        specs.append(PolicySpec(name=name, params=params, label=_string("label", item.get("label", ""))))
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise ConfigError("policy labels must be unique")
    return tuple(specs)


def environment_for_seed(env_spec: dict, seed: int) -> envmod.EnvironmentConfig:
    """Instantiate the environment template for one seed.

    theta_star may be a concrete vector or "random", in which case it is
    drawn from the seed (coordinates uniform on [-1, 1], rescaled into the
    unit ball only when needed).
    """
    K, d = _dimensions(env_spec.get("K"), env_spec.get("d"))
    T = _integer("T", env_spec.get("T"), minimum=1, maximum=MAX_ROUNDS)
    reward_noise_sigma = _number("reward_noise_sigma", env_spec.get("reward_noise_sigma", 0.0))
    dist = parse_feature_distribution(env_spec.get("feature_distribution", {"kind": "iid", "family": {"name": "gaussian"}}), d)
    noise = parse_noise_model(env_spec.get("noise", {}), d)
    theta_spec = env_spec.get("theta_star", "random")
    if theta_spec == "random":
        theta = envmod.draw_theta_star(d, envmod.keyed_rng(seed, 0, envmod.LANE_THETA))
    else:
        theta = _numbers("theta_star", theta_spec, (d,))
    try:
        return envmod.EnvironmentConfig(
            K=K,
            d=d,
            T=T,
            theta_star=theta,
            feature_dist=dist,
            noise=noise,
            reward_noise_sigma=reward_noise_sigma,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"bad environment: {exc}") from exc


# ---------------------------------------------------------------------------
# Policy registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy builder may draw on; hidden fields are None in replay."""

    d: int
    K: int
    T: int
    noise_cov: np.ndarray
    rng: np.random.Generator
    theta_star: np.ndarray | None = None
    feature_dist: envmod.FeatureDistribution | None = None


def _feature_sampler(ctx: PolicyContext):
    return None if ctx.feature_dist is None else arm_set_sampler(ctx.feature_dist, ctx.K, ctx.d)


def _require_theta_star(ctx: PolicyContext, name: str) -> np.ndarray:
    if ctx.theta_star is None:
        raise ConfigError(f"policy {name!r} needs a simulated environment")
    return ctx.theta_star


def _build_oracle_cf(ctx: PolicyContext, p: dict) -> polmod.FixedCoefficient:
    theta_star = _require_theta_star(ctx, "oracle_cf")
    if ctx.feature_dist is None:
        raise ConfigError("policy 'oracle_cf' needs a feature distribution")
    theta_bar = polmod.bayes_optimal_theta(
        ctx.feature_dist.covariance_matrix(ctx.d), ctx.noise_cov, theta_star
    )
    return polmod.FixedCoefficient(theta_bar, name="oracle_cf")


def _build_scripted(ctx: PolicyContext, p: dict) -> polmod.ScriptedPolicy:
    policy = polmod.ScriptedPolicy(**p)
    out_of_range = [arm for arm in policy.arms if not 0 <= arm < ctx.K]
    if out_of_range:
        raise ConfigError(f"scripted arms {out_of_range} out of range 0..{ctx.K - 1}")
    return policy


def _check_log_covariance(ctx: PolicyContext, name: str, check) -> None:
    try:  # a configured noise covariance was checked when parsed, so only a replay log's can fail
        check(ctx.noise_cov)
    except ValueError as exc:
        raise ConfigError(f"policy {name!r} cannot use the replay log's noise covariance: {exc}") from exc


def _build_noisy_linrel(ctx: PolicyContext, p: dict) -> polmod.NoisyLinRel:
    _check_log_covariance(ctx, "noisy_linrel", sym_matrix)  # finite; a constant column's zero variance is usable
    return polmod.NoisyLinRel(ctx.d, **p)


def _build_gradient_linrel(ctx: PolicyContext, p: dict) -> polmod.RegretGradientLinRel:
    _check_log_covariance(ctx, "gradient_linrel", gaussian_sampler)  # also positive-definite, to draw from
    return polmod.RegretGradientLinRel(ctx.d, ctx.noise_cov, ctx.rng, feature_sampler=_feature_sampler(ctx), **p)


POLICY_BUILDERS = {
    "uniform": lambda ctx, p: polmod.UniformRandom(),
    "scripted": _build_scripted,
    "noisy_linrel": _build_noisy_linrel,
    "greedy": lambda ctx, p: polmod.ExploreThenCommitGreedy(ctx.d, ctx.T, **p),
    "linucb": lambda ctx, p: polmod.LinUCB(ctx.d, **p),
    "gradient_linrel": _build_gradient_linrel,
    "oracle_tc": lambda ctx, p: polmod.FixedCoefficient(
        _require_theta_star(ctx, "oracle_tc"), name="oracle_tc"
    ),
    "oracle_cf": _build_oracle_cf,
}

# The keyword params each builder passes to its policy's constructor, which
# holds their defaults, each with the reader of its JSON type; parsing
# rejects any other key.
POLICY_PARAMS = {
    "scripted": {"arms": _integers},
    "noisy_linrel": {"alpha_exponent": _number},
    "greedy": {"tau": _integer},
    "linucb": {"ucb_alpha": _number},
    "gradient_linrel": {"alpha_exponent": _number, "step_size": _number, "ucb_coeff": _number, "mc_samples": _integer, "fd_step": _number},
}


def build_policy(spec: PolicySpec, ctx: PolicyContext) -> polmod.Policy:
    try:
        builder = POLICY_BUILDERS[spec.name]
    except KeyError:
        raise ConfigError(f"unknown policy {spec.name!r}") from None
    try:
        return builder(ctx, dict(spec.params))
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad parameters for policy {spec.name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _cosine_distance(theta, reference, norm_r: float) -> float | None:
    """Cosine distance of theta from reference, whose norm the caller passes; None if undefined."""
    if theta is None:
        return None
    theta = np.asarray(theta, dtype=float)
    norm_t = math.sqrt(theta.dot(theta))  # np.linalg.norm's own arithmetic, without its overhead
    # A finite norm implies finite entries; a finite theta can still overflow it.
    if norm_t == 0.0 or norm_r == 0.0 or (not math.isfinite(norm_t) and not np.all(np.isfinite(theta))):
        return None
    return float(1.0 - theta @ reference / (norm_t * norm_r))


def _play(specs, seed: int, ctx_fields: dict, rounds, payoff):
    """The round core: build every spec's policy for a seed, then step them through the rounds together.

    ``rounds`` yields (t, x, info) with x the observed (K, d) contexts, and
    ``payoff(info, arm)`` is the chosen arm's reward. Every policy is built
    before the first round, so one that cannot be built fails before any
    round is played. In each round the policies take their turns in spec
    order: select -> payoff -> observe, then (i, policy, info, arm, y) goes to
    the caller's bookkeeping, i being the policy's index in ``specs``.
    """
    players = []
    for spec in specs:
        policy_rng = envmod.keyed_rng(seed, 0, envmod.LANE_POLICY)
        players.append((build_policy(spec, PolicyContext(rng=policy_rng, **ctx_fields)), policy_rng))
    noise_cov = ctx_fields["noise_cov"]
    for t, x, info in rounds:
        for i, (policy, policy_rng) in enumerate(players):
            try:
                arm = policy.select(t, x, policy_rng)
                y = payoff(info, arm)
                policy.observe(t, arm, x[arm], y, noise_cov)
            except ValueError as exc:  # e.g. running sums that overflowed a double
                raise ConfigError(f"policy {specs[i].label!r} stopped at round {t} of seed {seed}: {exc}") from exc
            yield i, policy, info, arm, y


def _play_environment(specs, seed: int, environment: envmod.EnvironmentConfig):
    """_play on a simulated environment; its info is (RoundContext, reward noise).

    Each round's contexts and reward noise are drawn once, and every
    policy's reward in the round adds that same noise.
    """
    ctx_fields = dict(
        d=environment.d,
        K=environment.K,
        T=environment.T,
        noise_cov=environment.noise.covariance,
        theta_star=environment.theta_star,
        feature_dist=environment.feature_dist,
    )
    contexts = (envmod.sample_round(environment, t) for t in range(1, environment.T + 1))
    rounds = ((c.t, c.x, (c, envmod.reward_noise(environment, c.t))) for c in contexts)
    return _play(specs, seed, ctx_fields, rounds, lambda info, arm: envmod.reward(environment, info[0], arm, noise=info[1]))


def _records_in_output_order(specs, seeds, rounds: int, steps):
    """RunRecords in (policy, seed, t) order from runs that step each seed's policies together.

    ``steps(seed)`` yields (i, t, arm, reward, inst_regret, rel_regret,
    cos_dist) for policy i in round t = 1..rounds. Each row becomes a
    RunRecord when it is made: the first policy's are yielded at once, each
    later policy's are held in its list until the last seed is done. Before
    round 1, a run whose records could not fit in physical memory is a
    ConfigError.
    """
    rows = rounds * len(seeds) * len(specs)
    _fit_in_memory(rows * RECORD_BYTES, f"'T' = {rounds} rounds x {len(seeds)} seeds x {len(specs)} policies make {rows} result rows")
    held = [[] for _ in specs[1:]]
    for seed in seeds:
        cum = [0.0] * len(specs)
        for i, t, arm, y, inst, rel, cos in steps(seed):
            cum[i] += inst
            record = RunRecord(t, specs[i].label, seed, arm, y, inst, cum[i], rel, cos)
            if i == 0:
                yield record
            else:
                held[i - 1].append(record)
    for records in held:
        yield from records


def run_simulation(cfg: RunConfig):
    """Yield one RunRecord per (policy, seed, round), in that order.

    Environment draws are keyed by (seed, t). Each round of a seed is sampled
    once, and every policy of the seed plays it in turn (see _play); the
    round's values z.theta*, their maximum and theta_bar's pick are computed
    once for all of them.
    """
    want_rel = "rel_regret" in cfg.metrics
    want_cos = "cos_dist" in cfg.metrics

    def steps(seed):
        environment = environment_for_seed(cfg.env_spec, seed)
        theta_star = environment.theta_star
        theta_bar = polmod.bayes_optimal_theta(
            environment.feature_dist.covariance_matrix(environment.d),
            environment.noise.covariance,
            theta_star,
        )
        theta_star_norm = float(np.linalg.norm(theta_star))
        for i, policy, (round_ctx, _), arm, y in _play_environment(cfg.policies, seed, environment):
            if i == 0:  # the first turn of a round
                values = round_ctx.z @ theta_star
                best = values.max()
                bar_value = values[envmod.bar_theta_arm(round_ctx, theta_bar)] if want_rel else None
            value = values[arm]
            rel = float(bar_value - value) if want_rel else None
            cos = _cosine_distance(policy.current_theta(), theta_star, theta_star_norm) if want_cos else None
            yield i, round_ctx.t, arm, y, float(best - value), rel, cos

    yield from _records_in_output_order(cfg.policies, cfg.seeds, int(cfg.env_spec["T"]), steps)


# ---------------------------------------------------------------------------
# Replay over logged datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayDataset:
    """Full-information log: per round, K contexts and all K rewards."""

    contexts: np.ndarray  # (rounds, K, d)
    rewards: np.ndarray  # (rounds, K)

    def __post_init__(self):
        if self.contexts.ndim != 3 or self.rewards.ndim != 2:
            raise DataFormatError("contexts must be (rounds, K, d), rewards (rounds, K)")
        if self.contexts.shape[:2] != self.rewards.shape:
            raise DataFormatError("contexts and rewards disagree on rounds/arms")
        if self.K < 2:
            raise DataFormatError("replay needs at least 2 arms")
        if not (np.all(np.isfinite(self.contexts)) and np.all(np.isfinite(self.rewards))):
            raise DataFormatError("replay data must be finite")

    @property
    def rounds(self) -> int:
        return self.contexts.shape[0]

    @property
    def K(self) -> int:
        return self.contexts.shape[1]

    @property
    def d(self) -> int:
        return self.contexts.shape[2]

    def noise_covariance(self) -> np.ndarray:
        """Default noise handed to noise-aware policies: 10% of the per-coordinate sample variance."""
        flat = self.contexts.reshape(-1, self.d)
        return np.diag(0.1 * flat.var(axis=0))


def read_replay_csv(path) -> ReplayDataset:
    """Parse the replay CSV format.

    Header: round,arm_index,context_0..context_{d-1},reward with K
    consecutive rows per round id and arm_index counting 0..K-1. Malformed
    rows raise DataFormatError with the offending line number.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file (line 1)") from None
        d = len(header) - 3
        if d < 1 or header[:2] != ["round", "arm_index"] or header[-1] != "reward" or header[2:-1] != [f"context_{i}" for i in range(d)]:
            raise DataFormatError(f"{path}: bad header (line 1): {','.join(header)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 3:
                raise DataFormatError(f"{path}: expected {d + 3} fields, got {len(row)} (line {lineno})")
            try:
                rows.append((int(row[0]), int(row[1]), [float(v) for v in row[2:]], lineno))
            except ValueError as exc:
                raise DataFormatError(f"{path}: {exc} (line {lineno})") from exc
    if not rows:
        raise DataFormatError(f"{path}: no data rows (line 2)")

    groups: list[list] = []
    for rid, arm, values, lineno in rows:
        if not groups or groups[-1][0] != rid:
            groups.append([rid, []])
        expected = len(groups[-1][1])
        if arm != expected:
            raise DataFormatError(f"{path}: expected arm_index {expected} for round {rid} (line {lineno})")
        groups[-1][1].append(values)
    k_arms = len(groups[0][1])
    for rid, arm_rows in groups:
        if len(arm_rows) != k_arms:
            raise DataFormatError(f"{path}: round {rid} has {len(arm_rows)} arms, expected {k_arms}")
    contexts = np.array([[r[:-1] for r in arm_rows] for _, arm_rows in groups])
    rewards = np.array([[r[-1] for r in arm_rows] for _, arm_rows in groups])
    return ReplayDataset(contexts=contexts, rewards=rewards)


def write_replay_csv(path, dataset: ReplayDataset) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "arm_index"] + [f"context_{i}" for i in range(dataset.d)] + ["reward"])
        for rid in range(dataset.rounds):
            for arm in range(dataset.K):
                writer.writerow(
                    [rid, arm]
                    + [repr(float(v)) for v in dataset.contexts[rid, arm]]
                    + [repr(float(dataset.rewards[rid, arm]))]
                )


def run_replay(dataset: ReplayDataset, policy_specs, seeds):
    """Score policies against a full-information log.

    Policies see only the K contexts per round and the reward of the arm
    they pick; regret is measured against the per-round maximum reward.
    """
    specs = tuple(policy_specs)
    ctx_fields = dict(d=dataset.d, K=dataset.K, T=dataset.rounds, noise_cov=dataset.noise_covariance())
    rounds = [(idx + 1, x, idx) for idx, x in enumerate(dataset.contexts)]
    row_best = dataset.rewards.max(axis=1)

    def steps(seed):
        # rewards.item(idx, arm) is the logged reward as a Python float
        for i, _, idx, arm, y in _play(specs, seed, ctx_fields, rounds, dataset.rewards.item):
            yield i, idx + 1, arm, y, float(row_best[idx] - y), None, None

    yield from _records_in_output_order(specs, seeds, dataset.rounds, steps)


# ---------------------------------------------------------------------------
# Concentration diagnostics
# ---------------------------------------------------------------------------


def run_diagnostics(cfg: RunConfig):
    """Track the three noise-interaction running sums alongside a policy.

    N1 accumulates hidden-feature/noise outer products, N2 the noise
    covariance residual, N3 the reward-noise-weighted observed features.
    Spectral norms are logged at geometric checkpoints t in {1, 2, 4, ...}.
    Needs hidden features and a shared per-round noise draw, so it runs only
    on identical-noise simulated environments.
    """
    spec = cfg.policies[0]
    for seed in cfg.seeds:
        environment = environment_for_seed(cfg.env_spec, seed)
        if environment.noise.mode != "identical":
            raise ConfigError("diagnostics require identical-noise environments")
        noise_cov = environment.noise.covariance
        theta_star = environment.theta_star
        d = environment.d
        n1 = np.zeros((d, d))
        n2 = np.zeros((d, d))
        n3 = np.zeros(d)
        checkpoint = 1
        for _, _, (round_ctx, _), arm, y in _play_environment((spec,), seed, environment):
            eps = round_ctx.eps[0]
            n1 += round_ctx.z[arm][:, None] * eps  # np.outer's product without its wrapper
            n2 += eps[:, None] * eps - noise_cov
            n3 += round_ctx.x[arm] * (y - float(round_ctx.z[arm] @ theta_star))
            if round_ctx.t == checkpoint:
                checkpoint *= 2
                yield DiagnosticsRecord(
                    t=round_ctx.t,
                    policy=spec.label,
                    seed=seed,
                    norm_n1=spectral_norm(n1),
                    norm_n2=spectral_norm(n2),
                    norm_n3=float(np.linalg.norm(n3)),
                )


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if type(value) is float:  # the common case, tested first
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv_field(value) -> str:
    """value as csv.writer writes it among other fields (quoted only where needed)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]  # without the empty field's ",\n"


def write_records_csv(path, records) -> None:
    """Write records as results.csv, one formatted line per record.

    The bytes are those of a csv.writer row of (t, policy, seed, arm) and the
    _format_value of each metric; each policy label is quoted once.
    """
    fmt = _format_value
    labels: dict = {}  # policy -> its CSV field
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write = fh.write
        write(",".join(RESULTS_HEADER) + "\n")
        for rec in records:
            label = labels.get(rec.policy)
            if label is None:
                label = labels[rec.policy] = _csv_field(rec.policy)
            write(
                f"{rec.t},{label},{rec.seed},{rec.arm},{fmt(rec.reward)},{fmt(rec.inst_regret)},"
                f"{fmt(rec.cum_regret)},{fmt(rec.rel_regret)},{fmt(rec.cos_dist)}\n"
            )


def read_records_csv(path) -> list[RunRecord]:
    """Inverse of write_records_csv; empty fields come back as None."""
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != RESULTS_HEADER:
            raise DataFormatError(f"{path}: unexpected results header")
        for row in reader:
            out.append(
                RunRecord(
                    t=int(row[0]),
                    policy=row[1],
                    seed=int(row[2]),
                    arm=int(row[3]),
                    reward=float(row[4]),
                    inst_regret=float(row[5]),
                    cum_regret=float(row[6]),
                    rel_regret=float(row[7]) if row[7] else None,
                    cos_dist=float(row[8]) if row[8] else None,
                )
            )
    return out


def emit_outputs(records, output_dir, charts: bool = False) -> list:
    """Write results.csv (and optional SVG charts) under output_dir.

    Returns the list of written paths. Chart series are seed-averaged per
    policy with a min/max band across seeds.
    """
    from pathlib import Path

    records = list(records)
    if not records:
        raise ValueError("no records to emit")
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "results.csv"
        write_records_csv(csv_path, records)
        written = [csv_path]
        if charts:
            from .charts import write_line_chart_svg

            for metric, series in _chart_series(records).items():
                if not series:
                    continue
                path = out / f"chart_{metric}.svg"
                write_line_chart_svg(path, title=metric, series=series)
                written.append(path)
        return written
    except OSError as exc:
        raise OSError(f"cannot write outputs under {output_dir}: {exc}") from exc


def _chart_series(records) -> dict:
    """Per chart metric, per-policy (ts, mean, lo, hi) arrays averaged across seeds.

    One pass splits the records by policy, in record order; each policy's
    records then become one column per field. A policy without a value of a
    metric gets no series of it.
    """
    by_policy: dict = {}
    for rec in records:
        by_policy.setdefault(rec.policy, []).append(rec)
    fields = operator.attrgetter("t", *ALLOWED_METRICS)
    series: dict = {metric: {} for metric in ALLOWED_METRICS}
    for policy, recs in by_policy.items():
        ts, *metric_values = (np.array(column, dtype=object) for column in zip(*map(fields, recs)))
        for metric, values in zip(ALLOWED_METRICS, metric_values):
            present = values != None  # noqa: E711 -- elementwise: None marks a missing value
            if present.any():
                series[metric][policy] = _round_statistics(ts[present].astype(np.int64), values[present].astype(float))
    return series


def _round_statistics(ts, values) -> tuple:
    """(rounds, mean, lo, hi) of values grouped by their round ts.

    A stable sort by round keeps each round's values in their given (seed)
    order. Rounds holding the same number of values are reduced together as
    the rows of one C-contiguous matrix, whose row mean is bitwise the
    np.mean of the same values in that order.
    """
    order = np.argsort(ts, kind="stable")
    ts, values = ts[order], values[order]
    starts = np.flatnonzero(np.diff(ts, prepend=ts[0] - 1))
    counts = np.diff(starts, append=len(ts))
    mean, lo, hi = np.empty(len(starts)), np.empty(len(starts)), np.empty(len(starts))
    for count in set(counts.tolist()):  # not np.unique, which imports numpy.ma (~1 MB)
        rounds = np.flatnonzero(counts == count)
        block = values[starts[rounds, None] + np.arange(count)]
        mean[rounds] = block.mean(axis=1)
        lo[rounds] = block.min(axis=1)
        hi[rounds] = block.max(axis=1)
    return ts[starts].astype(float), mean, lo, hi


def write_diagnostics_csv(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DIAGNOSTICS_HEADER)
        for rec in records:
            writer.writerow(
                [rec.t, rec.policy, rec.seed]
                + [_format_value(v) for v in (rec.norm_n1, rec.norm_n2, rec.norm_n3)]
            )
