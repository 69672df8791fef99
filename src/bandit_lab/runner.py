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
from array import array
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import env as envmod
from . import policies as polmod
from .gradient import GradientConfig, arm_set_sampler
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
    "parse_table_config",
    "read_json_object",
    "read_records_csv",
    "run_diagnostics",
    "run_replay",
    "run_simulation",
    "write_csv",
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
# Score entries (feature sets x noise draws x K x d) a gradient table may
# evaluate per distribution, and a run's gradient_linrel over all its rounds
# and seeds. perfbench's gradtable workload evaluates about 1100-1300 feature
# sets of 25000 entries a reference second, ~3e7 entries, so this is 8-10
# hours; its sim_gradient workload plays ~740 rounds of 25000, ~1.8e7
# entries, a reference second, so 15 hours of a run.
MAX_TABLE_ENTRIES = 10**12


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


def _object(where: str, value, keys) -> dict:
    """A JSON object holding no key outside keys; a missing key is left to the reader of its value."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}")
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


def parse_family(spec: dict) -> envmod.Family:
    name = _string("name", _object("family", spec, spec).get("name"))  # Family names an unknown parameter itself
    law = envmod.FAMILIES.get(name)
    if law is None:
        raise ConfigError(f"unknown family {name!r}")
    components = law.get("components", ())
    params = {
        key: parse_family(value) if key in components else _number(key, value)
        for key, value in spec.items()
        if key != "name"
    }
    return envmod.Family(name, **params)  # its ValueError names a missing, unknown or out-of-range parameter


def parse_feature_distribution(spec: dict, d: int) -> envmod.FeatureDistribution:
    kind = _string("kind", _object("feature_distribution", spec, spec).get("kind"))
    field = {"multivariate_gaussian": "covariance", "iid": "family"}.get(kind)
    if field is None:
        raise ConfigError(f"unknown feature_distribution kind {kind!r}")
    _object(f"feature_distribution of kind {kind!r}", spec, ("kind", field))
    try:
        if kind == "multivariate_gaussian":
            return envmod.FeatureDistribution.multivariate_gaussian(_numbers("covariance", spec.get("covariance"), (d, d)))
        return envmod.FeatureDistribution.iid(parse_family(spec.get("family")))
    except ValueError as exc:  # a bad covariance or family
        raise ConfigError(f"bad feature_distribution: {exc}") from exc
    except OverflowError as exc:  # a family's mean or variance
        raise ConfigError(f"feature_distribution moments overflow a double: {exc}") from exc


def _parse_covariance(spec, d: int) -> np.ndarray:
    if isinstance(spec, dict):
        return np.diag(_numbers("diag", _object("covariance", spec, ("diag",)).get("diag"), (d,)))
    return _numbers("covariance", spec, (d, d))


def parse_noise_model(spec: dict, d: int) -> envmod.NoiseModel:
    spec = _object("noise", spec, ("mode", "covariance", "truncation_radius"))
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
    """Read a JSON file; its parser checks that it holds an object. NaN, Infinity and overflowing numbers are rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except ValueError as exc:  # malformed JSON, bytes that are not UTF-8, or a non-finite number
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def load_run_config(path) -> RunConfig:
    """Parse a JSON run configuration file, validating its schema."""
    return parse_run_config(read_json_object(path))


def parse_run_config(doc: dict) -> RunConfig:
    doc = _object("run config", doc, ("environment", "policies", "seeds", "metrics"))
    policies = _parse_policy_specs(doc.get("policies"))
    seeds = tuple(_integers("seeds", doc.get("seeds"), minimum=0, maximum=MAX_SEED))
    if not seeds:
        raise ConfigError("config needs a nonempty integer list 'seeds'")
    metrics = _names("metrics", doc.get("metrics", list(ALLOWED_METRICS)), ALLOWED_METRICS, "metric")
    environment_for_seed(doc.get("environment"), seeds[0])  # fail before any round runs
    return RunConfig(env_spec=doc["environment"], policies=policies, seeds=seeds, metrics=tuple(metrics))


# The gradient table's named feature laws: iid family specs, read at d = 1 (they do not depend on d).
TABLE_FAMILIES = {
    "gaussian": {"name": "gaussian", "mean": 0.0, "std": 1.0},
    "uniform": {"name": "uniform", "low": -1.0, "high": 1.0},
    "laplace": {"name": "laplace", "loc": 0.0, "scale": 1.0},
    "exponential": {"name": "exponential", "rate": 1.0},
    "lognormal": {"name": "lognormal", "mu": 0.0, "sigma": 1.0},
    "mixture_gaussian": {"name": "mixture", "weight": 0.3, "first": {"name": "gaussian", "mean": 10.0, "std": 1.0},
                         "second": {"name": "gaussian", "mean": -10.0, "std": 1.0}},
    "mixture_uniform": {"name": "mixture", "weight": 0.3, "first": {"name": "uniform", "low": 9.0, "high": 11.0},
                        "second": {"name": "uniform", "low": -11.0, "high": -9.0}},
}
TABLE_DISTRIBUTIONS = {name: partial(parse_feature_distribution, {"kind": "iid", "family": f}, 1) for name, f in TABLE_FAMILIES.items()}


def parse_table_config(doc: dict) -> dict:
    """gradient.gradient_norm_table's keyword arguments from a gradient-table config, each value read and range-checked."""
    keys = ("distributions", "theta_star_seed", "K", "d", "noise_diag", "feature_samples", "mc_noise_samples", "fd_step")
    doc = _object("gradient-table config", doc, keys)
    names = _names("distributions", doc.get("distributions", list(TABLE_DISTRIBUTIONS)), TABLE_DISTRIBUTIONS, "distribution")
    k_arms, d = _dimensions(doc.get("K", 5), doc.get("d", 10))
    noise_var = _numbers("noise_diag", doc.get("noise_diag", [0.1 * (i + 1) for i in range(d)]), (d,))
    if not np.all(noise_var > 0):
        raise ConfigError(f"noise_diag must hold d={d} positive numbers, got {noise_var.tolist()!r}")
    mc_noise_samples = _integer("mc_noise_samples", doc.get("mc_noise_samples", 1000), minimum=1)
    feature_samples = _integer("feature_samples", doc.get("feature_samples", 10_000), minimum=1)
    entries = feature_samples * mc_noise_samples * k_arms * d
    if entries > MAX_TABLE_ENTRIES:
        raise ConfigError(f"'feature_samples' = {feature_samples} feature sets x 'mc_noise_samples' = {mc_noise_samples} draws x {k_arms} arms "
                          f"x d = {d} make {entries} score entries per distribution, more than the {MAX_TABLE_ENTRIES} a table may take")
    fd_step = _number("fd_step", doc.get("fd_step", 1e-2))
    try:
        cfg = GradientConfig(mc_noise_samples, fd_step, feature_samples)
    except ValueError as exc:  # the counts were read as at least 1, so fd_step
        raise ConfigError(str(exc)) from exc
    return dict(
        distributions=[(name, TABLE_DISTRIBUTIONS[name]()) for name in names],
        theta_star_seed=_integer("theta_star_seed", doc.get("theta_star_seed", 0), minimum=0, maximum=MAX_SEED),
        noise_cov=np.diag(noise_var),
        cfg=cfg,
        k_arms=k_arms,
    )


def _parse_policy_specs(raw) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config needs a nonempty 'policies' list")
    specs = []
    for item in raw:
        item = _object("policy spec", {"name": item} if isinstance(item, str) else item, ("name", "params", "label"))
        name = _string("name", item.get("name"))
        entry = POLICIES.get(name)
        if entry is None:
            raise ConfigError(f"unknown policy {name!r}")
        readers = entry.get("params", {})
        params = _object(f"params of policy {name!r}", item.get("params", {}), readers)
        params = {key: readers[key](key, value) for key, value in params.items()}
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
    env_spec = _object("environment", env_spec, ("K", "d", "T", "reward_noise_sigma", "feature_distribution", "noise", "theta_star"))
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
    seeds: int = 1  # the run's seeds, each played for T rounds


def _build_scripted(ctx: PolicyContext, p: dict) -> polmod.ScriptedPolicy:
    policy = polmod.ScriptedPolicy(**p)
    out_of_range = [arm for arm in policy.arms if not 0 <= arm < ctx.K]
    if out_of_range:
        raise ConfigError(f"scripted arms {out_of_range} out of range 0..{ctx.K - 1}")
    return policy


def _build_gradient_linrel(ctx: PolicyContext, p: dict) -> polmod.RegretGradientLinRel:
    feature_sampler = None if ctx.feature_dist is None else arm_set_sampler(ctx.feature_dist, ctx.K, ctx.d)
    policy = polmod.RegretGradientLinRel(ctx.d, ctx.noise_cov, ctx.rng, feature_sampler=feature_sampler, **p)
    draws = policy.feature_sets * policy.grad_cfg.mc_noise_samples  # a round's draws over its feature sets: mc_samples
    entries = ctx.T * ctx.seeds * draws * ctx.K * ctx.d
    rounds = f"the replay log's {ctx.T} rounds" if ctx.feature_dist is None else f"'T' = {ctx.T} rounds"  # no config holds a log's count
    if entries > MAX_TABLE_ENTRIES:
        raise ConfigError(f"{rounds} x {ctx.seeds} seeds x 'mc_samples' = {draws} draws x {ctx.K} arms x d = {ctx.d} "
                          f"make {entries} score entries, more than the {MAX_TABLE_ENTRIES} a run may take")
    return policy


# Each policy's entry: ``build(ctx, params)``; ``params``, the keywords it
# passes to its policy's constructor (which holds their defaults), each with
# the reader of its JSON type, parsing rejecting any other key; ``hidden``,
# set when it plays a hidden quantity and so needs a simulated environment;
# and ``noise``, the check that a replay log's noise covariance must pass.
POLICIES = {
    "uniform": dict(build=lambda ctx, p: polmod.UniformRandom()),
    "scripted": dict(build=_build_scripted, params={"arms": _integers}),
    "noisy_linrel": dict(
        build=lambda ctx, p: polmod.NoisyLinRel(ctx.d, ctx.noise_cov, **p),
        params={"alpha_exponent": _number},
        noise=sym_matrix,  # finite; a constant column's zero variance is usable
    ),
    "greedy": dict(build=lambda ctx, p: polmod.ExploreThenCommitGreedy(ctx.d, ctx.T, **p), params={"tau": _integer}),
    "linucb": dict(build=lambda ctx, p: polmod.LinUCB(ctx.d, **p), params={"ucb_alpha": _number}),
    "gradient_linrel": dict(
        build=_build_gradient_linrel,
        params={"alpha_exponent": _number, "step_size": _number, "ucb_coeff": _number, "mc_samples": _integer, "fd_step": _number},
        noise=gaussian_sampler,  # also positive-definite, to draw from
    ),
    "oracle_tc": dict(build=lambda ctx, p: polmod.FixedCoefficient(ctx.theta_star, name="oracle_tc"), hidden=True),
    "oracle_cf": dict(
        build=lambda ctx, p: polmod.FixedCoefficient(
            polmod.bayes_optimal_theta(ctx.feature_dist.covariance_matrix(ctx.d), ctx.noise_cov, ctx.theta_star), name="oracle_cf"
        ),
        hidden=True,
    ),
}


def build_policy(spec: PolicySpec, ctx: PolicyContext) -> polmod.Policy:
    entry = POLICIES.get(spec.name)
    if entry is None:
        raise ConfigError(f"unknown policy {spec.name!r}")
    if entry.get("hidden") and (ctx.theta_star is None or ctx.feature_dist is None):
        raise ConfigError(f"policy {spec.name!r} needs a simulated environment")
    if "noise" in entry:
        try:  # a configured noise covariance was checked when parsed, so only a replay log's can fail
            entry["noise"](ctx.noise_cov)
        except ValueError as exc:
            raise ConfigError(f"policy {spec.name!r} cannot use the replay log's noise covariance: {exc}") from exc
    try:
        return entry["build"](ctx, dict(spec.params))
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
    if norm_t == 0.0 or norm_r == 0.0 or (not math.isfinite(norm_t) and not np.isfinite(theta).all()):
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

    Per-round code here, in the callers and in the policies calls array methods
    (``a.argmax()``) and ufunc reductions, not numpy's wrappers (``np.argmax(a)``),
    and keeps Python floats, not numpy scalars: at K=5, d=10 those cost more than the arithmetic.
    """
    players = []
    for spec in specs:
        policy_rng = envmod.keyed_rng(seed, 0, envmod.LANE_POLICY)
        players.append((build_policy(spec, PolicyContext(rng=policy_rng, **ctx_fields)), policy_rng))
    for t, x, info in rounds:
        for i, (policy, policy_rng) in enumerate(players):
            try:
                arm = policy.select(t, x, policy_rng)
                y = payoff(info, arm)
                if not math.isfinite(y):
                    raise ValueError(f"reward {y!r} is not finite")
                policy.observe(t, arm, x[arm], y)
            except ValueError as exc:  # e.g. running sums that overflowed a double
                raise ConfigError(f"policy {specs[i].label!r} stopped at round {t} of seed {seed}: {exc}") from exc
            yield i, policy, info, arm, y


def _play_environment(specs, seed: int, environment: envmod.EnvironmentConfig, seeds: int):
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
        seeds=seeds,
    )
    contexts = (envmod.sample_round(environment, t) for t in range(1, environment.T + 1))
    rounds = ((c.t, c.x, (c, envmod.reward_noise(environment, c.t))) for c in contexts)
    return _play(specs, seed, ctx_fields, rounds, lambda info, arm: envmod.reward(environment, info[0], arm, noise=info[1]))


def _records_in_output_order(specs, seeds, rounds: int, rounds_named: str, steps):
    """RunRecords in (policy, seed, t) order from runs that step each seed's policies together.

    ``steps(seed)`` yields (i, t, arm, reward, inst_regret, rel_regret,
    cos_dist) for policy i in round t = 1..rounds. Each row becomes a
    RunRecord when it is made: the first policy's are yielded at once, each
    later policy's are held in its list until the last seed is done. Before
    round 1, a run whose records could not fit in physical memory is a
    ConfigError that names the rounds as ``rounds_named`` does.
    """
    rows = rounds * len(seeds) * len(specs)
    _fit_in_memory(rows * RECORD_BYTES, f"{rounds_named} x {len(seeds)} seeds x {len(specs)} policies make {rows} result rows")
    held = [[] for _ in specs[1:]]
    for seed in seeds:
        cum = [0.0] * len(specs)
        for i, t, arm, y, inst, rel, cos in steps(seed):
            cum[i] += inst
            if not (math.isfinite(cum[i]) and (rel is None or math.isfinite(rel))):  # a finite cum_regret holds a finite inst_regret
                raise ConfigError(f"policy {specs[i].label!r} stopped at round {t} of seed {seed}: regret is not finite "
                                  f"(inst_regret {inst!r}, cum_regret {cum[i]!r}, rel_regret {rel!r})")
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
        for i, policy, (round_ctx, _), arm, y in _play_environment(cfg.policies, seed, environment, len(cfg.seeds)):
            if i == 0:  # the first turn of a round
                values = round_ctx.z @ theta_star
                best = float(values.max())  # numpy's max, so a NaN value reaches the finiteness check
                values = values.tolist()  # each row's regrets in Python floats, cheaper than numpy scalars (see _play)
                bar_value = values[envmod.bar_theta_arm(round_ctx, theta_bar)] if want_rel else None
            value = values[arm]
            rel = bar_value - value if want_rel else None
            cos = _cosine_distance(policy.current_theta(), theta_star, theta_star_norm) if want_cos else None
            yield i, round_ctx.t, arm, y, best - value, rel, cos

    T = int(cfg.env_spec["T"])
    yield from _records_in_output_order(cfg.policies, cfg.seeds, T, f"'T' = {T} rounds", steps)


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


def _read_csv(path, header_ok, read_row):
    """Yield (read_row(row), line number) for each non-blank data row of a UTF-8 CSV file, as the file is read.

    Every row must hold as many fields as the header, which header_ok
    accepts. A fault of the file, its header, a row's field count or a
    row's values (read_row's ValueError) raises DataFormatError naming the
    file and, where it is known, the line, when the reader reaches it.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: empty file (line 1)")
            if not header_ok(header):
                raise DataFormatError(f"{path}: bad header (line 1): {','.join(header)}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataFormatError(f"{path}: expected {len(header)} fields, got {len(row)} (line {lineno})")
                try:
                    value = read_row(row)
                except ValueError as exc:
                    raise DataFormatError(f"{path}: {exc} (line {lineno})") from exc
                yield value, lineno
        except UnicodeDecodeError as exc:  # the text is decoded a block at a time, so the line is not known
            raise DataFormatError(f"{path}: {exc}") from exc
        except csv.Error as exc:  # e.g. a field beyond csv's size limit
            raise DataFormatError(f"{path}: {exc} (line {reader.line_num})") from exc


def _is_replay_header(header) -> bool:
    d = len(header) - 3
    return d >= 1 and header[:2] == ["round", "arm_index"] and header[-1] == "reward" and header[2:-1] == [f"context_{i}" for i in range(d)]


def _round_arms(path, rid, arms: int, k_arms: int) -> int:
    """The log's arms per round once round rid has ended with arms rows: the first round's count, which every later round must match."""
    if k_arms and arms != k_arms:
        raise DataFormatError(f"{path}: round {rid} has {arms} arms, expected {k_arms}")
    return arms


def read_replay_csv(path) -> ReplayDataset:
    """Parse the replay CSV format.

    Header: round,arm_index,context_0..context_{d-1},reward with K
    consecutive rows per round id and arm_index counting 0..K-1. The rows
    are checked as they are read, and their numbers go straight into two
    float64 buffers that become the dataset's arrays, so reading holds
    little more than the table itself. Malformed rows raise
    DataFormatError with the offending line number.
    """
    contexts, rewards = array("d"), array("d")
    rid, arms, k_arms = None, 0, 0  # the current round's id and rows so far; arms per round, 0 until the first round ends
    rows = _read_csv(path, _is_replay_header, lambda row: (int(row[0]), int(row[1]), [_finite_number(v) for v in row[2:]]))
    for (row_rid, arm, values), lineno in rows:
        if row_rid != rid:
            k_arms = _round_arms(path, rid, arms, k_arms)
            rid, arms = row_rid, 0
        if arm != arms:
            raise DataFormatError(f"{path}: expected arm_index {arms} for round {rid} (line {lineno})")
        arms += 1
        rewards.append(values.pop())
        contexts.extend(values)
    if rid is None:
        raise DataFormatError(f"{path}: no data rows (line 2)")
    k_arms = _round_arms(path, rid, arms, k_arms)
    d = len(contexts) // len(rewards)
    return ReplayDataset(contexts=np.frombuffer(contexts).reshape(-1, k_arms, d), rewards=np.frombuffer(rewards).reshape(-1, k_arms))


def write_replay_csv(path, dataset: ReplayDataset) -> Path:
    header = ["round", "arm_index"] + [f"context_{i}" for i in range(dataset.d)] + ["reward"]
    rows = ([rid, arm, *dataset.contexts[rid, arm], dataset.rewards[rid, arm]] for rid, arm in np.ndindex(dataset.rewards.shape))
    return write_csv(path, header, rows)


def run_replay(dataset: ReplayDataset, policy_specs, seeds):
    """Score policies against a full-information log.

    Policies see only the K contexts per round and the reward of the arm
    they pick; regret is measured against the per-round maximum reward.
    """
    specs = tuple(policy_specs)
    ctx_fields = dict(d=dataset.d, K=dataset.K, T=dataset.rounds, noise_cov=dataset.noise_covariance(), seeds=len(seeds))
    row_best = dataset.rewards.max(axis=1).tolist()

    def steps(seed):
        rounds = ((idx + 1, x, idx) for idx, x in enumerate(dataset.contexts))
        # rewards.item(idx, arm) is the logged reward as a Python float
        for i, _, idx, arm, y in _play(specs, seed, ctx_fields, rounds, dataset.rewards.item):
            yield i, idx + 1, arm, y, row_best[idx] - y, None, None

    yield from _records_in_output_order(specs, seeds, dataset.rounds, f"the replay log's {dataset.rounds} rounds", steps)


# ---------------------------------------------------------------------------
# Concentration diagnostics
# ---------------------------------------------------------------------------


def run_diagnostics(cfg: RunConfig):
    """Track the three noise-interaction running sums alongside a policy.

    N1 accumulates hidden-feature/noise outer products, N2 the noise
    covariance residual, N3 the reward-noise-weighted observed features.
    Spectral norms are logged at geometric checkpoints t in {1, 2, 4, ...}.
    Needs hidden features and a shared per-round noise draw, so it runs only
    on identical-noise simulated environments, and exactly one policy.
    """
    if len(cfg.policies) != 1:
        raise ConfigError(f"diagnostics track exactly one policy, but 'policies' names {len(cfg.policies)}")
    spec = cfg.policies[0]
    for seed in cfg.seeds:
        environment = environment_for_seed(cfg.env_spec, seed)
        if environment.noise.mode != "identical":
            raise ConfigError("diagnostics require identical-noise environments")
        noise_cov = environment.noise.covariance
        theta_star = environment.theta_star
        d = environment.d
        sums = np.zeros(2 * d * d + d)  # n1, n2 and n3 in one buffer, so one pass checks them all
        n1, n2, n3 = sums[: d * d].reshape(d, d), sums[d * d : 2 * d * d].reshape(d, d), sums[2 * d * d :]
        checkpoint = 1
        for _, _, (round_ctx, _), arm, y in _play_environment((spec,), seed, environment, len(cfg.seeds)):
            eps = round_ctx.eps[0]
            n1 += round_ctx.z[arm][:, None] * eps  # np.outer's product without its wrapper
            n2 += eps[:, None] * eps - noise_cov
            n3 += round_ctx.x[arm] * (y - float(round_ctx.z[arm] @ theta_star))
            # Checked every round: a sum left infinite could turn NaN, with a RuntimeWarning, in the next.
            if not np.isfinite(sums).all():
                raise ConfigError(f"policy {spec.label!r} stopped at round {round_ctx.t} of seed {seed}: the diagnostic sums are not finite")
            if round_ctx.t == checkpoint:
                checkpoint *= 2
                norms = (spectral_norm(n1), spectral_norm(n2), math.sqrt(n3.dot(n3)))  # np.linalg.norm(n3)'s arithmetic
                if not all(map(math.isfinite, norms)):
                    raise ConfigError(f"policy {spec.label!r} stopped at round {round_ctx.t} of seed {seed}: norms {norms} are not finite")
                yield DiagnosticsRecord(round_ctx.t, spec.label, seed, *norms)


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


def write_csv(path, header, rows) -> Path:
    """Write header and rows as CSV at path, creating its directory: strings as they are, other values by _format_value."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else _format_value(v) for v in row] for row in rows)
    return path


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


def _read_record(row) -> RunRecord:
    optional = [float(v) if v else None for v in row[7:]]
    return RunRecord(int(row[0]), row[1], int(row[2]), int(row[3]), float(row[4]), float(row[5]), float(row[6]), *optional)


def read_records_csv(path) -> list[RunRecord]:
    """Inverse of write_records_csv; empty fields come back as None. A malformed file raises DataFormatError naming its line."""
    rows = _read_csv(path, lambda header: header == RESULTS_HEADER, _read_record)
    return [record for record, _ in rows]


def emit_outputs(records, output_dir, charts: bool = False) -> list:
    """Write results.csv (and optional SVG charts) under output_dir.

    Returns the list of written paths. Chart series are seed-averaged per
    policy with a min/max band across seeds. If any write fails, the files
    this call created are removed again; files that were there before stay.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to emit")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    existed = set(out.iterdir())
    written = []  # each path is listed before its file is written, so a failed write's new file is removed too
    try:
        written.append(out / "results.csv")
        write_records_csv(written[-1], records)
        if charts:
            from .charts import write_line_chart_svg

            for metric, series in _chart_series(records).items():
                if series:
                    written.append(out / f"chart_{metric}.svg")
                    write_line_chart_svg(written[-1], title=metric, series=series)
    except BaseException:
        for path in set(written) - existed:
            path.unlink(missing_ok=True)
        raise
    return written


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


def write_diagnostics_csv(path, records) -> Path:
    return write_csv(path, DIAGNOSTICS_HEADER, map(operator.attrgetter(*DIAGNOSTICS_HEADER), records))
