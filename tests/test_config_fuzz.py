"""Property test: a mutated config runs to finite numbers or exits 2, 3 or 4.

Valid run configs (T <= 5, or the log's 6 for replay, d <= 3, K <= 3, at most two seeds, mc_samples
<= 4) and gradient-table configs (feature_samples and mc_noise_samples
always present and at most 4, since their defaults are the full release
table) are generated, and then one value at any depth is mutated. It is
replaced by a bool, null, a number as a string, a list, an object, 0, -1 or
+-1e300, or its key is deleted, or an unknown key is added beside it. A
number or list may instead be nudged within its type: a float scaled by up
to 10%, an integer moved by one, a list permuted. Those documents mostly
stay valid, so the finite-CSV check below runs on more of them. The
CLI runs in-process on the result: `run` and `diagnose` on a run config,
`replay` on a run config whose environment has the shape of a fixed
6-round log with K=3, d=3 (as replay requires) and on that log, `gradtable`
on a table config. It must return 0, 2, 3 or 4 without an exception escaping, and
every number in the CSV it writes must be finite.

The replay log itself is fuzzed too: the text write_replay_csv writes for
the fixed log gets one field set to nan, 1e400, +-1e308, text or nothing,
one row dropped or duplicated, one arm index changed, or one byte that is
not UTF-8 inserted. `replay` on it, with an unmutated run config, must
return 0, 2 or 3 and write finite numbers.

Sizes (K, d, T, seeds, mc_samples, feature_samples, mc_noise_samples) take
no value above 10. A huge size asks for unbounded work, which is not a type
error, and it is not what this test looks for.
"""

import contextlib
import csv
import io
import json
import math
import random
import tempfile
import zlib
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bandit_lab.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, TABLE_DISTRIBUTIONS, main
from bandit_lab.runner import ReplayDataset, write_replay_csv

SIZES = {"K", "d", "T", "seeds", "mc_samples", "feature_samples", "mc_noise_samples"}
KEPT_TABLE_KEYS = {"feature_samples", "mc_noise_samples"}  # deleted, they default to the full table
REPLACEMENTS = [True, False, None, "1", [], [1], {}, {"a": 1}, 0, -1, 1e300, -1e300]
LOG_FIELDS = ["nan", "1e400", "1e308", "-1e308", "text", ""]
REPLAY_LOG = ReplayDataset(
    contexts=np.random.default_rng(0).standard_normal((6, 3, 3)), rewards=np.random.default_rng(1).uniform(size=(6, 3))
)
REPLAY_SHAPE = (REPLAY_LOG.K, REPLAY_LOG.d, REPLAY_LOG.rounds)

FUZZ_SETTINGS = settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def unit(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def families(depth=0):
    scalar = st.one_of(
        st.fixed_dictionaries({"name": st.just("gaussian")}, optional={"mean": unit(-1, 1), "std": unit(0.1, 2)}),
        st.fixed_dictionaries({"name": st.just("uniform"), "low": unit(-2, -0.1), "high": unit(0.1, 2)}),
        st.fixed_dictionaries({"name": st.just("laplace")}, optional={"loc": unit(-1, 1), "scale": unit(0.1, 2)}),
        st.fixed_dictionaries({"name": st.just("exponential")}, optional={"rate": unit(0.5, 2)}),
        st.fixed_dictionaries({"name": st.just("lognormal")}, optional={"mu": unit(-1, 1), "sigma": unit(0.1, 1)}),
    )
    if depth:
        return scalar
    mixture = st.fixed_dictionaries(
        {"name": st.just("mixture"), "weight": unit(0.1, 0.9), "first": families(1), "second": families(1)}
    )
    return st.one_of(scalar, mixture)


def policies(K):
    params = {
        "uniform": {},
        "oracle_tc": {},
        "oracle_cf": {},
        "scripted": {"arms": st.lists(st.integers(0, K - 1), min_size=1, max_size=3)},
        "noisy_linrel": {"alpha_exponent": unit(0.55, 0.95)},
        "greedy": {"tau": st.integers(0, 5)},
        "linucb": {"ucb_alpha": unit(0, 1)},
        "gradient_linrel": {
            "alpha_exponent": unit(0.55, 0.95),
            "step_size": unit(0, 0.1),
            "ucb_coeff": unit(0, 1),
            "mc_samples": st.integers(1, 4),
            "fd_step": unit(1e-3, 0.1),
        },
    }

    def spec(name):
        # scripted needs its arms; every other param is left to its default or not
        required = {"name": st.just(name)}
        optional = {"label": st.just(f"{name}-run")}
        if name == "scripted":
            required["params"] = st.fixed_dictionaries(params[name])
        else:
            optional["params"] = st.fixed_dictionaries({}, optional=params[name])
        return st.fixed_dictionaries(required, optional=optional)

    one = st.sampled_from(sorted(params)).flatmap(lambda name: st.one_of(st.just(name), spec(name)))
    return st.lists(one, min_size=1, max_size=3, unique_by=lambda p: p if isinstance(p, str) else p["name"])


@st.composite
def run_configs(draw, shape=None):
    """A valid run config; its environment's (K, d, T) is ``shape`` when given."""
    K, d, T = shape or (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 5)))
    diag = draw(st.lists(unit(0.1, 1), min_size=d, max_size=d))
    matrix = [[diag[i] if i == j else 0.0 for j in range(d)] for i in range(d)]
    noise = {"mode": draw(st.sampled_from(["per_arm", "identical"])), "covariance": draw(st.sampled_from([{"diag": diag}, matrix]))}
    if draw(st.booleans()):
        noise["truncation_radius"] = draw(unit(3, 10))
    environment = {
        "K": K,
        "d": d,
        "T": T,
        "theta_star": draw(st.one_of(st.just("random"), st.lists(unit(-0.5, 0.5), min_size=d, max_size=d))),
        "feature_distribution": draw(
            st.one_of(
                st.fixed_dictionaries({"kind": st.just("iid"), "family": families()}),
                st.fixed_dictionaries({"kind": st.just("multivariate_gaussian"), "covariance": st.just(matrix)}),
            )
        ),
        "noise": noise,
        "reward_noise_sigma": draw(unit(0, 1)),
    }
    doc = {"environment": environment, "policies": draw(policies(K)), "seeds": draw(st.lists(st.integers(0, 10), min_size=1, max_size=2))}
    if draw(st.booleans()):
        doc["metrics"] = draw(st.lists(st.sampled_from(["cum_regret", "rel_regret", "cos_dist"]), unique=True))
    return doc


@st.composite
def table_configs(draw):
    d = draw(st.integers(1, 3))
    doc = {
        "distributions": draw(st.lists(st.sampled_from(sorted(TABLE_DISTRIBUTIONS)), min_size=1, max_size=3, unique=True)),
        "feature_samples": draw(st.integers(1, 4)),
        "mc_noise_samples": draw(st.integers(1, 4)),
    }
    optional = {
        "theta_star_seed": st.integers(0, 10),
        "K": st.integers(1, 3),
        "d": st.just(d),
        "noise_diag": st.lists(unit(0.1, 1), min_size=d, max_size=d),
        "fd_step": unit(1e-3, 0.1),
    }
    doc.update(draw(st.fixed_dictionaries({}, optional=optional)))
    if "noise_diag" in doc:
        doc["d"] = d
    return doc


def locations(node, path=()):
    """The path of every value below node, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from locations(value, path + (key,))


def nearby(old, size):
    """A value of old's type near it: a list permuted, a float scaled, an integer moved by one."""
    if isinstance(old, list):
        return st.permutations(old)
    if isinstance(old, float):
        return unit(0.9, 1.1).map(lambda factor: old * factor)
    return st.sampled_from([-1, 1]).map(lambda step: old - 1 if size and old + step > 10 else old + step)


@st.composite
def mutated(draw, configs, kept=frozenset()):
    doc = draw(configs)
    # Hypothesis favours small choices, so an index it drew would land on
    # the first location, the top-level key, about half the time. A hash of
    # the drawn document picks each location about equally often.
    paths = list(locations(doc))
    path = paths[zlib.crc32(json.dumps(doc, sort_keys=True).encode()) % len(paths)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    size = next((k for k in reversed(path) if isinstance(k, str)), None) in SIZES
    ops = ["replace", "add"] + ([] if key in kept else ["delete"])
    old = parent[key]
    if isinstance(old, (int, float, list)) and not isinstance(old, bool):
        ops.insert(0, "nudge")  # first, so that Hypothesis picks it most often
    op = draw(st.sampled_from(ops))
    if op == "nudge":
        parent[key] = draw(nearby(old, size))
    elif op == "delete":
        del parent[key]
    elif op == "add" and isinstance(parent, dict):
        parent["unknown_key"] = draw(st.sampled_from(REPLACEMENTS))
    else:
        candidates = REPLACEMENTS + ([str(old)] if isinstance(old, (int, float)) else [])
        if size:
            candidates = [v for v in candidates if not (isinstance(v, (int, float)) and v > 10)]
        parent[key] = draw(st.sampled_from(candidates))
    return doc


def assert_finite_csv(path, text_columns):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        for i, field in enumerate(row):
            if i not in text_columns and field:
                assert math.isfinite(float(field)), (path.name, row)


def run_cli(command, doc, out_name, text_columns, replay_log=None):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / out_name
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if replay_log is not None:
            write_replay_csv(Path(tmp) / "log.csv", replay_log)
            argv += ["--data", str(Path(tmp) / "log.csv")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_IO)
        if code == EXIT_OK:
            assert_finite_csv(out / "results.csv" if out.is_dir() else out, text_columns)


@FUZZ_SETTINGS
@given(mutated(run_configs()))
def test_mutated_run_config_runs_or_exits_with_a_code(doc):
    run_cli("run", doc, "out", {1})


@FUZZ_SETTINGS
@given(mutated(run_configs()))
def test_mutated_diagnose_config_runs_or_exits_with_a_code(doc):
    run_cli("diagnose", doc, "diagnostics.csv", {1})


@FUZZ_SETTINGS
@given(mutated(run_configs(REPLAY_SHAPE)))
def test_mutated_replay_config_runs_or_exits_with_a_code(doc):
    run_cli("replay", doc, "out", {1}, replay_log=REPLAY_LOG)


@FUZZ_SETTINGS
@given(mutated(table_configs(), kept=KEPT_TABLE_KEYS))
def test_mutated_table_config_runs_or_exits_with_a_code(doc):
    run_cli("gradtable", doc, "table.csv", {0})


@st.composite
def replay_cases(draw):
    """A run config, and the bytes of REPLAY_LOG's CSV text with one mutation (see the module docstring)."""
    doc = draw(run_configs(REPLAY_SHAPE))
    with tempfile.TemporaryDirectory() as tmp:
        write_replay_csv(Path(tmp) / "log.csv", REPLAY_LOG)
        lines = (Path(tmp) / "log.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    op = draw(st.sampled_from(["field", "arm", "drop", "duplicate", "byte"]))
    # As in mutated(): a hash of the drawn document picks each row, field and
    # value about equally often, where Hypothesis would favour the first.
    rnd = random.Random(zlib.crc32(json.dumps(doc, sort_keys=True).encode()))
    row = rnd.randrange(1, len(lines))
    fields = lines[row].rstrip("\n").split(",")
    if op == "field":
        fields[rnd.randrange(len(fields))] = rnd.choice(LOG_FIELDS)
    elif op == "arm":
        fields[1] = str(rnd.choice([arm for arm in range(-1, 4) if str(arm) != fields[1]]))
    lines[row] = ",".join(fields) + "\n"
    if op == "drop":
        del lines[row]
    elif op == "duplicate":
        lines.insert(row, lines[row])
    data = "".join(lines).encode("utf-8")
    if op == "byte":
        at = rnd.randrange(len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return doc, data


@FUZZ_SETTINGS
@given(replay_cases())
def test_mutated_replay_log_runs_or_exits_with_a_code(case):
    doc, log = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, data, out = Path(tmp) / "cfg.json", Path(tmp) / "log.csv", Path(tmp) / "out"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        data.write_bytes(log)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["replay", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)
        if code == EXIT_OK:
            assert_finite_csv(out / "results.csv", {1})
