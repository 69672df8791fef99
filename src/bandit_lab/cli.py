"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 I/O error.
"""

import argparse
import csv
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .gradient import GradientConfig, gradient_norm_table
from .runner import (
    MAX_SEED,
    ConfigError,
    DataFormatError,
    _dimensions,
    _integer,
    _names,
    _number,
    _numbers,
    emit_outputs,
    load_run_config,
    parse_feature_distribution,
    read_json_object,
    read_replay_csv,
    run_diagnostics,
    run_replay,
    run_simulation,
    write_diagnostics_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4

# The gradient table's named feature laws: iid family specs of the run config, read at d = 1 (they do not depend on d).
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bandit-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate configured policies and write results.csv")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--charts", action="store_true", help="also write per-metric SVG charts")

    replay = sub.add_parser("replay", help="score configured policies on a logged dataset")
    replay.add_argument("--data", required=True)
    replay.add_argument("--config", required=True)
    replay.add_argument("--out", required=True)

    grad = sub.add_parser("gradtable", help="gradient norms at the closed-form coefficient")
    grad.add_argument("--config", required=True)
    grad.add_argument("--out", required=True)

    diag = sub.add_parser("diagnose", help="spectral-norm concentration checkpoints")
    diag.add_argument("--config", required=True)
    diag.add_argument("--out", required=True)
    return parser


def _cmd_run(args) -> int:
    cfg = load_run_config(args.config)
    paths = emit_outputs(run_simulation(cfg), args.out, charts=args.charts)
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_replay(args) -> int:
    cfg = load_run_config(args.config)
    dataset = read_replay_csv(args.data)
    records = run_replay(dataset, cfg.policies, cfg.seeds)
    for path in emit_outputs(records, args.out):
        print(path)
    return EXIT_OK


def _cmd_gradtable(args) -> int:
    doc = read_json_object(args.config)
    names = _names("distributions", doc.get("distributions", list(TABLE_DISTRIBUTIONS)), TABLE_DISTRIBUTIONS, "distribution")
    distributions = [(name, TABLE_DISTRIBUTIONS[name]()) for name in names]
    k_arms, d = _dimensions(doc.get("K", 5), doc.get("d", 10))
    noise_var = _numbers("noise_diag", doc.get("noise_diag", [0.1 * (i + 1) for i in range(d)]), (d,))
    if not np.all(noise_var > 0):
        raise ConfigError(f"noise_diag must hold d={d} positive numbers, got {noise_var.tolist()!r}")
    mc_noise_samples = _integer("mc_noise_samples", doc.get("mc_noise_samples", 1000), minimum=1)
    feature_samples = _integer("feature_samples", doc.get("feature_samples", 10_000), minimum=1)
    fd_step = _number("fd_step", doc.get("fd_step", 1e-2))
    if not fd_step > 0:
        raise ConfigError(f"'fd_step' must be positive, got {fd_step!r}")
    rows = gradient_norm_table(
        distributions,
        theta_star_seed=_integer("theta_star_seed", doc.get("theta_star_seed", 0), minimum=0, maximum=MAX_SEED),
        noise_cov=np.diag(noise_var),
        cfg=GradientConfig(mc_noise_samples, fd_step, feature_samples),
        k_arms=k_arms,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["distribution", "l2_norm"])
        for label, norm in rows:
            writer.writerow([label, repr(norm)])
    print(out)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    cfg = load_run_config(args.config)
    records = list(run_diagnostics(cfg))  # a run that fails writes nothing
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_diagnostics_csv(out, records)
    print(out)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "replay": _cmd_replay,
    "gradtable": _cmd_gradtable,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Overflowing sums surface as non-finite values, which the run checks
        # and reports with exit 2; numpy's overflow warnings would only
        # precede that message on stderr.
        with np.errstate(over="ignore"):
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
