"""Command-line entry points.

Each command prints the paths it wrote, one per line.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 I/O error.
"""

import argparse
import sys

import numpy as np

from .gradient import gradient_norm_table
from .runner import (
    TABLE_DISTRIBUTIONS,  # noqa: F401 -- the gradient table's distribution names, also read as cli.TABLE_DISTRIBUTIONS
    ConfigError,
    DataFormatError,
    emit_outputs,
    load_run_config,
    parse_table_config,
    read_json_object,
    read_replay_csv,
    run_diagnostics,
    run_replay,
    run_simulation,
    write_csv,
    write_diagnostics_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bandit-lab", description=__doc__)
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", required=True)
    files.add_argument("--out", required=True)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", parents=[files], help="simulate configured policies and write results.csv")
    run.add_argument("--charts", action="store_true", help="also write per-metric SVG charts")
    replay = sub.add_parser("replay", parents=[files], help="score configured policies on a logged dataset")
    replay.add_argument("--data", required=True)
    sub.add_parser("gradtable", parents=[files], help="gradient norms at the closed-form coefficient")
    sub.add_parser("diagnose", parents=[files], help="spectral-norm concentration checkpoints")
    return parser


def _cmd_run(args) -> list:
    cfg = load_run_config(args.config)
    return emit_outputs(run_simulation(cfg), args.out, charts=args.charts)


def _cmd_replay(args) -> list:
    cfg = load_run_config(args.config)
    dataset = read_replay_csv(args.data)
    for key, logged in (("K", dataset.K), ("d", dataset.d), ("T", dataset.rounds)):
        if cfg.env_spec[key] != logged:
            raise ConfigError(f"environment {key!r} = {cfg.env_spec[key]} does not match the replay log's {logged}")
    return emit_outputs(run_replay(dataset, cfg.policies, cfg.seeds), args.out)


def _cmd_gradtable(args) -> list:
    rows = gradient_norm_table(**parse_table_config(read_json_object(args.config)))
    return [write_csv(args.out, ["distribution", "l2_norm"], rows)]


def _cmd_diagnose(args) -> list:
    cfg = load_run_config(args.config)
    records = list(run_diagnostics(cfg))  # a run that fails writes nothing
    return [write_diagnostics_csv(args.out, records)]


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
            paths = _COMMANDS[args.command](args)
        print(*paths, sep="\n", flush=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
