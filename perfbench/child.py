"""One workload instance in a fresh, single-threaded Python process.

    python3 perfbench/child.py <workload> <input-dir> <out-dir> [--trace]
    python3 perfbench/child.py --facts

Calls bandit_lab's public functions in the order of the matching CLI
subcommands (config loading, round loop or gradient table, CSV/SVG
writers) and writes ``report.json`` into the output directory: monotonic
clock stamps at the end of setup, of the main loop and of output writing,
items completed (in all, and after the setup stamp) and the process's peak
RSS. Without ``--trace`` it samples the core's speed on a timer from
before the program is imported (see speed.py) and reports, per phase, the
speed factor and the time the sampling took; with ``--trace`` it samples
nothing and writes the layer spans instead (see tracer.py).
``--facts`` prints the machine facts as JSON and exits; the harness runs it
once per run, which also warms the bytecode cache before any timed
instance.

Setup ends when the first item is complete: the first simulated or replayed
round (after the first environment and policy are built), or, for the
gradient table, the call into ``gradient_norm_table``.
"""

import csv
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _sim(inputs: Path, out: Path, mark, charts: bool) -> tuple:
    from bandit_lab import runner

    cfg = runner.load_run_config(inputs / "run.json")
    records = runner.run_simulation(cfg)
    first = [next(records)]
    mark("setup")
    first.extend(records)
    mark("loop")
    runner.emit_outputs(first, out, charts=charts)
    return len(first), len(first) - 1


def sim_linear(inputs: Path, out: Path, mark) -> tuple:
    return _sim(inputs, out, mark, charts=True)


def sim_gradient(inputs: Path, out: Path, mark) -> tuple:
    return _sim(inputs, out, mark, charts=False)


def gradtable(inputs: Path, out: Path, mark) -> tuple:
    """The body of ``bandit-lab gradtable`` for a config that sets every key."""
    import numpy as np

    from bandit_lab import cli, gradient

    doc = json.loads((inputs / "table.json").read_text(encoding="utf-8"))
    distributions = [(name, cli.TABLE_DISTRIBUTIONS[name]()) for name in doc["distributions"]]
    cfg = gradient.GradientConfig(
        mc_noise_samples=int(doc["mc_noise_samples"]),
        fd_step=float(doc["fd_step"]),
        feature_samples=int(doc["feature_samples"]),
    )
    mark("setup")
    rows = gradient.gradient_norm_table(
        distributions,
        theta_star_seed=int(doc["theta_star_seed"]),
        noise_cov=np.diag(np.asarray(doc["noise_diag"], dtype=float)),
        cfg=cfg,
        k_arms=int(doc["K"]),
    )
    mark("loop")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "gradtable.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["distribution", "l2_norm"])
        for label, norm in rows:
            writer.writerow([label, repr(norm)])
    items = len(rows) * cfg.feature_samples
    return items, items


def replay_diag(inputs: Path, out: Path, mark) -> tuple:
    """``bandit-lab replay`` then ``bandit-lab diagnose``, configs parsed up front."""
    from bandit_lab import runner

    cfg = runner.load_run_config(inputs / "replay.json")
    dataset = runner.read_replay_csv(inputs / "log.csv")
    diag_cfg = runner.load_run_config(inputs / "diag.json")
    records = runner.run_replay(dataset, cfg.policies, cfg.seeds)
    replayed = [next(records)]
    mark("setup")
    replayed.extend(records)
    diagnostics = list(runner.run_diagnostics(diag_cfg))
    mark("loop")
    runner.emit_outputs(replayed, out)
    runner.write_diagnostics_csv(out / "diagnostics.csv", diagnostics)
    items = len(replayed) + int(diag_cfg.env_spec["T"]) * len(diag_cfg.seeds)
    return items, items - 1


WORKLOADS = {f.__name__: f for f in (sim_linear, sim_gradient, gradtable, replay_diag)}


def _blas() -> dict:
    """Name, configuration and thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy as np

    info = {"name": "unknown", "config": "", "threads": None}
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    info["name"] = deps.get("blas", {}).get("name", "unknown")
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if getter is None:
                continue
            getter.restype = ctypes.c_int
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if config is not None:
                config.restype = ctypes.c_char_p
                info["config"] = config().decode()
            info["threads"] = getter()
            return info
    return info


def facts() -> dict:
    import numpy as np

    import bandit_lab.cli  # noqa: F401  (warms the bytecode cache)

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }


def main(argv: list) -> int:
    if argv == ["--facts"]:
        print(json.dumps(facts()))
        return 0
    name, inputs, out = argv[0], Path(argv[1]), Path(argv[2])
    traced = "--trace" in argv[3:]
    sampler = None
    if not traced:
        from speed import Sampler

        sampler = Sampler()
        sampler.start("setup")

    import bandit_lab.cli  # noqa: F401  (the CLI entry point imports this much)

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stamps = {}
    next_phase = {"setup": "loop", "loop": "outputs"}

    def mark(key: str) -> None:
        stamps[key] = time.monotonic()
        if sampler is not None and key in next_phase:
            sampler.enter(next_phase[key])

    items, loop_items = WORKLOADS[name](inputs, out, mark)
    mark("outputs")
    speed = sampler.stop() if sampler is not None else None
    if tracer is not None:
        tracer.dump(out)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {"items": items, "loop_items": loop_items, "stamps": stamps, "maxrss_kb": usage.ru_maxrss, "speed": speed}
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
