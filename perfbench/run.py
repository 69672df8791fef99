"""bandit-lab benchmark harness.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs fresh workload
processes (child.py) one after another for S seconds, at least one, each
under a wall-clock limit. Every instance's outputs are checked against
the workload invariants, and at the default seed against the recorded
SHA-256 digests. With ``--trace 0`` it reports the median over the run's
instances of each end-to-end metric, its times in reference seconds (see
speed.py); with ``--trace 1`` it alternates untraced and traced instances
and reports the medians of the per-layer metrics over the traced ones. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
from workloads import DEFAULT_SEED, WORKLOADS, check_outputs, operations, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
DIGESTS = HERE / "digests.json"

INSTANCE_TIMEOUT_S = 60.0
# (name, unit). A run reports each metric's median over its untraced
# instances. Times are in reference seconds, which other tenants of the host
# do not stretch the way they stretch wall seconds (see speed.py and
# README.md, "Reference seconds").
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("items_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    # One BLAS thread: the process then runs on one core, the core whose
    # speed the sampler measures.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def machine_facts() -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--facts"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=INSTANCE_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_instance(w, seed: int, work: Path, traced: bool, checked: dict) -> dict:
    """Run one workload process and check its outputs.

    ``checked`` caches invariant results by output digests, since every
    instance of a run writes the same bytes when the program is
    deterministic.
    """
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), w.name, str(work / "inputs"), str(out)]
    if traced:
        cmd.append("--trace")
    cpu_before = _cpu_children()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        n = operations(w)
        return {"traced": traced, "attempted": n, "failed": n, "problems": [f"timed out after {INSTANCE_TIMEOUT_S:.0f} s"]}
    exited = time.monotonic()
    cpu_s = _cpu_children() - cpu_before
    report_path = out / "report.json"
    if proc.returncode != 0 or not report_path.is_file():
        n = operations(w)
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"traced": traced, "attempted": n, "failed": n, "problems": [f"exit code {proc.returncode}", *tail]}
    report = json.loads(report_path.read_text(encoding="utf-8"))
    digests = {name: _sha256(out / name) for name in w.outputs if (out / name).is_file()}
    key = tuple(sorted(digests.items()))
    if key not in checked:
        checked[key] = check_outputs(w, seed, out)
    attempted, failed, problems = checked[key]
    stamps = report["stamps"]
    inst = {
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "raw_wall_s": exited - spawned,
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
    }
    if traced:
        inst["trace"] = tracer.summarize(out)
        return inst
    phases = report["speed"]
    setup_s = speed.calibrated(stamps["setup"] - spawned, phases["setup"])
    loop_s = speed.calibrated(stamps["loop"] - stamps["setup"], phases["loop"])
    outputs_s = speed.calibrated(exited - stamps["loop"], phases["outputs"])
    inst.update(
        raw_wall_s=inst["raw_wall_s"] - phases["all"]["handler_s"],
        raw_items_per_s=report["loop_items"] / (stamps["loop"] - stamps["setup"] - phases["loop"]["handler_s"]),
        speed_factor=phases["all"]["factor"],
        setup_s=setup_s,
        wall_s=setup_s + loop_s + outputs_s,
        items_per_s=report["loop_items"] / loop_s,
        items_per_cpu_s=report["items"] / speed.calibrated(cpu_s, phases["all"]),
    )
    return inst


def spread(values: list) -> float:
    """Interquartile range as a share of the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def _digest_report(w, seed: int, instances: list) -> list:
    """Lines saying whether each output matches its recorded digest."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(w.name, {}) if DIGESTS.is_file() else {}
    if seed != DEFAULT_SEED or not recorded:
        return [f"  output digests: none recorded for seed {seed} (checked invariants only)"]
    lines = []
    for name in w.outputs:
        match = {inst["digests"].get(name) for inst in instances} == {recorded.get(name)}
        lines.append(f"  output {name}: {'matches' if match else 'DOES NOT MATCH'} recorded digest")
    return lines


def layer_metrics(w, traced: list, untraced: list) -> tuple:
    """Median per-layer metrics over traced instances, and trace-check problems."""
    summaries = [inst["trace"] for inst in traced]
    problems = []
    for inst in traced:
        s = inst["trace"]
        total_self = sum(b["self_s"] for b in s["boundaries"].values())
        glue = inst["raw_wall_s"] - s["top_s"]
        if abs(total_self - s["top_s"]) > 1e-6 + 1e-9 * s["top_s"] or glue < 0.0:
            problems.append(f"trace accounting: self {total_self:.6f} s + glue {glue:.6f} s != wall {inst['raw_wall_s']:.6f} s")
    metrics = {}
    for name, unit in tracer.per_layer_metric_names():
        boundary, _, stat = name.rpartition(".")
        if name in tracer.COUNTERS:
            values = [s["counters"][name] for s in summaries]
        elif name == "gradient.skipped_step_ratio":
            values = [s["skipped_step_ratio"] for s in summaries]
        elif name == "trace.overhead_s":
            values = [statistics.median(i["raw_wall_s"] for i in traced) - statistics.median(i["raw_wall_s"] for i in untraced)]
        else:
            values = [s["boundaries"].get(boundary, {}).get(stat, 0) for s in summaries]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    for boundary in w.must_hit:
        if metrics[f"{boundary}.calls"]["value"] == 0:
            problems.append(f"TRACE ERROR: boundary {boundary} reports 0 calls; its wrapper missed the call site")
    return metrics, problems


def _print_layer_table(traced: list) -> None:
    s = traced[len(traced) // 2]["trace"]
    wall = traced[len(traced) // 2]["raw_wall_s"]
    print(f"  per-layer table ({len(traced)} traced instance(s); one shown, traced wall {wall:.3f} s)")
    print(f"  {'boundary':40s} {'calls':>8s} {'self_s':>9s} {'self%':>6s} {'us_p50':>9s} {'us_p99':>9s}")
    rows = sorted(s["boundaries"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, b in rows:
        print(
            f"  {name:40s} {b['calls']:8d} {b['self_s']:9.4f} {100 * b['self_s'] / wall:5.1f}% "
            f"{b['us_p50']:9.1f} {b['us_p99']:9.1f}"
        )
    glue = wall - s["top_s"]
    print(f"  {'(glue: interpreter, imports, harness code)':40s} {'':8s} {glue:9.4f} {100 * glue / wall:5.1f}%")
    for name, value in s["counters"].items():
        print(f"  {name:48s} {value}")
    print(f"  gradient.skipped_step_ratio {s['skipped_step_ratio']}")


def bench(w, seed: int, seconds: float, trace: bool) -> dict:
    work = RUNS / f"{w.name}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(work, ignore_errors=True)
    write_inputs(w, seed, work / "inputs")
    facts = machine_facts()
    blas = facts["blas"]
    print(
        f"== {w.name} seed={seed} seconds={seconds} trace={int(trace)} | nproc {facts['nproc']}, "
        f"{facts['cpu_model']}, Python {facts['python']}, numpy {facts['numpy']}, "
        f"BLAS {blas['name']} ({blas['config']}) threads {blas['threads']}"
    )
    if blas["threads"] is not None and blas["threads"] > facts["nproc"]:
        print(f"  warning: BLAS uses {blas['threads']} threads on {facts['nproc']} cores")
    checked: dict = {}
    instances = []
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(instances) % 2 == 1
        instances.append(run_instance(w, seed, work, traced, checked))
        if time.monotonic() >= deadline and (not trace or len(instances) >= 2):
            break
    attempted = sum(i["attempted"] for i in instances)
    failed = sum(i["failed"] for i in instances)
    problems = sorted({p for i in instances for p in i["problems"]})
    ok = [i for i in instances if "raw_wall_s" in i]
    untraced = [i for i in ok if not i["traced"]]
    traced = [i for i in ok if i["traced"]]
    print(f"  {len(instances)} instance(s), {attempted} operations attempted, {failed} failed, error_rate {failed / attempted:.4f}")
    print("\n".join(_digest_report(w, seed, ok)))
    for name, unit in END_TO_END:
        values = [i[name] for i in untraced]
        if values:
            print(f"  {name:16s} {statistics.median(values):12.6g} {unit:4s} median of {len(values)} (spread {spread(values):.3f})")
    for name, unit in (("raw_wall_s", "s"), ("raw_items_per_s", "1/s"), ("speed_factor", "ref s per s")):
        values = [i[name] for i in untraced]
        if values:
            print(f"  {name:16s} {statistics.median(values):12.6g} {unit:4s} uncalibrated (spread {spread(values):.3f})")
    if trace:
        if traced and untraced:
            metrics, trace_problems = layer_metrics(w, traced, untraced)
            problems += trace_problems
            _print_layer_table(traced)
        else:
            metrics = {name: {"value": 0.0, "unit": unit} for name, unit in tracer.per_layer_metric_names()}
            problems.append("no successful traced and untraced instance pair")
    else:
        metrics = {
            name: {"value": statistics.median(i[name] for i in untraced) if untraced else 0.0, "unit": unit}
            for name, unit in END_TO_END
        }
    for p in problems:
        print(f"  problem: {p}")
    shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": failed == 0 and not problems and bool(untraced),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "instances": ok,
    }


def record_digests(name: str, result: dict) -> None:
    doc = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    doc[name] = result["instances"][0]["digests"]
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def check_predictions(results: dict) -> None:
    """Print whether the traced workloads do what they were chosen for."""
    shown = {}
    for name, result in results.items():
        traced = [i for i in result["instances"] if i["traced"]]
        shown[name] = traced[len(traced) // 2]

    def self_share(name: str, prefix: str) -> float:
        inst = shown[name]
        return sum(b["self_s"] for k, b in inst["trace"]["boundaries"].items() if k.startswith(prefix)) / inst["raw_wall_s"]

    def boundaries(name: str) -> dict:
        return shown[name]["trace"]["boundaries"]

    env_lin, env_grad = self_share("sim_linear", "env."), self_share("sim_gradient", "env.")
    grad = boundaries("sim_gradient")
    table = boundaries("gradtable")
    covered = table["gradient.averaged_gradient"]["total_s"] / table["gradient.gradient_norm_table"]["total_s"]
    checks = [
        (f"env.* self share on sim_linear {env_lin:.3f} >= 2 x sim_gradient {env_grad:.3f}", env_lin >= 2 * env_grad),
        (
            "gradient.regret_gradient has the largest self time on sim_gradient",
            max(grad, key=lambda k: grad[k]["self_s"]) == "gradient.regret_gradient",
        ),
        ("gradient.regret_gradient has 0 calls on sim_linear", "gradient.regret_gradient" not in boundaries("sim_linear")),
        (f"gradient.averaged_gradient covers {covered:.3f} >= 0.90 of the gradtable loop", covered >= 0.9),
    ]
    for boundary in ("runner.run_replay", "runner.run_diagnostics"):
        hit = [name for name in results if boundary in boundaries(name)]
        checks.append((f"{boundary} appears only on replay_diag (seen on {hit})", hit == ["replay_diag"]))
    print("== predictions")
    for text, ok in checks:
        print(f"  {'PASS' if ok else 'FAIL'} {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true", help="store the outputs' SHA-256 digests for the default seed"
    )
    args = parser.parse_args(argv)
    if not (SRC / "bandit_lab" / "__init__.py").is_file():
        print(f"error: no bandit_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"digests are recorded for the default seed {DEFAULT_SEED} only")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if args.record_digests and result["correct"]:
            record_digests(name, result)
        results[name] = result
    if args.workload == "all" and args.trace:
        check_predictions(results)
    contract = {
        name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")} for name, r in results.items()
    }
    print(json.dumps(contract[names[0]] if len(names) == 1 else contract))
    return 0


if __name__ == "__main__":
    sys.exit(main())
