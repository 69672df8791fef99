"""Layer-boundary spans, recorded from outside the package.

``Tracer.install`` replaces each boundary function with a wrapper at the
place its caller looks it up (``policies.eigendecompose``, not
``linalg.eigendecompose``), so ``src/`` stays untouched. Spans keep name,
start, end and parent in flat arrays and are written once, when the
workload ends. ``summarize`` (standard library only) turns a written trace
into per-boundary statistics.
"""

import json
import math
import os
import statistics
import time
from array import array
from pathlib import Path

# Boundaries wrapped as plain functions: (name, module the caller resolves it
# in, attribute, per-round). Per-round boundaries also report us_p99.
FUNCTIONS = (
    ("env.keyed_rng", "env", "keyed_rng", True),
    ("env.sample_round", "env", "sample_round", True),
    ("env.reward", "env", "reward", True),
    ("linalg.eigendecompose", "policies", "eigendecompose", True),
    ("linalg.truncated_pinv_apply", "policies", "truncated_pinv_apply", True),
    ("linalg.cutoff_pinv_solve", "policies", "cutoff_pinv_solve", True),
    ("linalg.spectral_norm", "runner", "spectral_norm", False),
    ("gradient.regret_gradient", "policies", "regret_gradient", True),
    ("gradient.averaged_gradient", "gradient", "averaged_gradient", False),
    ("gradient.gradient_norm_table", "gradient", "gradient_norm_table", False),
    ("runner.parse_run_config", "runner", "parse_run_config", False),
    ("runner.read_replay_csv", "runner", "read_replay_csv", False),
    ("runner.emit_outputs", "runner", "emit_outputs", False),
    ("runner.write_records_csv", "runner", "write_records_csv", False),
    ("runner.write_diagnostics_csv", "runner", "write_diagnostics_csv", False),
    ("charts.write_line_chart_svg", "charts", "write_line_chart_svg", False),
)
# Round loops; they are generators, so their span runs from first resume to exhaustion.
GENERATORS = (
    ("runner.run_simulation", "runner", "run_simulation"),
    ("runner.run_replay", "runner", "run_replay"),
    ("runner.run_diagnostics", "runner", "run_diagnostics"),
)
# Methods wrapped on the class: (name, module, class, method). All per-round.
# FixedCoefficient also backs oracle_tc, which no workload runs. The
# gradient_linrel policy calls its NoisyLinRel estimator's observe, which
# shows as a policies.noisy_linrel.observe child span.
POLICY_CLASSES = (
    ("uniform", "UniformRandom"),
    ("oracle_cf", "FixedCoefficient"),
    ("linucb", "LinUCB"),
    ("noisy_linrel", "NoisyLinRel"),
    ("greedy", "ExploreThenCommitGreedy"),
    ("gradient_linrel", "RegretGradientLinRel"),
)
METHODS = (
    ("env.NoiseModel.sample", "env", "NoiseModel", "sample"),
    ("env.FeatureDistribution.sample", "env", "FeatureDistribution", "sample"),
) + tuple(
    (f"policies.{label}.{method}", "policies", cls, method)
    for label, cls in POLICY_CLASSES
    for method in ("select", "observe")
)
COUNTERS = (
    "runner.write_records_csv.bytes",
    "runner.write_diagnostics_csv.bytes",
    "gradient.regret_gradient.noise_entries",
    "gradient.averaged_gradient.noise_entries",
)


def boundaries() -> list:
    """(name, per_round) for every boundary, in report order."""
    out = [(name, per_round) for name, _, _, per_round in FUNCTIONS]
    out += [(name, False) for name, _, _ in GENERATORS]
    out += [(name, True) for name, _, _, _ in METHODS]
    return sorted(out)


def per_layer_metric_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for name, per_round in boundaries():
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"), (f"{name}.us_p50", "us")]
        if per_round:
            names.append((f"{name}.us_p99", "us"))
    names += [(c, "count") for c in COUNTERS]
    names += [("gradient.skipped_step_ratio", "ratio"), ("trace.overhead_s", "s")]
    return names


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span store plus the wrappers that feed it. One per workload process."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {c: 0 for c in COUNTERS}
        self.built_policies: list = []
        self._stack = [-1]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn):
        name_id, open_span, stack, start, end = self._id(name), self._open, self._stack, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = open_span(name_id)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def generator_span(self, name: str, fn):
        name_id, open_span, stack, start, end = self._id(name), self._open, self._stack, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def run():
                idx = open_span(name_id)
                start[idx] = clock()
                try:
                    yield from inner
                finally:
                    end[idx] = clock()
                    stack.pop()

            return run()

        return traced

    # -- boundaries that also count work -----------------------------------

    def _count_bytes(self, name: str, fn):
        counter = f"{name}.bytes"

        def write(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters[counter] += os.path.getsize(_arg(args, kwargs, 0, "path"))
            return result

        return write

    def _count_regret_gradient(self, fn):
        def regret_gradient(*args, **kwargs):
            cfg, z = _arg(args, kwargs, 4, "cfg"), _arg(args, kwargs, 1, "z")
            k_arms, d = z.shape[-2:]
            self.counters["gradient.regret_gradient.noise_entries"] += cfg.mc_noise_samples * k_arms * d
            return fn(*args, **kwargs)

        return regret_gradient

    def _count_averaged_gradient(self, fn):
        def averaged_gradient(*args, **kwargs):
            args = list(args)
            cfg = _arg(args, kwargs, 4, "cfg")
            sampler = _arg(args, kwargs, 3, "feature_sampler")

            def counted_sampler(rng, n):
                sets = sampler(rng, n)
                count, k_arms, d = sets.shape
                self.counters["gradient.averaged_gradient.noise_entries"] += count * cfg.mc_noise_samples * k_arms * d
                return sets

            if len(args) > 3:
                args[3] = counted_sampler
            else:
                kwargs["feature_sampler"] = counted_sampler
            return fn(*args, **kwargs)

        return averaged_gradient

    def _collect_policies(self, fn):
        def build_policy(*args, **kwargs):
            policy = fn(*args, **kwargs)
            self.built_policies.append(policy)
            return policy

        return build_policy

    def install(self) -> None:
        """Wrap every boundary in the imported bandit_lab modules."""
        import importlib

        mods = {m: importlib.import_module(f"bandit_lab.{m}") for m in ("env", "policies", "gradient", "runner", "charts")}
        counted = {
            "runner.write_records_csv": lambda fn: self._count_bytes("runner.write_records_csv", fn),
            "runner.write_diagnostics_csv": lambda fn: self._count_bytes("runner.write_diagnostics_csv", fn),
            "gradient.regret_gradient": self._count_regret_gradient,
            "gradient.averaged_gradient": self._count_averaged_gradient,
        }
        for name, mod, attr, _ in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            if name in counted:
                fn = counted[name](fn)
            setattr(mods[mod], attr, self.span(name, fn))
        for name, mod, attr in GENERATORS:
            setattr(mods[mod], attr, self.generator_span(name, getattr(mods[mod], attr)))
        for name, mod, cls_name, method in METHODS:
            cls = getattr(mods[mod], cls_name)
            setattr(cls, method, self.span(name, getattr(cls, method)))
        mods["runner"].build_policy = self._collect_policies(mods["runner"].build_policy)

    def skipped_step_ratio(self) -> float:
        """Skipped / attempted gradient steps over the policies build_policy returned."""
        skipped = sum(getattr(p, "skipped_gradient_steps", 0) for p in self.built_policies)
        attempted = self.name.count(self.name_ids["gradient.regret_gradient"])
        return skipped / attempted if attempted else 0.0

    def dump(self, directory: Path) -> None:
        """Write spans.bin (name, parent, start, end arrays) and trace.json."""
        with open(directory / "spans.bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {
            "names": self.names,
            "spans": len(self.start),
            "counters": self.counters,
            "skipped_step_ratio": self.skipped_step_ratio(),
        }
        (directory / "trace.json").write_text(json.dumps(meta), encoding="utf-8")


def load(directory: Path) -> tuple:
    """Read a dumped trace back: (meta, name, parent, start, end)."""
    meta = json.loads((directory / "trace.json").read_text(encoding="utf-8"))
    n = meta["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(directory / "spans.bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (meta, *arrays)


def summarize(directory: Path) -> dict:
    """Per-boundary stats of one traced instance.

    Returns {"boundaries": {name: {calls, self_s, total_s, us_p50, us_p99}},
    "counters": {...}, "skipped_step_ratio": r, "top_s": t} where top_s is
    the summed duration of spans without a parent. Self time is a span's
    duration minus its children's durations.
    """
    meta, name, parent, start, end = load(directory)
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    top = 0.0
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
        else:
            top += dur[i]
    per: dict = {}
    for i, n in enumerate(name):
        entry = per.setdefault(meta["names"][n], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += dur[i] - child[i]
        entry["total_s"] += dur[i]
        entry["durations"].append(dur[i])
    for entry in per.values():
        d = sorted(entry.pop("durations"))
        entry["us_p50"] = statistics.median(d) * 1e6
        entry["us_p99"] = d[max(0, math.ceil(0.99 * len(d)) - 1)] * 1e6
    return {
        "boundaries": per,
        "counters": meta["counters"],
        "skipped_step_ratio": meta["skipped_step_ratio"],
        "top_s": top,
    }
