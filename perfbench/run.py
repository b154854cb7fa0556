"""osstar benchmark: exact decode and exact sampling, end to end and per layer.

    python3 perfbench/run.py --workload hmm_sample --seed 1 --seconds 45 --trace 0

Run from the repository root.  Prints every metric by name with its unit,
writes a self-describing record to perfbench/results/, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics; --trace 1 solves half as many instances
of the same workload once untraced and once traced and reports the
per-layer metrics, including the tracing overhead.  See
perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

# Sanity check of the tracer's bookkeeping: self times inside the timed
# regions must sum to within 2% of their measured duration.
TRACE_SELF_TOL = 0.02


def _import_library():
    """Put the checkout's src/ and tests/ on the path, or exit."""
    for sub, probe in (("src", "osstar/__init__.py"),
                       ("tests", "lm_fixtures.py")):
        if not os.path.isfile(os.path.join(ROOT, sub, probe)):
            sys.exit(f"perfbench: {sub}/{probe} not found under {ROOT}; "
                     "run from a full checkout")
        sys.path.insert(0, os.path.join(ROOT, sub))


def tail_percentile(k: int) -> int:
    """Highest whole percentile with at least 10 of k samples beyond it."""
    return 100 if k <= 10 else math.floor(100 * (k - 10) / k)


def record_stem(name: str, seed: int, trace: int) -> str:
    """Path of a run's record, without the .json suffix."""
    return os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}")


def run_workload(name: str, seed: int, seconds: float,
                 trace: int) -> tuple[list[str], dict, str]:
    """One workload in its own process.  Returns its printed lines but the
    last, the parsed last line, and the path of its record."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{name} seed {seed} exited {out.returncode}: "
                           f"{out.stderr[-2000:]}")
    return (lines[:-1], json.loads(lines[-1]),
            record_stem(name, seed, trace) + ".json")


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def environment() -> dict:
    import numpy as np

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    src = os.path.join(ROOT, "src", "osstar")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": git_sha, "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def end_to_end(runner, insts) -> tuple[dict, dict]:
    """End-to-end metrics plus the notes printed beside them."""
    solved = [i for i in insts if i.solve_s > 0]
    times = [i.solve_s for i in solved] or [math.nan]
    k = len(insts)
    pct = tail_percentile(len(times))
    # grid instances all set up cold; sentence instances only when they
    # are the first of their LM's block
    setups = [i.setup_s for i in insts if i.cold]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.tail": (nearest_rank(times, pct), "s"),
        "instances_per_s": (len(solved) / sum(times), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    failed = sum(not i.ok for i in insts)
    notes = {
        "solve_s.tail": f"p{pct} of {len(times)} instances",
        "fail_frac": f"{failed / k:.4f} ({failed} of {k} instances)",
        "setup_sum_s": f"{sum(i.setup_s for i in insts):.4f} s over all "
                       f"instances; setup_s is the median of "
                       f"{len(setups)} cold set-ups",
        "peak_rss_mb": f"{runner.rss_before_mb:.1f} MB before the first "
                       f"instance; the solves and checks add "
                       f"{peak_mb - runner.rss_before_mb:.1f} MB",
    }
    if runner.w.mode.value == "sampling":
        frozen = sum(i.frozen_s for i in insts)
        acc = sum(i.frozen_accepts for i in insts)
        notes["samples_per_s"] = (f"{acc / frozen:.2f} 1/s accepted exact "
                                  f"samples over the frozen phase")
    return metrics, notes


def per_layer(runner, insts, tracer, untraced_s: float) -> tuple[dict, dict]:
    """Per-instance means of the traced pass, plus the mechanism checks."""
    k = len(insts)
    st = tracer.stat
    traced_s = sum(i.solve_s + i.frozen_s for i in insts)
    timed_self = sum(tracer.region_self.get(r, 0.0)
                     for r in ("solve", "frozen"))
    frozen_s = sum(i.frozen_s for i in insts)

    def mean(x):
        return x / k

    def size(key):
        return mean(sum(i.size.get(key, 0) for i in insts))

    leaf_mass = st("graphical.leaf_mass")
    m = {
        "engine.trials": (mean(sum(i.trials for i in insts)), "count"),
        "engine.refinements": (mean(sum(i.refinements for i in insts)),
                               "count"),
        "engine.accept_rate": (sum(i.accepts for i in insts)
                               / max(1, sum(i.trials for i in insts)),
                               "ratio"),
        "engine.loop_self_s": (mean(st("engine.run").self), "s"),
        "engine.metrics_s": (mean(st("engine.metrics").busy), "s"),
        "engine.negative_gaps": (sum(1 for i in insts if i.gap is not None
                                     and i.gap < 0), "count"),
        "engine.frozen_samples_per_s": (
            sum(i.frozen_accepts for i in insts) / frozen_s
            if frozen_s > 0 else 0.0, "1/s"),
        "ngram.bound_value_calls": (mean(st("ngram.bound_value").calls),
                                    "count"),
        "ngram.bound_value_s": (mean(st("ngram.bound_value").busy), "s"),
        "ngram.cond_logprob_calls": (mean(st("ngram.cond_logprob").calls),
                                     "count"),
        "ngram.cond_logprob_s": (mean(st("ngram.cond_logprob").busy), "s"),
        "automaton.draw_calls": (mean(st("automaton.draw").calls), "count"),
        "automaton.draw_s": (mean(st("automaton.draw").busy), "s"),
        "automaton.viterbi_s": (mean(st("automaton.viterbi").busy), "s"),
        "automaton.beta_builds.sum": (mean(tracer.beta_builds["sum"]),
                                      "count"),
        "automaton.beta_builds.max": (mean(tracer.beta_builds["max"]),
                                      "count"),
        "automaton.beta_s.sum": (mean(st("automaton.beta.sum").busy), "s"),
        "automaton.beta_s.max": (mean(st("automaton.beta.max").busy), "s"),
        "automaton.refine_s": (mean(st("automaton.refine").busy), "s"),
        "automaton.target_s": (mean(st("automaton.target").busy), "s"),
        "automaton.states": (size("states"), "count"),
        "automaton.edges": (size("edges"), "count"),
        "graphical.argmax_calls": (mean(st("graphical.argmax").calls),
                                   "count"),
        "graphical.argmax_s": (mean(st("graphical.argmax").busy), "s"),
        "graphical.leaf_mass_calls": (mean(leaf_mass.calls), "count"),
        "graphical.leaf_mass_s": (mean(leaf_mass.busy), "s"),
        "graphical.bound_builds": (mean(st("graphical.build").calls),
                                   "count"),
        "graphical.build_s": (mean(st("graphical.build").busy), "s"),
        "graphical.sample_s": (mean(st("graphical.sample").busy), "s"),
        "graphical.log_p_s": (mean(st("graphical.log_p").busy), "s"),
        "piecewise.mass_self_s": (mean(st("piecewise.mass").self), "s"),
        "piecewise.leaf_of_calls": (mean(st("piecewise.leaf_of").calls),
                                    "count"),
        "piecewise.leaf_of_s": (mean(st("piecewise.leaf_of").busy), "s"),
        "piecewise.draw_self_s": (mean(st("piecewise.draw").self), "s"),
        "piecewise.argmax_self_s": (mean(st("piecewise.argmax").self), "s"),
        "piecewise.condition_s": (mean(st("piecewise.condition").busy), "s"),
        "piecewise.select_s": (mean(st("piecewise.select").busy), "s"),
        "piecewise.leaves": (size("leaves"), "count"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.self_sum_frac": (timed_self / traced_s, "ratio"),
        # share of engine.run spent inside the wrapped layers; drops when a
        # layer stops being wrapped or its work moves into the loop itself
        "trace.layer_cover_frac": (
            1.0 - st("engine.run").self / st("engine.run").busy, "ratio"),
    }
    checks = {
        "tracer bookkeeping: self times sum to the timed solve within "
        f"{TRACE_SELF_TOL:.0%}": abs(timed_self / traced_s - 1.0)
        <= TRACE_SELF_TOL,
    }
    if runner.w.name == "hmm_decode":
        checks["automaton.draw_calls == 0"] = \
            st("automaton.draw").calls == 0
    if runner.w.name == "hmm_sample":
        checks["automaton.viterbi_s == 0"] = \
            st("automaton.viterbi").calls == 0
    if runner.w.name == "gm_sample":
        checks["graphical.argmax_calls == 0"] = \
            st("graphical.argmax").calls == 0
    return m, checks


def run_all(names: list[str], args) -> int:
    """Each workload in its own process, so peak_rss_mb stays its own;
    the last line sums the results and prefixes metrics by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            lines, result, _ = run_workload(name, args.seed, args.seconds,
                                            args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.exit(f"perfbench: {exc}")
        print("\n".join(lines))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_library()
    import workloads
    from tracing import Tracer

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    w = workloads.WORKLOADS[args.workload]
    # a traced run solves its instances twice, so it takes half as many
    # and lasts about as long as an untraced one
    runner = workloads.Runner(
        w, args.seed, args.seconds / 2 if args.trace else args.seconds)

    checks: dict[str, bool] = {}
    notes: dict[str, str] = {}
    spans = []
    stats = {}
    if args.trace:
        untraced = runner.run()
        tracer = Tracer()
        tracer.install()
        try:
            insts = runner.run(tracer)
        finally:
            tracer.uninstall()
        checks["traced pass repeats the untraced one"] = all(
            (a.trials, a.config_sha, a.frozen_sha)
            == (b.trials, b.config_sha, b.frozen_sha)
            for a, b in zip(untraced, insts))
        metrics, more = per_layer(runner, insts, tracer, sum(
            i.solve_s + i.frozen_s for i in untraced))
        checks.update(more)
        spans = tracer.spans
        stats = {name: {"calls": s.calls, "busy_s": s.busy, "self_s": s.self}
                 for name, s in sorted(tracer.stats.items())}
    else:
        insts = runner.run()
        metrics, notes = end_to_end(runner, insts)

    failures = [{"instance": i.k, "error": i.error}
                for i in insts if not i.ok]
    negative = [{"instance": i.k, "gap": i.gap}
                for i in insts if i.gap is not None and i.gap < 0]
    correct = not failures and all(checks.values())
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "instances": len(insts),
        "workload_params": {k: (v.value if hasattr(v, "value") else v)
                            for k, v in vars(w).items()},
        "environment": environment(),
        "host_probe_s": {
            "what": "20k-iteration Python loop on the CPU the run picked",
            "median": statistics.median(runner.cpu.probes or [math.nan]),
            "min": min(runner.cpu.probes or [math.nan]),
            "cpu_moves": runner.cpu.moves},
        "input_sha256": runner.inputs.sha,
        "input_gen_s": runner.inputs.gen_s,
        "rss_before_first_mb": runner.rss_before_mb,
        "configs_sha256": workloads.sha("".join(i.config_sha
                                                for i in insts)),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "notes": notes, "checks": checks, "failures": failures,
        "negative_gaps": negative,
        "trace_stats": stats,
        "per_instance": [vars(i) for i in insts],
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = record_stem(w.name, args.seed, args.trace)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if spans:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")

    print(f"workload {w.name}  seed {args.seed}  instances {len(insts)}  "
          f"trace {args.trace}  input {runner.inputs.sha[:12]}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<30} {value:.6g} {unit}{note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:<30} {note}")
    for name, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    for f in failures:
        print(f"  FAILED instance {f['instance']}: {f['error']}")
    if negative:
        print(f"  negative certificate gap (q < p claimed) on "
              f"{len(negative)} instances, listed in the record: "
              + ", ".join(str(n["instance"]) for n in negative[:10])
              + (" ..." if len(negative) > 10 else ""))
    print(f"  record {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({
        "correct": correct, "attempted": len(insts),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
