"""SCMA link-simulation benchmark: trials/s of three `scma` CLI sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Each repetition runs in a fresh process (`rep.py`), so set-up time and peak
memory are the workload's own. With `--trace 0` the run repeats the
workload until `--seconds` have passed, checks every CSV row, and prints
the end-to-end metrics. With `--trace 1` it runs the workload once
untraced and once traced (the map workload also traced with one worker),
plus once on each reference seed, and prints the per-layer metrics. The
last line of standard output is one JSON object; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_run, load_reference
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, cli_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 4  # extra set-up-only processes per run, for a steadier setup_s median
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "trials_per_s": "1/s",
    "point_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer units, by the last part of the metric name
UNITS = {
    "share": "ratio", "calls": "count", "trials": "count", "busy_s": "s",
    "call_ms_p50": "ms", "call_ms_tail": "ms", "tail_pct": "%", "hypotheses": "count",
    "hypotheses_per_s": "1/s", "table_mb_per_call": "MB", "collapse_ratio": "ratio",
    "collapsed_speedup": "x", "points": "count", "blocks": "count", "self_s": "s",
    "self_share": "ratio", "useful_trial_ratio": "ratio", "thread_busy_share": "ratio",
    "scaling_efficiency": "ratio", "rows_changed": "count", "build_s": "s",
    "mother_s": "s", "wall_s": "s", "spans": "count", "unattributed_share": "ratio",
    "overhead_share": "ratio", "span_cost_share": "ratio",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Run:
    """Repetitions of one workload and what their outputs and checks gave."""

    def __init__(self, name: str):
        self.workload = WORKLOADS[name]
        self.reference = load_reference()
        self.scratch = WORK / f"run-{os.getpid()}" / name
        self.count = 0
        self.points = self.failed = self.rows_changed = 0
        self.problems: list[str] = []

    def rep(self, seed: int, workers: int = 1, trace: Path | None = None,
            setup_only: bool = False) -> dict:
        """Run rep.py once and, unless set-up only, check its CSVs."""
        out = self.scratch / f"rep{self.count}"
        self.count += 1
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.workload.name,
               "--seed", str(seed), "--workers", str(workers),
               "--out", str(out.relative_to(ROOT))]
        if trace is not None:
            cmd += ["--trace", str(trace.relative_to(ROOT))]
        if setup_only:
            cmd.append("--setup-only")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
        result = json.loads((out / "result.json").read_text())
        if not setup_only:
            verdict = check_run(out, self.workload.csvs, seed, self.reference,
                                self.workload.agree)
            self.points += verdict.points
            self.failed += verdict.failed
            self.rows_changed += verdict.rows_changed
            self.problems += [f"seed {seed}: {p}" for p in verdict.problems]
            result["trials"] = verdict.trials
        shutil.rmtree(out)
        return result

    def summary(self, metrics: dict) -> dict:
        for problem in self.problems[:20]:
            log(f"  FAIL {problem}")
        return {
            "correct": self.points > 0 and self.failed == 0,
            "attempted": max(self.points, 1),
            "failed": self.failed,
            "metrics": metrics,
        }


def describe(env: dict) -> str:
    return (f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
            f"{env['blas']} with {env['blas_threads']} thread(s)")


def workers_for(workload) -> int:
    return min(2, len(os.sched_getaffinity(0))) if workload.threaded else 1


def measure(name: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics from untraced repetitions."""
    run = Run(name)
    workers = workers_for(run.workload)
    setups = [run.rep(seed, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    start = time.perf_counter()
    # at least two repetitions; then stop when one more would end further past
    # `seconds` than the run now stands short of it
    while len(reps) < 2 or (time.perf_counter() - start) * (1 + 0.5 / len(reps)) < seconds:
        s = cli_seed(seed, len(reps))
        reps.append(run.rep(s, workers))
        r = reps[-1]
        log(f"  rep {len(reps) - 1} seed {s}: {r['trials']} trials in "
            f"{sum(r['sweep_s']):.2f} s ({r['trials'] / sum(r['sweep_s']):.1f}/s), "
            f"set-up {r['setup_s']:.3f} s, {r['rss_mb']:.0f} MB")
    setups += [r["setup_s"] for r in reps]
    points = sum(len(r["point_s"]) for r in reps)
    values = {
        "trials_per_s": statistics.median(r["trials"] / sum(r["sweep_s"]) for r in reps),
        # median over repetitions of each one's median point: pooled, the median
        # would fall in the gap between a workload's faster and slower points
        "point_s_p50": statistics.median(statistics.median(r["point_s"]) for r in reps),
        "setup_s": statistics.median(setups),
        # the largest, not the median: the map workload's peak flips between two
        # levels by ~6% with the order in which its two threads allocate
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
    }
    log(f"{name}: {len(reps)} reps, {points} points, {len(setups)} set-ups; "
        f"workers {workers}; {describe(reps[0]['env'])}")
    for key, unit in END_TO_END.items():
        log(f"  {key:<18} {values[key]:.6g} {unit}")
    ratio = run.failed / max(run.points, 1)
    log(f"  point_fail_ratio   {ratio:.6g} ({run.failed}/{run.points} points)")
    return run.summary({k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()})


def trace(name: str, seed: int) -> dict:
    """Per-layer metrics from one traced repetition, next to an untraced one."""
    run = Run(name)
    workers = workers_for(run.workload)
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans = spans_dir / f"{name}-seed{seed}.json"
    plain = run.rep(seed, workers)
    traced = run.rep(seed, workers, trace=spans)
    layers = traced["layers"]
    layers["trace.overhead_share"] = layers["trace.wall_s"] / sum(plain["sweep_s"]) - 1.0
    rate = traced["trials"] / layers["trace.wall_s"]
    if workers > 1:
        single = run.rep(seed, 1, trace=spans_dir / f"{name}-seed{seed}-1worker.json")
        rate_1 = single["trials"] / single["layers"]["trace.wall_s"]
        layers["simulator.scaling_efficiency"] = rate / (workers * rate_1)
    else:
        layers["simulator.scaling_efficiency"] = 1.0
    for ref_seed in (DEFAULT_SEED, HELD_OUT_SEED):
        if ref_seed != seed:
            run.rep(ref_seed, workers)
    layers["simulator.rows_changed"] = run.rows_changed
    attributed = sum(layers[k] for k in
                     ("mpa_detector.share", "channel_model.share", "simulator.self_share"))
    log(f"{name}: workers {workers}; {describe(traced['env'])}")
    log(f"{name}: traced wall {layers['trace.wall_s']:.3f} s, overhead "
        f"{layers['trace.overhead_share']:+.2%} against the untraced run, "
        f"{layers['trace.span_cost_share']:.3%} from timed span cost; detector + channel + simulator self "
        f"= {attributed:.2%} of traced wall; spans in {spans.relative_to(ROOT)}")
    for key in sorted(layers):
        log(f"  {key:<42} {layers[key]:.6g}")
    return run.summary({k: {"value": v, "unit": UNITS[k.rsplit('.', 1)[-1]]}
                        for k, v in layers.items()})


def run_all(seed: int, seconds: float) -> dict:
    """Every workload's end-to-end metrics and point_fail_ratio, as a table."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = measure(name, seed, seconds)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        metrics = dict(result["metrics"])
        metrics["point_fail_ratio"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
        for key, metric in metrics.items():
            rows.append(f"{name:<20} {key:<18} {metric['value']:>12.6g} {metric['unit']}")
            total["metrics"][f"{name}.{key}"] = metric
    print("\n".join(rows))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "scma" / "cli.py").is_file():
        log(f"error: no scma package under {ROOT / 'src'}; run from a checkout of the repository")
        return 2
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        elif args.trace:
            result = trace(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        log(f"error: {exc}")
        return 1
    finally:
        shutil.rmtree(WORK / f"run-{os.getpid()}", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
