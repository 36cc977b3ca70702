"""fixedlab benchmark: drive the CLI over a workload, check outputs, time it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs the workload's invocations of `fixedlab.harness.main`
in-process, one after another (a closed loop), with `--quiet --out <tmp>`.
A warm-up pass and a replay-from-echo check run first and are not timed;
then timed passes repeat until `--seconds` have gone by. Every output of
every pass is checked against `expected.json`; an invocation that raises,
exits with another code or fails the check counts as failed.

With `--trace 0` the result holds the end-to-end metrics `pass_s` (mean
wall time of a timed pass), `setup_s` (median time for a fresh interpreter
to import fixedlab and load every config, sampled across the timed window)
and `peak_rss_mb`. Both times are scaled to a nominal host speed by the
reference slices of `reference.py`, timed after every invocation and every
set-up run; the raw wall-time median, quartiles, minimum and sample count
and the measured slowdown are printed beside them. With `--trace 1`, untraced
and traced passes alternate and the result holds the per-layer metrics of
`tracing.LAYER_METRICS`, medians over the traced passes, plus the tracing
overhead. `--workload all` runs each workload in a fresh process and
prints one table. The last line of standard output is always
the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:   # before numpy is first imported
    os.environ[_var] = "1"

# One CPU for the whole run, set-up subprocesses included, so the program
# and the reference slices always share a CPU: left to migrate, the
# scaled pass time varied by 4-6% between runs; pinned, by about 2%.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# The program must come from this checkout's src/; without it, exit 1.
try:
    import fixedlab
except ImportError as exc:
    sys.exit(f"perfbench: cannot import fixedlab from {SRC}: {exc}")
if not os.path.abspath(fixedlab.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: fixedlab was imported from {fixedlab.__file__}, "
             f"not from {SRC}")

import numpy  # noqa: E402
from fixedlab import harness  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from outputs import (load_expected, mismatches, outcome,  # noqa: E402
                     recompute_witnesses, replay_from_echo, report_path)
from tracing import LAYER_METRICS, Tracer  # noqa: E402

SETUP_RUNS = 15
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_SETUP_CODE = ("import sys\nsys.path.insert(0, sys.argv[1])\nimport fixedlab\n"
               "for p in sys.argv[2:]:\n    fixedlab.load_config(p)\n")


def summarize(values: list[float], value: float | None = None) -> dict:
    """Median, quartiles, minimum and count of raw values; `value` is the
    reported one, the median unless given."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"value": med if value is None else value, "median": med,
            "q1": q1, "q3": q3, "min": min(values), "n": len(values),
            "values": values}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(seed: int) -> dict:
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else None
    return {"nproc": os.cpu_count(), "pinned_cpus": cpus,
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": _git_sha(), "seed": seed,
            "thread_env": {v: os.environ[v] for v in THREAD_VARS}}


class WorkloadRun:
    """One workload's invocations, their outputs and the failure count."""

    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload = workload
        self.invs = workloads.invocations(workload, seed)
        self.paths = workloads.write_configs(self.invs, os.path.join(tmp, "configs"))
        self.expected = load_expected()[workload]
        self.tmp = tmp
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.timed: dict[str, list[float]] = {}

    def run_pass(self, meter: reference.SpeedMeter | None = None
                 ) -> tuple[str, list, list[float]]:
        """Run every invocation once; return out dir, exit codes, wall times.

        With a meter, reference slices are timed after each invocation.
        """
        out_dir = os.path.join(self.tmp, f"pass{self.passes}")
        self.passes += 1
        codes, times = [], []
        for inv, path in zip(self.invs, self.paths):
            argv = [inv.command, "--config", path, "--quiet", "--out", out_dir]
            t0 = time.perf_counter()
            try:
                code = harness.main(argv)
            except Exception:   # counted as a failed invocation, run goes on
                code = traceback.format_exc(limit=3)
            times.append(time.perf_counter() - t0)
            codes.append(code)
            if meter is not None:
                meter.sample(times[-1])
        return out_dir, codes, times

    def _fail(self, name: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems += [f"{name}: {p}" for p in problems[:5]]

    def check_pass(self, out_dir: str, codes: list) -> tuple[int, int]:
        """Check and delete one pass's outputs; return (failed, report bytes)."""
        failed = report_bytes = 0
        for inv, path, code in zip(self.invs, self.paths, codes):
            self.attempted += 1
            if isinstance(code, str):
                problems = [f"raised {code}"]
            else:
                try:
                    problems = mismatches(self.expected[inv.name],
                                          outcome(inv.command, inv.name, code, out_dir))
                    if inv.command == "check":
                        problems += recompute_witnesses(path, inv.name, out_dir)
                    report_bytes += os.path.getsize(report_path(out_dir, inv.name))
                except (OSError, KeyError, TypeError, ValueError) as exc:
                    problems = [f"outputs unreadable: {exc!r}"]
            if problems:
                failed += 1
                self._fail(inv.name, problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        return failed, report_bytes

    def warm_up(self) -> None:
        """Untimed first pass, then the replay-from-echo check on its outputs."""
        out_dir, codes, _ = self.run_pass()
        inv = next(i for i in self.invs if i.name == workloads.REPLAYED[self.workload])
        self.attempted += 1
        try:
            problems = replay_from_echo(inv.command, inv.name, out_dir,
                                        os.path.join(self.tmp, "replay"))
        except Exception as exc:   # counted as a failed replay, run goes on
            problems = [f"replay raised {exc!r}"]
        if problems:
            self._fail(f"{inv.name} replay", problems)
        self.check_pass(out_dir, codes)


def time_setup(paths: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE, SRC, *paths],
                   cwd=ROOT, check=True)   # a timeout would poll in 50 ms steps
    return time.perf_counter() - t0


def run_untraced(run: WorkloadRun, seconds: float) -> dict:
    """Timed passes and set-up runs, scaled by the run's mean slowdown.

    The mean pass pairs with the mean reference slice: both average the
    host's speed over the same window, which varies far less between runs
    than any single pass does.
    """
    run.warm_up()
    meter = reference.SpeedMeter()
    passes, setup = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # set-up runs are spread over the window to meet the same host
        # speed levels as the passes
        due = min(SETUP_RUNS, (time.perf_counter() - start) / seconds * SETUP_RUNS)
        while len(setup) < due:
            setup.append(time_setup(run.paths))
            meter.sample(setup[-1])
        gc.collect()
        out_dir, codes, times = run.run_pass(meter)
        passes.append(sum(times))
        for inv, t in zip(run.invs, times):
            run.timed.setdefault(inv.name, []).append(t)
        run.check_pass(out_dir, codes)
    while len(setup) < SETUP_RUNS:
        setup.append(time_setup(run.paths))
        meter.sample(setup[-1])
    slowdown = meter.slowdown()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"pass_s": summarize(passes, statistics.fmean(passes) / slowdown),
            "setup_s": summarize(setup, statistics.median(setup) / slowdown),
            "peak_rss_mb": summarize([rss_mb]),
            "slowdown": summarize(meter.slices, slowdown)}


def run_traced(run: WorkloadRun, seconds: float) -> dict:
    run.warm_up()
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        gc.collect()
        out_dir, codes, times = run.run_pass()
        untraced.append(sum(times))
        run.check_pass(out_dir, codes)
        gc.collect()
        tracer.install()
        try:
            out_dir, codes, times = run.run_pass()
        finally:
            tracer.uninstall()
        wall = sum(times)
        traced.append(wall)
        failed, report_bytes = run.check_pass(out_dir, codes)
        layers.append(tracer.fold(wall, report_bytes, len(run.invs), failed))
    stats = {k: summarize([m[k] for m in layers]) for k in layers[0]}
    stats["trace.pass_s"] = summarize(traced, min(traced))
    stats["trace.untraced_pass_s"] = summarize(untraced, min(untraced))
    stats["trace.overhead_s"] = summarize(
        [stats["trace.pass_s"]["value"] - stats["trace.untraced_pass_s"]["value"]])
    return {k: stats[k] for k in LAYER_METRICS}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    units = LAYER_METRICS if trace else END_TO_END
    tmp = os.path.join(ROOT, ".bench_tmp", f"{workload}-{os.getpid()}")
    try:
        run = WorkloadRun(workload, seed, tmp)
        stats = (run_traced if trace else run_untraced)(run, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"workload": workload, "trace": int(trace), "seconds": seconds,
            "provenance": provenance(seed),
            "attempted": run.attempted, "failed": run.failed,
            "fail_ratio": run.failed / run.attempted,
            "problems": run.problems, "invocation_s": run.timed,
            "slowdown": stats.get("slowdown"),
            "metrics": {k: {**stats[k], "unit": units[k]} for k in units}}


def _print_table(details: list[dict]) -> None:
    for d in details:
        print(f"== {d['workload']}  (seed {d['provenance']['seed']}, "
              f"{d['seconds']:g} s, trace {d['trace']})")
        for name, m in d["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} "
                  f"raw median {m['median']:.6g}  q1 {m['q1']:.6g}  "
                  f"q3 {m['q3']:.6g}  min {m['min']:.6g}  n={m['n']}")
        if d["slowdown"]:
            s = d["slowdown"]
            print(f"  {'host slowdown (times above are divided)':40s} "
                  f"{s['value']:14.6g} {'x':6s} over {s['n']} reference "
                  f"slices, median {s['median']:.6g} s")
        print(f"  {'fail_ratio':40s} {d['fail_ratio']:14.6g} {'ratio':6s} "
              f"{d['failed']} failed of {d['attempted']} attempted")
        for p in d["problems"]:
            print(f"  problem: {p}")


def _result(details: list[dict], prefix_workload: bool) -> dict:
    metrics = {}
    for d in details:
        for name, m in d["metrics"].items():
            key = f"{d['workload']}.{name}" if prefix_workload else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(d["failed"] for d in details)
    return {"correct": failed == 0,
            "attempted": sum(d["attempted"] for d in details),
            "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> list[dict]:
    """Each workload in a fresh process, so peak RSS is per workload."""
    details = []
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {w} exited with {proc.returncode}")
        details.append(json.loads(proc.stdout.splitlines()[-2])["detail"])
    return details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        details = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        details = [run_one(args.workload, args.seed, args.seconds,
                           bool(args.trace))]
    _print_table(details)
    if args.workload != "all":
        print(json.dumps({"detail": details[0]}))
    print(json.dumps(_result(details, prefix_workload=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
