#!/usr/bin/env python3
"""Benchmark of the ssp package: one workload, one process, one client.

Closed loop: a single thread runs the workload's op list pass after pass,
each op after the previous one has returned, and checks every result.
After one untimed warm-up pass, a timed run lasts at least --seconds,
MIN_PASSES passes and MIN_OP_SAMPLES ops.

  --trace 0  timed run, tracing off.  Prints the end-to-end metrics:
             pass_s, op_ms_p50, op_ms_p90, setup_s, peak_rss_mib.
  --trace 1  plain passes for the same time, then one pass under cProfile
             with benchmark-side spans.  Prints the per-layer metrics and
             writes the spans to .bench_build/spans/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it name every metric with
its unit.  See perfbench/README.md for the workloads and metrics.

Usage: python3 perfbench/run.py --workload orders --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import bisect
import cProfile
import gc
import json
import os
import pstats
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import layers
import workloads

# A median pass time needs a few passes, and op_ms_p90 needs at least 5
# op samples beyond it.  More would not fit the benchmark's time budget:
# one orders pass takes about 10 s.
MIN_PASSES = 3
MIN_OP_SAMPLES = 50
SETUP_SAMPLES = 7  # fresh processes timed for setup_s
HERE = os.path.dirname(os.path.abspath(__file__))
SPAN_DIR = os.path.join(os.path.dirname(HERE), ".bench_build", "spans")

# Calibration.  On a shared machine the whole process speeds up and slows
# down by up to 1.7x within tens of milliseconds, CPU time included, and
# it is also descheduled when other processes want its core.  Times are
# therefore CPU times of the process, which leave out the time spent
# descheduled, scaled for speed: a fixed pure-Python slice, independent
# of ssp, is timed before every op and, from a timer signal, every
# SAMPLE_INTERVAL_S inside ops that outlast SAMPLE_DELAY_S (shorter ops
# are never interrupted).  Each op's CPU time, less the handler's, is
# divided by the mean speed sampled from SPEED_PAD_S before its start
# to SPEED_PAD_S after its end, which reports times at one nominal speed.
# NOMINAL_SLICE_S is the slice's time in a quiet period on a 2-core x86
# sandbox under CPython 3.11.7; it scales every time alike.
NOMINAL_SLICE_S = 1.25e-4
SAMPLE_DELAY_S = 0.005
SAMPLE_INTERVAL_S = 0.01
SPEED_PAD_S = 0.03
_SLICE_TABLE = [[(i * j + 3) % 49 for j in range(49)] for i in range(49)]


def _lookups(table, n: int) -> int:
    acc = 0
    for i in range(n):
        acc = table[acc][table[i % 49][(i * 7) % 49]]
    return acc


def reference_slice() -> float:
    """CPU seconds for a fixed run of table lookups, like ftables' inner loop.
    A short untimed warm-up first brings the table back into cache, so the
    time does not depend on what the interrupted op left there."""
    _lookups(_SLICE_TABLE, 300)
    t0 = time.process_time()
    _lookups(_SLICE_TABLE, 1500)
    return time.process_time() - t0


class SpeedSampler:
    """Speed samples (slice time / NOMINAL_SLICE_S) with their times, and
    the time the timer-signal handler took."""

    def __init__(self):
        self.at: list[float] = []
        self.speed: list[float] = []
        self.spent = 0.0

    def sample(self):
        self.at.append(time.perf_counter())
        self.speed.append(reference_slice() / NOMINAL_SLICE_S)

    def _on_signal(self, _signum, _frame):
        t0 = time.process_time()
        self.sample()
        self.spent += time.process_time() - t0

    def arm(self):
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_DELAY_S, SAMPLE_INTERVAL_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_signal)
        return self

    def __exit__(self, *_exc):
        self.disarm()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def during(self, t0: float, t1: float) -> float:
        """Mean speed sampled within SPEED_PAD_S of [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - SPEED_PAD_S)
        hi = bisect.bisect_right(self.at, t1 + SPEED_PAD_S)
        if lo == hi:  # no sample that close: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return statistics.fmean(self.speed[lo:hi])


END_TO_END_UNITS = {
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "groups.elements":
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


class Tracer:
    """Spans recorded by the benchmark around each op and around each of
    its calls into a public function of the package.  While not
    recording, `call` and `op` only run the function."""

    def __init__(self):
        self.recording = False
        self.spans: list[dict] = []
        self.elements = 0
        self._parent = None
        self._op = None

    def count_elements(self, n: int):
        """Group elements an enumeration oracle returned (read from its output)."""
        self.elements += n

    def call(self, fn, *args):
        if not self.recording:
            return fn(*args)
        return self._span(f"{fn.__module__.removeprefix('ssp.')}.{fn.__name__}", fn, *args)

    def op(self, op_id: int, name: str, fn):
        if not self.recording:
            return fn(self)
        self._op = op_id
        return self._span(name, fn, self)

    def _span(self, name, fn, *args):
        span = {"id": len(self.spans), "name": name, "parent": self._parent, "op": self._op}
        self.spans.append(span)
        outer, self._parent = self._parent, span["id"]
        span["start"] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span["end"] = time.perf_counter()
            self._parent = outer


class Runner:
    """Runs passes over one op list and keeps each op's wall-clock window
    and CPU time, less the time the speed sampler took during it."""

    def __init__(self, ops, tracer: Tracer, sampler: SpeedSampler):
        self.ops = ops
        self.tracer = tracer
        self.sampler = sampler
        self.op_window: list[tuple[float, float]] = []
        self.op_s: list[float] = []
        self.pass_ends: list[int] = []  # len(op_s) after each pass
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def one_pass(self, profiler: cProfile.Profile | None = None):
        """Run every op once.  A profiler, if given, is on during the ops,
        and the timer is not armed then, so that every speed sample is
        taken with the profiler off."""
        for op_id, (name, fn) in enumerate(self.ops):
            self.attempted += 1
            self.sampler.sample()
            spent = self.sampler.spent
            t0 = time.perf_counter()
            cpu0 = time.process_time()
            try:
                if profiler is None:
                    self.sampler.arm()
                else:
                    profiler.enable()
                try:
                    self.tracer.op(op_id, name, fn)
                finally:
                    if profiler is not None:
                        profiler.disable()
                    self.sampler.disarm()
            except Exception:  # counted against the run, which goes on
                self.failed += 1
                if name not in self._reported:
                    self._reported.add(name)
                    print(f"op {name} failed:", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
            self.op_window.append((t0, time.perf_counter()))
            self.op_s.append(time.process_time() - cpu0 - (self.sampler.spent - spent))
        self.pass_ends.append(len(self.op_s))

    def run_for(self, seconds: float, min_passes: int, min_op_samples: int):
        """One warm-up pass, checked but not timed, then timed passes."""
        self.one_pass()
        del self.op_window[:], self.op_s[:], self.pass_ends[:]
        start = time.perf_counter()
        while (
            len(self.pass_ends) < min_passes
            or len(self.op_s) < min_op_samples
            or time.perf_counter() - start < seconds
        ):
            self.one_pass()

    def calibrated(self) -> tuple[list[float], list[float]]:
        """(seconds per pass, seconds per op), at the nominal speed."""
        ops = [t / self.sampler.during(*window) for window, t in zip(self.op_window, self.op_s)]
        passes = [sum(ops[a:b]) for a, b in zip([0] + self.pass_ends, self.pass_ends)]
        return passes, ops


def setup_seconds(workload: str) -> float:
    """Median set-up time over fresh processes, at the nominal speed."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, probe, workload], capture_output=True, text=True, timeout=120, check=True
        )
        setup_s, slice_s = map(float, out.stdout.split())
        samples.append(setup_s * NOMINAL_SLICE_S / slice_s)
    return statistics.median(samples)


def timed_metrics(runner: Runner, workload: str, seconds: float) -> dict:
    setup_s = setup_seconds(workload)
    with runner.sampler:
        runner.run_for(seconds, MIN_PASSES, MIN_OP_SAMPLES)
    passes, ops = runner.calibrated()
    op_ms = [t * 1e3 for t in ops]
    return {
        "pass_s": statistics.median(passes),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    from ssp import exact

    tracer = runner.tracer
    profiler = cProfile.Profile()
    with runner.sampler:
        runner.run_for(seconds, 1, 0)
        traced_from = time.perf_counter()
        tracer.recording = True
        tracer.elements = 0
        bernoulli_before = exact.bernoulli.cache_info()
        runner.one_pass(profiler)
        tracer.recording = False
        bernoulli_after = exact.bernoulli.cache_info()
        traced_to = time.perf_counter()

    passes, _ops = runner.calibrated()
    # layer times are scaled by the speed sampled during the traced pass
    speed = runner.sampler.during(traced_from, traced_to)
    metrics = layers.summarize(pstats.Stats(profiler).stats, os.path.join(workloads.SRC, "ssp"), HERE)
    metrics["groups.enum.cum_s"] = sum(
        s["end"] - s["start"] for s in tracer.spans if s["name"] in workloads.ENUMERATION_SPANS
    )
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] /= speed
    metrics["groups.elements"] = tracer.elements
    mat_muls = metrics["ftables.mat_mul.calls"]
    metrics["groups.elements_per_mat_mul"] = tracer.elements / mat_muls if mat_muls else 0.0
    metrics["exact.bernoulli.calls"] = (bernoulli_after.hits + bernoulli_after.misses) - (
        bernoulli_before.hits + bernoulli_before.misses
    )
    metrics["trace_overhead"] = passes[-1] / statistics.median(passes[:-1])

    os.makedirs(SPAN_DIR, exist_ok=True)
    with open(os.path.join(SPAN_DIR, f"{workload}-seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        workloads.use_source_tree()
        workloads.setup(args.workload)
    except (ImportError, OSError) as e:
        print(f"error: cannot load the ssp package: {e}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    ops = workloads.OPS[args.workload](rng)
    rng.shuffle(ops)
    # set-up objects never become garbage; keep them out of collections
    gc.freeze()
    runner = Runner(ops, Tracer(), SpeedSampler())
    if args.trace:
        metrics = traced_metrics(runner, args.workload, args.seed, args.seconds)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = timed_metrics(runner, args.workload, args.seconds)
        units = END_TO_END_UNITS

    for name, value in metrics.items():
        print(f"{name:48} {value:>16.6g} {units[name]}")
    print(f"{'failed_ratio':48} {runner.failed / runner.attempted:>16.6g} ratio")
    print(f"{'op_samples':48} {len(runner.op_s):>16} count")
    print(f"{'passes':48} {len(runner.pass_ends):>16} count")
    print(f"{'machine_slowdown (median sampled speed)':48} {statistics.median(runner.sampler.speed):>16.6g} ratio")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
