#!/usr/bin/env python3
"""The benchmark's own test.  For every workload it

  * runs two traced runs with SEED and requires identical `*.calls` and
    `groups.elements`;
  * runs a timed run with OTHER_SEED and requires every op to pass its
    correctness check;
  * requires every run to print exactly the metrics BENCHMARK.json lists
    for its mode, with the units listed there;

and finally requires run.py to fail, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/.  It prints every
metric of every run by name with its unit.  Takes a few minutes.

Usage: python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selfcheck")
SEED = 7
OTHER_SEED = 8


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    for workload in WORKLOADS:
        first, second = (result_of(bench(workload, SEED, 1)) for _ in range(2))
        timed = result_of(bench(workload, OTHER_SEED, 0))
        for label, res, trace in (("traced", first, 1), ("timed", timed, 0)):
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{workload} {label}: metrics differ from BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} {label}: {res['failed']} of {res['attempted']} ops failed")
            for name, m in res["metrics"].items():
                print(f"{workload:8} {label:7} {name:48} {m['value']:>16.6g} {m['unit']}")
        for name in first["metrics"]:
            if name.endswith(".calls") or name == "groups.elements":
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{workload}: {name} differs between traced runs ({a} vs {b})")

    # without the package the benchmark must fail and print no result
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
    shutil.copytree(HERE, os.path.join(SCRATCH, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], SEED, 0, cwd=SCRATCH)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run.py succeeded without the ssp package")
    shutil.rmtree(SCRATCH)

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
