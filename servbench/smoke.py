#!/usr/bin/env python3
"""Smoke test of the serving benchmark itself.

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
asserts: the run exits 0; its last line is a result with `correct` true
(every reply re-evaluated, checksums and exact fronts matched) and no failed
request (error rate 0); every metric BENCHMARK.json names is printed with its
unit. Finally checks that a tree holding only BENCHMARK.json and the
benchmark's own files fails without printing a result.

    python3 servbench/smoke.py [--seconds 2]
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run(command, cwd, timeout=200):
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def check_run(spec, workload, trace, seconds):
    command = [*spec["command"], "--workload", workload, "--seed", "7", "--seconds",
               str(seconds), "--trace", str(trace)]
    done = run(command, ROOT)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr[-2000:]}"]
    result = last_json(done.stdout)
    if result is None:
        return [f"{label}: last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correct is {result.get('correct')}")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"{label}: attempted {result.get('attempted')}, failed {result.get('failed')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{label}: metric {metric['name']} missing")
        elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {metric['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: unlisted metrics {sorted(extra)}")
    if not trace and metrics.get("ok_rate", {}).get("value") != 1:
        problems.append(f"{label}: ok_rate {metrics.get('ok_rate')}")
    return problems


def check_bare_tree(spec):
    """Without the program's sources the benchmark must fail, and quietly."""
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    done = run([*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], bare, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or last_json(done.stdout) is not None:
        return [f"bare tree: exit {done.returncode} with output {done.stdout[-300:]!r}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace, args.seconds)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    found = check_bare_tree(spec)
    print(f"bare tree fails without a result: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
