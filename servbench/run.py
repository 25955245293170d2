#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds relap_serve and the servbench harness from source (CMake, into
$CARGO_TARGET_DIR or .bench_build at the repository root), then runs one
workload and relays its report. The last stdout line is the JSON result.

    python3 servbench/run.py --workload warm_wire --seed 1 --seconds 10 --trace 0

Exits non-zero without a result line if the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("warm_wire", "cold_het", "mixed_churn")
# The harness must end within this many seconds; it is killed otherwise.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out: Path) -> bool:
    """Configures once, then builds the two targets (a no-op when current)."""
    # Compiler temporaries stay inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "servbench", "relap_serve",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("servbench: build failed", file=sys.stderr)
        return 1
    work_dir = out / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(out / "servbench"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--server", str(out / "relap" / "relap_serve"), "--work-dir", str(work_dir)]
    # Own process group, shared with the server child, so nothing the run
    # started outlives it: not on a timeout, not on a crash.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"servbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group is already empty
    child.wait()
    shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
