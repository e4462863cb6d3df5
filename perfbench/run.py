"""wrsopt benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Before it, a ``digest`` line gives the sha256 of the record fingerprints of
every log the run checked; two runs of the same code and seed print the
same digest.

The workload runs in one fresh worker process (``worker.py``).  With
``--trace 0`` the worker also measures the set-up time, by starting
``probe.py`` in fresh interpreters between repetitions.  Inputs and logs live in a scratch directory under
``.perfbench_work`` in the checkout, which is removed at exit.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEADLINE_S = 170.0


def main() -> int:
    parser = argparse.ArgumentParser(description="wrsopt benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes; figures are not comparable")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "wrsopt", "cli.py")):
        print(f"error: no wrsopt sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir] + (["--tiny"] if args.tiny else [])
        remaining = DEADLINE_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            print(f"error: worker did not finish within {remaining:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            print(f"error: worker exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    for line in result["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    if args.trace:
        print(f"largest self time: {result['largest_self_time']}")
    print("repetition walls (s): " + " ".join(map(str, result["repetition_walls"])))
    print(f"digest {args.workload} {result['digest']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
