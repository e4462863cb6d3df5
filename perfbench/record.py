"""Record a result set: the benchmark run on several seeds per workload.

    python3 perfbench/record.py --out FILE [--seeds 1-10] [--trace 0|1]

Runs the command that BENCHMARK.json names, once per seed on each of its
workloads, with its ``run_seconds``, from the root of the checkout.  Writes
every run's result and repetition wall times, each workload's digests, and
per metric the sample count, median, quartiles and spread (quartile distance
as a share of the median), under a provenance block: git SHA, Python and
numpy versions, nproc and the seeds.
Prints each end-to-end metric's spread against a third of its bound.
Exits 1 if a run reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summary(values: list[float]) -> dict:
    """Sample count, median, quartiles (statistics.quantiles, n=4) and the
    quartile distance as a share of the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def provenance(bench: dict, seeds: list[int], trace: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": bench["run_seconds"],
        "trace": trace,
        "seeds": seeds,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, str, list[float]]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    digest = next((ln.split()[2] for ln in lines if ln.startswith("digest ")), "")
    walls = next((ln.split(":")[1].split() for ln in lines if ln.startswith("repetition walls")), [])
    return json.loads(lines[-1]), digest, [float(w) for w in walls]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_benchmark()
    seeds = parse_seeds(args.seeds)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    result = {"provenance": provenance(bench, seeds, args.trace), "workloads": {}}
    ok = True
    for name in [w["name"] for w in bench["workloads"]]:
        runs, digests = [], {}
        for seed in seeds:
            out, digest, walls = run_once(bench, name, seed, args.trace)
            if not out["correct"]:
                print(f"{name} seed {seed}: correct is false ({out['failed']} of {out['attempted']} failed)")
                ok = False
            digests[str(seed)] = digest
            runs.append({"seed": seed, "correct": out["correct"], "attempted": out["attempted"],
                         "failed": out["failed"], "metrics": {k: v["value"] for k, v in out["metrics"].items()},
                         "repetition_walls": walls})
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()
                                                     if k in bounds and bounds[k] is not None), flush=True)
        stats = {}
        for m in declared:
            values = [r["metrics"][m["name"]] for r in runs if m["name"] in r["metrics"]]
            if values:
                stats[m["name"]] = {"unit": m["unit"], **summary(values)}
        result["workloads"][name] = {"seeds": seeds, "digests": digests, "runs": runs, "summary": stats}

        for metric, st in stats.items():
            bound = bounds.get(metric)
            if bound is None:
                continue
            verdict = "steady" if st["spread"] < bound / 3 else "WIDE"
            print(f"  {name:15s} {metric:22s} median {st['median']:.6g}  spread {st['spread']:.4f}  bound {bound}  {verdict}")

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
