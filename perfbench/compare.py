"""Compare two result sets written by record.py.

    python3 perfbench/compare.py OLD.json NEW.json

Prints one row per workload with a verdict for each metric that both sets
carry a bound for (the end-to-end metrics of BENCHMARK.json):

- ``better`` / ``worse``: the new median moved the metric's way / against
  it by more than its bound, as a share of the old median, and neither
  set's spread is wider than the bound;
- with a spread wider than the bound, ``better`` or ``worse`` only when
  every new run beats, or loses to, every old run;
- ``unresolved`` otherwise, including a move within the bound.

Below the table it lists the deterministic figures that differ on a seed
both sets ran: the log digest, ``best_mean``, and the per-layer counts.
Exits 1 if any verdict is ``worse`` or a deterministic figure changed.
"""

from __future__ import annotations

import argparse
import json
import sys

from record import load_benchmark, summary

DETERMINISTIC = ("best_mean", "importance.nodes", "engine.trials", "engine.cache_hit_ratio",
                 "quality.win_rate", "quality.pairs")


def deterministic(metric: str) -> bool:
    return metric in DETERMINISTIC or metric.endswith(".calls")


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    a, b = summary(old), summary(new)
    if max(a["spread"], b["spread"]) > bound:
        if min(sign * v for v in new) > max(sign * v for v in old):
            return "better"
        if max(sign * v for v in new) < min(sign * v for v in old):
            return "worse"
        return "unresolved"
    base = abs(a["median"]) or 1.0
    change = sign * (b["median"] - a["median"]) / base
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "unresolved"


def values(result_set: dict, workload: str, metric: str) -> list[float]:
    runs = result_set["workloads"][workload]["runs"]
    return [r["metrics"][metric] for r in runs if metric in r["metrics"]]


def main() -> int:
    parser = argparse.ArgumentParser(description="compare two result sets")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(args.old, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    declared = load_benchmark()["end_to_end"]

    shared = [w for w in old["workloads"] if w in new["workloads"]]
    columns = [m for m in declared if any(values(old, w, m["name"]) and values(new, w, m["name"]) for w in shared)]
    header = ["workload"] + [m["name"] for m in columns]
    rows, changed, regressed = [], [], False
    for w in shared:
        row = [w]
        for m in columns:
            a, b = values(old, w, m["name"]), values(new, w, m["name"])
            if not (a and b):
                row.append("-")
                continue
            v = verdict(a, b, m["better"], m["bound"])
            regressed |= v == "worse"
            ma, mb = summary(a)["median"], summary(b)["median"]
            row.append(f"{v} ({(mb - ma) / (abs(ma) or 1.0):+.1%})")
        rows.append(row)

        od, nd = old["workloads"][w]["digests"], new["workloads"][w]["digests"]
        old_runs = {str(r["seed"]): r["metrics"] for r in old["workloads"][w]["runs"]}
        new_runs = {str(r["seed"]): r["metrics"] for r in new["workloads"][w]["runs"]}
        for seed in sorted(set(old_runs) & set(new_runs), key=int):
            if od[seed] != nd[seed]:
                changed.append(f"{w} seed {seed}: log digest differs")
            for metric, a in old_runs[seed].items():
                if deterministic(metric) and new_runs[seed].get(metric) != a:
                    changed.append(f"{w} seed {seed} {metric}: {a!r} -> {new_runs[seed].get(metric)!r}")

    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(wd) for c, wd in zip(r, widths)).rstrip())
    if changed:
        print("\ndeterministic figures that changed:")
        for line in changed:
            print(f"  {line}")
    return 1 if regressed or changed else 0


if __name__ == "__main__":
    sys.exit(main())
