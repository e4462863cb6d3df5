"""Runs one workload in a fresh process and prints its figures as JSON.

Started by ``run.py``; not meant to be run by hand.  The process imports the
package from the checkout's ``src`` directory, drives it only through
``wrsopt.cli.main`` and the public functions, and uses no threads.

Repetitions cycle through the workload's pair seeds until ``--seconds`` are
spent, and always cover every pair seed once.  After each repetition the
logs it wrote are checked.  With ``--trace 0`` each repetition is followed
by set-up probes (``probe.py`` in fresh interpreters, one at a time), so the
probes are spread over the whole run.  With ``--trace 1`` each round runs
the same inputs untraced and traced, in alternating order.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import spans as tracing  # noqa: E402
import workloads  # noqa: E402
from wrsopt import cli  # noqa: E402
from wrsopt.space import SpaceError, load_space, validate_candidate  # noqa: E402
from wrsopt.triallog import LogError, read_log, record_fingerprint, write_log  # noqa: E402

PROBES_PER_REPETITION = 3
PROBE_TIMEOUT_S = 20.0


class Rep:
    """Figures of one repetition."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.run_s = 0.0
        self.units = 0
        self.logged = 0.0
        self.trials = 0
        self.evaluated = 0
        self.cached = 0
        self.failed_trials = 0
        self.log_bytes = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.bests: dict[tuple, float] = {}
        self.fingerprints: list[str] = []
        self.spans: dict[str, tracing.SpanStats] = {}
        self.forest_nodes = 0


def execute(commands: list[workloads.Command]) -> tuple[float, list[tuple[int, float, str]]]:
    """Run the command list through cli.main; returns the wall time of the
    whole list and (exit code, seconds, stdout) per command."""
    outcomes = []
    start = time.perf_counter()
    for cmd in commands:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(cmd.argv))
        outcomes.append((code, time.perf_counter() - t0, out.getvalue()))
    return time.perf_counter() - start, outcomes


def fingerprint_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(record_fingerprint(rec), sort_keys=True).encode())
    return h.hexdigest()


def check_log(cmd: workloads.Command, stdout: str, rep: Rep, known: dict[str, str]) -> None:
    """Correctness checks on one run log; each violation is one failure."""
    fail = rep.failures.append
    try:
        header, records = read_log(cmd.log)
    except LogError as exc:
        fail(f"{cmd.log}: unreadable: {exc}")
        return
    with open(cmd.log, "rb") as fh:
        original = fh.read()
    rep.log_bytes += len(original)
    digest = fingerprint_digest(records)
    rep.fingerprints.append(digest)
    rep.trials += len(records)
    rep.logged += sum(r.wall_time for r in records)
    for r in records:
        rep.evaluated += r.status == "evaluated"
        rep.cached += r.status == "cached-hit"
        rep.failed_trials += r.status == "failed"
    incumbent, reached = -math.inf, 0
    for r in records:
        if r.status != "failed" and r.score > incumbent:
            incumbent, reached = r.score, r.iteration
    if cmd.pair is not None:
        rep.bests[cmd.pair] = incumbent
    if cmd.log in known:
        # same inputs as a checked earlier repetition: the log must match it
        if known[cmd.log] != digest:
            fail(f"{cmd.log}: differs from the earlier run on the same inputs")
        return
    known[cmd.log] = digest

    roundtrip = cmd.log + ".roundtrip"
    write_log(roundtrip, header, records)
    with open(roundtrip, "rb") as fh:
        if fh.read() != original:
            fail(f"{cmd.log}: read_log/write_log does not round-trip")
    os.remove(roundtrip)
    if len(records) != cmd.budget:
        fail(f"{cmd.log}: {len(records)} records for budget {cmd.budget}")
    space = load_space(cmd.space)
    for r in records:
        try:
            if validate_candidate(space, r.values) != tuple(r.values):
                fail(f"{cmd.log}: iteration {r.iteration} candidate is not normalized")
        except SpaceError as exc:
            fail(f"{cmd.log}: iteration {r.iteration}: {exc}")
        if r.status == "failed":
            fail(f"{cmd.log}: iteration {r.iteration} failed ({r.error})")
    # the run prints the engine's incumbent and the first iteration reaching
    # it; both must agree with the incumbent rebuilt from the log
    printed = [ln.split()[1::3][:2] for ln in stdout.splitlines() if ln.startswith("best: ")]
    want = [[f"{incumbent:.6g}", str(reached)]] if reached else []
    if printed != want:
        fail(f"{cmd.log}: printed best {printed} disagrees with the log's incumbent {want}")


def run_repetition(commands, known: dict[str, str], tracer=None) -> Rep:
    rep = Rep()
    if tracer is None:
        rep.wall, outcomes = execute(commands)
    else:
        tracer.install()
        try:
            rep.wall, outcomes = execute(commands)
        finally:
            tracer.uninstall()
        rep.spans, rep.forest_nodes = tracer.stats, tracer.forest_nodes
    for cmd, (code, seconds, stdout) in zip(commands, outcomes):
        rep.attempted += 1
        if code != 0:
            rep.failures.append(f"{' '.join(cmd.argv)}: exit {code}")
            continue
        if cmd.kind == "run":
            rep.run_s += seconds
            rep.units += cmd.budget
            check_log(cmd, stdout, rep, known)
        elif cmd.kind == "importance":
            check_importance(cmd, stdout, rep)
    rep.attempted += rep.trials
    if tracer is not None:
        reconcile(commands, rep)
    return rep


def check_importance(cmd: workloads.Command, stdout: str, rep: Rep) -> None:
    """The 3-D additive surface puts 70% of the variance on x0, so x0 must
    get probability 1 and every weight must be a finite percentage."""
    rows = {ln.split()[0]: ln.split()[1:] for ln in stdout.splitlines() if ln.strip()}
    try:
        weights = [float(v) for v in rows["weight"]]
        probs = [float(v) for v in rows["probability"]]
    except (KeyError, ValueError):
        rep.failures.append(f"{cmd.argv}: unparseable output")
        return
    if not all(0.0 <= w <= 100.0 for w in weights) or probs[0] != 1.0 or max(weights) != weights[0]:
        rep.failures.append(f"{cmd.argv}: weights {weights} probabilities {probs}")


def reconcile(commands, rep: Rep) -> None:
    """Counts seen by the wrappers must agree with the logs."""
    stats = rep.spans
    expected = {
        "engine.evaluate_with_cache": rep.trials,
        "objectives.call": rep.evaluated + rep.failed_trials,
        "importance.fit_forest": sum(c.fits for c in commands),
    }
    for name, want in expected.items():
        if stats[name].calls != want:
            rep.failures.append(f"trace: {name} called {stats[name].calls} times, logs imply {want}")


def quality(reps: list[Rep]) -> tuple[list[float], int, int]:
    """Final bests of the wrs runs over the pair seeds, and how many of the
    (space, seed) pairs wrs wins or ties against rs."""
    bests = {k: v for r in reps for k, v in r.bests.items()}
    pairs = sorted({(label, seed) for (label, seed, _) in bests
                    if (label, seed, "wrs") in bests and (label, seed, "rs") in bests})
    wrs = [bests[(label, seed, "wrs")] for label, seed in pairs]
    wins = sum(bests[(label, seed, "wrs")] >= bests[(label, seed, "rs")] for label, seed in pairs)
    return wrs, wins, len(pairs)


def probe_setup(wl: workloads.Workload, times: list[float], failures: list[str]) -> None:
    """Time one fresh interpreter from its start to the probe's ``ready``
    line: ``import wrsopt.cli``, ``load_space`` and ``make_objective``."""
    space, objective = wl.probe
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), SRC, space, objective],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
    line = proc.stdout.readline().strip() if ready else ""
    elapsed = time.perf_counter() - start
    try:
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    if proc.returncode != 0 or line != "ready":
        failures.append(f"set-up probe exited {proc.returncode}: {err.strip()[-300:]}")
    else:
        times.append(elapsed)


def end_to_end(reps: list[Rep], setup_times: list[float]) -> dict:
    """Timings are medians over the repetitions after the first, which warms
    up the process (first calls, page faults) and is only checked."""
    wrs_bests, _, _ = quality(reps)
    timed = reps[1:] or reps
    return {
        "setup_s": (statistics.median(setup_times) if setup_times else math.nan, "s"),
        "wall_s": (statistics.median([r.wall for r in timed]), "s"),
        "trials_per_s": (statistics.median([r.units / r.run_s if r.run_s else 0.0 for r in timed]), "1/s"),
        "overhead_ms_per_trial": (statistics.median([1000.0 * (r.run_s - r.logged) / max(r.trials, 1) for r in timed]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "best_mean": (statistics.fmean(wrs_bests) if wrs_bests else math.nan, "score"),
    }


def per_layer(plain: list[Rep], traced: list[Rep]) -> dict:
    """Counts from the first traced repetition (pair seed 0), seconds as the
    median over traced repetitions of each span's inclusive or self time."""
    first = traced[0]

    def calls(name: str) -> tuple:
        return first.spans[name].calls, "count"

    def secs(*names: str, field: str = "total_s") -> tuple:
        return statistics.median([sum(getattr(r.spans[n], field) for n in names) for r in traced]), "s"

    _, wins, pairs = quality(plain)
    overheads = [t.wall - p.wall for p, t in zip(plain, traced)]
    return {
        "importance.fit_forest.calls": calls("importance.fit_forest"),
        "importance.fit_forest.s": secs("importance.fit_forest"),
        "importance.nodes": (first.forest_nodes, "count"),
        "importance.main_effect_fractions.s": secs("importance.main_effect_fractions"),
        "samplers.rs_step.calls": calls("samplers.rs_step"),
        "samplers.rs_step.s": secs("samplers.rs_step"),
        "samplers.wrs_step.calls": calls("samplers.wrs_step"),
        "samplers.wrs_step.s": secs("samplers.wrs_step"),
        "samplers.sobol.ask.s": secs("samplers.sobol.ask"),
        "samplers.nelder_mead.ask_tell.s": secs("samplers.nelder_mead.ask", "samplers.nelder_mead.tell"),
        "samplers.pso.ask_tell.s": secs("samplers.pso.ask", "samplers.pso.tell"),
        "sobol.next_point.calls": calls("sobol.next_point"),
        "sobol.next_point.s": secs("sobol.next_point"),
        "space.sample.calls": calls("space.sample"),
        "space.sample.s": secs("space.sample"),
        "space.candidate_key.calls": calls("space.candidate_key"),
        "space.candidate_key.s": secs("space.candidate_key"),
        "space.load_space.s": secs("space.load_space"),
        "engine.evaluate_with_cache.calls": calls("engine.evaluate_with_cache"),
        "engine.evaluate_with_cache.s": secs("engine.evaluate_with_cache"),
        "engine.trials": (first.trials, "count"),
        "engine.cache_hit_ratio": (first.cached / max(first.trials, 1), "fraction"),
        "engine.execute_run.s": secs("engine.execute_run"),
        "engine.self_s": secs("engine.execute_run", "engine.evaluate_with_cache", field="self_s"),
        "objectives.call.calls": calls("objectives.call"),
        "objectives.call.s": secs("objectives.call"),
        "triallog.write_log.s": secs("triallog.write_log"),
        "triallog.read_log.s": secs("triallog.read_log"),
        "triallog.bytes": (first.log_bytes, "bytes"),
        "reporting.summarize.s": secs("reporting.summarize"),
        "reporting.polyfit.s": secs("reporting.polyfit"),
        "reporting.compare.s": secs("reporting.compare"),
        "cli.main.s": secs("cli.main"),
        "cli.self_s": secs("cli.main", field="self_s"),
        "quality.win_rate": (wins / pairs if pairs else math.nan, "fraction"),
        "quality.pairs": (pairs, "count"),
        "trace.overhead_s": (statistics.median(overheads[1:] or overheads), "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    wl = workloads.build(args.workload, args.seed, args.workdir, args.tiny)
    known: dict[str, str] = {}
    setup = run_repetition(wl.setup, known) if wl.setup else Rep()

    tracer = tracing.Tracer() if args.trace else None
    plain: list[Rep] = []
    traced: list[Rep] = []
    setup_times: list[float] = []
    probe_failures: list[str] = []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        t0 = time.perf_counter()
        commands = wl.repetition(wl.pair_seeds[k % len(wl.pair_seeds)])
        if tracer is None:
            plain.append(run_repetition(commands, known))
            for _ in range(PROBES_PER_REPETITION):
                probe_setup(wl, setup_times, probe_failures)
        elif k % 2 == 0:
            plain.append(run_repetition(commands, known))
            traced.append(run_repetition(commands, known, tracer))
        else:
            # traced first in odd rounds, so an order effect (warm caches,
            # logs just written) does not enter trace.overhead_s with one sign
            traced.append(run_repetition(commands, known, tracer))
            plain.append(run_repetition(commands, known))
        k += 1
        now = time.perf_counter()
        if k >= len(wl.pair_seeds) and now + (now - t0) > deadline:
            break

    reps = plain + traced
    failures = setup.failures + probe_failures + [f for r in reps for f in r.failures]
    digest = hashlib.sha256(
        "".join(setup.fingerprints + [f for r in plain[: len(wl.pair_seeds)] for f in r.fingerprints]).encode()
    ).hexdigest()
    metrics = per_layer(plain, traced) if tracer is not None else end_to_end(plain, setup_times)
    result = {
        "attempted": setup.attempted + len(setup_times) + len(probe_failures) + sum(r.attempted for r in reps),
        "failed": len(failures),
        "repetition_walls": [round(r.wall, 4) for r in reps],
        "digest": digest,
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if traced:
        result["largest_self_time"] = max(traced[0].spans.items(), key=lambda kv: kv[1].self_s)[0]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
