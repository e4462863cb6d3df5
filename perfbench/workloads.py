"""Workload definitions: the inputs each workload writes and the ``wrsopt``
command lists one repetition runs.

Paired wrs/rs runs use the fixed pair seeds 0, 1, 2, ... as acceptance test
c05 does, so the quality figures (``best_mean``, ``quality.win_rate``) are
the same on every run of the same code.  Everything else a workload generates comes
from the benchmark seed: the importance log of ``wrs-paper`` and the
Nelder-Mead and PSO run seeds of ``baselines-long``.

This module imports nothing from ``wrsopt``: spaces are written as JSON,
which ``load_space`` reads as YAML.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

NAMES = ("wrs-paper", "baselines-long")

# reference importance weights of acceptance test c05's 12-D conv surrogate
REFERENCE_WEIGHTS = (7.4, 11.85, 0.51, 0.79, 1.62, 0.73, 2.26, 1.26, 26.28, 0.87, 3.22, 1.75)


@dataclass(frozen=True)
class Command:
    """One ``wrsopt`` invocation.  ``log``, ``space`` and ``budget`` are set
    for ``run`` commands; ``pair`` tags the runs the quality figures pair up
    as (space label, seed, strategy)."""

    argv: tuple[str, ...]
    log: str | None = None
    space: str | None = None
    budget: int = 0
    fits: int = 0
    pair: tuple[str, int, str] | None = None

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    pair_seeds: tuple[int, ...]
    probe: tuple[str, str]  # space file and objective spec that setup_s times
    repetition: Callable[[int], list[Command]]  # the commands for one pair seed
    setup: list[Command] = field(default_factory=list)


def _write_space(path: str, dims: list[dict]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dimensions": dims}, fh)
    return path


def run_command(space: str, objective: str, strategy: str, budget: int, seed: int, out: str,
                init: int = 0, extra: tuple[str, ...] = (), pair: tuple | None = None) -> Command:
    argv = ["run", "--space", space, "--objective", objective, "--strategy", strategy,
            "--budget", str(budget), "--seed", str(seed), "--out", out]
    if init:
        argv += ["--init", str(init)]
    argv += list(extra)
    overridden = any(a.startswith("*=") for a in extra)
    fits = int(strategy == "wrs" and init >= 2 and not overridden)
    return Command(tuple(argv), log=out, space=space, budget=budget, fits=fits, pair=pair)


def _real(name: str, low: float, high: float) -> dict:
    return {"name": name, "kind": "real", "low": low, "high": high}


def _int(name: str, low: int, high: int) -> dict:
    return {"name": name, "kind": "int", "low": low, "high": high}


def wrs_paper(seed: int, tiny: bool) -> Workload:
    """Paper settings: wrs (budget 300, init 110) against rs on the 10-D
    rastrigin space and the 12-D conv surrogate, plus ``importance`` on a
    500-trial 3-D additive-anova rs log (the c04 shape)."""
    budget, init, n_log = (40, 15, 60) if tiny else (300, 110, 500)
    rastrigin = _write_space("rastrigin10.json", [_real(f"x{i}", -5.12, 5.12) for i in range(10)])
    conv = _write_space(
        "conv12.json",
        [_int("conv_blocks", 3, 6), _int("dense_layers", 1, 4)]
        + [_int(f"conv{i}", 100, 1024) for i in range(1, 7)]
        + [_int(f"dense{i}", 1024, 2048) for i in range(1, 5)],
    )
    anova = _write_space("anova3.json", [_real(f"x{i}", 0.0, 1.0) for i in range(3)])
    conv_obj = "builtin:additive-anova?coeffs=" + ",".join(repr(math.sqrt(w)) for w in REFERENCE_WEIGHTS) + "&direction=maximize"
    anova_obj = f"builtin:additive-anova?coeffs={math.sqrt(7)!r},{math.sqrt(2)!r},1&direction=maximize"
    importance_log = "anova3-rs.jsonl"
    cases = (("rastrigin10", rastrigin, "builtin:rastrigin"), ("conv12", conv, conv_obj))

    def repetition(s: int) -> list[Command]:
        cmds = []
        for label, space, obj in cases:
            cmds.append(run_command(space, obj, "wrs", budget, s, f"{label}-wrs-s{s}.jsonl", init=init, pair=(label, s, "wrs")))
            cmds.append(run_command(space, obj, "rs", budget, s, f"{label}-rs-s{s}.jsonl", pair=(label, s, "rs")))
        cmds.append(Command(("importance", importance_log), fits=1))
        return cmds

    return Workload(
        name="wrs-paper",
        pair_seeds=(0,) if tiny else (0, 1, 2, 3),
        probe=(rastrigin, "builtin:rastrigin"),
        setup=[run_command(anova, anova_obj, "rs", n_log, seed, importance_log)],
        repetition=repetition,
    )


def baselines_long(seed: int, tiny: bool) -> Workload:
    """Long baseline streams on a mixed int/real rastrigin space, then
    ``report`` on every log and one ``compare`` across them."""
    budget, init = (300, 20) if tiny else (10000, 100)
    space = _write_space("mixed6.json", [_real(f"r{i}", -5.12, 5.12) for i in range(3)] + [_int(f"n{i}", -5, 5) for i in range(3)])
    obj = "builtin:rastrigin"

    def repetition(s: int) -> list[Command]:
        own = seed * 100 + s  # unpaired strategies follow the benchmark seed
        runs = [
            run_command(space, obj, "rs", budget, s, f"rs-s{s}.jsonl", pair=("mixed6", s, "rs")),
            run_command(space, obj, "sobol", budget, s, f"sobol-s{s}.jsonl"),
            run_command(space, obj, "nelder-mead", budget, own, f"nelder-mead-s{s}.jsonl"),
            run_command(space, obj, "pso", budget, own, f"pso-s{s}.jsonl"),
            run_command(space, obj, "wrs", budget, s, f"wrs-s{s}.jsonl", init=init,
                        extra=("--set-prob", "*=0.3", "--set-prob", "r0=1"), pair=("mixed6", s, "wrs")),
        ]
        reports = [Command(("report", c.log)) for c in runs]
        return runs + reports + [Command(("compare",) + tuple(c.log for c in runs))]

    return Workload(
        name="baselines-long",
        pair_seeds=(0,),
        probe=(space, obj),
        repetition=repetition,
    )


def build(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """Write the workload's input files into workdir (the current directory
    afterwards) and return its definition."""
    by_name = {"wrs-paper": wrs_paper, "baselines-long": baselines_long}
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    return by_name[name](seed, tiny)
