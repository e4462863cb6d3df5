"""Run orchestration: one trial loop over the paper's two phases, the
evaluation cache, and best-so-far tracking.

Scores are maximized throughout.  Every trial, including cache hits and
failures, consumes exactly one unit of the budget, so a completed run always
holds exactly N records.

``execute_run`` draws the random-search phase itself: ``RunConfig.rs_trials``
rs_step candidates, tagged "rs".  At the boundary it builds the strategy
once; for wrs that is where the one importance fit runs and the frozen
profile is written into the header.  The strategy then follows ask/tell for
the rest of the budget, its records tagged with its name: ``ask()`` returns
the next candidate and ``tell(score)`` reports its score.  The loop alone
owns the cache and alone refuses a run whose rs phase, or whole run, failed
in every trial.  It writes into the run only through ``RunResult``'s event
methods, trial, warning and profile; no strategy writes into the run.
``RunConfig.validate``, by the rules ``read_log`` applies to a log's header
(``triallog.validate_settings``), is the one signal for a configuration a
run cannot take: the samplers, whose only caller is this loop, check
nothing again.  A run stops asking when the budget is spent, even in the
middle of a PSO generation.

Randomness is split into three independent streams derived from the run
seed: candidate values, per-step change decisions, and forest bootstrapping.
Only the value stream feeds candidate coordinates, which is why a weighted
run whose probabilities are all 1 replays the plain random-search candidate
sequence exactly.  ``fit_weights`` derives the forest stream from the seed
alone, so ``importance`` on a log grows the forest its run grew.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .importance import (
    ForestConfig,
    ImportanceError,
    ZeroVarianceError,
    fit_forest,
    main_effect_fractions,
    weights_to_probabilities,
)
from .objectives import Objective, ObjectiveFailure
from .samplers import PSO_SWARM, ChangeProfile, NelderMeadSampler, PsoSampler, SobolSampler, rs_step, wrs_step
from .space import SearchSpace, candidate_key, space_digest, space_to_dict
from .triallog import FAILED_SCORE, SETTINGS_GROUPS, RunHeader, TrialRecord, resolve_overrides, validate_settings


class EngineError(RuntimeError):
    """Runtime failure inside a run."""


class AllTrialsFailedError(EngineError):
    """Every trial of a run, or of its rs phase, failed."""


@dataclass(frozen=True)
class RunConfig:
    strategy: str
    budget: int
    init: int = 0
    seed: int = 0
    prob_overrides: tuple[tuple[str, float], ...] = ()
    kmin_overrides: tuple[tuple[str, int], ...] = ()
    sampler_options: tuple[tuple[str, float], ...] = ()

    @property
    def rs_trials(self) -> int:
        """Length of the random-search phase: budget for rs, init for wrs, else 0."""
        return {"rs": self.budget, "wrs": self.init}.get(self.strategy, 0)

    def settings(self) -> dict[str, dict]:
        """The NAME=VALUE settings the run applies and its header records:
        for a name given twice the last value wins, '*' included, keys are
        sorted and empty groups left out.  Nothing else reads the pairs."""
        groups = zip(SETTINGS_GROUPS, (self.sampler_options, self.prob_overrides, self.kmin_overrides))
        return {key: dict(sorted(dict(pairs).items())) for key, pairs in groups if pairs}

    def validate(self, space: SearchSpace) -> None:
        validate_settings(space, self.strategy, self.budget, self.init, self.seed, self.settings())


@dataclass(frozen=True)
class BestState:
    """Incumbent candidate and score; ties replace the incumbent."""

    candidate: tuple | None = None
    score: float = FAILED_SCORE
    iteration: int = 0


def evaluate_with_cache(
    objective: Objective, space: SearchSpace, values: tuple, cache: dict, iteration: int, phase: str
) -> TrialRecord:
    """Evaluate one candidate through the cache and build its record.

    The cache maps a candidate key to (score, error token or None). Failures
    are cached too: re-proposing a crashed candidate must not re-run the
    objective.
    """
    key = candidate_key(space, values)
    start = time.perf_counter()
    hit = cache.get(key)
    if hit is not None:
        (score, error), status = hit, "cached-hit"
    else:
        try:
            score, status, error = objective(values), "evaluated", None
        except ObjectiveFailure as exc:
            score, status, error = FAILED_SCORE, "failed", exc.reason
        cache[key] = (score, error)
    return TrialRecord(iteration, key, score, phase, status, time.perf_counter() - start, error)


@dataclass
class RngBundle:
    """The three independent streams a run consumes."""

    values: np.random.Generator
    decisions: np.random.Generator
    forest: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngBundle":
        streams = np.random.SeedSequence(seed).spawn(3)
        return cls(*(np.random.default_rng(s) for s in streams))


@dataclass
class RunResult:
    """The run's one sink: the header, complete before trial 1 but for its
    profile, then one method per event, in run order.  A wrs run's fallback
    warning, if any, and its profile come once, at the phase boundary; rs
    and the others leave the profile None."""

    header: RunHeader
    records: list[TrialRecord] = field(default_factory=list)
    best: BestState = field(default_factory=BestState)
    warnings: list[str] = field(default_factory=list)

    def trial(self, rec: TrialRecord) -> None:
        """Append a record; unless it failed, a score >= the incumbent's replaces it."""
        self.records.append(rec)
        if not rec.failed and rec.score >= self.best.score:
            self.best = BestState(tuple(rec.values), rec.score, rec.iteration)

    def profile(self, weights: list[float] | None, probs: Sequence[float], k_mins: Sequence[int]) -> None:
        self.header.profile = {"weights": weights, "probs": list(probs), "k_mins": list(k_mins)}

    def warning(self, text: str) -> None:
        self.warnings.append(text)


def fit_weights(trials: Sequence[TrialRecord], space: SearchSpace, seed: int) -> tuple[float, ...]:
    """The main-effect weights of the forest a wrs run with this seed fits
    on trials: ForestConfig's defaults, grown on the run's forest stream.
    The one place that names them, for a run's profile and for
    ``importance``; raises ImportanceError as fit_forest does."""
    forest = fit_forest(trials, space, ForestConfig(), RngBundle.from_seed(seed).forest)
    return main_effect_fractions(forest, space)


def _build_profile(
    space: SearchSpace,
    config: RunConfig,
    phase1: Sequence[TrialRecord],
) -> tuple[ChangeProfile, list[float] | None, str | None]:
    """Importance fit plus overrides, frozen into the phase-2 profile; the
    one place a ChangeProfile is built.

    A dimension without a prob override gets p_i = max(w_i / w_max, 0.01),
    with w_max the largest fitted weight among those dimensions, so one of
    them is at 1 whatever the overrides say.  When all of their weights are
    0, they all get 1, as in every other fallback to uniform probabilities.

    Returns (profile, weights, fallback reason or None); weights is None
    when no forest was fit (full override coverage or a fallback).  The
    config has passed validate, so the profile keeps ChangeProfile's rules.
    """
    d = len(space)
    settings = config.settings()
    prob_over = resolve_overrides(space, settings.get("prob_overrides", {}))
    kmin_over = resolve_overrides(space, settings.get("kmin_overrides", {}))

    weights, base, fallback = None, [1.0] * d, None
    if len(prob_over) < d:  # full coverage needs no fit
        if config.init < 2:
            fallback = "phase 1 too short to estimate importance"
        else:
            try:
                fractions = fit_weights(phase1, space, config.seed)
                free = [i for i in range(d) if i not in prob_over]
                for i, p in zip(free, weights_to_probabilities([fractions[i] for i in free])):
                    base[i] = p
                weights = list(fractions)
            except ZeroVarianceError:
                fallback = "phase-1 scores carried no variance"
            except ImportanceError as exc:
                fallback = f"importance estimation failed ({exc})"
    profile = ChangeProfile(
        # float() and int(): an override given as 1 or True is written 1.0 and 1
        probs=tuple(float(prob_over.get(i, base[i])) for i in range(d)),
        # phase 1 drew init fresh values on every axis, so a default
        # k_min of init forces a resample on the first weighted step only
        k_mins=tuple(int(kmin_over.get(i, config.init)) for i in range(d)),
        gen_counts=[config.init] * d,
    )
    return profile, weights, fallback


class _WeightedSearch:
    """The weighted phase of wrs: each ask is one wrs_step against the run's
    incumbent or, while every trial has failed, the last record.  It reads
    the RunResult the loop fills and writes nothing into it."""

    def __init__(self, space: SearchSpace, profile: ChangeProfile, rngs: RngBundle, result: RunResult):
        self.space, self.profile, self.rngs, self.result = space, profile, rngs, result

    def ask(self) -> tuple:
        # while every trial so far failed, copy the last attempt's coordinates; an
        # init=0 first step has no record, and gen_counts <= k_mins forces a full resample
        best, records = self.result.best.candidate, self.result.records
        incumbent = best if best is not None else records[-1].values if records else None
        return wrs_step(self.space, incumbent, self.profile, self.rngs.values, self.rngs.decisions)

    def tell(self, score: float) -> None:
        pass


def _make_strategy(space: SearchSpace, config: RunConfig, rngs: RngBundle, result: RunResult):
    """The strategy for the trials after the rs phase, built once at its end;
    for wrs, the one importance fit runs on the rs records and the run gets
    any fallback warning, then the profile."""
    options = config.settings().get("sampler", {})
    if config.strategy == "wrs":
        profile, weights, fallback = _build_profile(space, config, result.records)
        if fallback:
            result.warning(f"{fallback}; using uniform change probabilities")
        result.profile(weights, profile.probs, profile.k_mins)
        return _WeightedSearch(space, profile, rngs, result)
    if config.strategy == "sobol":
        return SobolSampler(space, rngs.values)
    if config.strategy == "nelder-mead":
        return NelderMeadSampler(space, rngs.values, **options)
    # a run never asks past its budget, so particles beyond it are never
    # emitted; the first generation's positions are a prefix of one stream
    swarm = max(2, min(options.get("swarm", PSO_SWARM), config.budget))
    return PsoSampler(space, rngs.values, **{**options, "swarm": swarm})


def execute_run(space: SearchSpace, objective: Objective, config: RunConfig) -> RunResult:
    """Validate, write the header, then run exactly config.budget trials
    into one RunResult: the rs phase, then the strategy built at its end."""
    config.validate(space)
    result = RunResult(
        header=RunHeader(
            strategy=config.strategy,
            budget=config.budget,
            init=config.init,
            seed=config.seed,
            objective=objective.spec.text or f"{objective.spec.kind}:{objective.spec.target}",
            space=space_to_dict(space),
            space_digest=space_digest(space),
            options=config.settings(),
        )
    )
    rngs = RngBundle.from_seed(config.seed)
    cache = {}
    rs_trials = config.rs_trials
    for it in range(1, rs_trials + 1):
        result.trial(evaluate_with_cache(objective, space, rs_step(space, rngs.values), cache, it, "rs"))
    if rs_trials and result.best.candidate is None:
        raise AllTrialsFailedError(f"all {rs_trials} trials of the rs phase failed")
    if rs_trials < config.budget:  # an rs run has no phase after its rs phase
        strategy = _make_strategy(space, config, rngs, result)
        for it in range(rs_trials + 1, config.budget + 1):
            rec = evaluate_with_cache(objective, space, strategy.ask(), cache, it, config.strategy)
            result.trial(rec)
            strategy.tell(rec.score)
    if result.best.candidate is None:
        raise AllTrialsFailedError("every trial of the run failed")
    return result
