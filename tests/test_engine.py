import dataclasses
import inspect
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from wrsopt.engine import (
    AllTrialsFailedError,
    BestState,
    RngBundle,
    RunConfig,
    RunResult,
    _build_profile,
    _make_strategy,
    _run_steps,
    evaluate_with_cache,
    execute_run,
    fit_weights,
)
from wrsopt.objectives import ObjectiveFailure, make_objective
from wrsopt.samplers import NelderMeadSampler, PsoSampler, rs_step
from wrsopt.space import Dimension, SearchSpace, candidate_key
from wrsopt.triallog import FAILED_SCORE, ConfigError, LogError, RunHeader, TrialRecord, read_log, record_fingerprint, write_log

from _stream_oracle import spaces
from _util import int_space, mixed_space, python_objective, real_space


def sphere_score(values):
    return -sum(v * v for v in values)


class TestRunConfig:
    def test_valid_wrs_config(self):
        RunConfig(strategy="wrs", budget=30, init=10, seed=1).validate(real_space(2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(strategy="bogus", budget=10),
            dict(strategy="rs", budget=0),
            dict(strategy="wrs", budget=10, init=10),
            dict(strategy="wrs", budget=10, init=-1),
            dict(strategy="rs", budget=10, init=5),
            dict(strategy="rs", budget=10, prob_overrides=(("x0", 0.5),)),
            dict(strategy="sobol", budget=10, kmin_overrides=(("x0", 3),)),
            dict(strategy="wrs", budget=10, prob_overrides=(("x0", 0.0),)),
            dict(strategy="wrs", budget=10, prob_overrides=(("x0", 1.5),)),
            dict(strategy="wrs", budget=10, kmin_overrides=(("x0", -1),)),
            dict(strategy="rs", budget=10, sampler_options=(("swarm", 10),)),
            dict(strategy="pso", budget=10, sampler_options=(("bogus", 1.0),)),
            dict(strategy="pso", budget=10, sampler_options=(("swarm", 1),)),
            dict(strategy="nelder-mead", budget=10, sampler_options=(("swarm", 5),)),
            dict(strategy="wrs", budget=10, prob_overrides=(("x0", 0.5), ("x0", 1.5))),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises((ConfigError, Exception)) as exc:
            RunConfig(**kwargs).validate(real_space(2))
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(strategy="rs", budget=10, seed=-1),
            dict(strategy="pso", budget=10, sampler_options=(("swarm", math.inf),)),
            dict(strategy="pso", budget=10, sampler_options=(("swarm", math.nan),)),
            dict(strategy="pso", budget=10, sampler_options=(("swarm", 2.5),)),
            dict(strategy="pso", budget=10, sampler_options=(("omega", math.inf),)),
            dict(strategy="nelder-mead", budget=10, sampler_options=(("alpha", math.nan),)),
            # an infinite or nan k-min used to pass, and the run then failed turning it into an int
            dict(strategy="wrs", budget=10, init=2, kmin_overrides=(("x0", math.inf),)),
            dict(strategy="wrs", budget=10, init=2, kmin_overrides=(("x0", math.nan),)),
            # a value that is not a number used to end in a TypeError
            dict(strategy="wrs", budget=10, prob_overrides=(("x0", "0.5"),)),
            dict(strategy="pso", budget=10, sampler_options=(("omega", None),)),
        ],
        ids=[
            "negative-seed", "infinite-swarm", "nan-swarm", "fractional-swarm", "infinite-omega", "nan-alpha",
            "infinite-kmin", "nan-kmin", "string-probability", "null-option",
        ],
    )
    def test_seed_and_sampler_options_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs).validate(real_space(2))

    def test_sobol_limited_to_its_direction_numbers(self):
        RunConfig(strategy="sobol", budget=10).validate(real_space(21))
        with pytest.raises(ConfigError, match="at most 21 dimensions"):
            RunConfig(strategy="sobol", budget=10).validate(real_space(22))

    def test_sobol_budget_limited_to_its_points(self):
        # SobolEngine yields 2**30 points and raises on the next one
        RunConfig(strategy="sobol", budget=2**30).validate(real_space(2))
        RunConfig(strategy="rs", budget=2**30 + 1).validate(real_space(2))
        with pytest.raises(ConfigError, match="^sobol yields at most 1073741824 points; the budget is 1073741825$"):
            RunConfig(strategy="sobol", budget=2**30 + 1).validate(real_space(2))

    @pytest.mark.parametrize("strategy", ["nelder-mead", "pso"])
    @pytest.mark.parametrize("low, high", [(2**60, 2**60 + 100), (-(2**53) - 1, 0)], ids=["past-2**53", "past-minus-2**53"])
    def test_nelder_mead_and_pso_refuse_an_int_axis_past_2_53(self, strategy, low, high):
        # both move in floats, which hold no whole number between 2**60 and 2**60 + 100:
        # the axis collapsed to one point; rs, sobol and wrs draw it in Python ints
        space = SearchSpace((Dimension(name="x", kind="real", low=0.0, high=1.0), Dimension(name="n", kind="int", low=low, high=high)))
        message = (
            f"int dimension 'n' has a bound of magnitude above 2**53 for strategy {strategy}; "
            "nelder-mead and pso move in floats, which skip whole numbers there"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(strategy=strategy, budget=10).validate(space)
        for other in ("rs", "sobol", "wrs"):
            RunConfig(strategy=other, budget=10).validate(space)
        RunConfig(strategy=strategy, budget=10).validate(int_space(1, low=-(2**53), high=2**53))

    def test_unknown_dimension_name_in_override(self):
        # a setting a run cannot take, as every other: a ConfigError
        with pytest.raises(ConfigError, match="^no dimension named 'nope'$"):
            RunConfig(strategy="wrs", budget=10, prob_overrides=(("nope", 0.5),)).validate(real_space(2))


# a real and an int axis: the relaxation rounds one and not the other
_AB_SPACE = SearchSpace(
    (Dimension(name="a", kind="real", low=-1.0, high=1.0), Dimension(name="b", kind="int", low=-3, high=3))
)


class TestSamplerOptionRanges:
    @pytest.mark.parametrize(
        "strategy,key,value",
        [
            ("nelder-mead", "alpha", 0.0),
            ("nelder-mead", "alpha", 10.5),
            ("nelder-mead", "gamma", -1.0),
            ("nelder-mead", "gamma", 1e308),
            ("nelder-mead", "rho", 0.0),
            ("nelder-mead", "rho", 1.0),
            ("nelder-mead", "sigma", 0.0),
            ("nelder-mead", "sigma", 1.0),
            ("nelder-mead", "init_step", 0.0),
            ("nelder-mead", "init_step", 1.5),
            ("nelder-mead", "init_step", 1e308),
            ("pso", "omega", -0.1),
            ("pso", "omega", 1.0),
            ("pso", "c1", -1.0),
            ("pso", "c1", 1e308),
            ("pso", "c2", 4.5),
            ("pso", "swarm", 1.0),
        ],
    )
    def test_a_value_outside_its_range_is_refused(self, strategy, key, value):
        config = RunConfig(strategy=strategy, budget=10, sampler_options=((key, value),))
        with pytest.raises(ConfigError, match=f"^option '{key}' must lie in "):
            config.validate(_AB_SPACE)

    @pytest.mark.parametrize(
        "strategy,sampler", [("nelder-mead", NelderMeadSampler), ("pso", PsoSampler)], ids=["nelder-mead", "pso"]
    )
    def test_every_default_is_accepted(self, strategy, sampler):
        params = inspect.signature(sampler).parameters
        defaults = tuple((k, float(p.default)) for k, p in params.items() if k not in ("space", "rng"))
        RunConfig(strategy=strategy, budget=10, sampler_options=defaults).validate(_AB_SPACE)

    @pytest.mark.parametrize(
        "strategy,options",
        [
            ("nelder-mead", (("alpha", 10.0), ("gamma", 10.0), ("rho", 1e-9), ("sigma", 1 - 1e-9), ("init_step", 1.0))),
            ("nelder-mead", (("alpha", 1e-9), ("gamma", 1e-9), ("rho", 1 - 1e-9), ("sigma", 1e-9), ("init_step", 1e-9))),
            ("pso", (("omega", 1 - 1e-9), ("c1", 4.0), ("c2", 4.0), ("swarm", 2.0))),
            ("pso", (("omega", 0.0), ("c1", 0.0), ("c2", 0.0))),
        ],
        ids=["nm-high", "nm-low", "pso-high", "pso-zero"],
    )
    @pytest.mark.parametrize("space", [_AB_SPACE, real_space(2)], ids=["real-int", "real-real"])
    def test_values_at_the_ends_of_the_ranges_give_a_log_that_reads(self, strategy, options, space, tmp_path):
        config = RunConfig(strategy=strategy, budget=200, seed=1, sampler_options=options)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = execute_run(space, python_objective(sphere_score), config)
        path = str(tmp_path / "run.jsonl")
        write_log(path, result.header, result.records)
        assert len(read_log(path)[1]) == 200


class TestBestTracking:
    """RunResult.trial appends each record and folds it into the incumbent."""

    def rec(self, it, values, score, status="evaluated", phase="rs"):
        return TrialRecord(iteration=it, values=values, score=score, phase=phase, status=status, wall_time=0.0)

    def run_of(self, *recs):
        result = RunResult(header=RunHeader("rs", len(recs), 0, 0, "builtin:sphere", {}, ""))
        for rec in recs:
            result.trial(rec)
        assert result.records == list(recs)
        return result

    def test_improvement_replaces(self):
        best = self.run_of(self.rec(1, (1.0,), 2.0)).best
        assert best.candidate == (1.0,) and best.score == 2.0 and best.iteration == 1

    def test_tie_replaces_incumbent(self):
        best = self.run_of(self.rec(1, (1.0,), 2.0), self.rec(5, (3.0,), 2.0)).best
        assert best.candidate == (3.0,) and best.iteration == 5

    def test_worse_keeps_incumbent(self):
        best = self.run_of(self.rec(1, (1.0,), 2.0), self.rec(5, (3.0,), 1.5)).best
        assert best == BestState(candidate=(1.0,), score=2.0, iteration=1)

    def test_failed_never_wins(self):
        best = self.run_of(self.rec(1, (1.0,), float("-inf"), status="failed")).best
        assert best == BestState()

    def test_cached_hit_can_win(self):
        best = self.run_of(self.rec(1, (1.0,), 3.0, status="cached-hit")).best
        assert best.score == 3.0


class TestEventOrder:
    """execute_run writes into its RunResult through trial, warning and
    profile alone, in run order; the events rebuild the result."""

    @pytest.fixture
    def events(self, monkeypatch):
        seen = []
        for name in ("trial", "warning", "profile"):
            def spy(result, *args, _name=name, _method=getattr(RunResult, name)):
                seen.append((_name, *args))
                _method(result, *args)
            monkeypatch.setattr(RunResult, name, spy)
        return seen

    @staticmethod
    def kinds(events):
        """The events in order, a trial as its iteration."""
        return [e[1].iteration if e[0] == "trial" else e[0] for e in events]

    def check_rebuilt(self, result, events, monkeypatch):
        monkeypatch.undo()
        rebuilt = RunResult(header=dataclasses.replace(result.header, profile=None))
        for name, *args in events:
            getattr(rebuilt, name)(*args)
        assert rebuilt == result

    def test_wrs_profile_comes_once_at_the_boundary(self, events, monkeypatch):
        result = execute_run(real_space(3), python_objective(sphere_score), RunConfig(strategy="wrs", budget=30, init=10, seed=1))
        assert self.kinds(events) == [*range(1, 11), "profile", *range(11, 31)]
        weights, probs, k_mins = events[10][1:]
        assert result.header.profile == {"weights": weights, "probs": list(probs), "k_mins": list(k_mins)}
        assert weights is not None and result.warnings == []
        self.check_rebuilt(result, events, monkeypatch)

    @pytest.mark.parametrize("strategy", ["rs", "sobol", "nelder-mead", "pso"])
    def test_other_strategies_emit_trials_alone(self, strategy, events, monkeypatch):
        result = execute_run(real_space(3), python_objective(sphere_score), RunConfig(strategy=strategy, budget=30, seed=1))
        assert self.kinds(events) == list(range(1, 31))
        assert result.header.profile is None
        self.check_rebuilt(result, events, monkeypatch)

    @pytest.mark.parametrize(
        "init, fn, reason",
        [
            (1, sphere_score, "phase 1 too short to estimate importance"),
            (10, lambda v: 1.0, "phase-1 scores carried no variance"),
        ],
        ids=["init-1", "constant-scores"],
    )
    def test_a_fallback_warns_once_before_the_profile(self, init, fn, reason, events, monkeypatch):
        result = execute_run(real_space(2), python_objective(fn), RunConfig(strategy="wrs", budget=20, init=init, seed=9))
        assert self.kinds(events) == [*range(1, init + 1), "warning", "profile", *range(init + 1, 21)]
        assert events[init] == ("warning", f"{reason}; using uniform change probabilities")
        assert result.header.profile["weights"] is None
        self.check_rebuilt(result, events, monkeypatch)


class TestCache:
    def test_duplicate_candidate_not_reevaluated(self):
        space = int_space(1, low=0, high=1)
        objective = python_objective(lambda v: float(v[0]))
        cache = {}
        first = evaluate_with_cache(objective, space, (1,), cache, 1, "rs")
        second = evaluate_with_cache(objective, space, (1,), cache, 2, "rs")
        assert objective.calls == 1
        assert first.status == "evaluated" and second.status == "cached-hit"
        assert second.score == first.score

    def test_failure_cached_with_reason(self):
        space = int_space(1, low=0, high=1)

        def boom(values):
            raise ObjectiveFailure("exit 3")

        objective = python_objective(boom)
        cache = {}
        first = evaluate_with_cache(objective, space, (0,), cache, 1, "rs")
        second = evaluate_with_cache(objective, space, (0,), cache, 2, "rs")
        assert objective.calls == 1
        assert (first.status, second.status) == ("failed", "cached-hit")
        assert first.score == second.score == float("-inf")
        assert first.error == second.error == "exit 3"

    def test_float_int_candidates_do_not_collide(self):
        space = mixed_space()
        a = candidate_key(space, (0.5, 3, "relu"))
        b = candidate_key(space, (0.5, 3, "tanh"))
        assert a != b

    def test_keys_follow_float_equality(self):
        # 0.1 + 0.2 != 0.3 in binary, so both are evaluated; -0.0 == 0.0,
        # so the second signed zero is a hit on the first one's entry
        space = real_space(2, low=-1.0, high=1.0)
        objective = python_objective(lambda v: v[0] + v[1])
        cache = {}
        statuses = [
            evaluate_with_cache(objective, space, values, cache, it, "rs").status
            for it, values in enumerate([(0.1 + 0.2, 0.5), (0.3, 0.5), (0.0, 0.5), (-0.0, 0.5)], start=1)
        ]
        assert statuses == ["evaluated", "evaluated", "evaluated", "cached-hit"]
        assert len(cache) == 3 and objective.calls == 3

    def test_wall_time_is_a_whole_number_of_nanoseconds(self):
        # the trial clock counts nanoseconds, and wall_time is that count in
        # seconds, with no noise from subtracting two float clock readings
        space = int_space(2, low=0, high=3)
        result = execute_run(space, python_objective(sphere_score), RunConfig(strategy="rs", budget=40, seed=1))
        assert {r.status for r in result.records} == {"evaluated", "cached-hit"}
        assert [w for w in (r.wall_time for r in result.records) if w != round(w * 1e9) / 1e9] == []


class TestBudgets:
    @pytest.mark.parametrize(
        "strategy,kwargs",
        [
            ("rs", {}),
            ("sobol", {}),
            ("nelder-mead", {}),
            ("pso", {"sampler_options": (("swarm", 7),)}),
            ("wrs", {"init": 11}),
        ],
    )
    def test_exact_budget_and_numbering(self, strategy, kwargs):
        space = real_space(3)
        objective = python_objective(sphere_score)
        config = RunConfig(strategy=strategy, budget=33, seed=5, **kwargs)
        result = execute_run(space, objective, config)
        assert len(result.records) == 33
        assert [r.iteration for r in result.records] == list(range(1, 34))
        assert result.header.budget == 33
        assert result.header.strategy == strategy

    def test_pso_partial_final_generation(self):
        space = real_space(2)
        objective = python_objective(sphere_score)
        config = RunConfig(strategy="pso", budget=25, seed=2, sampler_options=(("swarm", 10),))
        result = execute_run(space, objective, config)
        assert len(result.records) == 25
        assert objective.calls <= 25  # duplicates may be served from cache

    def test_pso_builds_no_more_particles_than_its_budget_can_emit(self):
        # the initial swarm takes one uniform per particle and axis: 10 x 2
        config = RunConfig(strategy="pso", budget=10, seed=1, sampler_options=(("swarm", 1000),))
        rngs = RngBundle.from_seed(1)
        _make_strategy(real_space(2), config, rngs)
        expected = RngBundle.from_seed(1).values
        expected.random(10 * 2)
        assert rngs.values.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("budget,swarm", [(5, 20), (1, 20), (19, 20), (20, 50)])
    def test_pso_capped_at_its_budget_asks_what_the_full_swarm_would(self, budget, swarm):
        space = real_space(3)
        config = RunConfig(strategy="pso", budget=budget, seed=4, sampler_options=(("swarm", swarm),))
        result = execute_run(space, python_objective(sphere_score), config)
        full = PsoSampler(space, RngBundle.from_seed(4).values, swarm=swarm)
        asked = []
        for rec in result.records:
            asked.append(full.ask())
            full.tell(rec.score)
        assert [rec.values for rec in result.records] == asked
        assert result.header.options == {"sampler": {"swarm": swarm}}

    @pytest.mark.parametrize(
        "strategy,init,short,long",
        [
            *((strategy, 0, n, m) for strategy in ("rs", "sobol", "nelder-mead") for n, m in ((15, 40), (25, 60))),
            ("pso", 0, 15, 40),  # the short run ends inside the first generation of 20
            ("pso", 0, 45, 60),  # and past it
            ("wrs", 0, 15, 40),  # no rs phase
            ("wrs", 14, 15, 40),  # one weighted trial
            ("wrs", 10, 25, 60),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_shorter_budget_is_a_prefix_of_the_longer_run(self, strategy, init, short, long, seed):
        # same strategy, init, seed and settings: the run of budget N is the
        # first N trials of the run of budget M > N
        space = real_space(10)
        a, b = (
            execute_run(space, make_objective("builtin:rastrigin", space), RunConfig(strategy, budget, init, seed))
            for budget in (short, long)
        )
        assert [record_fingerprint(r) for r in a.records] == [record_fingerprint(r) for r in b.records[:short]]
        assert a.header.profile == b.header.profile

    def test_wrs_phase_tags(self):
        space = real_space(2)
        objective = python_objective(sphere_score)
        result = execute_run(space, objective, RunConfig(strategy="wrs", budget=20, init=8, seed=3))
        phases = [r.phase for r in result.records]
        assert phases[:8] == ["rs"] * 8
        assert phases[8:] == ["wrs"] * 12


class TestReproducibility:
    @pytest.mark.parametrize("strategy", ["rs", "sobol", "nelder-mead", "pso", "wrs"])
    def test_same_seed_same_records(self, strategy):
        space = mixed_space()

        def score(values):
            lr, layers, act = values
            return -(lr - 0.3) ** 2 - 0.1 * layers - (0.2 if act != "relu" else 0.0)

        kwargs = {"init": 10} if strategy == "wrs" else {}
        config = RunConfig(strategy=strategy, budget=30, seed=77, **kwargs)
        a = execute_run(space, python_objective(score), config)
        b = execute_run(space, python_objective(score), config)
        fps_a = [record_fingerprint(r) for r in a.records]
        fps_b = [record_fingerprint(r) for r in b.records]
        assert fps_a == fps_b
        assert a.best == b.best
        assert a.header.profile == b.header.profile

    def test_different_seeds_differ(self):
        space = real_space(4)
        objective = python_objective(sphere_score)
        a = execute_run(space, objective, RunConfig(strategy="rs", budget=10, seed=1))
        b = execute_run(space, objective, RunConfig(strategy="rs", budget=10, seed=2))
        assert [r.values for r in a.records] != [r.values for r in b.records]

    def test_wrs_with_all_probabilities_one_replays_rs(self):
        space = mixed_space()
        objective = python_objective(sphere_score_mixed)
        rs = execute_run(space, objective, RunConfig(strategy="rs", budget=40, seed=9))
        wrs = execute_run(
            space,
            python_objective(sphere_score_mixed),
            RunConfig(strategy="wrs", budget=40, init=10, seed=9, prob_overrides=(("*", 1.0),)),
        )
        fps_rs = [{k: v for k, v in record_fingerprint(r).items() if k != "phase"} for r in rs.records]
        fps_wrs = [{k: v for k, v in record_fingerprint(r).items() if k != "phase"} for r in wrs.records]
        assert fps_rs == fps_wrs

    @pytest.mark.parametrize("seed", range(5))
    def test_rs_run_is_the_rs_phase_of_a_wrs_run(self, seed):
        # with the importance fit run, unlike under a full override
        space = mixed_space()
        rs = execute_run(space, python_objective(sphere_score_mixed), RunConfig(strategy="rs", budget=40, seed=seed))
        wrs = execute_run(
            space, python_objective(sphere_score_mixed), RunConfig(strategy="wrs", budget=40, init=15, seed=seed)
        )
        assert [record_fingerprint(r) for r in rs.records[:15]] == [record_fingerprint(r) for r in wrs.records[:15]]
        assert rs.header.profile is None and wrs.header.profile["weights"] is not None


def sphere_score_mixed(values):
    lr, layers, act = values
    return -(lr**2) - 0.01 * layers - (0.1 if act == "gelu" else 0.0)


class TestWrsProfile:
    @pytest.mark.parametrize("seed", range(3))
    def test_the_profile_weights_are_fit_weights_on_phase_1(self, seed):
        # fit_weights is the one fit path: a run's profile and importance on its log both take it
        space = mixed_space()
        run = execute_run(space, python_objective(sphere_score_mixed), RunConfig(strategy="wrs", budget=40, init=25, seed=seed))
        assert run.header.profile["weights"] is not None
        assert fit_weights(run.records[:25], space, seed) == tuple(run.header.profile["weights"])

    def test_header_profile_holds_weights_probs_kmins(self):
        space = real_space(3, low=0.0, high=1.0)
        objective = python_objective(lambda v: 10.0 * v[0] + v[1])
        result = execute_run(space, objective, RunConfig(strategy="wrs", budget=80, init=40, seed=4))
        profile = result.header.profile
        assert set(profile) == {"weights", "probs", "k_mins"}
        assert len(profile["weights"]) == 3
        assert max(profile["probs"]) == 1.0
        assert profile["probs"][0] == 1.0  # dominant dimension changes every step
        assert profile["k_mins"] == [40, 40, 40]
        assert result.warnings == []

    def test_full_override_coverage_skips_the_fit(self):
        space = real_space(2)
        objective = python_objective(sphere_score)
        result = execute_run(
            space,
            objective,
            RunConfig(strategy="wrs", budget=20, init=5, seed=6, prob_overrides=(("*", 1.0), ("x1", 0.5))),
        )
        assert result.header.profile["weights"] is None
        assert result.header.profile["probs"] == [1.0, 0.5]
        assert result.warnings == []

    def test_full_override_without_a_one_is_rejected_before_any_trial(self):
        objective = python_objective(sphere_score)
        config = RunConfig(strategy="wrs", budget=20, init=8, seed=1, prob_overrides=(("*", 0.5),))
        with pytest.raises(ConfigError, match="^override produces an invalid profile: "):
            execute_run(real_space(2), objective, config)
        assert objective.calls == 0

    def test_partial_override_wins_over_fitted_value(self):
        space = real_space(2, low=0.0, high=1.0)
        objective = python_objective(lambda v: v[0])
        result = execute_run(
            space,
            objective,
            RunConfig(strategy="wrs", budget=60, init=30, seed=7, prob_overrides=(("x1", 0.77),)),
        )
        assert result.header.profile["probs"][1] == 0.77
        assert result.header.profile["weights"] is not None

    def test_partial_override_below_the_fitted_argmax_rescales_the_rest(self):
        # lowering the dimension the fit puts at 1 leaves another one at 1
        space = real_space(3, low=0.0, high=1.0)
        objective = python_objective(lambda v: 5.0 * v[0] + 2.0 * v[1] + v[2])
        config = RunConfig(strategy="wrs", budget=60, init=30, seed=7, prob_overrides=(("x0", 0.5),))
        result = execute_run(space, objective, config)
        profile = result.header.profile
        weights = profile["weights"]
        assert weights[0] > weights[1] > weights[2] > 0.0
        assert profile["probs"] == [0.5, 1.0, max(weights[2] / weights[1], 0.01)]
        assert result.warnings == [] and len(result.records) == 60

    def test_partial_override_leaving_only_zero_weights_falls_back_to_uniform(self):
        space = SearchSpace(
            (
                Dimension(name="a", kind="real", low=0.0, high=1.0),
                Dimension(name="fixed", kind="real", low=2.0, high=2.0),
            )
        )
        objective = python_objective(lambda v: v[0])
        config = RunConfig(strategy="wrs", budget=40, init=20, seed=3, prob_overrides=(("a", 0.5),))
        result = execute_run(space, objective, config)
        assert result.header.profile["probs"] == [0.5, 1.0]
        assert result.header.profile["weights"] is None
        assert len(result.warnings) == 1 and "uniform" in result.warnings[0]

    def test_kmin_override_applies(self):
        space = real_space(2)
        objective = python_objective(sphere_score)
        result = execute_run(
            space,
            objective,
            RunConfig(strategy="wrs", budget=30, init=10, seed=8, kmin_overrides=(("*", 0), ("x0", 12))),
        )
        assert result.header.profile["k_mins"] == [12, 0]

    def test_constant_scores_fall_back_to_uniform(self):
        space = real_space(2)
        objective = python_objective(lambda v: 1.0)
        result = execute_run(space, objective, RunConfig(strategy="wrs", budget=20, init=10, seed=9))
        assert result.header.profile["probs"] == [1.0, 1.0]
        assert result.header.profile["weights"] is None
        assert len(result.warnings) == 1 and "uniform" in result.warnings[0]

    def test_short_phase_one_falls_back_to_uniform(self):
        space = real_space(2)
        objective = python_objective(sphere_score)
        result = execute_run(space, objective, RunConfig(strategy="wrs", budget=10, init=0, seed=10))
        assert result.header.profile["probs"] == [1.0, 1.0]
        assert len(result.warnings) == 1
        assert len(result.records) == 10

    def test_zero_width_real_dimension_gets_weight_zero(self):
        space = SearchSpace(
            (
                Dimension(name="a", kind="real", low=0.0, high=1.0),
                Dimension(name="fixed", kind="real", low=2.0, high=2.0),
                Dimension(name="b", kind="real", low=0.0, high=1.0),
            )
        )
        objective = python_objective(lambda v: 3.0 * v[0] + v[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = execute_run(space, objective, RunConfig(strategy="wrs", budget=60, init=40, seed=13))
        assert result.warnings == []
        weights = result.header.profile["weights"]
        assert all(math.isfinite(w) for w in weights)
        assert weights[1] == 0.0 and weights[0] > weights[2] > 0.0
        assert result.header.profile["probs"][0] == 1.0

    def test_single_distinct_candidate_falls_back(self):
        space = int_space(1, low=5, high=5)
        objective = python_objective(lambda v: float(v[0]))
        result = execute_run(space, objective, RunConfig(strategy="wrs", budget=8, init=4, seed=11))
        assert result.header.profile["probs"] == [1.0]
        assert len(result.warnings) == 1


@st.composite
def profile_inputs(draw):
    """A space, a wrs config that validate accepts and the phase-1 records a
    run would hand _build_profile: scores varied, constant, or partly failed."""
    space = draw(spaces())
    init = draw(st.integers(0, 12))
    names = st.sampled_from(("*", *space.names))
    prob = st.floats(min_value=0.0, max_value=1.0, exclude_min=True) | st.sampled_from((1, True, 0.01))
    kmin = st.integers(0, 20) | st.booleans()
    prob_overrides = draw(st.lists(st.tuples(names, prob), max_size=len(space) + 1))
    config = RunConfig(
        strategy="wrs",
        budget=init + 1,
        init=init,
        prob_overrides=tuple(prob_overrides),
        kmin_overrides=tuple(draw(st.lists(st.tuples(names, kmin), max_size=len(space) + 1))),
    )
    try:
        config.validate(space)
    except ConfigError:  # a full override without a 1: give one axis the 1
        config = dataclasses.replace(config, prob_overrides=(*prob_overrides, (space.names[0], 1.0)))
        config.validate(space)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = draw(st.sampled_from(("varied", "constant", "partly-failed")))
    records = []
    for it in range(1, init + 1):
        score = 1.0 if scores == "constant" else float(rng.normal())
        failed = scores == "partly-failed" and it > 1 and rng.random() < 0.5
        records.append(TrialRecord(
            iteration=it,
            values=rs_step(space, rng),
            score=FAILED_SCORE if failed else score,
            phase="rs",
            status="failed" if failed else "evaluated",
            wall_time=0.0,
            error="exit 1" if failed else None,
        ))
    return space, config, records, scores


class TestBuildProfile:
    """_build_profile is the one place a ChangeProfile is made, and wrs_step
    trusts what it makes."""

    @settings(max_examples=80, deadline=None)
    @given(profile_inputs(), st.integers(0, 2**32 - 1))
    def test_every_profile_of_a_valid_config_keeps_the_profile_rules(self, inputs, forest_seed):
        space, config, records, scores = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile, weights, fallback = _build_profile(space, dataclasses.replace(config, seed=forest_seed), records)
        d = len(space)
        assert len(profile.probs) == len(profile.k_mins) == len(profile.gen_counts) == d
        assert all(type(p) is float and 0.0 < p <= 1.0 for p in profile.probs)
        assert max(profile.probs) == 1.0
        assert all(type(k) is int and k >= 0 for k in profile.k_mins)
        assert profile.gen_counts == [config.init] * d
        assert weights is None or len(weights) == d
        assert fallback is None or weights is None
        prob_over = config.settings().get("prob_overrides", {})
        if not ("*" in prob_over or len(prob_over) == d):
            # fit_forest asks for two distinct candidates before it looks at
            # the scores: a space of one point falls back on that first
            distinct = {candidate_key(space, r.values) for r in records}
            if config.init < 2:
                assert fallback == "phase 1 too short to estimate importance"
            elif len(distinct) < 2:
                assert fallback == (
                    "importance estimation failed (need at least 2 usable trials "
                    f"with distinct candidates, have {len(distinct)})"
                )
            elif scores == "constant":
                assert fallback == "phase-1 scores carried no variance"

    def test_overrides_given_as_1_or_true_write_the_profile_of_1_0(self, tmp_path):
        # a library caller may pass overrides as int or bool; the profile in
        # the header is written as floats and ints all the same
        space = real_space(2)
        profiles = set()
        for one, k in ((1.0, 1), (1, True), (True, 1)):
            config = RunConfig(
                strategy="wrs", budget=6, init=3, seed=5,
                prob_overrides=(("*", 0.5), ("x0", one)), kmin_overrides=(("x1", k),),
            )
            result = execute_run(space, python_objective(sphere_score), config)
            log = tmp_path / "run.jsonl"
            write_log(str(log), result.header, result.records)
            profiles.add(json.dumps(json.loads(log.read_text().splitlines()[0])["profile"]))
        assert profiles == {'{"weights": null, "probs": [1.0, 0.5], "k_mins": [3, 1]}'}


class TestFailureHandling:
    def test_all_failed_run_raises(self):
        space = real_space(1)

        def boom(values):
            raise ObjectiveFailure("timeout")

        with pytest.raises(AllTrialsFailedError):
            execute_run(space, python_objective(boom), RunConfig(strategy="rs", budget=5, seed=1))

    def test_all_failed_phase_one_aborts_before_phase_two(self):
        space = real_space(1)
        calls = []

        def boom(values):
            calls.append(values)
            raise ObjectiveFailure("exit 1")

        with pytest.raises(AllTrialsFailedError, match="phase"):
            execute_run(space, python_objective(boom), RunConfig(strategy="wrs", budget=50, init=5, seed=1))
        assert len(calls) == 5

    @pytest.mark.parametrize(
        "config, message",
        [
            (RunConfig(strategy="rs", budget=12, seed=1), "all 12 trials of the rs phase failed"),
            (RunConfig(strategy="sobol", budget=12, seed=1), "every trial of the run failed"),
            (RunConfig(strategy="nelder-mead", budget=12, seed=1), "every trial of the run failed"),
            (RunConfig(strategy="pso", budget=12, seed=1), "every trial of the run failed"),
            (RunConfig(strategy="wrs", budget=12, init=4, seed=1), "all 4 trials of the rs phase failed"),
            (RunConfig(strategy="wrs", budget=12, init=0, seed=1), "every trial of the run failed"),
            (RunConfig(strategy="wrs", budget=12, init=11, seed=1), "all 11 trials of the rs phase failed"),
        ],
        ids=["rs", "sobol", "nelder-mead", "pso", "wrs", "wrs-init0", "wrs-init11"],
    )
    def test_cached_repeats_of_failures_count_as_failed(self, config, message):
        # two candidates only, so most trials are cached repeats of a failure
        def boom(values):
            raise ObjectiveFailure("exit 1")

        with pytest.raises(AllTrialsFailedError, match=f"^{message}$"):
            execute_run(int_space(1, low=0, high=1), python_objective(boom), config)

    def test_partial_failures_survive(self):
        space = int_space(1, low=0, high=9)

        def flaky(values):
            if values[0] % 2 == 0:
                raise ObjectiveFailure("exit 2")
            return float(values[0])

        result = execute_run(space, python_objective(flaky), RunConfig(strategy="rs", budget=30, seed=3))
        statuses = {r.status for r in result.records}
        assert "failed" in statuses
        assert result.best.score >= 1.0
        failed = [r for r in result.records if r.status == "failed"]
        assert all(r.score == float("-inf") and r.error == "exit 2" for r in failed)

    def test_wrs_continues_past_failed_incumbent_attempts(self):
        space = int_space(2, low=0, high=20)

        def flaky(values):
            if values[0] < 3:
                raise ObjectiveFailure("exit 1")
            return float(values[0] + values[1])

        result = execute_run(space, python_objective(flaky), RunConfig(strategy="wrs", budget=40, init=15, seed=12))
        assert len(result.records) == 40
        assert result.best.score > 0


class TestHeaderContents:
    def test_objective_text_recorded(self):
        space = real_space(2)
        objective = python_objective(sphere_score, name="sphere")
        result = execute_run(space, objective, RunConfig(strategy="rs", budget=5, seed=1))
        assert result.header.objective == "builtin:sphere"
        assert result.header.seed == 1
        assert result.header.space_digest
        assert result.header.profile is None
        assert result.header.options == {}

    def test_options_echoed_sorted(self):
        space = real_space(2)
        objective = python_objective(sphere_score)
        result = execute_run(
            space,
            objective,
            RunConfig(strategy="pso", budget=12, seed=1, sampler_options=(("swarm", 6), ("omega", 0.5))),
        )
        assert result.header.options == {"sampler": {"omega": 0.5, "swarm": 6}}

    def test_rng_bundle_streams_are_independent(self):
        a = RngBundle.from_seed(123)
        b = RngBundle.from_seed(123)
        assert a.values.random() == b.values.random()
        assert a.decisions.random() == b.decisions.random()
        draws = {round(g.random(), 12) for g in (RngBundle.from_seed(5).values, RngBundle.from_seed(5).decisions, RngBundle.from_seed(5).forest)}
        assert len(draws) == 3


def _config_from_header(header: RunHeader) -> RunConfig:
    """The run a header describes, rebuilt from its options alone."""
    options = header.options
    return RunConfig(
        strategy=header.strategy,
        budget=header.budget,
        init=header.init,
        seed=header.seed,
        prob_overrides=tuple(options.get("prob_overrides", {}).items()),
        kmin_overrides=tuple(options.get("kmin_overrides", {}).items()),
        sampler_options=tuple(options.get("sampler", {}).items()),
    )


_MIXED_NAMES = ("*", "lr", "layers", "act")
_OPTION_VALUES = {
    "pso": {"swarm": (2.0, 3.0, 5.0, 10.0), "omega": (0.3, 0.5, 0.9)},
    "nelder-mead": {"alpha": (0.5, 1.0, 2.0), "rho": (0.25, 0.5), "init_step": (0.05, 0.2)},
}


@st.composite
def repeated_settings(draw):
    """A run of any strategy; a wrs, pso or nelder-mead run's settings
    repeat names and mix '*' with names, in random flag order."""
    strategy = draw(st.sampled_from(("wrs", "pso", "nelder-mead", "rs", "sobol")))
    kwargs = dict(strategy=strategy, budget=30, seed=draw(st.integers(0, 3)))
    if strategy == "wrs":
        names = st.sampled_from(_MIXED_NAMES)
        kwargs["init"] = draw(st.sampled_from((0, 1, 10)))
        kwargs["prob_overrides"] = tuple(draw(st.lists(st.tuples(names, st.sampled_from((0.3, 0.6, 1.0))), max_size=6)))
        kwargs["kmin_overrides"] = tuple(draw(st.lists(st.tuples(names, st.integers(0, 15)), max_size=5)))
    elif strategy in _OPTION_VALUES:  # rs and sobol take no settings
        values = _OPTION_VALUES[strategy]
        keys = st.sampled_from(sorted(values))
        pairs = st.lists(keys.flatmap(lambda k: st.tuples(st.just(k), st.sampled_from(values[k]))), max_size=6)
        kwargs["sampler_options"] = tuple(draw(pairs))
    return RunConfig(**kwargs)


class TestRepeatedSettings:
    @settings(max_examples=80, deadline=None)
    @given(repeated_settings())
    def test_run_rebuilt_from_its_header_replays(self, config):
        try:
            run = execute_run(mixed_space(), python_objective(sphere_score_mixed), config)
        except ConfigError:
            assume(False)  # a full override without a 1
        header = RunHeader.from_dict(json.loads(json.dumps(run.header.to_dict())))
        rerun = execute_run(mixed_space(), python_objective(sphere_score_mixed), _config_from_header(header))
        assert rerun.header.to_dict() == run.header.to_dict()
        assert [record_fingerprint(r) for r in rerun.records] == [record_fingerprint(r) for r in run.records]

    def test_last_value_wins_star_included(self):
        config = RunConfig(
            strategy="wrs",
            budget=20,
            init=5,
            seed=3,
            prob_overrides=(("*", 0.3), ("x1", 0.9), ("*", 0.5), ("x0", 1.0), ("x1", 0.7)),
            kmin_overrides=(("x0", 7), ("x0", 3)),
        )
        result = execute_run(real_space(2), python_objective(sphere_score), config)
        assert result.header.options == {
            "prob_overrides": {"*": 0.5, "x0": 1.0, "x1": 0.7},
            "kmin_overrides": {"x0": 3},
        }
        assert result.header.profile["probs"] == [1.0, 0.7]
        assert result.header.profile["k_mins"] == [3, 5]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(strategy="wrs", budget=10, prob_overrides=(("x0", 1.5), ("x0", 0.5))),
            dict(strategy="wrs", budget=10, kmin_overrides=(("*", -1), ("*", 2))),
            dict(strategy="pso", budget=10, sampler_options=(("swarm", 1), ("swarm", 4))),
        ],
        ids=["probability", "k-min", "swarm"],
    )
    def test_replaced_bad_value_is_not_refused(self, kwargs):
        RunConfig(**kwargs).validate(real_space(2))


def flaky_score_mixed(values):
    """sphere_score_mixed, failing on gelu and at lr 0, the bound where
    Nelder-Mead's clamped steps land again: failed and cached-hit records."""
    if values[2] == "gelu" or values[0] == 0.0:
        raise ObjectiveFailure("flaky")
    return sphere_score_mixed(values)


class TestRunSteps:
    @settings(max_examples=60, deadline=None)
    @given(repeated_settings())
    @example(RunConfig(strategy="nelder-mead", budget=30, seed=0))  # four cached hits of failed trials
    @example(RunConfig(strategy="wrs", budget=30, init=0, seed=0))  # a weighted phase that starts on a failure
    def test_the_records_of_a_log_drive_its_run_again(self, tmp_path_factory, config):
        # _run_steps driven with the records read back from the log its run wrote,
        # in place of an objective, re-derives the profile and every record
        space, objective = mixed_space(), python_objective(flaky_score_mixed)
        try:
            run = execute_run(space, objective, config)
        except (ConfigError, AllTrialsFailedError):
            assume(False)
        log = tmp_path_factory.mktemp("logs") / "run.jsonl"
        write_log(str(log), run.header, run.records)
        header, records = read_log(str(log))
        calls = objective.calls
        driven = RunResult(header=dataclasses.replace(header, profile=None))
        steps, rec = _run_steps(space, _config_from_header(header), driven), None
        while True:
            try:
                values, iteration, phase = steps.send(rec)
            except StopIteration:
                break
            rec = records[iteration - 1]
            assert (candidate_key(space, values), iteration, phase) == (rec.values, rec.iteration, rec.phase)
        assert driven.header.to_dict() == header.to_dict()
        assert [record_fingerprint(r) for r in driven.records] == [record_fingerprint(r) for r in records]
        assert driven.warnings == run.warnings
        assert objective.calls == calls


# values for the fields of a run, most of them ones a run refuses: an unknown
# strategy, budget, init and seed out of range, names the space lacks, values
# that are not numbers or lie out of range, and library-typed 1 and True
_ODD_SETTINGS = {
    "strategy": ("rs", "sobol", "pso", "sa"),
    "budget": (0, 1, 9),
    "init": (-1, 1, 9),
    "seed": (-1,),
    "prob_overrides": ((("lr", 1),), (("*", True),), (("nope", 0.5),), (("lr", "a"),), (("lr", 0.0),), (("*", 0.5),)),
    "kmin_overrides": ((("act", True),), (("lr", -1),), (("nope", 1),), (("lr", None),), (("*", math.inf),), (("lr", 2.5),)),
    "sampler_options": ((("swarm", 1),), (("swarm", 2.5),), (("alpha", 1.0),), (("c1", True),), (("omega", "a"),)),
}


@st.composite
def any_settings(draw):
    """repeated_settings with up to three of its fields replaced from _ODD_SETTINGS."""
    config = draw(repeated_settings())
    keys = draw(st.sets(st.sampled_from(sorted(_ODD_SETTINGS)), max_size=3))
    return dataclasses.replace(config, **{key: draw(st.sampled_from(_ODD_SETTINGS[key])) for key in sorted(keys)})


def _reads(path) -> bool:
    try:
        read_log(str(path))
    except LogError:
        return False
    return True


def _validates(config: RunConfig, space: SearchSpace) -> bool:
    try:
        config.validate(space)
    except ConfigError:
        return False
    return True


class TestHeaderSettings:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(any_settings())
    @example(RunConfig(strategy="wrs", budget=9, init=3, prob_overrides=(("*", 0.5), ("lr", 1)), kmin_overrides=(("act", True),)))
    @example(RunConfig(strategy="wrs", budget=9, init=3, prob_overrides=(("*", 0.5), ("lr", True)), kmin_overrides=(("act", 1),)))
    @example(RunConfig(strategy="wrs", budget=9, init=3, kmin_overrides=(("*", 2.5),)))
    @example(RunConfig(strategy="wrs", budget=9, init=3, kmin_overrides=(("lr", 4.0),)))
    def test_a_header_reads_exactly_when_a_run_takes_its_settings(self, tmp_path_factory, config):
        space, objective = mixed_space(), python_objective(sphere_score_mixed)
        valid = _validates(config, space)
        # a valid log of budget trials whose header carries the drawn settings
        base = execute_run(space, objective, RunConfig(strategy="rs", budget=30, seed=1))
        fields = dict(strategy=config.strategy, budget=config.budget, init=config.init, seed=config.seed)
        header = dataclasses.replace(base.header, **fields, options=config.settings())
        log = tmp_path_factory.mktemp("logs") / "run.jsonl"
        write_log(str(log), header, base.records[: max(config.budget, 0)])
        assert _reads(log) == valid
        # the run rebuilt from the header as written is refused or taken alike
        written = RunHeader.from_dict(json.loads(log.read_text(encoding="utf-8").splitlines()[0]))
        assert _validates(_config_from_header(written), space) == valid
        if valid:  # and the run itself writes a log that reads back
            run = execute_run(space, objective, config)
            write_log(str(log), run.header, run.records)
            assert _reads(log)

    def test_a_kmin_override_that_is_not_a_whole_number_is_refused(self, tmp_path):
        # as a fractional swarm is: the run would truncate it and its header record 2.5 next to k_mins [2, 2]
        space, objective = real_space(2), python_objective(lambda values: -sum(v * v for v in values))
        config = RunConfig(strategy="wrs", budget=10, init=2, kmin_overrides=(("x0", 2.5),))
        message = "k-min override for 'x0' must be a whole number, got 2.5"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            execute_run(space, objective, config)
        # a header that holds it stops reading; the same run with a whole k-min reads
        run = execute_run(space, objective, dataclasses.replace(config, kmin_overrides=(("x0", 2.0),)))
        assert run.header.options == {"kmin_overrides": {"x0": 2.0}} and run.header.profile["k_mins"] == [2, 2]
        log = str(tmp_path / "run.jsonl")
        write_log(log, run.header, run.records)
        read_log(log)
        write_log(log, dataclasses.replace(run.header, options={"kmin_overrides": {"x0": 2.5}}), run.records)
        with pytest.raises(LogError, match=f"run.jsonl: header declares {message}$"):
            read_log(log)
