"""End-to-end guarantees, one test per guarantee.

Each test here states a user-visible contract of the package: exact
degeneration to plain random search, the resampling mixture, the
weight-to-probability mapping, variance attribution against a quadrature
oracle, head-to-head improvement over random search, monotone incumbents,
trend-fit correctness, budget/cache accounting, the low-discrepancy
sequence, and report formatting.  Run with -v to get one line per
guarantee.
"""

import json
import math
import re

import numpy as np
import pytest

from wrsopt.engine import (
    RunConfig,
    evaluate_with_cache,
    execute_run,
)
from wrsopt.importance import (
    ForestConfig,
    fit_forest,
    main_effect_fractions,
    weights_to_probabilities,
)
from wrsopt.objectives import make_objective, parse_objective_spec
from wrsopt.reporting import compare, polyfit, render_table_text, summarize
from wrsopt.samplers import ChangeProfile, SobolSampler, wrs_step
from wrsopt.sobol import SobolEngine
from wrsopt.space import Dimension, SearchSpace, candidate_key
from wrsopt.triallog import TrialRecord, write_log

from _util import conv_space, int_space, mixed_space, python_objective, real_space

REFERENCE_WEIGHTS = (7.4, 11.85, 0.51, 0.79, 1.62, 0.73, 2.26, 1.26, 26.28, 0.87, 3.22, 1.75)
REFERENCE_PROBS = (0.28, 0.45, 0.02, 0.03, 0.06, 0.03, 0.09, 0.05, 1.00, 0.03, 0.12, 0.07)


def mixed_score(values):
    lr, layers, act = values
    return -((lr - 0.4) ** 2) - 0.05 * layers - (0.3 if act == "tanh" else 0.0)


def canonical_line(payload: dict, drop: tuple[str, ...]) -> str:
    kept = {k: v for k, v in payload.items() if k not in drop}
    return json.dumps(kept, ensure_ascii=False, separators=(", ", ": "))


def test_c01_all_probabilities_one_degenerates_to_plain_random_search(tmp_path):
    """With every change probability forced to 1, the weighted run's log is
    byte-identical to a plain random-search log under the same seed, space,
    objective, and budget, apart from the phase tag, per-trial timing, and
    the header fields that name the strategy (strategy, init, profile,
    options)."""
    space = mixed_space()
    config_rs = RunConfig(strategy="rs", budget=150, seed=31)
    config_wrs = RunConfig(strategy="wrs", budget=150, init=60, seed=31, prob_overrides=(("*", 1.0),))
    result_rs = execute_run(space, python_objective(mixed_score), config_rs)
    result_wrs = execute_run(space, python_objective(mixed_score), config_wrs)

    path_rs = str(tmp_path / "rs.jsonl")
    path_wrs = str(tmp_path / "wrs.jsonl")
    write_log(path_rs, result_rs.header, result_rs.records)
    write_log(path_wrs, result_wrs.header, result_wrs.records)
    lines_rs = open(path_rs).read().splitlines()
    lines_wrs = open(path_wrs).read().splitlines()
    assert len(lines_rs) == len(lines_wrs) == 151

    header_drop = ("strategy", "init", "profile", "options")
    assert canonical_line(json.loads(lines_rs[0]), header_drop) == canonical_line(json.loads(lines_wrs[0]), header_drop)
    trial_drop = ("phase", "wall_time")
    for line_rs, line_wrs in zip(lines_rs[1:], lines_wrs[1:]):
        assert canonical_line(json.loads(line_rs), trial_drop) == canonical_line(json.loads(line_wrs), trial_drop)


def test_c02_resample_frequencies_match_profile_and_change_sets_nest():
    """Over 10^5 weighted steps with probabilities (1.00, 0.45, 0.28) and no
    minimum-sample forcing, each dimension's resample frequency lands within
    0.01 of its probability, and in every single step the changed set is
    nested: a dimension only changes if every higher-probability dimension
    changed too."""
    space = real_space(3)
    probs = (1.00, 0.45, 0.28)
    profile = ChangeProfile(probs=probs, k_mins=(0, 0, 0), gen_counts=[1, 1, 1])
    value_rng = np.random.default_rng(41)
    decision_rng = np.random.default_rng(42)
    incumbent = (0.0, 0.0, 0.0)

    steps = 100_000
    counts = np.zeros(3, dtype=int)
    nested = 0
    for _ in range(steps):
        before = tuple(profile.gen_counts)
        wrs_step(space, incumbent, profile, value_rng, decision_rng)
        changed = [profile.gen_counts[i] - before[i] for i in range(3)]
        assert set(changed) <= {0, 1}
        counts += changed
        if changed[0] >= changed[1] >= changed[2]:
            nested += 1
    freqs = counts / steps
    assert freqs[0] == 1.0
    for f, p in zip(freqs, probs):
        assert abs(f - p) <= 0.01, (f, p)
    assert nested == steps


def test_c03_weight_to_probability_mapping_on_reference_row():
    """A reference 12-dimension weight vector maps to its expected
    probability row: p = w / max(w), floored at 0.01, correct to the printed
    two decimals (tolerance 0.005 per entry)."""
    probs = weights_to_probabilities(REFERENCE_WEIGHTS)
    assert len(probs) == 12
    for got, expected in zip(probs, REFERENCE_PROBS):
        assert abs(round(got, 2) - expected) <= 0.005, (got, expected)
    assert probs[8] == 1.0


def quadrature_shares(objective, d, nodes=48):
    """Independent oracle: tensor-product Gauss-Legendre estimate of each
    dimension's main-effect share of total variance, in percent.  Makes no
    use of the surface's structure; only pointwise evaluations."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    z = 0.5 * (t + 1.0)
    wz = 0.5 * w
    grids = np.meshgrid(*([z] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    F = np.array([objective(tuple(p)) for p in pts]).reshape((nodes,) * d)
    W = wz
    for _ in range(d - 1):
        W = np.multiply.outer(W, wz)
    mean = float((W * F).sum())
    var = float((W * F * F).sum()) - mean * mean
    shares = []
    for i in range(d):
        other = tuple(j for j in range(d) if j != i)
        cond_mean = (W * F).sum(axis=other) / wz
        v_i = float(np.sum(wz * cond_mean**2)) - mean * mean
        shares.append(100.0 * v_i / var)
    return tuple(shares)


def test_c04_main_effect_estimates_match_quadrature_oracle():
    """Forest-estimated main-effect fractions on separable surfaces with
    analytic shares 90/10 (2D) and 70/20/10 (3D) stay within 5 percentage
    points of an independent quadrature oracle, as the median over 10
    seeds of 500-trial, 30-tree estimates."""
    cases = [
        ("3,1", 2, (90.0, 10.0)),
        (f"{math.sqrt(7)!r},{math.sqrt(2)!r},1", 3, (70.0, 20.0, 10.0)),
    ]
    for coeffs, d, analytic in cases:
        space = real_space(d, low=0.0, high=1.0)
        objective = make_objective(
            parse_objective_spec(f"builtin:additive-anova?coeffs={coeffs}&direction=maximize"), space
        )
        oracle = quadrature_shares(objective, d)
        assert np.allclose(oracle, analytic, atol=1e-6), oracle

        estimates = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            trials = []
            for i in range(1, 501):
                values = space.sample(rng)
                trials.append(
                    TrialRecord(iteration=i, values=values, score=objective(values), phase="rs", status="evaluated", wall_time=0.0)
                )
            forest = fit_forest(trials, space, ForestConfig(n_trees=30), np.random.default_rng(1000 + seed))
            estimates.append(main_effect_fractions(forest, space))
        medians = np.median(np.array(estimates), axis=0)
        for got, want in zip(medians, oracle):
            assert abs(got - want) <= 5.0, (d, medians, oracle)


def test_c05_weighted_search_beats_plain_random_search_on_paired_seeds():
    """Paired over 30 seeds at budget 300 with a 110-trial uniform phase,
    the weighted strategy's mean final best meets or exceeds plain random
    search's and wins or ties at least 60% of the pairs, on both a 10-D
    multimodal real surface (maximized as its negative) and a 12-D integer
    space with a deterministic additive surrogate."""
    conv = conv_space()
    surrogate_coeffs = ",".join(repr(math.sqrt(w)) for w in REFERENCE_WEIGHTS)
    cases = [
        (real_space(10), "builtin:rastrigin"),
        (conv, f"builtin:additive-anova?coeffs={surrogate_coeffs}&direction=maximize"),
    ]
    for space, objective_text in cases:
        wrs_bests, rs_bests = [], []
        for seed in range(30):
            spec = parse_objective_spec(objective_text)
            r_wrs = execute_run(space, make_objective(spec, space), RunConfig(strategy="wrs", budget=300, init=110, seed=seed))
            r_rs = execute_run(space, make_objective(spec, space), RunConfig(strategy="rs", budget=300, seed=seed))
            wrs_bests.append(r_wrs.best.score)
            rs_bests.append(r_rs.best.score)
        wins = sum(1 for w, r in zip(wrs_bests, rs_bests) if w >= r)
        assert np.mean(wrs_bests) >= np.mean(rs_bests), (objective_text, np.mean(wrs_bests), np.mean(rs_bests))
        assert wins / 30 >= 0.60, (objective_text, wins)


def test_c06_best_so_far_is_monotone_for_every_strategy_and_seed():
    """The incumbent score reconstructed from any run log never decreases,
    for all five strategies across seeds, including runs with failing
    trials."""
    from wrsopt.objectives import ObjectiveFailure

    space = mixed_space()

    def flaky(values):
        lr, layers, act = values
        if layers % 3 == 0:
            raise ObjectiveFailure("exit 1")
        return mixed_score(values)

    for strategy in ("wrs", "rs", "sobol", "nelder-mead", "pso"):
        for seed in (0, 1, 2):
            kwargs = {"init": 20} if strategy == "wrs" else {}
            result = execute_run(
                space, python_objective(flaky), RunConfig(strategy=strategy, budget=60, seed=seed, **kwargs)
            )
            incumbent = -math.inf
            trace = []
            for rec in result.records:
                if rec.status != "failed" and rec.score > incumbent:
                    incumbent = rec.score
                trace.append(incumbent)
            assert all(b >= a for a, b in zip(trace, trace[1:])), (strategy, seed)
            assert trace[-1] == result.best.score


def test_c07_polynomial_fit_matches_normal_equations_oracle():
    """Degree-5 least-squares coefficients on a 300-point random series
    agree with an explicit normal-equations solve to 1e-6 relative error,
    and a constant series fits as (c, 0, 0, 0, 0, 0) to 1e-12."""
    rng = np.random.default_rng(7)
    y = rng.normal(loc=2.0, scale=3.0, size=300)
    fit = polyfit(y.tolist(), degree=5)

    xs = np.arange(1, 301, dtype=float)
    t = -1.0 + 2.0 * (xs - 1.0) / 299.0
    V = np.vander(t, 6, increasing=True)
    oracle = np.linalg.solve(V.T @ V, V.T @ y)
    for got, want in zip(fit.coefficients, oracle):
        assert abs(got - want) <= 1e-6 * max(abs(want), 1e-30), (got, want)

    flat = polyfit([4.25] * 300, degree=5)
    assert abs(flat.coefficients[0] - 4.25) <= 1e-12
    assert all(abs(c) <= 1e-12 for c in flat.coefficients[1:])


def test_c08_budgets_are_exact_and_duplicates_cost_no_reevaluation():
    """Every run writes exactly its budget in records, and a duplicate
    candidate consumes one budget unit while triggering zero extra
    objective invocations (verified by an instrumented call counter)."""
    space = mixed_space()
    for strategy in ("wrs", "rs", "sobol", "nelder-mead", "pso"):
        kwargs = {"init": 12} if strategy == "wrs" else {}
        result = execute_run(space, python_objective(mixed_score), RunConfig(strategy=strategy, budget=37, seed=3, **kwargs))
        assert len(result.records) == 37, strategy
        assert [r.iteration for r in result.records] == list(range(1, 38)), strategy

    tiny = int_space(1, low=0, high=3)
    objective = python_objective(lambda v: float(v[0]))
    result = execute_run(tiny, objective, RunConfig(strategy="rs", budget=40, seed=9))
    distinct = {candidate_key(tiny, r.values) for r in result.records}
    assert objective.calls == len(distinct) <= 4
    assert sum(1 for r in result.records if r.status == "cached-hit") == 40 - objective.calls

    cache = {}
    probe = python_objective(lambda v: float(v[0]))
    first = evaluate_with_cache(probe, tiny, (2,), cache, 1, "rs")
    second = evaluate_with_cache(probe, tiny, (2,), cache, 2, "rs")
    assert probe.calls == 1
    assert (first.status, second.status) == ("evaluated", "cached-hit")
    assert second.iteration == 2  # the duplicate still occupies its budget slot


def test_c09_sobol_matches_reference_sequence_and_equidistributes():
    """The first 64 points in up to 6 dimensions equal scipy's unscrambled
    Sobol points exactly, and in 1-D the first 2^m points place exactly one
    point in each dyadic interval of width 2^-m, m up to 10."""
    qmc = pytest.importorskip("scipy.stats.qmc")
    for d in range(1, 7):
        reference = qmc.Sobol(d=d, scramble=False).random(64)
        mine = SobolEngine(d).take(64)
        assert np.array_equal(mine, reference), d

    for m in range(1, 11):
        points = SobolEngine(1).take(2**m)[:, 0]
        cells = np.floor(points * 2**m).astype(int)
        assert np.array_equal(np.sort(cells), np.arange(2**m)), m


def test_c10_comparison_table_layout_and_window_arithmetic(tmp_path):
    """compare renders one row per log in the fixed layout
    best(best_lastW) mean(mean_lastW) sd(sd_lastW), shown here across seven
    logs with the default window of 100; on a hand-checked 3-record log
    with window 2 the rendered figures are exact."""
    space = real_space(2)
    runs = [
        ("wrs", 1, {"init": 40}),
        ("rs", 1, {}),
        ("sobol", 1, {}),
        ("nelder-mead", 1, {}),
        ("pso", 1, {}),
        ("rs", 2, {}),
        ("wrs", 2, {"init": 40}),
    ]
    reports = []
    for strategy, seed, kwargs in runs:
        result = execute_run(
            space,
            python_objective(lambda v: -(v[0] ** 2) - (v[1] ** 2)),
            RunConfig(strategy=strategy, budget=120, seed=seed, **kwargs),
        )
        reports.append(summarize(result.header, result.records, window=100))
    text = render_table_text(compare(reports))
    lines = text.strip().splitlines()
    assert lines[0].split() == ["strategy", "seed", "best", "mean", "sd"]
    assert len(lines) == 8
    pair = r"-?\d+\.\d\d\(-?\d+\.\d\d\)"
    for line in lines[1:]:
        assert re.fullmatch(rf"\S+\s+\d+\s+{pair}\s+{pair}\s+{pair}", line), line
    assert [ln.split()[0] for ln in lines[1:]] == ["wrs", "wrs", "rs", "rs", "sobol", "nelder-mead", "pso"]

    from wrsopt.triallog import RunHeader

    header = RunHeader(
        strategy="rs", budget=3, init=0, seed=1, objective="builtin:sphere",
        space={"dimensions": []}, space_digest="0" * 64,
    )
    records = [
        TrialRecord(iteration=i, values=(0.0,), score=s, phase="rs", status="evaluated", wall_time=0.0)
        for i, s in enumerate((0.5, 0.7, 0.6), start=1)
    ]
    hand = summarize(header, records, window=2)
    hand_text = render_table_text(compare([hand]))
    assert "0.70(0.70)" in hand_text  # best: max of all three, max of last two
    assert "0.60(0.65)" in hand_text  # mean: 1.8/3 and 1.3/2
    assert "0.08(0.05)" in hand_text  # sd: population form, sqrt(0.02/3) and 0.05
    assert hand.best == 0.7 and hand.best_window == 0.7
    assert abs(hand.mean - 0.6) <= 1e-12 and abs(hand.mean_window - 0.65) <= 1e-12
    assert abs(hand.sd_window - 0.05) <= 1e-12
