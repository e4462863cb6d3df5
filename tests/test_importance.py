import math
import warnings

import numpy as np
import pytest

from wrsopt.importance import (
    ForestConfig,
    ImportanceError,
    ImportanceWeights,
    ZeroVarianceError,
    encode_trials,
    fit_forest,
    main_effect_fractions,
    min_samples_schedule,
    root_box,
    weights_to_probabilities,
)
from wrsopt.reporting import render_importance_csv, render_importance_text
from wrsopt.space import Dimension, SearchSpace
from wrsopt.triallog import TrialRecord

from _util import int_space, mixed_space, real_space


def make_trials(space, fn, n, seed, phase="rs"):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(1, n + 1):
        values = space.sample(rng)
        out.append(TrialRecord(iteration=i, values=values, score=fn(values), phase=phase, status="evaluated", wall_time=0.0))
    return out


class TestForestFitting:
    def test_needs_two_distinct_candidates(self):
        space = int_space(1)
        t = TrialRecord(iteration=1, values=(3,), score=1.0, phase="rs", status="evaluated", wall_time=0.0)
        dup = TrialRecord(iteration=2, values=(3,), score=1.0, phase="rs", status="cached-hit", wall_time=0.0)
        with pytest.raises(ImportanceError):
            fit_forest([t, dup], space)

    def test_constant_scores_raise_zero_variance(self):
        space = int_space(1, low=0, high=9)
        trials = make_trials(space, lambda v: 7.0, 30, seed=1)
        with pytest.raises(ZeroVarianceError):
            fit_forest(trials, space, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("informative", [0, 1])
    def test_split_picks_the_informative_dimension(self, informative):
        # exact arithmetic: the only gainful cut separates y=0 from y=1
        space = real_space(2, low=0.0, high=1.0)
        corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        trials = [
            TrialRecord(iteration=i, values=v, score=float(v[informative]), phase="rs", status="evaluated", wall_time=0.0)
            for i, v in enumerate(corners, start=1)
        ]
        forest = fit_forest(trials, space, ForestConfig(n_trees=1, bootstrap=False), np.random.default_rng(0))
        assert forest.trees[0].split_dims == (informative,)
        boxes = forest.trees[0].leaf_boxes
        assert sorted(boxes[:, informative, :].tolist()) == [[0.0, 0.5], [0.5, 1.0]]

    def test_cut_between_values_one_ulp_apart_separates_them(self):
        # 0.5 * (1.0 + next) rounds back to 1.0, which would put both values
        # on the right; the threshold must fall on the upper value instead
        space = real_space(1, low=0.0, high=2.0)
        up = float(np.nextafter(1.0, 2.0))
        trials = [
            TrialRecord(iteration=i, values=(x,), score=s, phase="rs", status="evaluated", wall_time=0.0)
            for i, (x, s) in enumerate([(1.0, 0.0), (up, 1.0), (1.0, 0.0), (up, 1.0)], start=1)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forest = fit_forest(trials, space, ForestConfig(n_trees=1, bootstrap=False), np.random.default_rng(0))
        tree = forest.trees[0]
        assert tree.split_dims == (0,)
        assert tree.leaf_boxes[:, 0, :].tolist() == [[0.0, up], [up, 2.0]]
        assert tree.leaf_means.tolist() == [0.0, 1.0]

    def test_values_one_ulp_apart_never_leave_an_empty_leaf(self):
        # a cut whose threshold rounded onto the lower value used to send
        # every sample right and keep an empty left leaf with a NaN mean
        space = real_space(2, low=0.0, high=2.0)
        up = float(np.nextafter(1.0, 2.0))
        rng = np.random.default_rng(2)
        trials = []
        for i in range(1, 41):
            x0, x1 = float(rng.choice([1.0, up])), float(rng.random())
            score = 1000.0 * (float(x0 > 1.0) + x1 + rng.standard_normal())
            trials.append(TrialRecord(iteration=i, values=(x0, x1), score=score, phase="rs", status="evaluated", wall_time=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forest = fit_forest(trials, space, ForestConfig(n_trees=10), np.random.default_rng(2))
            probs = weights_to_probabilities(main_effect_fractions(forest, space))
        for tree in forest.trees:
            assert np.all(np.isfinite(tree.leaf_means))
            assert np.all(tree.leaf_boxes[:, :, 0] < tree.leaf_boxes[:, :, 1])
        assert all(math.isfinite(p) for p in probs)

    def test_equally_good_cuts_of_one_dimension_take_the_first(self):
        # splitting off x=0 or x=3 leaves the same SSE; the lower cut wins
        space = real_space(1, low=0.0, high=3.0)
        trials = [
            TrialRecord(iteration=i, values=(float(x),), score=s, phase="rs", status="evaluated", wall_time=0.0)
            for i, (x, s) in enumerate(zip(range(4), (0.0, 1.0, 1.0, 0.0)), start=1)
        ]
        config = ForestConfig(n_trees=1, max_depth=1, min_leaf=1, bootstrap=False)
        tree = fit_forest(trials, space, config, np.random.default_rng(0)).trees[0]
        assert tree.leaf_boxes[:, 0, :].tolist() == [[0.0, 0.5], [0.5, 3.0]]
        assert tree.leaf_means.tolist() == [0.0, float(np.mean([1.0, 1.0, 0.0]))]

    def test_cut_gaining_no_more_than_1e_15_is_no_split(self):
        # the perfect cut here lowers the SSE by 4 * (0.5e-9)**2 = 1e-18
        space = real_space(1, low=0.0, high=1.0)
        trials = [
            TrialRecord(iteration=i, values=(x,), score=s, phase="rs", status="evaluated", wall_time=0.0)
            for i, (x, s) in enumerate([(0.1, 0.0), (0.2, 0.0), (0.8, 1e-9), (0.9, 1e-9)], start=1)
        ]
        forest = fit_forest(trials, space, ForestConfig(n_trees=1, bootstrap=False), np.random.default_rng(0))
        assert forest.trees[0].split_dims == ()
        assert forest.trees[0].leaf_boxes.tolist() == [[[0.0, 1.0]]]

    def test_deep_tree_on_ignored_dimension_never_splits_it(self):
        space = real_space(2, low=0.0, high=1.0)
        trials = make_trials(space, lambda v: v[0], 200, seed=2)
        forest = fit_forest(trials, space, ForestConfig(n_trees=1, bootstrap=False), np.random.default_rng(0))
        assert forest.trees[0].split_dims == (0,)

    def test_failed_trials_are_ignored(self):
        space = real_space(1, low=0.0, high=1.0)
        trials = make_trials(space, lambda v: v[0], 50, seed=3)
        trials += [
            TrialRecord(iteration=51, values=(0.5,), score=float("-inf"), phase="rs", status="failed", wall_time=0.0, error="exit 1")
        ]
        X, y = encode_trials(trials, space)
        assert X.shape == (50, 1)
        fit_forest(trials, space, ForestConfig(n_trees=2), np.random.default_rng(0))

    def test_root_box_uses_counting_ranges(self):
        space = SearchSpace(
            (
                Dimension(name="i", kind="int", low=3, high=6),
                Dimension(name="r", kind="real", low=-1.0, high=2.0),
                Dimension(name="c", kind="cat", values=("a", "b", "c")),
            )
        )
        box = root_box(space)
        assert box.tolist() == [[3.0, 7.0], [-1.0, 2.0], [0.0, 3.0]]


class TestMainEffects:
    def test_linear_single_dimension_dominates(self):
        space = real_space(3, low=0.0, high=1.0)
        trials = make_trials(space, lambda v: v[0], 400, seed=5)
        forest = fit_forest(trials, space, ForestConfig(n_trees=10), np.random.default_rng(1))
        w = main_effect_fractions(forest, space).fractions
        assert w[0] > 95.0
        assert w[1] < 5.0 and w[2] < 5.0

    def test_symmetric_sum_splits_evenly(self):
        space = real_space(2, low=0.0, high=1.0)
        trials = make_trials(space, lambda v: v[0] + v[1], 400, seed=6)
        forest = fit_forest(trials, space, ForestConfig(n_trees=10), np.random.default_rng(2))
        w = main_effect_fractions(forest, space).fractions
        assert abs(w[0] - w[1]) < 3.0

    def test_fractions_invariant_under_affine_rescaling(self):
        space = real_space(2, low=0.0, high=1.0)
        base = make_trials(space, lambda v: v[0] + 0.3 * v[1], 300, seed=7)
        scaled = [
            TrialRecord(t.iteration, t.values, 50.0 * t.score - 11.0, t.phase, t.status, t.wall_time)
            for t in base
        ]
        w1 = main_effect_fractions(fit_forest(base, space, rng=np.random.default_rng(3)), space).fractions
        w2 = main_effect_fractions(fit_forest(scaled, space, rng=np.random.default_rng(3)), space).fractions
        # split ties at deep nodes may resolve differently after rescaling,
        # so identity holds only up to a small structural wobble
        assert np.allclose(w1, w2, atol=0.1)

    def test_sum_of_fractions_bounded_by_100(self):
        space = mixed_space()
        fn = lambda v: v[0] * 2.0 + v[1] * 0.1 + (1.0 if v[2] == "relu" else 0.0)
        trials = make_trials(space, fn, 300, seed=8)
        forest = fit_forest(trials, space, ForestConfig(n_trees=5), np.random.default_rng(4))
        w = main_effect_fractions(forest, space).fractions
        assert all(f >= 0.0 for f in w)
        assert sum(w) <= 100.0 + 1e-9

    def test_integer_dimension_importance_recovered(self):
        # score depends only on the first of two integer axes
        space = int_space(2, low=0, high=20)
        trials = make_trials(space, lambda v: float(v[0]), 300, seed=9)
        forest = fit_forest(trials, space, ForestConfig(n_trees=10), np.random.default_rng(5))
        w = main_effect_fractions(forest, space).fractions
        assert w[0] > 90.0 and w[1] < 5.0

    def test_zero_width_real_axis_gets_weight_zero(self):
        space = SearchSpace(
            (
                Dimension(name="a", kind="real", low=0.0, high=1.0),
                Dimension(name="fixed", kind="real", low=0.5, high=0.5),
                Dimension(name="b", kind="real", low=0.0, high=1.0),
            )
        )
        trials = make_trials(space, lambda v: v[0] + 0.3 * v[2], 200, seed=10)
        forest = fit_forest(trials, space, ForestConfig(n_trees=10), np.random.default_rng(6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = main_effect_fractions(forest, space).fractions
        assert all(math.isfinite(f) for f in w)
        assert w[1] == 0.0
        assert w[0] > 80.0 and 0.0 < w[2] < 15.0


class TestProbabilityMapping:
    def test_ratio_to_max_with_rounding(self):
        probs = weights_to_probabilities((7.4, 11.85, 26.28))
        assert tuple(round(p, 2) for p in probs) == (0.28, 0.45, 1.00)

    def test_small_weight_hits_floor_not_zero(self):
        probs = weights_to_probabilities((26.28, 0.51))
        assert probs[0] == 1.0
        assert round(probs[1], 2) == 0.02
        tiny = weights_to_probabilities((100.0, 1e-6))
        assert tiny[1] == 0.01  # clamped at the floor

    def test_single_dimension(self):
        assert weights_to_probabilities((4.2,)) == (1.0,)

    def test_argmax_is_exactly_one_and_order_preserved(self):
        w = (5.0, 2.0, 9.0, 9.0)
        p = weights_to_probabilities(w)
        assert p[2] == 1.0 and p[3] == 1.0
        assert sorted(range(4), key=lambda i: w[i]) == sorted(range(4), key=lambda i: p[i])

    def test_accepts_importance_weights_instance(self):
        assert weights_to_probabilities(ImportanceWeights(fractions=(1.0, 2.0)))[1] == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(ImportanceError):
            weights_to_probabilities((0.0, 0.0))
        with pytest.raises(ImportanceError):
            weights_to_probabilities((-1.0, 2.0))
        with pytest.raises(ImportanceError):
            weights_to_probabilities(())


class TestMinSamples:
    def test_default_is_phase_one_length(self):
        assert min_samples_schedule((1.0, 0.5), n0=110, n=300) == (110, 110)

    def test_zero_phase_one(self):
        assert min_samples_schedule((1.0,), n0=0, n=10) == (0,)

    def test_override_single_dimension(self):
        assert min_samples_schedule((1.0, 0.5, 0.2), n0=110, n=300, overrides={2: 150}) == (110, 110, 150)

    def test_bounds_checked(self):
        with pytest.raises(ImportanceError):
            min_samples_schedule((1.0,), n0=5, n=5)
        with pytest.raises(ImportanceError):
            min_samples_schedule((1.0,), n0=0, n=5, overrides={3: 1})
        with pytest.raises(ImportanceError):
            min_samples_schedule((1.0,), n0=0, n=5, overrides={0: -2})


class TestRendering:
    def test_two_row_table_shape(self):
        space = int_space(3)
        text = render_importance_text(space, (7.4, 11.85, 26.28), (0.28, 0.45, 1.0))
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("weight") and "7.40" in lines[1]
        assert lines[2].startswith("probability") and "1.00" in lines[2]

    def test_csv_rows(self):
        space = int_space(2)
        csv = render_importance_csv(space, (1.0, 2.0), (0.5, 1.0))
        lines = csv.strip().split("\n")
        assert lines[0] == "row,n0,n1"
        assert lines[1].startswith("weight,") and lines[2].startswith("probability,")
