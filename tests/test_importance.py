import math
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from wrsopt import importance
from wrsopt.importance import (
    ForestConfig,
    ImportanceError,
    ZeroVarianceError,
    _best_splits,
    _tree_fractions,
    encode_trials,
    fit_forest,
    main_effect_fractions,
    root_box,
    weights_to_probabilities,
)
from wrsopt.reporting import render_importance_csv, render_importance_text
from wrsopt.space import Dimension, SearchSpace, ordinal_bounds
from wrsopt.triallog import TrialRecord

import _forest_oracle
from _util import int_space, mixed_space, real_space
from test_forest_golden import SHAPES


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
            fit_forest([t, dup], space, ForestConfig(), np.random.default_rng(0))

    def test_signed_zeros_are_one_candidate(self):
        space = real_space(1, low=-1.0, high=1.0)
        trials = [
            TrialRecord(iteration=i, values=(v,), score=float(i), phase="rs", status="evaluated", wall_time=0.0)
            for i, v in enumerate((0.0, -0.0), start=1)
        ]
        with pytest.raises(ImportanceError, match="have 1$"):
            fit_forest(trials, space, ForestConfig(), np.random.default_rng(0))

    def test_constant_scores_raise_zero_variance(self):
        space = int_space(1, low=0, high=9)
        trials = make_trials(space, lambda v: 7.0, 30, seed=1)
        with pytest.raises(ZeroVarianceError):
            fit_forest(trials, space, ForestConfig(), np.random.default_rng(0))

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
        usable = make_trials(space, lambda v: v[0], 50, seed=3)
        failed = TrialRecord(iteration=51, values=(0.5,), score=float("-inf"), phase="rs", status="failed", wall_time=0.0, error="exit 1")
        X, y = encode_trials(usable, space)
        assert X.shape == (50, 1) and y.tolist() == [t.score for t in usable]
        config = ForestConfig(n_trees=2)
        got = fit_forest(usable + [failed], space, config, np.random.default_rng(0))
        want = fit_forest(usable, space, config, np.random.default_rng(0))
        for g, w in zip(got.trees, want.trees):
            assert g.leaf_boxes.tobytes() == w.leaf_boxes.tobytes() and g.leaf_means.tobytes() == w.leaf_means.tobytes()

    def test_fit_memory_stays_bounded(self):
        # every tree grows in one pass, so a level's arrays hold n_trees * n
        # samples; on 2,000 trials of a 3-D additive-anova surface the
        # driver's peak RSS, taken in a child process of its own, rose by
        # 9.2 MB, and by 104 MB with FIT_ELEMENT_BUDGET unbounded
        driver = subprocess.run([
            sys.executable, "-c",
            "import math, resource; "
            "import numpy as np; "
            "from wrsopt.importance import ForestConfig, fit_forest; "
            "from wrsopt.objectives import make_objective; "
            "from wrsopt.space import Dimension, SearchSpace; "
            "from wrsopt.triallog import TrialRecord; "
            "space = SearchSpace(tuple(Dimension(name=f'x{i}', kind='real', low=0.0, high=1.0) for i in range(3))); "
            "objective = make_objective(f'builtin:additive-anova?coeffs={math.sqrt(7)!r},{math.sqrt(2)!r},1', space); "
            "rng = np.random.default_rng(13); "
            "values = [space.sample(rng) for _ in range(2000)]; "
            "trials = [TrialRecord(i, v, objective(v), 'rs', 'evaluated', 0.0) for i, v in enumerate(values, start=1)]; "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "forest = fit_forest(trials, space, ForestConfig(), np.random.default_rng(0)); "
            "print(len(forest.trees), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)",
        ], capture_output=True, text=True, timeout=120, check=True)
        n_trees, rise_kb = driver.stdout.split()
        assert int(n_trees) == 30
        assert int(rise_kb) < 16 * 1024  # ru_maxrss is in KiB on Linux

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


class TestScoresNearFloatRange:
    """Split sums and leaf variances of such scores overflow: the fit and the
    fractions go on without a RuntimeWarning, and the weights are refused."""

    @pytest.fixture
    def trials(self):
        # additive-anova with coefficients 1e300 and 1, as a run would score it
        return make_trials(real_space(2, low=0.0, high=1.0), lambda v: 1e300 * (2 * v[0] - 1) + (2 * v[1] - 1), 20, seed=1)

    def test_forest_fit_raises_no_warning(self, trials):
        forest = fit_forest(trials, real_space(2, low=0.0, high=1.0), ForestConfig(), np.random.default_rng(1))
        assert len(forest.trees) == ForestConfig().n_trees

    def test_fractions_raise_no_warning_and_the_weights_are_refused(self, trials):
        space = real_space(2, low=0.0, high=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the fit's own guard is the test above
            forest = fit_forest(trials, space, ForestConfig(), np.random.default_rng(1))
        weights = main_effect_fractions(forest, space)
        with pytest.raises(ImportanceError, match="^weights must be finite$"):
            weights_to_probabilities(weights)

    def test_a_row_whose_every_cut_sse_is_inf_takes_its_first_valid_cut(self):
        # +-a pairs tied in x keep every prefix sum at 0.0 while a*a overflows,
        # so both valid cuts (after positions 1 and 3) score +inf, not NaN, as
        # every invalid cut does, position 0 (min_leaf=2) first
        X = np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]])
        yc = np.array([1.0, -1.0, 2.0, -2.0, 1e155, -1e155])
        with np.errstate(over="ignore", invalid="ignore"):
            dims, thrs = _best_splits(X, np.arange(6), yc, np.array([0]), np.array([6]), np.array([yc @ yc]), 2)
        assert dims.tolist() == [-1] and thrs.tolist() == [0.5]

    def test_a_cut_whose_prefix_sse_is_inf_splits_as_the_recursion_does(self):
        # the two top scores square past float range, so the one valid cut,
        # x < 0.5, scores +inf by prefix sums; re-scored in sample order it
        # gains inf, and the node splits there as the recursion splits it
        m, dev = math.sqrt(0.24 * np.finfo(float).max), math.sqrt(0.3 * np.finfo(float).max)
        scores = [-m / 2] * 4 + [m + dev, m - dev]
        trials = [
            TrialRecord(iteration=i, values=(x,), score=s, phase="rs", status="evaluated", wall_time=0.0)
            for i, (x, s) in enumerate(zip([0, 0, 0, 0, 1, 1], scores), start=1)
        ]
        space = int_space(1, low=0, high=1)
        config = ForestConfig(n_trees=1, bootstrap=False)
        tree = fit_forest(trials, space, config, np.random.default_rng(0)).trees[0]
        X, y = encode_trials(trials, space)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _forest_oracle._fit_tree(X, y, root_box(space), config, np.random.default_rng(0))
        assert tree.leaf_boxes.tolist() == want.leaf_boxes.tolist() == [[[0.0, 0.5]], [[0.5, 2.0]]]
        assert tree.leaf_means.tobytes() == want.leaf_means.tobytes()


class TestMainEffects:
    def test_linear_single_dimension_dominates(self):
        space = real_space(3, low=0.0, high=1.0)
        trials = make_trials(space, lambda v: v[0], 400, seed=5)
        forest = fit_forest(trials, space, ForestConfig(n_trees=10), np.random.default_rng(1))
        w = main_effect_fractions(forest, space)
        assert w[0] > 95.0
        assert w[1] < 5.0 and w[2] < 5.0

    def test_symmetric_sum_splits_evenly(self):
        space = real_space(2, low=0.0, high=1.0)
        trials = make_trials(space, lambda v: v[0] + v[1], 400, seed=6)
        forest = fit_forest(trials, space, ForestConfig(n_trees=10), np.random.default_rng(2))
        w = main_effect_fractions(forest, space)
        assert abs(w[0] - w[1]) < 3.0

    def test_fractions_invariant_under_affine_rescaling(self):
        space = real_space(2, low=0.0, high=1.0)
        base = make_trials(space, lambda v: v[0] + 0.3 * v[1], 300, seed=7)
        scaled = [
            TrialRecord(t.iteration, t.values, 50.0 * t.score - 11.0, t.phase, t.status, t.wall_time)
            for t in base
        ]
        w1 = main_effect_fractions(fit_forest(base, space, ForestConfig(), np.random.default_rng(3)), space)
        w2 = main_effect_fractions(fit_forest(scaled, space, ForestConfig(), np.random.default_rng(3)), space)
        # split ties at deep nodes may resolve differently after rescaling,
        # so identity holds only up to a small structural wobble
        assert np.allclose(w1, w2, atol=0.1)

    def test_sum_of_fractions_bounded_by_100(self):
        space = mixed_space()
        fn = lambda v: v[0] * 2.0 + v[1] * 0.1 + (1.0 if v[2] == "relu" else 0.0)
        trials = make_trials(space, fn, 300, seed=8)
        forest = fit_forest(trials, space, ForestConfig(n_trees=5), np.random.default_rng(4))
        w = main_effect_fractions(forest, space)
        assert all(f >= 0.0 for f in w)
        assert sum(w) <= 100.0 + 1e-9

    def test_fractions_are_a_tuple_of_python_floats_one_per_dimension(self):
        space = mixed_space()
        trials = make_trials(space, lambda v: v[0] + v[1], 60, seed=8)
        w = main_effect_fractions(fit_forest(trials, space, ForestConfig(n_trees=3), np.random.default_rng(4)), space)
        assert type(w) is tuple and len(w) == len(space)
        assert all(type(f) is float for f in w)

    def test_integer_dimension_importance_recovered(self):
        # score depends only on the first of two integer axes
        space = int_space(2, low=0, high=20)
        trials = make_trials(space, lambda v: float(v[0]), 300, seed=9)
        forest = fit_forest(trials, space, ForestConfig(n_trees=10), np.random.default_rng(5))
        w = main_effect_fractions(forest, space)
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
            w = main_effect_fractions(forest, space)
        assert all(math.isfinite(f) for f in w)
        assert w[1] == 0.0
        assert w[0] > 80.0 and 0.0 < w[2] < 15.0

    def test_an_axis_no_tree_splits_gets_no_negative_share(self):
        # n holds one value, so no tree splits it; its one segment adds the
        # leaves in leaf order and the mean adds them pairwise, so its v_i
        # rounds to about +-1e-15 (negative in some trees of this forest); the
        # share keeps max(v_i, 0), which is why weights need no sign check
        space = SearchSpace((Dimension(name="x", kind="real", low=0.0, high=1.0), Dimension(name="n", kind="int", low=0, high=0)))
        trials = make_trials(space, lambda v: math.sin(9 * v[0]), 60, seed=3)
        forest = fit_forest(trials, space, ForestConfig(n_trees=10), np.random.default_rng(3))
        root, counting = root_box(space), ordinal_bounds(space)[2]
        shares = [_tree_fractions(tree, root, counting)[1] for tree in forest.trees]
        assert all(0.0 <= f < 1e-12 for f in shares) and 0.0 in shares
        assert 0.0 <= main_effect_fractions(forest, space)[1] < 1e-12

    @pytest.mark.parametrize("budget", [1, 7, 8192])
    def test_main_effects_do_not_depend_on_the_block_size(self, budget):
        # acceptance test c04's shape grows deep trees, whose leaves fall
        # into many blocks; every block size adds in the per-leaf loop's order
        space, trials = SHAPES["anova"]()
        forest = fit_forest(trials, space, ForestConfig(), np.random.default_rng(200))
        root, counting = root_box(space), ordinal_bounds(space)[2]
        with mock.patch.object(importance, "FIT_ELEMENT_BUDGET", budget):
            for tree in forest.trees:
                want = _forest_oracle._tree_fractions(tree, root, counting)
                assert _tree_fractions(tree, root, counting).tobytes() == want.tobytes()


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

    def test_all_zero_rejected(self):
        with pytest.raises(ImportanceError, match="^all weights are zero; probabilities undefined$"):
            weights_to_probabilities((0.0, 0.0))


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
