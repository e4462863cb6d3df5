"""The level-wise forest fit and the bincount-summed main effects against
the recursive per-node fit and the per-leaf marginal loop, byte for byte."""

from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wrsopt import importance
from wrsopt.importance import (
    ForestConfig,
    ImportanceError,
    _tree_fractions,
    encode_trials,
    fit_forest,
    main_effect_fractions,
    root_box,
    weights_to_probabilities,
)
from wrsopt.space import Dimension, SearchSpace, ordinal_bounds
from wrsopt.triallog import TrialRecord

import _forest_oracle

# few distinct reals, so columns tie; 1.0 and its upper neighbour exercise
# the threshold rule for values one ulp apart
REALS = (0.0, 0.25, 1.0, float(np.nextafter(1.0, 2.0)), 1.5, 2.0)
DIMS = {
    "real": Dimension(name="r", kind="real", low=0.0, high=2.0),
    "int": Dimension(name="i", kind="int", low=0, high=4),
    "cat": Dimension(name="c", kind="cat", values=("a", "b", "c")),
    # a zero-width real axis: mass 1 in every leaf and no segment
    "fixed": Dimension(name="f", kind="real", low=0.5, high=0.5),
}


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.leaf_boxes.dtype == w.leaf_boxes.dtype and g.leaf_boxes.shape == w.leaf_boxes.shape
        assert g.leaf_boxes.tobytes() == w.leaf_boxes.tobytes()
        assert g.leaf_means.dtype == w.leaf_means.dtype and g.leaf_means.tobytes() == w.leaf_means.tobytes()
        assert g.split_dims == w.split_dims and all(type(i) is int for i in g.split_dims)


def oracle_forest(trials, space, config, rng):
    X, y = encode_trials(trials, space)
    return tuple(_forest_oracle._fit_tree(X, y, root_box(space), config, s) for s in rng.spawn(config.n_trees))


@st.composite
def forest_problems(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(DIMS)), min_size=1, max_size=4))
    space = SearchSpace(tuple(replace(DIMS[k], name=f"{k}{i}") for i, k in enumerate(kinds)))
    value = {
        "real": st.one_of(st.sampled_from(REALS), st.floats(0.0, 2.0)),
        "int": st.integers(0, 4),
        "cat": st.sampled_from(("a", "b", "c")),
        "fixed": st.just(0.5),
    }
    rows = draw(st.lists(st.tuples(*(value[k] for k in kinds)), min_size=2, max_size=40))
    scores = draw(
        st.lists(
            st.one_of(st.sampled_from((0.0, 1.0, -2.5)), st.floats(-1e3, 1e3)),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    trials = [
        TrialRecord(iteration=i, values=v, score=s, phase="rs", status="evaluated", wall_time=0.0)
        for i, (v, s) in enumerate(zip(rows, scores), start=1)
    ]
    config = ForestConfig(
        n_trees=draw(st.integers(1, 4)),
        max_depth=draw(st.integers(1, 8)),
        min_leaf=draw(st.integers(1, 5)),
        bootstrap=draw(st.booleans()),
    )
    return space, trials, config


@settings(max_examples=300, deadline=None)
@given(forest_problems(), st.integers(0, 2**32 - 1), st.sampled_from((1, 5, 64, 8192)))
def test_levelwise_fit_equals_recursive_oracle(problem, seed, budget):
    space, trials, config = problem
    if len({t.values for t in trials}) < 2 or len({t.score for t in trials}) < 2:
        return  # fit_forest refuses these before any tree is grown
    # small budgets split the nodes into chunks and the leaves into blocks
    with mock.patch.object(importance, "FIT_ELEMENT_BUDGET", budget):
        got = fit_forest(trials, space, config, np.random.default_rng(seed))
        root, counting = root_box(space), ordinal_bounds(space)[2]
        for tree in got.trees:
            shares = _tree_fractions(tree, root, counting)
            want = _forest_oracle._tree_fractions(tree, root, counting)
            assert (shares is None and want is None) or shares.tobytes() == want.tobytes()
    assert_same_trees(got.trees, oracle_forest(trials, space, config, np.random.default_rng(seed)))


@settings(max_examples=200, deadline=None)
@given(forest_problems(), st.integers(0, 2**32 - 1), st.sampled_from((1.0, 1e300)))
def test_every_share_is_non_negative_or_not_finite_and_refused(problem, seed, scale):
    # weights_to_probabilities refuses only shares that are not finite or all
    # zero: each tree's share is 100 * max(v_i, 0) / var with var > 0, so no
    # mean of them is negative; scores near float range overflow to inf or NaN
    space, trials, config = problem
    if len({t.values for t in trials}) < 2 or len({t.score for t in trials}) < 2:
        return  # fit_forest refuses these before any tree is grown
    trials = [replace(t, score=t.score * scale) for t in trials]
    forest = fit_forest(trials, space, config, np.random.default_rng(seed))
    root, counting = root_box(space), ordinal_bounds(space)[2]
    with np.errstate(over="ignore", invalid="ignore"):
        for tree in forest.trees:
            tree_shares = _tree_fractions(tree, root, counting)
            assert tree_shares is None or not (tree_shares < 0.0).any()
    try:
        shares = main_effect_fractions(forest, space)
    except ImportanceError as exc:
        assert str(exc) == "every tree in the forest is constant"
        return
    assert len(shares) == len(space)
    assert all(f >= 0.0 for f in shares if not math.isnan(f))
    if not all(math.isfinite(f) for f in shares):
        with pytest.raises(ImportanceError, match="^weights must be finite$"):
            weights_to_probabilities(shares)


def test_tree_deeper_than_64_levels_equals_oracle():
    # doubling scores make every best cut split off the top sample alone
    space = SearchSpace((Dimension(name="x", kind="int", low=0, high=149),))
    trials = [
        TrialRecord(iteration=i + 1, values=(i,), score=2.0**i, phase="rs", status="evaluated", wall_time=0.0)
        for i in range(150)
    ]
    config = ForestConfig(n_trees=2, max_depth=200, min_leaf=1, bootstrap=False)
    got = fit_forest(trials, space, config, np.random.default_rng(0))
    assert len(got.trees[0].leaf_means) > 100
    assert_same_trees(got.trees, oracle_forest(trials, space, config, np.random.default_rng(0)))


# The tests below drive the nodes whose split the prefix-sum gains alone
# cannot decide, which the fit re-scores as the recursion does.

def _trials(rows, scores):
    return [
        TrialRecord(iteration=i, values=tuple(v), score=float(s), phase="rs", status="evaluated", wall_time=0.0)
        for i, (v, s) in enumerate(zip(rows, scores), start=1)
    ]


def _fit_equals_oracle(space, trials, config):
    got = fit_forest(trials, space, config, np.random.default_rng(0))
    assert_same_trees(got.trees, oracle_forest(trials, space, config, np.random.default_rng(0)))
    return got


@pytest.mark.parametrize("second", ["identical", "reordered-within-sides"])
def test_tied_columns_split_on_the_first(second):
    # both columns induce the same best partition, so the re-scored gains
    # tie exactly; the reordered copy sums its prefixes in another order
    n = 40
    a = [i / n for i in range(n)]
    b = a if second == "identical" else [a[(7 * i) % 20 + 20 * (i >= 20)] for i in range(n)]
    scores = [3.0 * (i >= 20) + ((i * 7919) % 97) / 97.0 * 0.2 for i in range(n)]
    space = SearchSpace(tuple(Dimension(name=k, kind="real", low=0.0, high=1.0) for k in "ab"))
    config = ForestConfig(n_trees=20, max_depth=1, min_leaf=1)
    got = _fit_equals_oracle(space, _trials(zip(a, b), scores), config)
    assert all(tree.split_dims == (0,) for tree in got.trees)


def _root_gains(x, y):
    """Prefix-sum and re-scored gain of the best cut of a one-dimensional root."""
    yc = y - y.mean()
    base = float(yc @ yc)
    ys = yc[np.argsort(x, kind="stable")]
    cut = np.flatnonzero(np.diff(np.sort(x)) > 0)
    nl = cut + 1
    s, s2 = np.cumsum(ys), np.cumsum(ys**2)
    sse = (s2[cut] - s[cut] ** 2 / nl) + ((s2[-1] - s2[cut]) - (s[-1] - s[cut]) ** 2 / (x.size - nl))
    j = int(np.argmin(sse))
    left = x <= np.sort(x)[cut[j]]
    yl, yr = yc[left], yc[~left]
    return base - sse[j], base - float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())


@pytest.mark.parametrize(
    "n, scale, splits",
    [(40, float.fromhex("0x1.4cbd4f77d119fp-27"), False), (80, float.fromhex("0x1.c9728ffb773a0p-28"), True)],
    ids=["prefix-above-rescored-below", "prefix-below-rescored-above"],
)
def test_best_gain_at_the_1e_15_floor_is_rescored(n, scale, splits):
    # scores scaled so the root's best gain sits within rounding of 1e-15:
    # the prefix-sum gain and the re-scored one fall on its two sides, and
    # neither is 1e-15 itself
    x = np.arange(n, dtype=float)
    y = ((x >= n // 2) + (((np.arange(n) * 104729) % 97) / 97.0 - 0.5) * 1.5) * scale
    prefix, rescored = _root_gains(x, y)
    assert (rescored > 1e-15) == splits and (prefix > 1e-15) != splits and 1e-15 not in (prefix, rescored)
    space = SearchSpace((Dimension(name="x", kind="int", low=0, high=n - 1),))
    config = ForestConfig(n_trees=1, max_depth=1, min_leaf=1, bootstrap=False)
    got = _fit_equals_oracle(space, _trials([(int(v),) for v in x], y), config)
    assert len(got.trees[0].leaf_means) == (2 if splits else 1)


def test_overflowing_sse_is_rescored():
    # the outlier's square overflows the node's SSE to inf, so every
    # prefix-sum gain is NaN; its cut still re-scores to an infinite gain
    xs = [0] + [1 + i % 3 for i in range(11)]
    scores = [1e154] + [-1e154 * (1 + 1e-3 * x) for x in xs[1:]]
    space = SearchSpace((Dimension(name="x", kind="int", low=0, high=3),))
    config = ForestConfig(n_trees=1, max_depth=3, min_leaf=1, bootstrap=False)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _fit_equals_oracle(space, _trials([(x,) for x in xs], scores), config)
    assert len(got.trees[0].leaf_means) == 4


def test_tie_heavy_columns_equal_oracle():
    # the informative column three times, two copies of it permuted within
    # each side of its median and three noise columns: contested nodes hold
    # tied dimensions and dimensions far outside the margin side by side
    n = 120
    rng = np.random.default_rng(1)
    x = rng.random(n)
    low = x < np.median(x)
    copies = []
    for _ in range(2):
        c = x.copy()
        for side in (low, ~low):
            c[side] = rng.permutation(x[side])
        copies.append(c)
    columns = [x, x, x, *copies, *rng.random((3, n))]
    scores = 3.0 * ~low + 0.3 * rng.random(n)
    space = SearchSpace(tuple(Dimension(name=f"x{j}", kind="real", low=0.0, high=1.0) for j in range(8)))
    _fit_equals_oracle(space, _trials(zip(*(c.tolist() for c in columns)), scores), ForestConfig(n_trees=10))
