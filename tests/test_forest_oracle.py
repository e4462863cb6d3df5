"""The level-wise forest fit and the coverage-matrix main effects against
the recursive per-node fit and the per-leaf marginal loop, byte for byte."""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from wrsopt import importance
from wrsopt.importance import ForestConfig, _is_counting, _tree_fractions, encode_trials, fit_forest, root_box
from wrsopt.space import Dimension, SearchSpace
from wrsopt.triallog import TrialRecord

import _forest_oracle

# few distinct reals, so columns tie; 1.0 and its upper neighbour exercise
# the threshold rule for values one ulp apart
REALS = (0.0, 0.25, 1.0, float(np.nextafter(1.0, 2.0)), 1.5, 2.0)
DIMS = {
    "real": Dimension(name="r", kind="real", low=0.0, high=2.0),
    "int": Dimension(name="i", kind="int", low=0, high=4),
    "cat": Dimension(name="c", kind="cat", values=("a", "b", "c")),
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
    # small budgets split the trees into batches and the nodes into chunks
    with mock.patch.object(importance, "FIT_ELEMENT_BUDGET", budget):
        got = fit_forest(trials, space, config, np.random.default_rng(seed))
        root, counting = root_box(space), _is_counting(space)
        for tree in got.trees:
            shares = _tree_fractions(tree, root, counting)
            want = _forest_oracle._tree_fractions(tree, root, counting)
            assert (shares is None and want is None) or shares.tobytes() == want.tobytes()
    assert_same_trees(got.trees, oracle_forest(trials, space, config, np.random.default_rng(seed)))


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
