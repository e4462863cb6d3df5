import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wrsopt.engine import RngBundle, RunConfig, execute_run
from wrsopt.objectives import _sphere, make_objective
from wrsopt.samplers import NelderMeadSampler
from wrsopt.space import Dimension, SearchSpace, from_ordinal as emit_relaxed, validate_candidate

from _util import int_space, mixed_space, real_space

# the share of a real axis's width within which the simplex has collapsed (README)
NM_TOL = 1e-4


class StartAt:
    """Stands in for the sampler's rng, whose one draw, random(d), places the
    first vertex: it returns the given fraction of each axis's width."""

    def __init__(self, *fractions):
        self.fractions = np.array(fractions)

    def random(self, d):
        return self.fractions


def drive(sampler, fn, steps):
    """Run the ask/tell loop, maximizing fn; returns best (candidate, score)."""
    best = (None, -np.inf)
    for _ in range(steps):
        cand = sampler.ask()
        score = fn(cand)
        if score > best[1]:
            best = (cand, score)
        sampler.tell(score)
    return best


def test_reflection_is_first_proposal_after_init():
    # a first vertex at (0,0) with step 0.05 over span 20 gives the exact simplex
    # (0,0), (1,0), (0,1); with losses 1 < 2 < 3 the worst vertex (0,1) is
    # reflected through the centroid (0.5, 0) to (1, -1)
    space = real_space(2, low=-10, high=10)
    nm = NelderMeadSampler(space, StartAt(0.5, 0.5))
    losses = {(0.0, 0.0): 1.0, (1.0, 0.0): 2.0, (0.0, 1.0): 3.0}
    for _ in range(3):
        cand = nm.ask()
        nm.tell(-losses[cand])  # engine maximizes, so loss enters negated
    assert nm.ask() == (1.0, -1.0)


# The branch tests below start from the exact simplex (0,0), (1,0), (0,1)
# (first vertex (0,0), step 0.05 over span 20) with losses 1 < 2 < 3, so the
# centroid of the two best vertices is (0.5, 0) and the reflection of the
# worst vertex is (1, -1).  Every point below is exact in binary floating
# point, so the expected asks are compared with ==.


def simplex_asks(losses, n, **coefficients):
    """Drive a fresh sampler on the base simplex, telling each point the loss
    given for it; returns the first n asks (the last one is not told)."""
    space = real_space(2, low=-10, high=10)
    nm = NelderMeadSampler(space, StartAt(0.5, 0.5), **coefficients)
    losses = {(0.0, 0.0): 1.0, (1.0, 0.0): 2.0, (0.0, 1.0): 3.0, **losses}
    asks = [nm.ask()]
    while len(asks) < n:
        nm.tell(-losses[asks[-1]])  # engine maximizes, so loss enters negated
        asks.append(nm.ask())
    return asks


def test_accepted_expansion_replaces_worst_vertex():
    # reflection (1,-1) beats the best vertex, so expand to (1.5,-2); it beats
    # the reflection and replaces (0,1).  Next simplex (1.5,-2), (0,0), (1,0)
    # reflects (1,0) through (0.75,-1) to (0.5,-2).
    asks = simplex_asks({(1.0, -1.0): 0.5, (1.5, -2.0): 0.2}, 6)
    assert asks[3:] == [(1.0, -1.0), (1.5, -2.0), (0.5, -2.0)]


def test_rejected_expansion_keeps_reflected_point():
    # expansion (1.5,-2) is worse than the reflection, so (1,-1) replaces (0,1).
    # Next simplex (1,-1), (0,0), (1,0) reflects (1,0) through (0.5,-0.5) to (0,-1).
    asks = simplex_asks({(1.0, -1.0): 0.5, (1.5, -2.0): 0.7}, 6)
    assert asks[3:] == [(1.0, -1.0), (1.5, -2.0), (0.0, -1.0)]


def test_reflection_between_best_and_second_worst_is_accepted_without_expansion():
    asks = simplex_asks({(1.0, -1.0): 1.5}, 5)
    assert asks[3:] == [(1.0, -1.0), (0.0, -1.0)]


def test_outside_contraction():
    # reflection lies between the second-worst and the worst vertex: contract
    # toward it, to (0.75,-0.5), which is kept because it is no worse than the
    # reflection.  Next simplex (0.75,-0.5), (0,0), (1,0) reflects (1,0)
    # through (0.375,-0.25) to (-0.25,-0.5).
    asks = simplex_asks({(1.0, -1.0): 2.5, (0.75, -0.5): 0.5}, 6)
    assert asks[3:] == [(1.0, -1.0), (0.75, -0.5), (-0.25, -0.5)]


def test_inside_contraction():
    # reflection is no better than the worst vertex: contract toward the worst
    # vertex, to (0.25,0.5), which beats it.  Next simplex (0.25,0.5), (0,0),
    # (1,0) reflects (1,0) through (0.125,0.25) to (-0.75,0.5).
    asks = simplex_asks({(1.0, -1.0): 4.0, (0.25, 0.5): 0.5}, 6)
    assert asks[3:] == [(1.0, -1.0), (0.25, 0.5), (-0.75, 0.5)]


@pytest.mark.parametrize(
    "contraction",
    [
        {(1.0, -1.0): 2.5, (0.75, -0.5): 2.75},  # outside contraction worse than the reflection
        {(1.0, -1.0): 4.0, (0.25, 0.5): 3.0},  # inside contraction no better than the worst vertex
    ],
    ids=["after-outside-contraction", "after-inside-contraction"],
)
def test_failed_contraction_shrinks_and_reevaluates_in_vertex_order(contraction):
    # shrink every vertex halfway toward the best (0,0): (1,0) -> (0.5,0) and
    # (0,1) -> (0,0.5), re-evaluated in that order; the best is not re-asked.
    # With losses 0.8 and 1.2 the next simplex (0.5,0), (0,0), (0,0.5)
    # reflects (0,0.5) through (0.25,0) to (0.5,-0.5).
    losses = {**contraction, (0.5, 0.0): 0.8, (0.0, 0.5): 1.2}
    asks = simplex_asks(losses, 8)
    assert asks[5:] == [(0.5, 0.0), (0.0, 0.5), (0.5, -0.5)]


def test_shrink_coefficient_is_configurable():
    asks = simplex_asks({(1.0, -1.0): 4.0, (0.25, 0.5): 3.0, (0.25, 0.0): 0.8}, 7, sigma=0.25)
    assert asks[5:] == [(0.25, 0.0), (0.0, 0.25)]


def test_sphere_2d_converges_to_origin():
    space = real_space(2, low=-5, high=5)
    nm = NelderMeadSampler(space, StartAt(0.6, 0.6))  # first vertex (1, 1)
    best, _ = drive(nm, lambda c: -_sphere(np.asarray(c)), 200)
    assert np.linalg.norm(best) < 1e-3


def test_degenerate_simplex_reports_convergence_and_reemits_best():
    # every axis has a single admissible value, so all vertices coincide
    space = SearchSpace(
        (
            Dimension(name="a", kind="int", low=5, high=5),
            Dimension(name="b", kind="int", low=2, high=2),
        )
    )
    nm = NelderMeadSampler(space, np.random.default_rng(0))
    for _ in range(3):
        assert nm.ask() == (5, 2)
        nm.tell(-1.0)
    assert nm.converged
    assert nm.ask() == (5, 2)
    nm.tell(-1.0)
    assert nm.ask() == (5, 2)


def test_collapse_rounds_int_and_cat_axes_and_allows_nm_tol_of_a_real_width():
    space = SearchSpace(
        (
            Dimension(name="x", kind="real", low=-1.0, high=3.0),
            Dimension(name="n", kind="int", low=0, high=5),
            Dimension(name="c", kind="cat", values=("p", "q", "r")),
        )
    )
    nm = NelderMeadSampler(space, np.random.default_rng(0))
    width = 4.0 * NM_TOL

    def collapsed(*rows):
        return nm._collapsed(np.array(rows, dtype=float))

    # 2.5 rounds half to even, to 2, as emit_relaxed rounds it; -0.4 clamps to 0
    assert collapsed((1.0, 1.6, -0.4), (1.0 + width, 2.5, 0.4), (1.0, 2.4, 0.0))
    assert not collapsed((1.0, 1.6, 0.0), (1.0 + 2 * width, 2.4, 0.0), (1.0, 2.0, 0.0))
    assert not collapsed((1.0, 2.4, 0.0), (1.0, 2.6, 0.0), (1.0, 2.0, 0.0))
    assert not collapsed((1.0, 2.0, 0.4), (1.0, 2.0, 0.6), (1.0, 2.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_collapse_agrees_with_the_candidates_emit_relaxed_gives(data):
    # mixed_space: lr real in [0, 1], layers int in [1, 8], act cat of 3
    space = mixed_space()
    nm = NelderMeadSampler(space, np.random.default_rng(0))
    base = [data.draw(st.floats(-0.5, 1.5)), data.draw(st.floats(0.0, 9.0)), data.draw(st.floats(-1.0, 3.0))]
    real_step = st.sampled_from((0.0, 0.5, 1.0, 2.0)).map(lambda k: k * NM_TOL)
    rounded_step = st.sampled_from((0.0, 0.1, -0.1, 0.5, -0.5, 1.0))
    vertices = np.array([
        [base[0] + data.draw(real_step), base[1] + data.draw(rounded_step), base[2] + data.draw(rounded_step)]
        for _ in range(4)
    ])
    emitted = [emit_relaxed(space, v) for v in vertices]
    lr = vertices[:, 0].clip(0.0, 1.0)
    expected = len({c[1:] for c in emitted}) == 1 and lr.max() - lr.min() <= NM_TOL
    assert nm._collapsed(vertices) == expected


def test_constant_objective_on_a_4_int_space_converges():
    # under exact equality two vertices stayed one ulp apart after 3000 trials
    nm = NelderMeadSampler(int_space(4, low=0, high=5), RngBundle.from_seed(0).values)
    for _ in range(50):
        nm.ask()
        nm.tell(1.5)
    assert nm.converged


def test_no_new_candidate_after_convergence_on_a_real_space():
    nm = NelderMeadSampler(real_space(3), np.random.default_rng(1))
    seen, new_after_convergence = set(), 0
    for _ in range(1000):
        cand = nm.ask()
        if cand not in seen:
            seen.add(cand)
            new_after_convergence += nm.converged
        nm.tell(-_sphere(np.asarray(cand)))
    assert nm.converged
    assert new_after_convergence == 0


def test_a_converged_run_evaluates_no_trial_more_on_a_larger_budget():
    space = real_space(3)
    objective = make_objective("builtin:sphere", space)
    evaluated = [
        sum(rec.status == "evaluated" for rec in execute_run(space, objective, RunConfig(strategy="nelder-mead", budget=budget, seed=1)).records)
        for budget in (1000, 2000)
    ]
    assert evaluated[0] == evaluated[1] < 1000


def test_proposals_respect_bounds_and_types():
    space = mixed_space()
    nm = NelderMeadSampler(space, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for _ in range(150):
        cand = nm.ask()
        validate_candidate(space, cand)
        nm.tell(float(rng.normal()))


def test_single_value_integer_axis_is_harmless():
    space = SearchSpace(
        (
            Dimension(name="fixed", kind="int", low=5, high=5),
            Dimension(name="x", kind="real", low=0.0, high=1.0),
        )
    )
    nm = NelderMeadSampler(space, np.random.default_rng(1))
    for _ in range(40):
        cand = nm.ask()
        assert cand[0] == 5
        nm.tell(-float(cand[1]))


def test_coefficients_are_configurable():
    space = real_space(2, low=-10, high=10)
    nm = NelderMeadSampler(space, StartAt(0.5, 0.5), alpha=2.0)
    losses = {(0.0, 0.0): 1.0, (1.0, 0.0): 2.0, (0.0, 1.0): 3.0}
    for _ in range(3):
        nm.tell(-losses[nm.ask()])
    assert nm.ask() == (1.5, -2.0)  # reflection stretched by alpha = 2


# The simplex and swarm code call ndarray methods where they used to call the
# numpy functions: x.clip, x.argsort, x.argmax and (a == b).all() for
# np.clip, np.argsort, np.argmax and np.all, and sum(axis=0) / n for
# mean(axis=0).  Each pair must agree bit for
# bit, signed zeros included, on the shapes the simplex uses.
_coords = st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from((0.0, -0.0, 5e-324, -5e-324))


@st.composite
def simplices(draw):
    d = draw(st.integers(1, 12))
    return draw(hnp.arrays(np.float64, (d + 1, d), elements=_coords))


@settings(max_examples=300, deadline=None)
@given(simplices())
def test_centroid_sum_over_count_is_bitwise_mean(vertices):
    got = vertices[:-1].sum(axis=0) / (len(vertices) - 1)
    assert got.tobytes() == vertices[:-1].mean(axis=0).tobytes()


@settings(max_examples=300, deadline=None)
@given(simplices(), st.data())
def test_array_methods_match_numpy_functions_bitwise(vertices, data):
    d = vertices.shape[1]
    lo, hi = np.sort(data.draw(hnp.arrays(np.float64, (2, d), elements=_coords)), axis=0)
    x = vertices[0]
    assert x.clip(lo, hi).tobytes() == np.clip(x, lo, hi).tobytes()
    losses = data.draw(hnp.arrays(np.float64, d + 1, elements=st.sampled_from((-1.0, 0.0, 2.5)) | _coords))
    assert losses.argsort(kind="stable").tolist() == np.argsort(losses, kind="stable").tolist()
    assert losses.argmax() == np.argmax(losses)
    same = vertices == vertices[0]
    assert bool(same.all()) is bool(np.all(same))
