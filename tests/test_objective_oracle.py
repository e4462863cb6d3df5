"""The Python-float builtins and the integer Sobol step against their old
numpy forms in ``_objective_oracle``, bit for bit."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wrsopt.objectives import ObjectiveFailure, _sum, make_objective
from wrsopt.samplers import SobolSampler
from wrsopt.sobol import BITS, MAX_DIM, SobolEngine
from wrsopt.space import Dimension, SearchSpace, value_at

import _objective_oracle as oracle

# below 8 terms, 8 to 128, and past 128, where the sum splits in halves
LENGTHS = st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300))
HUGE = st.floats(min_value=1e299, max_value=1.7e308)


@st.composite
def axis(draw):
    """One (Dimension, value) pair, int or real: a value of everyday size, a
    signed zero, the axis midpoint or a value near +-1e300."""
    if draw(st.booleans()):
        low = draw(st.integers(-1000, 1000))
        high = low + draw(st.integers(1, 1000))
        value = draw(st.one_of(st.integers(low, high), st.integers(-10**300, 10**300), st.just((low + high) // 2)))
        return Dimension(name="n", kind="int", low=low, high=high), value
    low = draw(st.floats(-100.0, 100.0))
    high = low + draw(st.floats(1e-3, 100.0))
    value = draw(st.one_of(
        st.floats(-10.0, 10.0), st.sampled_from((0.0, -0.0, 1.0, 0.5)), st.just((low + high) / 2),
        HUGE, HUGE.map(lambda v: -v),
    ))
    return Dimension(name="x", kind="real", low=low, high=high), value


@st.composite
def axes(draw, n: int):
    """n (Dimension, value) pairs: up to 8 drawn ones, the first of them
    in order, then a seeded pick among them for the rest, so a long
    candidate costs few draws."""
    pool = draw(st.lists(axis(), min_size=1, max_size=min(n, 8)))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(pool), n).tolist()
    chosen = pool + [pool[i] for i in picks[len(pool):]]
    return [(replace(dim, name=f"{dim.name}{i}"), value) for i, (dim, value) in enumerate(chosen)]


def assert_same_value(new: float, old: float) -> None:
    """Bit for bit, the sign of zero included; both non-finite when the
    oracle's value is."""
    if math.isfinite(old):
        assert new.hex() == old.hex(), (new, old)
    else:
        assert not math.isfinite(new), (new, old)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(oracle.BUILTINS)), n=LENGTHS)
def test_each_builtin_equals_its_numpy_form(data, name, n):
    if name == "branin":
        n = 2
    elif name == "rosenbrock":
        n = max(n, 2)  # make_objective refuses a one-dimension rosenbrock
    dims, values = zip(*data.draw(axes(n)))
    objective = make_objective(f"builtin:{name}", SearchSpace(dims))
    assert_same_value(objective.fn(values), oracle.score(oracle.BUILTINS[name], values))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=LENGTHS)
def test_additive_anova_equals_its_numpy_form(data, n):
    dims, values = zip(*data.draw(axes(n)))
    pool = data.draw(st.lists(st.one_of(st.floats(-10.0, 10.0), st.sampled_from((0.0, -0.0)), HUGE), min_size=1, max_size=8))
    coeffs = [pool[i % len(pool)] for i in range(n)]
    objective = make_objective(f"builtin:additive-anova?coeffs={','.join(map(repr, coeffs))}", SearchSpace(dims))
    lows = np.array([d.low for d in dims], dtype=float)
    highs = np.array([d.high for d in dims], dtype=float)
    reference = oracle.additive_anova(np.array(coeffs), lows, highs)
    assert_same_value(objective.fn(values), oracle.score(reference, values))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from((0.0, -0.0, 1.0, 1e16, -1e16)), st.floats(allow_nan=False)), max_size=300))
@example([-0.0] * 8)
@example([-0.0] * 3)
@example([1e16] + [1.0] * 139)  # 140 terms split at 64, not 70
def test_sum_adds_in_numpy_order(terms):
    with np.errstate(over="ignore", invalid="ignore"):
        reference = float(np.array(terms, dtype=float).sum())
    total = _sum(terms)
    if math.isnan(reference):
        assert math.isnan(total)
    else:
        assert total.hex() == reference.hex(), (total, reference)


@pytest.mark.parametrize("name", sorted(oracle.BUILTINS))
def test_a_value_beyond_float_range_is_non_finite_on_both_sides(name):
    # cos(inf) and pow beyond float range raise in Python; numpy gives nan or inf
    space = SearchSpace(tuple(Dimension(name=f"x{i}", kind="real", low=-1e307, high=1e307) for i in range(2)))
    objective = make_objective(f"builtin:{name}", space)
    for values in ((1e300, 1e300), (-1.7e308, 3.0), (3.0, 1.7e308)):
        assert not math.isfinite(oracle.score(oracle.BUILTINS[name], values))
        assert not math.isfinite(objective.fn(values))
        with pytest.raises(ObjectiveFailure, match="^non-finite value$"):
            objective(values)


def test_styblinski_tang_stays_within_an_ulp_of_numpys_array_power():
    # the one declared change: numpy's SIMD x**4 and libm pow differ by an ulp on some inputs
    rng = np.random.default_rng(0)
    space = SearchSpace(tuple(Dimension(name=f"x{i}", kind="real", low=-5.0, high=5.0) for i in range(6)))
    objective = make_objective("builtin:styblinski-tang?direction=maximize", space)
    for _ in range(2000):
        values = tuple(rng.uniform(-5.0, 5.0, 6).tolist())
        x = np.array(values)
        slack = sum(math.ulp(v) for v in (x**4).tolist()) + 16 * math.ulp(float(np.abs(x**4 - 16.0 * x**2 + 5.0 * x).sum()))
        assert abs(objective(values) - oracle.score(oracle.styblinski_tang, values)) <= slack


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
def test_sobol_stream_equals_its_numpy_form(d, seed):
    shift = np.random.default_rng(seed).integers(0, 1 << BITS, d)
    reference = oracle.SobolStream(d, shift)
    engine = SobolEngine(d, shift.tolist())
    for _ in range(300):
        assert engine.next_point() == tuple(reference.next_point().tolist())


@pytest.mark.parametrize("seed", range(3))
def test_sobol_sampler_equals_its_numpy_form(seed):
    space = SearchSpace((
        Dimension(name="r", kind="real", low=-1.0, high=3.0),
        Dimension(name="i", kind="int", low=3, high=6),
        Dimension(name="c", kind="cat", values=("a", "b", "c"), weights=(1, 2, 3)),
    ))
    sampler = SobolSampler(space, np.random.default_rng(seed))
    reference = oracle.SobolStream(3, np.random.default_rng(seed).integers(0, 1 << BITS, 3))
    for _ in range(500):
        assert sampler.ask() == tuple(map(value_at, space.dimensions, reference.next_point().tolist()))


def test_unshifted_take_equals_the_numpy_engine():
    reference = oracle.SobolStream(MAX_DIM, np.zeros(MAX_DIM, dtype=np.int64))
    points = SobolEngine(MAX_DIM).take(200)
    assert points.dtype == np.float64 and points.shape == (200, MAX_DIM)
    assert np.array_equal(points, np.stack([reference.next_point() for _ in range(200)]))
