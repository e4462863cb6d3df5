"""Reference per-dimension draw loops for the candidate streams.

``SearchSpace.sample`` and ``wrs_step`` take all the uniforms of a step in
one ``rng.random(k)`` call.  The functions below draw them one scalar call
at a time and map each with the per-draw arithmetic, weighted categoricals
summing their weights on every draw, as the package did before.  The tests
require both forms to give the same candidates and leave the generators in
the same state.  ``spaces`` draws the mixed spaces they are compared on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from wrsopt.samplers import ChangeProfile
from wrsopt.space import Dimension, SearchSpace


class OracleError(RuntimeError):
    """A step the reference loop cannot take."""


def draw_dimension(dim: Dimension, rng: np.random.Generator):
    """One value from one scalar rng.random() call."""
    u = rng.random()
    if dim.kind == "real":
        return dim.low + u * (dim.high - dim.low)
    if dim.kind == "int":
        v = dim.low + int(u * (dim.high - dim.low + 1))
        return min(v, dim.high)
    if dim.weights is None:
        idx = min(int(u * len(dim.values)), len(dim.values) - 1)
        return dim.values[idx]
    cum = np.cumsum(dim.weights)
    idx = int(np.searchsorted(cum, u * cum[-1], side="right"))
    return dim.values[min(idx, len(dim.values) - 1)]


def sample_by_dimension(space: SearchSpace, rng: np.random.Generator) -> tuple:
    return tuple(draw_dimension(d, rng) for d in space.dimensions)


def wrs_step_by_dimension(
    space: SearchSpace,
    best: tuple | None,
    profile: ChangeProfile,
    value_rng: np.random.Generator,
    decision_rng: np.random.Generator,
) -> tuple:
    """The weighted step with one value draw per resampled dimension, taken
    as the loop reaches it."""
    p = decision_rng.random()
    out = []
    for i, dim in enumerate(space.dimensions):
        if profile.probs[i] >= p or profile.gen_counts[i] <= profile.k_mins[i]:
            out.append(draw_dimension(dim, value_rng))
            profile.gen_counts[i] += 1
        else:
            if best is None:
                raise OracleError("no incumbent to copy from")
            out.append(best[i])
    return tuple(out)


def _dimension(i: int, kind: str, draw) -> Dimension:
    name = f"d{i}"
    if kind == "real":
        a, b = sorted(draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=2)))
        return Dimension(name=name, kind="real", low=a, high=b)
    if kind == "int":
        low = draw(st.integers(-1000, 1000))
        return Dimension(name=name, kind="int", low=low, high=low + draw(st.integers(0, 50)))
    n = draw(st.integers(1, 6))
    weights = draw(st.none() | st.lists(st.floats(1e-6, 1e6), min_size=n, max_size=n))
    return Dimension(name=name, kind="cat", values=tuple(f"v{j}" for j in range(n)), weights=weights)


@st.composite
def spaces(draw) -> SearchSpace:
    """Hypothesis strategy: mixed spaces of 1-8 real, int, plain and
    weighted categorical dimensions, zero-width ranges included."""
    kinds = draw(st.lists(st.sampled_from(("real", "int", "cat")), min_size=1, max_size=8))
    return SearchSpace(tuple(_dimension(i, kind, draw) for i, kind in enumerate(kinds)))
