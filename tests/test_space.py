import datetime
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wrsopt.importance import _root_box
from wrsopt.space import (
    Dimension,
    SearchSpace,
    SpaceError,
    candidate_key,
    from_ordinal,
    load_space,
    ordinal_bounds,
    space_digest,
    space_from_dict,
    space_to_dict,
    to_ordinal,
    validate_candidate,
    value_at,
)
from wrsopt.triallog import RunHeader, write_log

from _stream_oracle import draw_dimension, sample_by_dimension, spaces


def test_kind_aliases_normalize():
    assert Dimension(name="a", kind="integer", low=0, high=3).kind == "int"
    assert Dimension(name="b", kind="float", low=0.0, high=1.0).kind == "real"
    assert Dimension(name="c", kind="choice", values=("x", "y")).kind == "cat"


def test_int_bounds_must_be_integral():
    assert Dimension(name="a", kind="int", low=2.0, high=5).low == 2
    with pytest.raises(SpaceError):
        Dimension(name="a", kind="int", low=0.5, high=5)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(name="", kind="int", low=0, high=1),
        dict(name="a", kind="wat", low=0, high=1),
        dict(name="a", kind="int", low=5, high=2),
        dict(name="a", kind="real", low=0.0, high=float("inf")),
        dict(name="a", kind="cat", values=()),
        dict(name="a", kind="cat", values=("x", "x")),
        dict(name="a", kind="cat", values=("x", "y"), weights=(1.0,)),
        dict(name="a", kind="cat", values=("x", "y"), weights=(1.0, -2.0)),
        dict(name="a", kind="int", low=0, high=3, values=("x",)),
        dict(name="a", kind="cat", values=("x",), low=0),
        # categorical values a JSON log cannot write
        dict(name="a", kind="cat", values=(datetime.date(2020, 1, 1), 3)),
        dict(name="a", kind="cat", values=([1], 3)),
        dict(name="a", kind="cat", values=((1, 2), 3)),
        dict(name="a", kind="cat", values=(b"x", 3)),
    ],
)
def test_invalid_dimensions_rejected(kwargs):
    with pytest.raises(SpaceError):
        Dimension(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(name="n", kind="int", low=False, high=True), "n: integer bound low=False is not integral"),
        (dict(name="n", kind="int", low=0, high=True), "n: integer bound high=True is not integral"),
        (dict(name="r", kind="real", low=False, high=2), "r: real bounds must be finite numbers"),
        (dict(name="r", kind="real", low=0.0, high=np.bool_(True)), "r: real bounds must be finite numbers"),
        (dict(name="c", kind="cat", values=("p", "q"), weights=(True, 1)), "c: weights must be finite numbers"),
    ],
)
def test_a_boolean_is_not_a_number_of_a_bound_or_weight(kwargs, message):
    # YAML reads yes, no, true and false as booleans, which int and float accept
    with pytest.raises(SpaceError, match=f"^{re.escape(message)}$"):
        Dimension(**kwargs)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Dimension(name="a\nb", kind="int", low=2, high=1), "a\nb: low must not exceed high"),
        (lambda: Dimension(name="a\rb", kind="cat", values=("p", "p")), "a\rb: duplicate categorical value 'p'"),
        (lambda: Dimension(name="a\tb", kind="tree", low=0, high=1), "a\tb: unknown kind 'tree'"),
        (lambda: Dimension(name="é z", kind="real", low=1.0, high=0.0), "é z: low must not exceed high"),
        (
            lambda: validate_candidate(SearchSpace((Dimension(name="a\nb", kind="int", low=0, high=5),)), (7,)),
            "a\nb=7 is not a value of the space",
        ),
    ],
    ids=["newline", "cr", "tab", "printable", "candidate"],
)
def test_a_message_holds_the_name_as_given(build, message):
    # the library words a name as given; the command line escapes the one
    # error line it prints (test_cli.py::test_a_name_that_is_not_printable_is_escaped_in_the_one_error_line)
    with pytest.raises(SpaceError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_bounds_are_python_ints(tmp_path):
    def header_bytes(low, high):
        space = SearchSpace((Dimension(name="n", kind="int", low=low, high=high),))
        header = RunHeader(strategy="rs", budget=1, init=0, seed=0, objective="builtin:sphere",
                           space=space_to_dict(space), space_digest=space_digest(space))
        write_log(str(tmp_path / "h.jsonl"), header, [])
        return (tmp_path / "h.jsonl").read_bytes()

    assert header_bytes(np.int64(-2), np.uint8(3)) == header_bytes(-2, 3)
    dim = Dimension(name="n", kind="int", low=np.int32(0), high=np.int64(3))
    assert (type(dim.low), type(dim.high)) == (int, int)
    with pytest.raises(SpaceError, match=re.escape(f"n: integer bound low={np.bool_(True)!r} is not integral")):
        Dimension(name="n", kind="int", low=np.bool_(True), high=3)


def test_space_requires_unique_names_and_nonempty():
    with pytest.raises(SpaceError):
        SearchSpace(())
    d = Dimension(name="a", kind="int", low=0, high=1)
    with pytest.raises(SpaceError):
        SearchSpace((d, d))


def test_degenerate_int_range_samples_its_only_value():
    dim = Dimension(name="a", kind="int", low=5, high=5)
    rng = np.random.default_rng(0)
    assert all(value_at(dim, rng.random()) == 5 for _ in range(20))


def test_sampling_respects_bounds_and_types():
    space = SearchSpace(
        (
            Dimension(name="r", kind="real", low=-2.0, high=3.0),
            Dimension(name="i", kind="int", low=1, high=4),
            Dimension(name="c", kind="cat", values=("a", "b", "c")),
        )
    )
    rng = np.random.default_rng(7)
    for _ in range(500):
        r, i, c = space.sample(rng)
        assert -2.0 <= r <= 3.0 and isinstance(r, float)
        assert 1 <= i <= 4 and isinstance(i, int)
        assert c in ("a", "b", "c")


def test_sample_consumes_one_uniform_per_dimension():
    space = SearchSpace(
        (
            Dimension(name="r", kind="real", low=0.0, high=1.0),
            Dimension(name="i", kind="int", low=0, high=9),
            Dimension(name="c", kind="cat", values=("a", "b"), weights=(1.0, 3.0)),
        )
    )
    a = np.random.default_rng(42)
    b = np.random.default_rng(42)
    space.sample(a)
    b.random(3)
    assert a.random() == b.random()  # streams still aligned afterwards


def test_weighted_categorical_draw_sequence_is_pinned():
    # recorded with the running totals summed by np.cumsum on every draw
    dim = Dimension(name="c", kind="cat", values=("a", "b", "c", "d", "e"), weights=(0.1, 2.5, 1.0, 3.75, 0.4))
    rng = np.random.default_rng(2024)
    assert "".join(value_at(dim, rng.random()) for _ in range(40)) == "dbbdebbbcbddbdadeddbbcbdbbdbbbdbdbdddedb"
    tiny = Dimension(name="t", kind="cat", values=(10, 20, 30), weights=(1.0, 1e-12, 1.0))
    rng = np.random.default_rng(5)
    assert [value_at(tiny, rng.random()) for _ in range(12)] == [30, 30, 30, 10, 10, 10, 10, 10, 10, 30, 30, 10]


class _FixedUniforms:
    def __init__(self, *us):
        self._us = list(us)

    def random(self):
        return self._us.pop(0)


def test_weighted_draw_on_a_running_total_takes_the_next_value():
    # u * total equal to a running total selects the value after it, as
    # np.searchsorted(..., side="right") did
    dim = Dimension(name="c", kind="cat", values=("a", "b", "c"), weights=(1.0, 1.0, 2.0))
    us = (0.0, 0.25, 0.5, 0.75)
    assert [value_at(dim, u) for u in us] == ["a", "b", "c", "c"]
    assert [draw_dimension(dim, _FixedUniforms(u)) for u in us] == ["a", "b", "c", "c"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_weighted_categorical_matches_per_draw_cumsum(weights, seed):
    dim = Dimension(name="c", kind="cat", values=tuple(range(len(weights))), weights=weights)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert [value_at(dim, a.random()) for _ in range(30)] == [draw_dimension(dim, b) for _ in range(30)]


@settings(max_examples=200, deadline=None)
@given(spaces(), st.integers(0, 2**32 - 1))
def test_sample_matches_per_dimension_draws(space, seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        got, want = space.sample(a), sample_by_dimension(space, b)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
    assert a.bit_generator.state == b.bit_generator.state


def test_weights_whose_sum_overflows_are_refused_without_a_warning():
    # finite weights whose running total reaches inf would make every draw the last value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpaceError, match="^c: weights must have a finite sum$"):
            Dimension(name="c", kind="cat", values=("a", "b"), weights=(1e308, 1e308))
        assert Dimension(name="c", kind="cat", values=("a", "b"), weights=(1e308, 7e307)).weights == (1e308, 7e307)


@pytest.mark.parametrize("weights", [(5e-324,) * 2, (1e-323,) * 3], ids=["two-of-5e-324", "three-of-1e-323"])
def test_equal_subnormal_weights_are_drawn_evenly(weights):
    # u * total used to round to a few multiples of 5e-324: 231 of 1,000 draws gave the first of two
    dim = Dimension(name="c", kind="cat", values=tuple(range(len(weights))), weights=weights)
    rng = np.random.default_rng(17)
    n, p = 2000, 1 / len(weights)
    draws = [value_at(dim, rng.random()) for _ in range(n)]
    band = 4 * math.sqrt(n * p * (1 - p))
    assert all(abs(draws.count(v) - n * p) <= band for v in dim.values), [draws.count(v) for v in dim.values]


def test_weighted_categorical_prefers_heavy_value():
    dim = Dimension(name="c", kind="cat", values=("rare", "common"), weights=(1.0, 9.0))
    rng = np.random.default_rng(3)
    draws = [value_at(dim, rng.random()) for _ in range(4000)]
    frac = draws.count("common") / len(draws)
    assert 0.87 < frac < 0.93


def test_validate_candidate_normalizes_and_rejects():
    space = SearchSpace(
        (
            Dimension(name="i", kind="int", low=0, high=5),
            Dimension(name="r", kind="real", low=0.0, high=1.0),
            Dimension(name="c", kind="cat", values=("a", "b")),
        )
    )
    assert validate_candidate(space, [np.int64(3), 0, "b"]) == (3, 0.0, "b")
    for bad in ([6, 0.5, "a"], [3, 1.5, "a"], [3, 0.5, "z"], [3, 0.5], [3, math.nan, "a"], [True, 0.5, "a"], [3, 10**400, "a"]):
        with pytest.raises(SpaceError):
            validate_candidate(space, bad)


def test_candidate_key_is_exact_for_floats():
    space = SearchSpace((Dimension(name="r", kind="real", low=0.0, high=1.0),))
    a = candidate_key(space, (0.1 + 0.2,))
    b = candidate_key(space, (0.3,))
    assert a != b  # 0.1+0.2 != 0.3 in binary
    assert candidate_key(space, (0.3,)) == b
    assert len({a, b}) == 2


def test_candidate_key_is_the_candidate_tuple():
    space = SearchSpace((Dimension(name="r", kind="real", low=0.0, high=1.0), Dimension(name="c", kind="cat", values=("a", "b"))))
    assert candidate_key(space, (0.5, "b")) == (0.5, "b")
    assert candidate_key(space, [0.5, "b"]) == (0.5, "b")


def test_signed_zeros_on_a_real_axis_share_one_key():
    # -0.0 == 0.0, so by the compare-equal rule they are one candidate
    space = SearchSpace((Dimension(name="r", kind="real", low=-1.0, high=1.0), Dimension(name="n", kind="int", low=0, high=3)))
    keys = {candidate_key(space, (0.0, 2)), candidate_key(space, (-0.0, 2))}
    assert len(keys) == 1
    assert candidate_key(space, (0.0, 2)) != candidate_key(space, (0.0, 3))


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_candidate_key_roundtrip_property(x):
    space = SearchSpace((Dimension(name="r", kind="real", low=-1e6, high=1e6),))
    assert candidate_key(space, (x,)) == candidate_key(space, (float(x),))


def test_dict_roundtrip_and_digest_stability():
    space = SearchSpace(
        (
            Dimension(name="i", kind="int", low=0, high=5),
            Dimension(name="c", kind="cat", values=("a", "b"), weights=(1.0, 2.0)),
        )
    )
    clone = space_from_dict(space_to_dict(space))
    assert clone == space
    assert space_digest(clone) == space_digest(space)
    other = SearchSpace((Dimension(name="i", kind="int", low=0, high=6),))
    assert space_digest(other) != space_digest(space)


def test_load_space_yaml_and_json(tmp_path):
    yml = tmp_path / "s.yaml"
    yml.write_text(
        "dimensions:\n"
        "  - {name: depth, kind: int, low: 1, high: 8}\n"
        "  - {name: act, kind: cat, values: [relu, tanh]}\n"
    )
    space = load_space(str(yml))
    assert space.names == ("depth", "act")

    js = tmp_path / "s.json"
    js.write_text('{"dimensions": [{"name": "x", "kind": "real", "low": 0, "high": 1}]}')
    assert load_space(str(js)).dimensions[0].kind == "real"

    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(SpaceError):
        load_space(str(empty))


def test_load_space_reads_a_json_space_by_json_number_rules(tmp_path):
    # YAML 1.1 reads 1e+300 as a string; JSON reads it as the float it wrote
    payload = {
        "dimensions": [
            {"name": "c", "kind": "cat", "values": [1e300, 2]},
            {"name": "x", "kind": "real", "low": 0.0, "high": 1e5},
        ]
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    cat, real = load_space(str(path)).dimensions
    assert [(v, type(v)) for v in cat.values] == [(1e300, float), (2, int)]
    assert (real.high, type(real.high)) == (1e5, float)


def test_load_space_refuses_a_json_integer_beyond_int_conversion(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"dimensions": [{"name": "n", "kind": "int", "low": 0, "high": 1%s}]}' % ("0" * 5000))
    with pytest.raises(SpaceError, match="cannot read a value"):
        load_space(str(path))


def test_categorical_values_may_be_any_json_scalar():
    values = ("a", 2, 2.5, True, None)
    assert Dimension(name="c", kind="cat", values=values).values == values


@pytest.mark.parametrize(
    "text,message",
    [("dimensions: 5\n", "'dimensions' must be a list"), ("dimensions: [\n", "not valid YAML")],
    ids=["dimensions-not-a-list", "yaml-that-does-not-parse"],
)
def test_load_space_refuses_a_file_of_the_wrong_shape(tmp_path, text, message):
    path = tmp_path / "s.yaml"
    path.write_text(text)
    with pytest.raises(SpaceError, match=re.escape(message)):
        load_space(str(path))


def test_space_from_dict_rejects_junk():
    with pytest.raises(SpaceError):
        space_from_dict({"dims": []})
    with pytest.raises(SpaceError):
        space_from_dict({"dimensions": [{"name": "a", "kind": "int", "low": 0, "high": 1, "bogus": 2}]})


# JSON-shaped junk, with numbers beyond float range among the ints
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**308, 10**400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_scalars = st.integers(-5, 5) | st.floats(-5, 5) | st.sampled_from(("a", "b", "1e-4"))
# dimension entries that are mostly nearly right, each field sometimes junk
_dimension_entry = st.fixed_dictionaries({}, optional={
    "name": st.sampled_from(("a", "b", "")) | _json,
    "kind": st.sampled_from(("int", "real", "cat", "choice")) | _json,
    "low": _scalars | _json,
    "high": _scalars | _json,
    "values": st.lists(_scalars, max_size=3) | _json,
    "weights": st.lists(_scalars, max_size=3) | _json,
}) | _json


@settings(max_examples=300, deadline=None)
@given(st.lists(_dimension_entry, max_size=3))
def test_space_from_dict_raises_only_space_error(entries):
    try:
        space = space_from_dict({"dimensions": entries})
    except SpaceError:
        return
    assert isinstance(space, SearchSpace)
    # a space it accepts can be sampled and boxed for the importance fit
    validate_candidate(space, space.sample(np.random.default_rng(0)))
    assert np.isfinite(_root_box(space)).all()


@pytest.mark.parametrize("bounds", [(0, 10**400), (-(10**400), 0), (-(10**308), 10**308)])
def test_int_bounds_beyond_float_range_are_refused(bounds):
    low, high = bounds
    with pytest.raises(SpaceError, match="integer bounds and their span must lie within float range"):
        Dimension(name="n", kind="int", low=low, high=high)


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_int_sampling_always_in_bounds(low, span, seed):
    dim = Dimension(name="n", kind="int", low=low, high=low + span)
    rng = np.random.default_rng(seed)
    v = value_at(dim, rng.random())
    assert low <= v <= low + span


# int bounds on both sides of 2**53, where float64 stops holding every integer
_INT_BOUNDS = st.sampled_from((0, 7, 2**53 - 1, 2**53 + 1, 2**60 + 3, -(2**63) - 1, 2**70))


@st.composite
def _axis_and_value(draw, i):
    """One axis of a mixed space and one value of it."""
    kind = draw(st.sampled_from(("real", "int", "cat")))
    name = f"d{i}"
    if kind == "real":
        a = draw(st.floats(-1e300, 1e300))
        b = draw(st.just(a) | st.floats(-1e300, 1e300))  # st.just: a zero-width axis
        low, high = min(a, b), max(a, b)
        return Dimension(name=name, kind="real", low=low, high=high), draw(st.floats(low, high))
    if kind == "int":
        low = draw(_INT_BOUNDS | st.integers(-50, 50))
        high = low + draw(st.integers(0, 20) | st.sampled_from((2**53 + 1, 2**70)))
        return Dimension(name=name, kind="int", low=low, high=high), draw(st.integers(low, high))
    scalars = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3) | st.integers(-(2**70), 2**70) | st.floats(allow_nan=False) | st.booleans() | st.none()
    values = draw(st.lists(scalars, min_size=1, max_size=5, unique=True))
    weights = draw(st.none() | st.lists(st.floats(1e-6, 1e6), min_size=len(values), max_size=len(values)))
    return Dimension(name=name, kind="cat", values=tuple(values), weights=weights), draw(st.sampled_from(values))


@st.composite
def _spaces_and_candidates(draw):
    n = draw(st.integers(1, 5))
    dims, values = zip(*(draw(_axis_and_value(i)) for i in range(n)))
    return SearchSpace(dims), values


def _typed(candidate):
    # repr tells -0.0 from 0.0, and type tells 1 from True and 1.0
    return [(type(v), repr(v)) for v in candidate]


@settings(max_examples=300, deadline=None)
@given(_spaces_and_candidates())
def test_a_candidate_survives_the_number_line(case):
    space, candidate = case
    low, high, counting = ordinal_bounds(space)
    x = to_ordinal(space, candidate)
    assert all(a <= v <= b for a, v, b in zip(low, x, high))
    assert counting.tolist() == [dim.kind != "real" for dim in space]
    # on a line of Python numbers the trip is exact, ints past 2**53 included
    assert _typed(from_ordinal(space, np.array(x, dtype=object))) == _typed(candidate)
    # on the float line Nelder-Mead and PSO move on, every value float64
    # holds comes back as it was; an int it does not hold comes back as an
    # int within half a float spacing of it
    back = from_ordinal(space, np.array(x, dtype=float))
    for v, point, got in zip(candidate, x, back):
        if float(point) == point:
            assert _typed((got,)) == _typed((v,))
        else:
            assert type(got) is int and abs(got - v) <= math.ulp(float(v)) / 2


def test_root_box_adds_the_counting_edge_in_python_ints():
    # float(2**53 + 1) + 1.0 rounds to 2**53; the edge is float(2**53 + 2)
    space = SearchSpace((Dimension(name="n", kind="int", low=0, high=2**53 + 1),))
    assert _root_box(space).tolist() == [[0.0, 2.0**53 + 2]]
