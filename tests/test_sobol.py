from collections import Counter

import numpy as np
import pytest

from wrsopt.samplers import SobolSampler
from wrsopt.sobol import BITS, MAX_DIM, SobolEngine
from wrsopt.space import Dimension, SearchSpace, value_at


def test_first_point_is_origin():
    for d in (1, 4, 21):
        assert np.array_equal(SobolEngine(d).next_point(), np.zeros(d))


def test_second_point_is_all_halves():
    assert np.array_equal(SobolEngine(3).take(2)[1], np.full(3, 0.5))


def test_matches_scipy_reference_through_max_dim():
    qmc = pytest.importorskip("scipy.stats.qmc")
    for d in (1, 2, 3, 6, 12, MAX_DIM):
        ref = qmc.Sobol(d=d, scramble=False).random(128)
        mine = SobolEngine(d).take(128)
        assert np.array_equal(ref, mine)


def test_dyadic_equidistribution_1d():
    # among the first 2^m points, each dyadic interval of length 2^-m holds exactly one
    for m in range(1, 11):
        pts = SobolEngine(1).take(1 << m)[:, 0]
        cells = np.floor(pts * (1 << m)).astype(int)
        assert np.array_equal(np.sort(cells), np.arange(1 << m))


def test_points_stay_in_unit_interval():
    pts = SobolEngine(2).take(512)
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)
    assert np.all(pts * (1 << BITS) == np.round(pts * (1 << BITS)))  # exact dyadic rationals


def test_mapping_into_mixed_space():
    space = SearchSpace(
        (
            Dimension(name="r", kind="real", low=-1.0, high=3.0),
            Dimension(name="i", kind="int", low=3, high=6),
            Dimension(name="c", kind="cat", values=("a", "b", "c")),
        )
    )
    sampler = SobolSampler(space, np.random.default_rng(0))
    seen_ints, seen_cats = set(), set()
    first = sampler.ask()
    shift = np.random.default_rng(0).integers(0, 1 << BITS, 3) / float(1 << BITS)
    assert first == tuple(map(value_at, space.dimensions, shift.tolist()))  # the origin, shifted
    for _ in range(255):
        r, i, c = sampler.ask()
        assert -1.0 <= r <= 3.0
        assert i in (3, 4, 5, 6)
        assert c in ("a", "b", "c")
        seen_ints.add(i)
        seen_cats.add(c)
    assert seen_ints == {3, 4, 5, 6}
    assert seen_cats == {"a", "b", "c"}


def test_same_seed_same_stream_two_seeds_differ():
    space = SearchSpace((Dimension(name="x", kind="real", low=0, high=1),))
    s1, s2, s3 = (SobolSampler(space, np.random.default_rng(seed)) for seed in (1, 1, 2))
    first = [s1.ask() for _ in range(50)]
    assert first == [s2.ask() for _ in range(50)]
    assert first != [s3.ask() for _ in range(50)]


@pytest.mark.parametrize("seed", range(5))
def test_shifted_sequence_equidistributes_1d(seed):
    # a digital shift keeps the net: among the first 2^m points, each dyadic
    # interval of length 2^-m holds exactly one, m up to 10
    sampler = SobolSampler(SearchSpace((Dimension(name="x", kind="real", low=0, high=1),)), np.random.default_rng(seed))
    pts = np.array([sampler.ask()[0] for _ in range(1 << 10)])
    for m in range(1, 11):
        cells = np.floor(pts[: 1 << m] * (1 << m)).astype(int)
        assert np.array_equal(np.sort(cells), np.arange(1 << m))


@pytest.mark.parametrize("seed", range(3))
def test_shifted_sequence_keeps_the_2d_net(seed):
    # the first two axes form a (0, m, 2)-net, which a digital shift keeps and
    # a shift added modulo 1 does not: among the first 2^m points, every box
    # of 2^-i by 2^-(m-i) holds exactly one
    space = SearchSpace(tuple(Dimension(name=n, kind="real", low=0, high=1) for n in "xy"))
    sampler = SobolSampler(space, np.random.default_rng(seed))
    pts = np.array([sampler.ask() for _ in range(1 << 8)])
    for m in range(1, 9):
        for i in range(m + 1):
            cells = np.floor(pts[: 1 << m, 0] * (1 << i)).astype(int) * (1 << (m - i))
            cells += np.floor(pts[: 1 << m, 1] * (1 << (m - i))).astype(int)
            assert np.array_equal(np.sort(cells), np.arange(1 << m)), (m, i)


def test_values_map_as_random_search_maps_them():
    # the sampler turns each coordinate into a value through space.value_at,
    # as rs does: int ends get a full share, and category weights count
    space = SearchSpace(
        (
            Dimension(name="i", kind="int", low=3, high=6),
            Dimension(name="c", kind="cat", values=("a", "b"), weights=(9, 1)),
            Dimension(name="j", kind="int", low=-5, high=5),
        )
    )
    for seed in range(3):
        sampler = SobolSampler(space, np.random.default_rng(seed))
        i, c, j = zip(*(sampler.ask() for _ in range(1024)))
        assert Counter(i) == dict.fromkeys(range(3, 7), 256)
        assert Counter(c)["a"] in (921, 922) and Counter(c)["b"] == 1024 - Counter(c)["a"]
        assert set(Counter(j)) == set(range(-5, 6)) and set(Counter(j).values()) <= {93, 94}


def test_a_point_past_2_to_the_30_is_refused():
    engine = SobolEngine(2)
    engine._index = 1 << BITS  # where the last of the 2^30 points would leave it
    with pytest.raises(RuntimeError, match="^sobol sequence exhausted$"):
        engine.next_point()
