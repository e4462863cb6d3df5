import numpy as np
from hypothesis import given, settings, strategies as st

from wrsopt.objectives import _sphere
from wrsopt.samplers import PsoSampler
from wrsopt.space import ordinal_bounds, validate_candidate

from _pso_oracle import SlotPsoSampler
from _stream_oracle import spaces
from _util import mixed_space, real_space


def run_generation(pso, scores):
    """Ask and tell once per particle; returns the generation's candidates."""
    out = []
    for s in scores:
        out.append(pso.ask())
        pso.tell(s)
    return out


def test_first_batch_is_initial_swarm_of_requested_size():
    space = real_space(3)
    rng = np.random.default_rng(0)
    pso = PsoSampler(space, rng, swarm=7)
    lo, hi = (np.array(b, dtype=float) for b in ordinal_bounds(space)[:2])
    expected = np.random.default_rng(0)
    initial = lo + expected.random((7, 3)) * (hi - lo)
    assert rng.bit_generator.state == expected.bit_generator.state
    batch = run_generation(pso, [0.0] * 6)
    # the move draws nothing until the tell that completes the generation
    assert rng.bit_generator.state == expected.bit_generator.state
    batch += run_generation(pso, [0.0])
    assert batch == [tuple(x) for x in initial]
    for cand in batch:
        validate_candidate(space, cand)
    expected.random((7, 3))  # r1
    expected.random((7, 3))  # r2
    assert rng.bit_generator.state == expected.bit_generator.state
    pso.ask()
    assert rng.bit_generator.state == expected.bit_generator.state


def test_fixed_point_when_every_coefficient_is_zero():
    # omega = c1 = c2 = 0 makes every velocity exactly zero, so positions
    # stay put and each generation asks the initial swarm again
    space = mixed_space()
    pso = PsoSampler(space, np.random.default_rng(1), swarm=3, omega=0.0, c1=0.0, c2=0.0)
    first = run_generation(pso, [1.0, 3.0, 2.0])
    for scores in ([5.0, 0.0, 0.0], [-np.inf] * 3):
        assert run_generation(pso, scores) == first


def test_positions_always_inside_bounds():
    space = mixed_space()
    pso = PsoSampler(space, np.random.default_rng(2), swarm=6)
    rng = np.random.default_rng(3)
    for _ in range(40):
        for cand in run_generation(pso, list(rng.normal(size=6))):
            validate_candidate(space, cand)


def test_sphere_5d_reference_performance():
    # median over 10 seeds of the best value after 100 generations
    space = real_space(5, low=-5, high=5)
    bests = []
    for seed in range(10):
        pso = PsoSampler(space, np.random.default_rng(seed), swarm=20)
        best = np.inf
        for _ in range(100 * 20):
            f = _sphere(np.asarray(pso.ask()))
            best = min(best, f)
            pso.tell(-f)  # engine convention: maximize
        bests.append(best)
    assert float(np.median(bests)) < 1e-2


def test_gbest_tracks_the_running_maximum():
    # with omega = 0 a particle standing at its personal best and at the
    # global best has zero velocity; every other particle moves toward gbest
    space = real_space(2, low=0, high=10)

    def swarm_after(second_scores):
        pso = PsoSampler(space, np.random.default_rng(4), swarm=3, omega=0.0)
        first = run_generation(pso, [1.0, 5.0, 3.0])
        second = run_generation(pso, second_scores)
        return first, second, run_generation(pso, [0.0] * 3)

    first, second, third = swarm_after([0.0, 0.0, 0.0])
    assert second[1] == first[1]  # the best of generation 1 is gbest
    assert second[0] != first[0] and second[2] != first[2]
    assert third[1] == first[1]  # no improvement; gbest unchanged
    first, second, third = swarm_after([9.0, 0.0, 0.0])
    assert third[0] == second[0]  # a better score moves gbest
    assert third[1] != second[1]


@settings(max_examples=200, deadline=None)
@given(
    spaces(),
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 4.0),
    st.floats(0.0, 4.0),
    st.lists(st.floats(-1e6, 1e6) | st.sampled_from((-np.inf, 0.0, 1.0)), min_size=1, max_size=40),
)
def test_asks_what_the_slot_counter_sampler_asks(space, seed, swarm, omega, c1, c2, scores):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pso = PsoSampler(space, rng, swarm=swarm, omega=omega, c1=c1, c2=c2)
    oracle = SlotPsoSampler(space, oracle_rng, swarm=swarm, omega=omega, c1=c1, c2=c2)
    for score in scores:
        assert pso.ask() == oracle.ask()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        pso.tell(score)
        oracle.tell(score)
