import numpy as np
import pytest

from wrsopt.objectives import sphere
from wrsopt.samplers import PsoSampler, SamplerError
from wrsopt.space import validate_candidate

from _util import mixed_space, real_space


def run_generation(pso, scores):
    """Ask and tell once per particle; returns the generation's candidates."""
    out = []
    for s in scores:
        out.append(pso.ask())
        pso.tell(s)
    return out


def test_swarm_size_floor():
    with pytest.raises(SamplerError):
        PsoSampler(real_space(2), np.random.default_rng(0), swarm=1)


def test_first_batch_is_initial_swarm_of_requested_size():
    rng = np.random.default_rng(0)
    pso = PsoSampler(real_space(3), rng, swarm=7)
    initial = pso._x.copy()
    state = rng.bit_generator.state
    batch = run_generation(pso, [0.0] * 7)
    assert batch == [tuple(x) for x in initial]
    for cand in batch:
        validate_candidate(real_space(3), cand)
    # the velocity update draws only on the first ask of the next generation
    assert rng.bit_generator.state == state
    pso.ask()
    assert rng.bit_generator.state != state


def test_fixed_point_when_swarm_collapsed():
    # all particles at the same position with zero velocity: pbest == gbest == x,
    # so the velocity update is exactly zero and positions stay put
    space = real_space(2, low=0, high=1)
    pso = PsoSampler(space, np.random.default_rng(1), swarm=3)
    point = np.array([0.25, 0.75])
    pso._x = np.tile(point, (3, 1))
    pso._pbest = pso._x.copy()
    run_generation(pso, [1.0, 1.0, 1.0])
    batch = run_generation(pso, [1.0, 1.0, 1.0])
    assert all(c == (0.25, 0.75) for c in batch)


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
            f = sphere(np.asarray(pso.ask()))
            best = min(best, f)
            pso.tell(-f)  # engine convention: maximize
        bests.append(best)
    assert float(np.median(bests)) < 1e-2


def test_ask_and_tell_must_alternate():
    pso = PsoSampler(real_space(2), np.random.default_rng(0), swarm=4)
    with pytest.raises(SamplerError):
        pso.tell(1.0)
    pso.ask()
    with pytest.raises(SamplerError):
        pso.ask()
    pso.tell(1.0)
    with pytest.raises(SamplerError):
        pso.tell(2.0)


def test_gbest_tracks_the_running_maximum():
    space = real_space(1, low=0, high=10)
    pso = PsoSampler(space, np.random.default_rng(4), swarm=3)
    run_generation(pso, [1.0, 5.0])
    assert pso._gbest_score == -np.inf  # bests refresh when the generation completes
    run_generation(pso, [3.0])
    assert pso._gbest_score == 5.0
    run_generation(pso, [0.0, 0.0, 0.0])  # no improvement; gbest unchanged
    assert pso._gbest_score == 5.0
