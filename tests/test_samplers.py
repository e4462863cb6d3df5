import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wrsopt.samplers import ChangeProfile, rs_step, wrs_step
from wrsopt.space import SpaceError, validate_candidate

from _stream_oracle import spaces, wrs_step_by_dimension
from _util import mixed_space, real_space


class TestChangeProfile:
    def test_valid_profile(self):
        # as the engine builds it: phase 1 drew init fresh values on every axis
        counts = [3, 3]
        p = ChangeProfile(probs=(1.0, 0.45), k_mins=(3, 3), gen_counts=counts)
        assert (p.probs, p.k_mins) == ((1.0, 0.45), (3, 3)) and p.gen_counts is counts


class TestRsStep:
    def test_deterministic_under_reseeding(self):
        space = mixed_space()
        a = rs_step(space, np.random.default_rng(11))
        b = rs_step(space, np.random.default_rng(11))
        assert a == b

    def test_candidates_validate(self):
        space = mixed_space()
        rng = np.random.default_rng(0)
        for _ in range(200):
            validate_candidate(space, rs_step(space, rng))

    def test_marginals_look_uniform(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        space = real_space(2, low=0.0, high=1.0)
        rng = np.random.default_rng(1234)
        draws = np.array([rs_step(space, rng) for _ in range(10_000)])
        for axis in range(2):
            stat = scipy_stats.kstest(draws[:, axis], "uniform")
            assert stat.pvalue > 0.01


class TestWrsStep:
    def test_probability_rule_applied_directly(self):
        # p ~ 0.5 drawn, probs (1.0, 0.3), counts past k_mins: dim 0 fresh, dim 1 copied
        space = real_space(2)
        profile = ChangeProfile(probs=(1.0, 0.3), k_mins=(0, 0), gen_counts=[5, 5])
        decision = np.random.default_rng(0)
        # find a seed whose first uniform lands in (0.3, 1.0)
        p = decision.random()
        assert 0.3 < p < 1.0
        best = (1.25, -4.0)
        out = wrs_step(space, best, profile, np.random.default_rng(1), np.random.default_rng(0))
        assert out[0] != best[0]
        assert out[1] == best[1]
        assert profile.gen_counts == [6, 5]

    def test_kmin_forces_resampling_until_exhausted(self):
        space = real_space(1)
        profile = ChangeProfile(probs=(1.0,), k_mins=(3,), gen_counts=[0])
        rngv, rngd = np.random.default_rng(2), np.random.default_rng(3)
        best = (0.0,)
        for expected in (1, 2, 3, 4):
            wrs_step(space, best, profile, rngv, rngd)
            assert profile.gen_counts == [expected]

    def test_at_least_one_dimension_changes(self):
        space = real_space(3)
        profile = ChangeProfile(probs=(1.0, 0.01, 0.01), k_mins=(0, 0, 0), gen_counts=[9, 9, 9])
        rngv, rngd = np.random.default_rng(5), np.random.default_rng(6)
        best = (0.1, 0.2, 0.3)
        for _ in range(300):
            before = list(profile.gen_counts)
            wrs_step(space, best, profile, rngv, rngd)
            assert sum(a - b for a, b in zip(profile.gen_counts, before)) >= 1

    def test_nesting_of_change_sets(self):
        space = real_space(4)
        probs = (1.0, 0.7, 0.4, 0.1)
        profile = ChangeProfile(probs=probs, k_mins=(0,) * 4, gen_counts=[1] * 4)
        rngv, rngd = np.random.default_rng(7), np.random.default_rng(8)
        best = (0.0, 0.0, 0.0, 0.0)
        for _ in range(2000):
            before = list(profile.gen_counts)
            wrs_step(space, best, profile, rngv, rngd)
            changed = [i for i in range(4) if profile.gen_counts[i] > before[i]]
            assert changed == list(range(len(changed)))  # prefix of the sorted-by-p order

    def test_all_ones_profile_reproduces_rs_stream_bitwise(self):
        space = mixed_space()
        profile = ChangeProfile(probs=(1.0,) * len(space), k_mins=(0,) * len(space), gen_counts=[0] * len(space))
        rs_rng = np.random.default_rng(99)
        wrs_value = np.random.default_rng(99)
        wrs_decision = np.random.default_rng(1234)
        best = rs_step(space, np.random.default_rng(0))
        for _ in range(200):
            expected = rs_step(space, rs_rng)
            got = wrs_step(space, best, profile, wrs_value, wrs_decision)
            assert got == expected

    def test_missing_incumbent_only_allowed_for_forced_steps(self):
        space = real_space(2)
        forced = ChangeProfile(probs=(1.0, 0.5), k_mins=(1, 1), gen_counts=[0, 0])
        out = wrs_step(space, None, forced, np.random.default_rng(0), np.random.default_rng(1))
        validate_candidate(space, out)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**31))
    def test_emitted_candidates_always_validate(self, seed_v, seed_d):
        space = mixed_space()
        profile = ChangeProfile(probs=(1.0, 0.5, 0.25), k_mins=(1, 1, 1), gen_counts=[0, 0, 0])
        rngv, rngd = np.random.default_rng(seed_v), np.random.default_rng(seed_d)
        best = rs_step(space, rngv)
        for _ in range(20):
            best = wrs_step(space, best, profile, rngv, rngd)
            validate_candidate(space, best)


@st.composite
def profiles(draw, d):
    probs = draw(st.lists(st.floats(1e-3, 1.0), min_size=d, max_size=d))
    probs[draw(st.integers(0, d - 1))] = 1.0
    k_mins = draw(st.lists(st.integers(0, 4), min_size=d, max_size=d))
    gen_counts = draw(st.lists(st.integers(0, 6), min_size=d, max_size=d))
    return ChangeProfile(probs=tuple(probs), k_mins=tuple(k_mins), gen_counts=gen_counts)


class TestWrsStepStream:
    """wrs_step takes its value draws in one random(k) call; the reference
    loop takes them one dimension at a time."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), spaces(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_matches_per_dimension_loop(self, data, space, seed_v, seed_d):
        profile = data.draw(profiles(len(space)))
        twin = ChangeProfile(probs=profile.probs, k_mins=profile.k_mins, gen_counts=list(profile.gen_counts))
        rngs = [np.random.default_rng(seed_v), np.random.default_rng(seed_d)]
        ref_rngs = [np.random.default_rng(seed_v), np.random.default_rng(seed_d)]
        best = ref = space.sample(np.random.default_rng(seed_v + 1))
        for _ in range(10):
            best = wrs_step(space, best, profile, *rngs)
            ref = wrs_step_by_dimension(space, ref, twin, *ref_rngs)
            assert best == ref
            assert [type(v) for v in best] == [type(v) for v in ref]
            assert profile.gen_counts == twin.gen_counts
        for rng, ref_rng in zip(rngs, ref_rngs):
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_forced_first_step_without_incumbent_matches(self):
        space = mixed_space()
        a = ChangeProfile(probs=(1.0, 0.2, 0.1), k_mins=(0, 2, 1), gen_counts=[0, 0, 0])
        b = ChangeProfile(probs=(1.0, 0.2, 0.1), k_mins=(0, 2, 1), gen_counts=[0, 0, 0])
        got = wrs_step(space, None, a, np.random.default_rng(7), np.random.default_rng(8))
        want = wrs_step_by_dimension(space, None, b, np.random.default_rng(7), np.random.default_rng(8))
        assert got == want
        assert a.gen_counts == b.gen_counts == [1, 1, 1]
