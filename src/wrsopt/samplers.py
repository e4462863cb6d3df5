"""Candidate generation: weighted random search steps, plain random search,
and the baseline strategies (Sobol sequence, Nelder-Mead, particle swarm).

Each strategy class has ask(), which returns one candidate, and tell(score).
Their one caller is the engine's run loop: it builds the one ChangeProfile,
calls ask, evaluate and tell in turn and tags each record's phase, all after
RunConfig.validate, the one signal for a run that cannot go; so nothing here
checks its arguments again.  Nelder-Mead and particle swarm are each one
generator behind ask() and tell(): it yields each point to try and receives
that point's loss or score at the yield, so a search step reads top to bottom.

Random draws follow a strict budget per operation so that entire candidate
streams are reproducible: rs_step consumes exactly one uniform per dimension,
wrs_step consumes one uniform per RESAMPLED dimension from the value stream
plus one per step from a separate decision stream.  Keeping the decision
stream separate is what makes an all-ones profile replay the RS stream
bit for bit.  A step takes its k uniforms in one rng.random(k) call, which
yields the same numbers, in order, as k scalar rng.random() calls and leaves
the generator in the same state; the k-th uniform goes to the k-th drawn
dimension in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sobol import BITS, SobolEngine
from .space import SearchSpace, from_ordinal, ordinal_bounds, value_at


@dataclass
class ChangeProfile:
    """Per-dimension resampling policy for WRS.

    probs: change probabilities, at least one exactly 1.0, all positive.
    k_mins: minimum fresh-value counts; a dimension resamples unconditionally
        until its gen_count exceeds its k_min.
    gen_counts: fresh values drawn so far per dimension (mutated by wrs_step).
    """

    probs: tuple[float, ...]
    k_mins: tuple[int, ...]
    gen_counts: list[int]


def rs_step(space: SearchSpace, rng: np.random.Generator) -> tuple:
    """Fresh uniform candidate; one rng.random() per dimension."""
    return space.sample(rng)


def wrs_step(
    space: SearchSpace,
    best: tuple | None,
    profile: ChangeProfile,
    value_rng: np.random.Generator,
    decision_rng: np.random.Generator,
) -> tuple:
    """One weighted-random-search proposal against the incumbent.

    Draws a single uniform p from the decision stream.  Dimension i is
    resampled iff p_i >= p or gen_counts[i] <= k_mins[i]; otherwise the
    incumbent's coordinate is copied.  The shared p couples the dimensions:
    whenever a low-probability dimension changes, every dimension with a
    larger p_i changes too, which gives the nested mixture over change sets.
    At least one dimension always resamples because max p_i = 1 >= p.

    best may be None only when every dimension is due a forced resample
    (gen_counts still at or below k_mins), i.e. on the very first step of a
    run without an initial phase.
    """
    p = decision_rng.random()
    probs, k_mins, gen_counts = profile.probs, profile.k_mins, profile.gen_counts
    drawn = [i for i in range(len(probs)) if probs[i] >= p or gen_counts[i] <= k_mins[i]]
    out = list(best) if best is not None else [None] * len(probs)
    for i, u in zip(drawn, value_rng.random(len(drawn)).tolist()):
        out[i] = value_at(space.dimensions[i], u)
        gen_counts[i] += 1
    return tuple(out)


class SobolSampler:
    """Sobol sequence with a random digital shift (Owen, 1998): one seeded
    BITS-bit integer per axis is XORed into every point's exact integer
    coordinates, so each seed has its own sequence, as equidistributed."""

    def __init__(self, space: SearchSpace, rng: np.random.Generator):
        self.space = space
        self._engine = SobolEngine(len(space), rng.integers(0, 1 << BITS, len(space)).tolist())

    def ask(self) -> tuple:
        return tuple(map(value_at, self.space.dimensions, self._engine.next_point()))

    def tell(self, score: float) -> None:
        pass


class NelderMeadSampler:
    """Downhill simplex (Nelder & Mead, 1965) as one generator behind ask/tell.

    _search yields each point to try and receives its loss, so reflection,
    expansion, contraction and shrink read top to bottom; ask() emits the
    pending point and tell(score) sends the loss and advances to the next.
    The simplex moves on the number line of space.ordinal_bounds, and
    space.from_ordinal emits each point as a candidate.  Scores are
    maximized (the engine convention), so the simplex orders vertices by
    loss = -score.  The simplex has converged once every
    vertex emits the same value on each int and categorical axis and the
    vertices lie within 1e-4 times the width of each real axis; the
    sampler then reports convergence and keeps re-emitting the best vertex,
    which the engine's cache turns into zero-cost trials.
    """

    def __init__(
        self,
        space: SearchSpace,
        rng: np.random.Generator,
        alpha: float = 1.0,
        gamma: float = 2.0,
        rho: float = 0.5,
        sigma: float = 0.5,
        init_step: float = 0.05,
    ):
        self.space = space
        self.alpha, self.gamma, self.rho, self.sigma = alpha, gamma, rho, sigma
        low, high, self._discrete = ordinal_bounds(space)
        self._lo, self._hi = np.array(low, dtype=float), np.array(high, dtype=float)
        # the vertex spread each axis allows at convergence: none once rounded,
        # 1e-4 of the width of a real axis
        self._spread = np.where(self._discrete, 0.0, 1e-4 * (self._hi - self._lo))
        d = len(space)
        base = self._lo + rng.random(d) * (self._hi - self._lo)
        vertices = [base]
        for i in range(d):
            v = base.copy()
            delta = init_step * (self._hi[i] - self._lo[i])
            # step inward if the outward step would leave the box
            v[i] = v[i] + delta if v[i] + delta <= self._hi[i] else v[i] - delta
            vertices.append(v)
        self.converged = False
        self._search_steps = self._search(np.array(vertices))
        self._current = next(self._search_steps)

    def ask(self) -> tuple:
        return from_ordinal(self.space, self._current)

    def tell(self, score: float) -> None:
        self._current = self._search_steps.send(-float(score))

    def _search(self, vertices: np.ndarray):
        """Yield each point to evaluate; receive its loss at the yield."""
        lo, hi = self._lo, self._hi
        losses = np.empty(len(vertices))
        for j in range(len(vertices)):
            losses[j] = yield vertices[j]
        while True:
            order = losses.argsort(kind="stable")
            vertices, losses = vertices[order], losses[order]
            if self._collapsed(vertices):
                self.converged = True
                while True:
                    yield vertices[0]
            # centroid of all but the worst vertex; the same sum and division as .mean(axis=0)
            x0 = vertices[:-1].sum(axis=0) / (len(vertices) - 1)
            xr = (x0 + self.alpha * (x0 - vertices[-1])).clip(lo, hi)
            lr = yield xr
            if lr < losses[0]:
                xe = (x0 + self.gamma * (xr - x0)).clip(lo, hi)
                le = yield xe
                vertices[-1], losses[-1] = (xe, le) if le < lr else (xr, lr)
                continue
            if lr < losses[-2]:
                vertices[-1], losses[-1] = xr, lr
                continue
            if lr < losses[-1]:
                xc = (x0 + self.rho * (xr - x0)).clip(lo, hi)
                lc = yield xc
                accepted = lc <= lr
            else:
                xc = (x0 - self.rho * (x0 - vertices[-1])).clip(lo, hi)
                lc = yield xc
                accepted = lc < losses[-1]
            if accepted:
                vertices[-1], losses[-1] = xc, lc
                continue
            # shrink toward the best vertex, re-evaluating the others in order
            for j in range(1, len(vertices)):
                vertices[j] = (vertices[0] + self.sigma * (vertices[j] - vertices[0])).clip(lo, hi)
                losses[j] = yield vertices[j]

    def _collapsed(self, vertices: np.ndarray) -> bool:
        """Whether the simplex has converged: int and categorical axes
        rounded as from_ordinal rounds them (clamped, then round half to
        even), every axis spans at most its _spread.  It clamps with np.clip,
        which may keep another sign of zero at a bound than from_ordinal's
        min and max, so the two share no rounding code."""
        x = vertices.clip(self._lo, self._hi)
        x[:, self._discrete] = x[:, self._discrete].round()
        return bool((x.max(axis=0) - x.min(axis=0) <= self._spread).all())


PSO_SWARM = 20  # default particle count


class PsoSampler:
    """Particle swarm with the standard constriction coefficients, as one
    generator behind ask/tell.

    _search holds the swarm as local arrays and yields each particle's
    position in swarm order, receiving its score at the yield; the first
    generation is the uniform initial swarm.  The tell that completes a
    generation refreshes personal and global bests, then draws r1 and r2 and
    moves the swarm, so every ask of a generation is fixed before any of its
    tells.  Positions move on the number line of space.ordinal_bounds and
    are clamped to its bounds after each move; space.from_ordinal rounds
    integer and categorical axes at emission.
    """

    def __init__(
        self,
        space: SearchSpace,
        rng: np.random.Generator,
        swarm: int = PSO_SWARM,
        omega: float = 0.7298,
        c1: float = 1.49618,
        c2: float = 1.49618,
    ):
        self.space = space
        self._search_steps = self._search(rng, int(swarm), omega, c1, c2)
        self._current = next(self._search_steps)

    def ask(self) -> tuple:
        return from_ordinal(self.space, self._current)

    def tell(self, score: float) -> None:
        self._current = self._search_steps.send(score)

    def _search(self, rng: np.random.Generator, swarm: int, omega: float, c1: float, c2: float):
        """Yield each particle's position; receive its score at the yield."""
        low, high, _ = ordinal_bounds(self.space)
        lo, hi = np.array(low, dtype=float), np.array(high, dtype=float)
        x = lo + rng.random((swarm, len(self.space))) * (hi - lo)
        v = np.zeros(x.shape)
        pbest, pbest_score = x.copy(), np.full(swarm, -np.inf)
        gbest, gbest_score = x[0].copy(), -np.inf
        scores = np.empty(swarm)
        while True:
            for i in range(swarm):
                scores[i] = yield x[i]
            improved = scores > pbest_score
            pbest[improved] = x[improved]
            pbest_score[improved] = scores[improved]
            top = int(pbest_score.argmax())
            if pbest_score[top] > gbest_score:
                gbest, gbest_score = pbest[top].copy(), pbest_score[top]
            r1 = rng.random(x.shape)
            r2 = rng.random(x.shape)
            v = omega * v + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x)
            x = (x + v).clip(lo, hi)
