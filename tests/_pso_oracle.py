"""Reference particle swarm: the slot-counter form of ``PsoSampler``.

This is the sampler as it was written before it became one generator: a
slot counter, a score buffer and bests refreshed by the tell that completes
a generation, with the velocity update and its r1/r2 draws on the first ask
of the next generation.  The tests require the generator to ask exactly the
candidates this class asks, from the same rng and scores.
"""

from __future__ import annotations

import numpy as np

from wrsopt.samplers import PSO_SWARM
from wrsopt.space import SearchSpace, from_ordinal as emit_relaxed, ordinal_bounds


class OracleError(RuntimeError):
    """Misuse of the reference sampler: too small a swarm, or asks and
    tells out of turn."""


class SlotPsoSampler:
    def __init__(
        self,
        space: SearchSpace,
        rng: np.random.Generator,
        swarm: int = PSO_SWARM,
        omega: float = 0.7298,
        c1: float = 1.49618,
        c2: float = 1.49618,
    ):
        if swarm < 2:
            raise OracleError("swarm size must be at least 2")
        self.space = space
        self.rng = rng
        self.swarm = int(swarm)
        self.omega, self.c1, self.c2 = omega, c1, c2
        self._lo, self._hi = (np.array(b, dtype=float) for b in ordinal_bounds(space)[:2])
        d = len(space)
        self._x = self._lo + rng.random((self.swarm, d)) * (self._hi - self._lo)
        self._v = np.zeros((self.swarm, d))
        self._pbest = self._x.copy()
        self._pbest_score = np.full(self.swarm, -np.inf)
        self._gbest = self._x[0].copy()
        self._gbest_score = -np.inf
        self._scores = np.full(self.swarm, -np.inf)
        self._slot = 0  # particle the next ask emits
        self._initialized = False
        self._awaiting = False

    def ask(self) -> tuple:
        if self._awaiting:
            raise OracleError("ask() called twice without tell()")
        self._awaiting = True
        if self._slot == 0 and self._initialized:
            r1 = self.rng.random(self._x.shape)
            r2 = self.rng.random(self._x.shape)
            self._v = (
                self.omega * self._v
                + self.c1 * r1 * (self._pbest - self._x)
                + self.c2 * r2 * (self._gbest - self._x)
            )
            self._x = (self._x + self._v).clip(self._lo, self._hi)
        return emit_relaxed(self.space, self._x[self._slot])

    def tell(self, score: float) -> None:
        if not self._awaiting:
            raise OracleError("tell() without a pending ask()")
        self._awaiting = False
        self._scores[self._slot] = score
        self._slot += 1
        if self._slot < self.swarm:
            return
        self._slot = 0
        self._initialized = True
        improved = self._scores > self._pbest_score
        self._pbest[improved] = self._x[improved]
        self._pbest_score[improved] = self._scores[improved]
        top = int(self._pbest_score.argmax())
        if self._pbest_score[top] > self._gbest_score:
            self._gbest = self._pbest[top].copy()
            self._gbest_score = float(self._pbest_score[top])
