"""The numpy forms of the builtin objectives and of the Sobol sampler's step
that ``wrsopt`` computed with before both moved to Python floats and ints,
kept as test oracles.

``score`` is the old builtin path whole: the candidate becomes a float64
array under ``np.errstate`` and goes through the vectorized formula.
``SobolStream`` is the old engine, an int64 state vector XORed with a
direction column per step, with the old sampler's shift applied to each
point.  The tests compare the package with each, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from wrsopt.sobol import BITS, _direction_matrix


def sphere(x: np.ndarray) -> float:
    return float((x * x).sum())


def rastrigin(x: np.ndarray) -> float:
    return float(10.0 * x.size + (x * x - 10.0 * np.cos(2.0 * np.pi * x)).sum())


def rosenbrock(x: np.ndarray) -> float:
    return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2).sum())


def branin(x: np.ndarray) -> float:
    a = 1.0
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    r = 6.0
    s = 10.0
    t = 1.0 / (8.0 * math.pi)
    return float(a * (x[1] - b * x[0] ** 2 + c * x[0] - r) ** 2 + s * (1.0 - t) * np.cos(x[0]) + s)


def styblinski_tang(x: np.ndarray) -> float:
    return float(0.5 * (x**4 - 16.0 * x**2 + 5.0 * x).sum())


def _libm_pow4(v: float) -> float:
    try:
        return math.pow(v, 4.0)
    except OverflowError:
        return math.inf


def styblinski_tang_libm_pow(x: np.ndarray) -> float:
    """styblinski_tang with x**4 taken element by element by libm pow, as
    the package takes it; numpy's array power has SIMD code of its own."""
    x4 = np.array([_libm_pow4(v) for v in x.tolist()])
    return float(0.5 * (x4 - 16.0 * x**2 + 5.0 * x).sum())


def additive_anova(coeffs: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    def fn(x: np.ndarray) -> float:
        return float((coeffs * (math.sqrt(3.0) * (2.0 * ((x - lows) / (highs - lows)) - 1.0))).sum())
    return fn


BUILTINS = {
    "sphere": sphere,
    "rastrigin": rastrigin,
    "rosenbrock": rosenbrock,
    "branin": branin,
    "styblinski-tang": styblinski_tang_libm_pow,
}


def score(fn, values: tuple) -> float:
    """fn's unsigned value on the candidate, as the old builtin path gave it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(np.array(values, dtype=float))


class SobolStream:
    """The old SobolEngine with the old SobolSampler's digital shift: the
    points the sampler handed to value_at, as a float64 vector each."""

    def __init__(self, dim: int, shift: np.ndarray):
        self._v = _direction_matrix(dim)
        self._x = np.zeros(dim, dtype=np.int64)
        self._index = 0
        self._shift = shift

    def _unshifted(self) -> np.ndarray:
        if self._index == 0:
            self._index = 1
            return np.zeros(len(self._x), dtype=np.float64)
        prev = self._index - 1
        k = 0
        while (prev >> k) & 1:
            k += 1
        self._x ^= self._v[:, k]
        self._index += 1
        return self._x / float(1 << BITS)

    def next_point(self) -> np.ndarray:
        scale = float(1 << BITS)
        return ((self._unshifted() * scale).astype(np.int64) ^ self._shift) / scale
