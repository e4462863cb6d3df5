"""Low-discrepancy Sobol sequence generator (unscrambled, Gray-code order).

Direction numbers are the classic Joe/Kuo values for the first 21 dimensions,
enough for every space this package targets.  Points are emitted in Gray-code
order starting from the all-zeros point, so consecutive points differ in a
single direction-number XOR and the sequence matches the standard reference
implementations bit for bit.
"""

from __future__ import annotations

from operator import xor
from typing import Sequence

import numpy as np

MAX_DIM = 21
BITS = 30
_SCALE = 1 << BITS

# Primitive polynomials (coefficient bitmasks, dimension 2 onward) and the
# initial direction integers m_1..m_s for each polynomial degree s.
_POLY = (
    3, 7, 11, 13, 19, 25, 37, 41, 47, 55,
    59, 61, 67, 91, 97, 103, 109, 115, 131, 137,
)
_MINIT = (
    (1,),
    (1, 3),
    (1, 3, 1),
    (1, 1, 1),
    (1, 1, 3, 3),
    (1, 3, 5, 13),
    (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5),
    (1, 1, 7, 11, 19),
    (1, 1, 5, 1, 1),
    (1, 1, 1, 3, 11),
    (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49),
    (1, 1, 1, 15, 21, 21),
    (1, 3, 1, 13, 27, 49),
    (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25),
    (1, 1, 5, 5, 19, 61),
    (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69),
)


def _direction_matrix(dim: int) -> np.ndarray:
    """Direction numbers as a (dim, BITS) int64 array, scaled to BITS bits,
    for 1 <= dim <= MAX_DIM, as RunConfig.validate ensures for a run."""
    v = np.zeros((dim, BITS), dtype=np.int64)
    for k in range(BITS):
        v[0, k] = 1 << (BITS - 1 - k)
    for j in range(1, dim):
        poly = _POLY[j - 1]
        s = poly.bit_length() - 1
        include = [(poly >> (s - 1 - i)) & 1 for i in range(s - 1)]
        m = _MINIT[j - 1]
        for k in range(min(s, BITS)):
            v[j, k] = m[k] << (BITS - 1 - k)
        for k in range(s, BITS):
            acc = v[j, k - s] ^ (v[j, k - s] >> s)
            for i in range(s - 1):
                if include[i]:
                    acc ^= v[j, k - 1 - i]
            v[j, k] = acc
    return v


class SobolEngine:
    """Stateful generator yielding successive points of the sequence, each
    digitally shifted: its BITS-bit integer coordinates are XORed with shift,
    dim integers in [0, 2**BITS), all zero by default.

    next_point() returns a tuple of dim floats in [0, 1), the shifted
    integers over 2**BITS, which is exact; the first call returns the shift
    itself, the origin when there is none.  The generator is deterministic:
    same dim and shift, same sequence.
    """

    def __init__(self, dim: int, shift: Sequence[int] | None = None):
        # column k: direction number k of every axis
        self._columns = [tuple(col) for col in _direction_matrix(dim).T.tolist()]
        self._x = list(shift) if shift is not None else [0] * dim
        self._index = 0
        self.dim = dim

    def next_point(self) -> tuple[float, ...]:
        index = self._index
        if index:
            if index >= 1 << BITS:
                raise RuntimeError("sobol sequence exhausted")
            # Gray-code step: flip the direction given by the lowest zero bit
            # of the previous index, the lowest set bit of this one
            column = self._columns[(index & -index).bit_length() - 1]
            self._x = list(map(xor, self._x, column))
        self._index = index + 1
        return tuple([a / _SCALE for a in self._x])

    def take(self, n: int) -> np.ndarray:
        """Next n points stacked into an (n, dim) array."""
        return np.array([self.next_point() for _ in range(n)], dtype=np.float64).reshape(n, self.dim)
