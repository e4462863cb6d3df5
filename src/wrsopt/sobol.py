"""Low-discrepancy Sobol sequence generator (unscrambled, Gray-code order).

Direction numbers are the classic Joe/Kuo values for the first 21 dimensions,
enough for every space this package targets.  Points are emitted in Gray-code
order starting from the all-zeros point, so consecutive points differ in a
single direction-number XOR and the sequence matches the standard reference
implementations bit for bit.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 21
BITS = 30

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


def direction_matrix(dim: int) -> np.ndarray:
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
    """Stateful generator yielding successive points of the sequence.

    next_point() returns a float64 vector in [0, 1)^dim; the first call
    returns the origin.  The generator is deterministic: same dim, same
    sequence, no seeding involved.
    """

    def __init__(self, dim: int):
        self._v = direction_matrix(dim)
        self._x = np.zeros(dim, dtype=np.int64)
        self._index = 0
        self.dim = dim

    def next_point(self) -> np.ndarray:
        if self._index == 0:
            self._index = 1
            return np.zeros(self.dim, dtype=np.float64)
        if self._index >= (1 << BITS):
            raise RuntimeError("sobol sequence exhausted")
        # Gray-code step: flip the direction given by the lowest zero bit
        # of the previous index.
        prev = self._index - 1
        k = 0
        while (prev >> k) & 1:
            k += 1
        self._x ^= self._v[:, k]
        self._index += 1
        return self._x / float(1 << BITS)

    def take(self, n: int) -> np.ndarray:
        """Next n points stacked into an (n, dim) array."""
        return np.stack([self.next_point() for _ in range(n)])
