"""Small exact-arithmetic matrix helpers for the linear representations.

Matrices are tuples of row tuples.  Entries are Python ints, or Fractions
when a value is genuinely non-integral; keeping integral values as ints
makes the common all-integer case fast while every operation stays exact.
``SpanBasis`` eliminates over the integers alone: an entering vector is
scaled to integers by the lcm of its denominators, and Fractions are
formed only for the coordinates it returns; ``express`` admits a vector
or returns its coordinates from one elimination.  Empty shapes pass through:
``transpose(())`` is ``()``, and ``mat_mul(a, ())`` is ``len(a)`` empty
rows, so rank-0 representations need no special case.  Dimensions in this
package never exceed a few dozen, so nothing here is tuned beyond that
scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Scalar = int | Fraction


def norm_scalar(value):
    """Collapse an integral Fraction to a plain int."""
    if type(value) is not int and isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def vector(values) -> tuple:
    return tuple(norm_scalar(v) for v in values)


def matrix(rows) -> tuple[tuple, ...]:
    return tuple(vector(row) for row in rows)


def identity(n: int) -> tuple[tuple, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a) -> tuple[tuple, ...]:
    return tuple(zip(*a))


def dot(u, v):
    return norm_scalar(sum(map(mul, u, v)))


def mat_vec(a, v) -> tuple:
    """Matrix times column vector."""
    return tuple([dot(row, v) for row in a])


def mat_mul(a, b) -> tuple[tuple, ...]:
    cols = transpose(b)
    return tuple(tuple([dot(row, col) for col in cols]) for row in a)


class SpanBasis:
    """Growing basis of an exact vector span with coordinate bookkeeping.

    Vectors admitted as basis elements are kept verbatim in ``vectors``;
    ``coordinates`` expresses any in-span vector as a combination of those
    admitted vectors.  Elimination is fraction-free (Bareiss 1968): each
    echelon row, pivoting on its first nonzero position, and its
    combination over ``vectors`` are together one primitive integer row.
    An entering vector is scaled by the lcm of its denominators and
    reduced by cross-multiplying with each echelon row, tracking one
    integer ``scale`` with scale * vec == residual + acc . vectors.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.vectors: list[tuple] = []
        self._rows: list[tuple[int, list[int], list[int]]] = []  # (pivot, echelon row, combination)

    def _eliminate(self, vec) -> tuple[list[int], list[int], int]:
        if len(vec) != self.dim:
            raise ValueError(f"expected a vector of length {self.dim}, got {len(vec)}")
        scale = lcm(*(v.denominator for v in vec))
        residual = [v.numerator * (scale // v.denominator) for v in vec]
        acc = [0] * len(self.vectors)
        for pivot, echelon, comb in self._rows:
            lead = residual[pivot]
            if lead == 0:
                continue
            p = echelon[pivot]
            g = gcd(p, lead)
            p, lead = p // g, lead // g
            residual = [p * r - lead * e for r, e in zip(residual, echelon)]
            acc = [p * a for a in acc]
            for i, c in enumerate(comb):
                acc[i] += lead * c
            scale *= p
        return residual, acc, scale

    def coordinates(self, vec) -> tuple | None:
        """Coordinates of ``vec`` over the admitted vectors, or None if outside.

        A result has one entry per vector admitted so far.
        """
        residual, acc, scale = self._eliminate(vec)
        if any(residual):
            return None
        return _quotients(acc, scale)

    def express(self, vec) -> tuple:
        """Coordinates of ``vec``, admitting it first as a basis vector if it extends the span.

        One elimination serves both: an admitted vector's coordinates are the
        unit vector of its own position.  A result has one entry per vector
        admitted so far, itself included; ``padded`` extends it as the basis grows.
        """
        residual, acc, scale = self._eliminate(vec)
        pivot = next((i for i, r in enumerate(residual) if r != 0), None)
        if pivot is None:
            return _quotients(acc, scale)
        comb = [-a for a in acc] + [scale]
        g = gcd(*residual, *comb)
        self.vectors.append(vector(vec))
        self._rows.append((pivot, [r // g for r in residual], [c // g for c in comb]))
        return (0,) * len(acc) + (1,)

    def add_if_new(self, vec) -> bool:
        """Admit ``vec`` as a basis vector if it extends the span."""
        size = len(self.vectors)
        self.express(vec)
        return len(self.vectors) > size

    def padded(self, coords) -> tuple:
        """Coordinates taken while the basis was smaller, with zeros for the vectors admitted since."""
        return coords + (0,) * (len(self.vectors) - len(coords))


def _quotients(acc, scale) -> tuple:
    """Each a / scale, an int where scale divides a and a Fraction elsewhere."""
    return tuple([a // scale if a % scale == 0 else Fraction(a, scale) for a in acc])
