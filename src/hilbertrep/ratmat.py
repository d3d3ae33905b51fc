"""Small exact-arithmetic matrix helpers for the linear representations.

Matrices are tuples of row tuples.  Entries are Python ints, or Fractions
when a value is genuinely non-integral; keeping integral values as ints
makes the common all-integer case fast while every operation stays exact.
Dimensions in this package never exceed a few dozen, so nothing here is
tuned beyond that scale.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

Scalar = int | Fraction


def norm_scalar(value):
    """Collapse an integral Fraction to a plain int."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def vector(values) -> tuple:
    return tuple(norm_scalar(v) for v in values)


def matrix(rows) -> tuple[tuple, ...]:
    return tuple(vector(row) for row in rows)


def identity(n: int) -> tuple[tuple, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a) -> tuple[tuple, ...]:
    return tuple(zip(*a)) if a else ()


def dot(u, v):
    return norm_scalar(sum(map(mul, u, v)))


def mat_vec(a, v) -> tuple:
    """Matrix times column vector."""
    return tuple([dot(row, v) for row in a])


def vec_mat(v, a) -> tuple:
    """Row vector times matrix."""
    return tuple([dot(v, col) for col in zip(*a)])


def mat_mul(a, b) -> tuple[tuple, ...]:
    cols = transpose(b)
    return tuple(tuple([dot(row, col) for col in cols]) for row in a)


class SpanBasis:
    """Growing basis of an exact vector span with coordinate bookkeeping.

    Vectors admitted as basis elements are kept verbatim in ``vectors``;
    ``coordinates`` expresses any in-span vector as a combination of those
    admitted vectors.  Elimination uses the first nonzero position of each
    reduced vector as its pivot.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.vectors: list[tuple] = []
        self._rows: list[tuple[int, tuple, tuple]] = []  # (pivot, echelon vector, combination)

    def __len__(self) -> int:
        return len(self.vectors)

    def _eliminate(self, vec):
        residual = list(vec)
        acc = [0] * len(self.vectors)
        for pivot, echelon, comb in self._rows:
            lead = residual[pivot]
            if lead == 0:
                continue
            factor = Fraction(lead) / echelon[pivot]
            for i, e in enumerate(echelon):
                residual[i] -= factor * e
            for i, c in enumerate(comb):
                acc[i] += factor * c
        return residual, acc

    def coordinates(self, vec) -> tuple | None:
        """Coordinates of ``vec`` over the admitted vectors, or None if outside."""
        residual, acc = self._eliminate(vec)
        if any(residual):
            return None
        return vector(acc)

    def add_if_new(self, vec) -> bool:
        """Admit ``vec`` as a basis vector if it extends the span."""
        residual, acc = self._eliminate(vec)
        pivot = next((i for i, r in enumerate(residual) if r != 0), None)
        if pivot is None:
            return False
        comb = vector([-c for c in acc] + [1])
        self.vectors.append(vector(vec))
        self._rows.append((pivot, vector(residual), comb))
        return True
