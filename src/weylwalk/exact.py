"""Exact rational vector arithmetic shared by all modules.

Vectors are tuples of ``fractions.Fraction``; nothing in the geometric or
combinatorial core ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .errors import FormatError

Vector = Tuple[Fraction, ...]


def vec(coords: Iterable) -> Vector:
    """Build an exact vector from any iterable of rational-like entries."""
    return tuple(Fraction(c) for c in coords)


def zero(dim: int) -> Vector:
    return (Fraction(0),) * dim


def add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def smul(c: Fraction, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def dot(x: Vector, y: Vector) -> Fraction:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def is_zero(x: Vector) -> bool:
    return all(a == 0 for a in x)


def mat_vec(m: Sequence[Sequence[Fraction]], x: Vector) -> Vector:
    return tuple(dot(vec(row), x) for row in m)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m))
        for i in range(n)
    )


def identity_matrix(n: int):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def invert_matrix(m) -> Tuple[Tuple[Fraction, ...], ...]:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [inv_p * v for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def determinant(m) -> Fraction:
    """Exact determinant by fraction-free elimination on a working copy."""
    n = len(m)
    work = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv_p = Fraction(1) / work[col][col]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] * inv_p
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


def parse_rational(text) -> Fraction:
    """Parse a rational given as int, float-free string "p/q" or "p"."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise FormatError(f"expected an exact rational, got {text!r}")
