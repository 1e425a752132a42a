"""Exact rational vector arithmetic shared by all modules.

Vectors are tuples of ``fractions.Fraction``; nothing in the geometric or
combinatorial core ever touches a float.  Weight and Weyl-group arithmetic
stays in integers (see ``cartan``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple, Union

from .errors import FormatError

Vector = Tuple[Fraction, ...]
Rational = Union[int, Fraction]


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


def exact_unit(x) -> Rational:
    """A rational as an int where it is integral, else as a Fraction."""
    if isinstance(x, int):
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


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
