"""Piecewise-linear paths with rational breakpoints and the root operators.

A path is the equivalence class of a piecewise linear map [0,1] -> weight
space modulo reparametrization.  The canonical representative merges
consecutive positively-proportional segments and spaces the surviving K
segments uniformly at breakpoints k/K, so path equality is tuple equality.

Points are stored in fundamental-weight coordinates, where the pairing
against the coroot h_i is simply the i-th coordinate.  The null result of a
root operator is represented by ``None``; it is a value, not an error.

The lowering operator is f_i pi(t) = pi(t) - min(1, min_{s>=t} h_i(s) - m) alpha_i,
m the minimum of h_i.  The duality pi*(t) = pi(1 - t) - pi(1) swaps raising
and lowering (Littelmann 1995), so the raising operator is e_i = * f_i *.
The Pitman transform P_{alpha_i} subtracts the running minimum instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .cartan import CartanDatum, Frozen, Weight, reflect
from .errors import FormatError, IntegralityError
from .exact import Vector, add, is_zero, parse_rational, sub, vec, zero

MaybePath = Optional["PiecewisePath"]


class PiecewisePath(Frozen):
    """Canonical-form path, stored as its K + 1 breakpoint values; build
    through :func:`canonical_path` or helpers."""

    __slots__ = ("points",)

    def _values(self) -> tuple:
        # spelled out: crystal generation hashes every path it reaches
        return self.points

    @property
    def times(self) -> Tuple[Fraction, ...]:
        """The breakpoints k/K of the canonical form."""
        k = self.num_segments
        return tuple(Fraction(j, k) for j in range(k + 1))

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @property
    def num_segments(self) -> int:
        return len(self.points) - 1

    def endpoint(self) -> Vector:
        return self.points[-1]

    def displacements(self) -> List[Vector]:
        return [sub(self.points[k + 1], self.points[k]) for k in range(self.num_segments)]

    def heights(self, i: int) -> List[Fraction]:
        """Pairing with coroot h_i at the breakpoints (h is linear between)."""
        return [p[i] for p in self.points]

    def stays_in_cone(self, start: Vector) -> bool:
        """Whether start + path keeps nonnegative fw coordinates throughout.

        By convexity of the cone it is enough to look at the breakpoints.
        """
        return all(all(s + c >= 0 for s, c in zip(start, p)) for p in self.points)

    def __repr__(self):
        return f"PiecewisePath({[tuple(map(str, p)) for p in self.points]})"


def _proportional_same_direction(d1: Vector, d2: Vector) -> bool:
    pivot = next((j for j, c in enumerate(d1) if c != 0), None)
    if pivot is None:
        return False
    ratio = d2[pivot] / d1[pivot]
    if ratio <= 0:
        return False
    return all(b == ratio * a for a, b in zip(d1, d2))


def from_displacements(displacements: Sequence[Vector], dim: int) -> PiecewisePath:
    """Canonical path in ``dim`` coordinates tracing the displacements from 0."""
    disp = [vec(d) for d in displacements if not is_zero(vec(d))]
    merged: List[Vector] = []
    for d in disp:
        if merged and _proportional_same_direction(merged[-1], d):
            merged[-1] = add(merged[-1], d)
        else:
            merged.append(d)
    if not merged:
        return PiecewisePath((zero(dim), zero(dim)))
    points = [zero(dim)]
    for d in merged:
        points.append(add(points[-1], d))
    return PiecewisePath(tuple(points))


def canonical_path(times: Sequence, points: Sequence[Sequence]) -> PiecewisePath:
    """Canonicalize a raw breakpoint/point list.

    Only the ordering of the time stamps matters (paths are reparametrization
    classes); they must be strictly increasing and the path must start at 0.
    """
    ts = [Fraction(t) for t in times]
    pts = [vec(p) for p in points]
    if len(ts) != len(pts):
        raise FormatError("times and points have different lengths")
    if len(ts) < 2:
        raise FormatError("need at least two breakpoints")
    if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
        raise FormatError("times must be strictly increasing")
    if not is_zero(pts[0]):
        raise FormatError("path must start at the origin")
    disp = [sub(pts[k + 1], pts[k]) for k in range(len(pts) - 1)]
    return from_displacements(disp, dim=len(pts[0]))


def straight_path(target: Vector) -> PiecewisePath:
    """The straight line from 0 to ``target`` (constant path if target = 0)."""
    return from_displacements([vec(target)], dim=len(target))


def concat(p1: PiecewisePath, p2: PiecewisePath) -> PiecewisePath:
    """Concatenation, first p1 then p2 translated to start at p1's endpoint."""
    if p1.dim != p2.dim:
        raise FormatError("dimension mismatch in concatenation")
    return concat_all((p1, p2))


def concat_all(paths: Sequence[PiecewisePath]) -> PiecewisePath:
    if not paths:
        raise FormatError("empty concatenation")
    # a constant path adds zero displacements, which from_displacements drops
    disp = [d for p in paths for d in p.displacements()]
    return from_displacements(disp, dim=paths[0].dim)


def height_function_extrema(path: PiecewisePath, i: int) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """Minimum of t -> <path(t), h_i> and the breakpoint times attaining it.

    The height function is linear on each segment, so its minimum is attained
    at breakpoints; since the path starts at 0 the minimum is <= 0.
    """
    h = path.heights(i)
    m = min(h)
    witnesses = tuple(path.times[k] for k, v in enumerate(h) if v == m)
    return m, witnesses


def path_weight(datum: CartanDatum, path: PiecewisePath) -> Weight:
    end = path.endpoint()
    if any(c.denominator != 1 for c in end):
        raise IntegralityError(f"endpoint {end} is not in the weight lattice")
    return datum.weight(tuple(int(c) for c in end))


# --- root operators ---------------------------------------------------------


def _split_displacement(d: Vector, lam: Fraction) -> Tuple[Vector, Vector]:
    first = tuple(lam * c for c in d)
    return first, sub(d, first)


def dual(path: PiecewisePath) -> PiecewisePath:
    """The path t -> path(1 - t) - path(1): points reversed, shifted by the end.

    Reversal keeps the breakpoints uniform and the segments unmerged, so the
    dual of a canonical path is canonical.
    """
    end = path.points[-1]
    return PiecewisePath(tuple(sub(p, end) for p in reversed(path.points)))


def apply_e(datum: CartanDatum, path: MaybePath, i: int) -> MaybePath:
    """Raising operator e_i = * f_i *, with * the :func:`dual`.

    None iff the i-height minimum m exceeds -1.  The dual's final height lies
    -m above its minimum, so otherwise the lowering operator applies to it.
    """
    if path is None or min(path.heights(i)) > -1:
        return None
    return dual(apply_f(datum, dual(path), i))


def apply_f(datum: CartanDatum, path: MaybePath, i: int) -> MaybePath:
    """Lowering operator: None iff the final height is below m+1.

    Walking back from the end to the last minimum of h_i, with level =
    min(m + 1, the later minimum of h_i), the part of each segment below
    level is reflected by s_i and the rest kept.
    """
    if path is None:
        return None
    h = path.heights(i)
    m = min(h)
    if h[-1] < m + 1:
        return None
    disp = path.displacements()
    k, level = len(disp), m + 1
    out_rev: List[Vector] = []
    while level > m:
        k -= 1
        if h[k] < level:  # level <= h[k + 1], so the segment climbs through it
            below, rest = _split_displacement(disp[k], (level - h[k]) / (h[k + 1] - h[k]))
            out_rev += [rest, reflect(datum.matrix, i, below)]
            level = h[k]
        else:
            out_rev.append(disp[k])
    return from_displacements(disp[:k] + out_rev[::-1], dim=path.dim)


def pitman_letter(datum: CartanDatum, path: PiecewisePath, i: int) -> PiecewisePath:
    """Pitman transform P_{alpha_i} pi(t) = pi(t) - min(0, min_{s<=t} h_i(s)) alpha_i.

    Walking forward with the running minimum ``low`` of h_i, the part of each
    segment below ``low`` is reflected by s_i and the rest kept.
    """
    h = path.heights(i)
    out: List[Vector] = []
    low = 0
    for k, d in enumerate(path.displacements()):
        if h[k + 1] < low:  # h[k] >= low, so the segment falls through it
            above, below = _split_displacement(d, (low - h[k]) / (h[k + 1] - h[k]))
            out += [above, reflect(datum.matrix, i, below)]
            low = h[k + 1]
        else:
            out.append(d)
    return from_displacements(out, dim=path.dim)


def eps_phi(path: PiecewisePath, i: int) -> Tuple[int, int]:
    """Number of times the raising / lowering operator applies before None.

    Each raising lifts the i-height minimum m by one and each lowering takes
    one from h_i(1) - m, so the counts are (-m, h_i(1) - m), rounded down for
    a path whose minimum is not integral.
    """
    h = path.heights(i)
    m = min(h)
    return math.floor(-m), math.floor(h[-1] - m)


def is_dominant_path(path: PiecewisePath) -> bool:
    """Image contained in the closed dominant cone (breakpoint test)."""
    return path.stays_in_cone(zero(path.dim))


# --- serialization -----------------------------------------------------------


def path_from_literal(datum: CartanDatum, literal, basis: str = "ambient") -> PiecewisePath:
    """Decode the JSON path literal: a list of [time, [coords...]] pairs.

    Rationals may be strings like "1/2".  ``basis`` selects how coordinates
    are read: "ambient" (default; epsilon coordinates for the named classical
    types), "fw" or "root".
    """
    times = [parse_rational(entry[0]) for entry in literal]
    raw = [tuple(parse_rational(c) for c in entry[1]) for entry in literal]
    if basis != "ambient" and any(len(p) != datum.rank for p in raw):
        raise FormatError(f"expected {datum.rank} {basis} coordinates")
    if basis == "ambient":
        pts = [datum.realization.from_ambient(p) for p in raw]
    elif basis == "fw":
        pts = list(raw)
    elif basis == "root":
        pts = [datum.fw_from_root(p) for p in raw]
    else:
        raise FormatError(f"unknown basis {basis!r}")
    return canonical_path(times, pts)


def path_to_literal(datum: CartanDatum, path: PiecewisePath, basis: str = "ambient"):
    out = []
    for t, p in zip(path.times, path.points):
        if basis == "ambient":
            coords = datum.realization.to_ambient(p)
        elif basis == "fw":
            coords = p
        elif basis == "root":
            coords = datum.root_coords(p)
        else:
            raise FormatError(f"unknown basis {basis!r}")
        out.append([str(t), [str(c) for c in coords]])
    return out
