"""Root-system and Weyl-group arithmetic for finite-type Cartan matrices.

A weight is integer data only: its coordinates on the fundamental weights
(``fw``) and its coordinates on the simple roots scaled by det A
(``scaled``), read off the integer matrix ``coadj = det A * A^{-T}`` built
once per datum.  ``Weight.root`` gives the exact root coordinates, ints
where they are integral.  The pairing of a vector with the coroot h_i is
simply its i-th fw coordinate, which keeps every chamber test and height
function exact.

rho is regular, so the Weyl group is in bijection with the orbit of rho: an
element is stored as w(rho) with a reduced word and its sign, and the orbit
walk from rho enumerates the group with lengths for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, FormatError, NotFiniteTypeError, ResourceBudgetError
from .exact import Rational, Vector, add, dot, sub, vec, zero

IntMatrix = Tuple[Tuple[int, ...], ...]

MAX_NAMED_RANK = 8
DEFAULT_WEYL_BUDGET = 2_000_000


def _named_matrix(family: str, n: int) -> IntMatrix:
    """Cartan matrix of a named type, rows giving alpha_i on the coroots."""
    def chain(off_diag):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 2
        for (i, j), v in off_diag.items():
            m[i][j] = v
        return tuple(tuple(row) for row in m)

    simply = {(i, i + 1): -1 for i in range(n - 1)}
    simply.update({(i + 1, i): -1 for i in range(n - 1)})
    if family == "A":
        return chain(simply)
    if family == "B":
        if n < 2:
            raise FormatError("B_n needs rank >= 2")
        off = dict(simply)
        off[(n - 2, n - 1)] = -2
        return chain(off)
    if family == "C":
        if n < 2:
            raise FormatError("C_n needs rank >= 2")
        off = dict(simply)
        off[(n - 1, n - 2)] = -2
        return chain(off)
    if family == "D":
        if n < 4:
            raise FormatError("D_n needs rank >= 4")
        off = {(i, i + 1): -1 for i in range(n - 2)}
        off.update({(i + 1, i): -1 for i in range(n - 2)})
        off[(n - 3, n - 1)] = -1
        off[(n - 1, n - 3)] = -1
        return chain(off)
    if family == "G":
        if n != 2:
            raise FormatError("G_2 has rank 2")
        return ((2, -1), (-3, 2))
    if family == "F":
        if n != 4:
            raise FormatError("F_4 has rank 4")
        return ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    if family == "E":
        if n not in (6, 7, 8):
            raise FormatError("E_n has rank 6, 7 or 8")
        # Bourbaki numbering: node 2 attaches to node 4.
        off = {}
        chain_nodes = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain_nodes, chain_nodes[1:]):
            off[(a - 1, b - 1)] = -1
            off[(b - 1, a - 1)] = -1
        off[(2 - 1, 4 - 1)] = -1
        off[(4 - 1, 2 - 1)] = -1
        return chain(off)
    raise FormatError(f"unknown type family {family!r}")


@dataclass(frozen=True)
class Realization:
    """Rational ambient model: columns of ``fw_vectors`` are the omega_i.

    ``coroot_vectors`` pair against ambient coordinates by the standard dot
    product.  The default model uses the fundamental-weight basis itself.
    """

    dim: int
    fw_vectors: Tuple[Vector, ...]
    coroot_vectors: Tuple[Vector, ...]

    def to_ambient(self, fw: Sequence) -> Vector:
        out = zero(self.dim)
        for c, w in zip(fw, self.fw_vectors):
            out = add(out, tuple(Fraction(c) * a for a in w))
        return out

    def from_ambient(self, x: Sequence) -> Vector:
        xv = vec(x)
        if len(xv) != self.dim:
            raise FormatError(f"expected {self.dim} ambient coordinates")
        return tuple(dot(xv, h) for h in self.coroot_vectors)


def _epsilon_realization(family: str, n: int) -> Optional[Realization]:
    """Standard epsilon-coordinate model for the B/C/D families (dim n)."""
    e = [vec(int(i == j) for j in range(n)) for i in range(n)]
    if family == "C":
        # omega_i = e_1 + ... + e_i; coroots e_i - e_{i+1}, e_n.
        fw = tuple(vec([1] * (i + 1) + [0] * (n - i - 1)) for i in range(n))
        cor = [sub(e[i], e[i + 1]) for i in range(n - 1)] + [e[n - 1]]
        return Realization(n, fw, tuple(cor))
    if family == "B":
        fw = [vec([1] * (i + 1) + [0] * (n - i - 1)) for i in range(n - 1)]
        fw.append(tuple(Fraction(1, 2) for _ in range(n)))
        cor = [sub(e[i], e[i + 1]) for i in range(n - 1)] + [tuple(2 * c for c in e[n - 1])]
        return Realization(n, tuple(fw), tuple(cor))
    if family == "D":
        fw = [vec([1] * (i + 1) + [0] * (n - i - 1)) for i in range(n - 2)]
        half = Fraction(1, 2)
        fw.append(tuple([half] * (n - 1) + [-half]))
        fw.append(tuple([half] * n))
        cor = [sub(e[i], e[i + 1]) for i in range(n - 1)] + [add(e[n - 2], e[n - 1])]
        return Realization(n, tuple(fw), tuple(cor))
    return None


@dataclass(frozen=True, eq=False)
class Weight:
    """Lattice weight: integer fw coordinates and integer root coordinates
    scaled by ``det``; equality and hashing read ``fw`` only."""

    fw: Tuple[int, ...]
    scaled: Tuple[int, ...]
    det: int

    @property
    def root(self) -> Tuple[Rational, ...]:
        """Exact simple-root coordinates: ints where integral, else Fractions."""
        d = self.det
        return tuple(c // d if c % d == 0 else Fraction(c, d) for c in self.scaled)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.fw)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.fw, other.fw)),
                      tuple(a + b for a, b in zip(self.scaled, other.scaled)), self.det)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.fw, other.fw)),
                      tuple(a - b for a, b in zip(self.scaled, other.scaled)), self.det)

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.fw), tuple(-a for a in self.scaled), self.det)

    def __hash__(self):
        return hash(self.fw)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.fw == other.fw

    def __repr__(self):
        return f"Weight{self.fw}"


def reflect(matrix: IntMatrix, i: int, x: Sequence) -> Tuple:
    """Simple reflection s_i on fw coordinates: x - x_i * alpha_i."""
    xi = x[i]
    if not xi:
        return tuple(x)
    return tuple(c - xi * a for c, a in zip(x, matrix[i]))


@dataclass(frozen=True)
class WeylElement:
    """Group element w stored as w(rho) in fw coordinates, which determines w.

    ``word`` is a reduced word with w = s_{word[0]} ... s_{word[-1]}, so
    the reflections act right to left.  Equality and hashing read w(rho).
    """

    rho_image: Tuple[int, ...]
    word: Tuple[int, ...] = field(compare=False)
    sign: int = field(compare=False)
    cartan: IntMatrix = field(compare=False, repr=False)

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return not self.word

    def apply_fw(self, fw: Sequence) -> Tuple:
        """w(x) on fw coordinates, ints or Fractions."""
        x = tuple(fw)
        for i in reversed(self.word):
            x = reflect(self.cartan, i, x)
        return x


@dataclass(frozen=True)
class WeylGroup:
    elements: Tuple[WeylElement, ...]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    def longest(self) -> WeylElement:
        return max(self.elements, key=lambda w: w.length)


@dataclass(frozen=True)
class CartanDatum:
    """Cartan matrix with its exact derived data and an ambient realization.

    ``coadj`` is det * A^{-T}, the integer cofactor matrix of A: row i gives
    det times the i-th root coordinate of a weight from its fw coordinates.
    """

    matrix: IntMatrix
    rank: int
    det: int
    coadj: IntMatrix
    realization: Realization
    label: str = "custom"

    # --- coordinate plumbing -------------------------------------------------

    def weight(self, fw: Sequence) -> Weight:
        fw_t = tuple(int(c) for c in fw)
        if len(fw_t) != self.rank:
            raise FormatError(f"expected {self.rank} fw coordinates")
        return Weight(fw_t, tuple(sum(a * x for a, x in zip(row, fw_t)) for row in self.coadj),
                      self.det)

    def root_coords(self, fw: Sequence) -> Vector:
        """Root coordinates of a rational fw vector."""
        return tuple(Fraction(sum(a * x for a, x in zip(row, fw)), self.det) for row in self.coadj)

    def fw_from_root(self, root: Sequence) -> Tuple:
        """fw coordinates A^T r of a vector r in root coordinates (ints or Fractions)."""
        return tuple(sum(self.matrix[j][i] * c for j, c in enumerate(root))
                     for i in range(self.rank))

    def weight_from_ambient(self, coords: Sequence) -> Weight:
        fw = self.realization.from_ambient(coords)
        if any(c.denominator != 1 for c in fw):
            raise FormatError("ambient coordinates do not lie in the weight lattice")
        return self.weight(tuple(int(c) for c in fw))

    def ambient(self, w: Weight) -> Vector:
        return self.realization.to_ambient(w.fw)

    def simple_root(self, i: int) -> Weight:
        return self.weight(self.matrix[i])

    def fundamental_weight(self, i: int) -> Weight:
        return self.weight(tuple(1 if j == i else 0 for j in range(self.rank)))

    @property
    def rho(self) -> Weight:
        return self.weight((1,) * self.rank)

    def zero_weight(self) -> Weight:
        return self.weight((0,) * self.rank)

    def reflect_fw(self, i: int, x: Sequence) -> Tuple:
        """Simple reflection s_i on fw coordinates: x - x_i * alpha_i."""
        return reflect(self.matrix, i, x)


def _determinant(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    if not n:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _check_cartan_conditions(matrix) -> IntMatrix:
    n = len(matrix)
    rows = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise FormatError("Cartan matrix must be square")
        out = []
        for j, a in enumerate(row):
            if isinstance(a, bool) or not isinstance(a, int):
                raise FormatError(f"entry ({i},{j}) is not an integer")
            out.append(a)
        rows.append(tuple(out))
    m = tuple(rows)
    for i in range(n):
        if m[i][i] != 2:
            raise FormatError(f"diagonal entry ({i},{i}) must be 2")
        for j in range(n):
            if i != j:
                if m[i][j] > 0:
                    raise FormatError(f"off-diagonal entry ({i},{j}) must be <= 0")
                if (m[i][j] == 0) != (m[j][i] == 0):
                    raise FormatError(f"zero pattern not symmetric at ({i},{j})")
    # indecomposability: the Dynkin graph must be connected
    if n > 1:
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if j not in seen and m[i][j] != 0:
                    seen.add(j)
                    frontier.append(j)
        if len(seen) != n:
            raise FormatError("Cartan matrix is decomposable")
    return m


def parse_type_label(label: str) -> Tuple[str, int]:
    text = label.strip().upper().replace("_", "")
    if len(text) < 2 or text[0] not in "ABCDEFG":
        raise FormatError(f"cannot parse type label {label!r}")
    family, num = text[0], text[1:]
    if not num.isdigit():
        raise FormatError(f"cannot parse rank in {label!r}")
    return family, int(num)


def build_cartan_datum(spec, max_rank: int = MAX_NAMED_RANK) -> CartanDatum:
    """Construct the datum from a type label ("C2") or an explicit matrix.

    Rejects anything that is not an indecomposable finite-type Cartan matrix,
    naming the first non-positive leading principal minor.
    """
    label = "custom"
    realization = None
    matrix = spec
    if isinstance(spec, str):
        family, n = parse_type_label(spec)
        if n > max_rank:
            raise FormatError(f"rank {n} exceeds the configured limit {max_rank}")
        matrix = _named_matrix(family, n)
        realization = _epsilon_realization(family, n)
        label = f"{family}{n}"
    matrix = _check_cartan_conditions(matrix)
    n = len(matrix)
    for k in range(1, n + 1):
        minor = _determinant([row[:k] for row in matrix[:k]])
        if minor <= 0:
            raise NotFiniteTypeError(
                f"not finite type: leading principal {k}x{k} minor is {minor}"
            )
    det = minor  # the last leading principal minor
    # cofactor (i, j) = (-1)^(i+j) * minor without row i and column j
    coadj = tuple(
        tuple((-1) ** (i + j) * _determinant(
            [r[:j] + r[j + 1:] for k, r in enumerate(matrix) if k != i]) for j in range(n))
        for i in range(n)
    )
    if realization is None:
        basis = tuple(vec(int(i == j) for i in range(n)) for j in range(n))
        realization = Realization(n, basis, basis)
    datum = CartanDatum(
        matrix=matrix,
        rank=n,
        det=det,
        coadj=coadj,
        realization=realization,
        label=label,
    )
    _verify_datum(datum)
    return datum


def _verify_datum(datum: CartanDatum) -> None:
    n = datum.rank
    # A^T * coadj = det * I, i.e. coadj / det is the inverse transpose
    for i in range(n):
        for j in range(n):
            entry = sum(datum.matrix[k][i] * datum.coadj[k][j] for k in range(n))
            if entry != datum.det * (i == j):
                raise FormatError("inverse check failed")
    # realization consistency: omega_i pairs to delta_ij against coroots
    for i in range(n):
        amb = datum.realization.to_ambient(tuple(1 if j == i else 0 for j in range(n)))
        back = datum.realization.from_ambient(amb)
        if back != tuple(Fraction(1 if j == i else 0) for j in range(n)):
            raise FormatError("ambient realization is not dual to the coroots")


def _positive_root_coords(matrix: IntMatrix) -> List[Tuple[int, ...]]:
    """Positive roots of a finite-type Cartan matrix in simple-root coordinates.

    Reflection closure from the simple roots; sorted by height then
    coordinates for determinism.
    """
    n = len(matrix)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]

    def reflect_root(i: int, r: Tuple[int, ...]) -> Tuple[int, ...]:
        coeff = sum(matrix[j][i] * r[j] for j in range(n))
        return tuple(c - coeff if j == i else c for j, c in enumerate(r))

    roots = set(simple)
    frontier = list(simple)
    while frontier:
        r = frontier.pop()
        for i in range(n):
            img = reflect_root(i, r)
            if img not in roots:
                roots.add(img)
                frontier.append(img)
    positive = [r for r in roots if all(c >= 0 for c in r)]
    positive.sort(key=lambda r: (sum(r), r))
    return positive


def positive_roots(datum: CartanDatum) -> List[Weight]:
    """All positive roots, by reflection closure from the simple roots.

    Finite type only; every root has multiplicity one.  Sorted by height then
    root coordinates for determinism.
    """
    return [datum.weight(datum.fw_from_root(r)) for r in _positive_root_coords(datum.matrix)]


def positive_coroots(datum: CartanDatum) -> List[Tuple[int, ...]]:
    """Positive coroots in simple-coroot coordinates.

    They are the positive roots of the transposed Cartan matrix; a weight's
    pairing with the coroot c is sum_i c_i * fw_i.
    """
    n = datum.rank
    transposed = tuple(tuple(datum.matrix[j][i] for j in range(n)) for i in range(n))
    return _positive_root_coords(transposed)


def weyl_order(datum: CartanDatum) -> int:
    """|W| = n! * det(A) * prod of the highest root's coefficients.

    Holds for every indecomposable finite-type matrix, custom ones included;
    the highest root is the last positive root in height order.
    """
    highest = _positive_root_coords(datum.matrix)[-1]
    return factorial(datum.rank) * datum.det * prod(highest)


def longest_word(datum: CartanDatum) -> Tuple[int, ...]:
    """A reduced word of the longest element w0, without enumerating W.

    Starting at rho, reflecting in a coordinate that is still positive
    lengthens the element by one; the walk stops at -rho after |Phi+| steps.
    """
    x, word = (1,) * datum.rank, []
    while any(c > 0 for c in x):
        word.append(next(k for k, c in enumerate(x) if c > 0))
        x = datum.reflect_fw(word[-1], x)
    return tuple(word)


def weyl_orbit(datum: CartanDatum, start: Sequence[int]) -> List[Tuple[Tuple[int, ...], int, int]]:
    """The W-orbit of a dominant integer fw vector, breadth first.

    Entry k is ``(x, parent, i)`` with x = s_i(orbit[parent][0]); the start
    comes first as ``(start, -1, -1)``.  Only positive coordinates are
    reflected, and each such step lengthens the element by one, so the depth
    of w(start) is the length of w when the start is regular (rho, mu + rho).
    """
    if any(c < 0 for c in start):
        raise DomainError(f"orbit walk needs a dominant start, got {tuple(start)}")
    orbit = [(tuple(start), -1, -1)]
    seen = {orbit[0][0]}
    k = 0
    while k < len(orbit):
        x = orbit[k][0]
        for i, xi in enumerate(x):
            if xi > 0:
                y = reflect(datum.matrix, i, x)
                if y not in seen:
                    seen.add(y)
                    orbit.append((y, k, i))
        k += 1
    return orbit


def weyl_group(datum: CartanDatum, budget: int = DEFAULT_WEYL_BUDGET) -> WeylGroup:
    """Enumerate the Weyl group as the orbit of rho.

    Stepping x = w(rho) to s_i(x) gives s_i w, spelled (i,) + word; the BFS
    depth is the Coxeter length, so every word is reduced and the sign is
    its parity.  A group whose closed-form order exceeds the budget is
    refused before any element is built.
    """
    order = weyl_order(datum)
    if order > budget:
        raise ResourceBudgetError(
            f"Weyl group of {datum.label} has {order} elements, over the budget {budget}"
        )
    elements: List[WeylElement] = []
    for x, parent, i in weyl_orbit(datum, (1,) * datum.rank):
        if parent < 0:
            elements.append(WeylElement(x, (), 1, datum.matrix))
        else:
            up = elements[parent]
            elements.append(WeylElement(x, (i,) + up.word, -up.sign, datum.matrix))
    return WeylGroup(tuple(elements))


def act(datum: CartanDatum, w: WeylElement, beta: Weight) -> Weight:
    """Linear Weyl action on a weight, in exact fw coordinates."""
    return datum.weight(w.apply_fw(beta.fw))


def act_vector(w: WeylElement, x: Vector) -> Vector:
    """Same action on an arbitrary rational vector in fw coordinates."""
    return w.apply_fw(x)


def inverse_element(w: WeylElement) -> WeylElement:
    """w^{-1}, spelled by the reversed word; w^{-1}(rho) applies the word
    left to right."""
    rho = (1,) * len(w.cartan)
    for i in w.word:
        rho = reflect(w.cartan, i, rho)
    return WeylElement(rho, w.word[::-1], w.sign, w.cartan)


def chamber_position(beta: Weight) -> str:
    """Classify against the dominant cone: "interior", "boundary" or "outside"."""
    if all(c > 0 for c in beta.fw):
        return "interior"
    if all(c >= 0 for c in beta.fw):
        return "boundary"
    return "outside"
