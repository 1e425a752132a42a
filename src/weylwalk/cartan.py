"""Root-system and Weyl-group arithmetic for finite-type Cartan matrices.

Weights are stored in two exact coordinate systems at once: integer
coordinates on the fundamental weights (``fw``) and rational coordinates on
the simple roots (``root``, denominators dividing det A).  The pairing of a
vector with the coroot h_i is simply its i-th fw coordinate, which keeps
every chamber test and height function exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import FormatError, NotFiniteTypeError, ResourceBudgetError
from .exact import (
    Vector,
    add,
    determinant,
    dot,
    identity_matrix,
    invert_matrix,
    mat_mul,
    mat_vec,
    sub,
    vec,
    zero,
)

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
    e = identity_matrix(n)
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


@dataclass(frozen=True)
class Weight:
    """Lattice weight with integer fw coordinates and rational root coordinates."""

    fw: Tuple[int, ...]
    root: Vector

    def __post_init__(self):
        object.__setattr__(self, "fw", tuple(int(c) for c in self.fw))

    @property
    def rank(self) -> int:
        return len(self.fw)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.fw)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.fw, other.fw)), add(self.root, other.root))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.fw, other.fw)), sub(self.root, other.root))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.fw), tuple(-a for a in self.root))

    def __hash__(self):
        return hash(self.fw)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.fw == other.fw

    def __repr__(self):
        return f"Weight{self.fw}"


@dataclass(frozen=True)
class WeylElement:
    """Group element stored as its integer matrix on fw coordinates."""

    matrix: IntMatrix  # column j = image of omega_j in fw coordinates
    word: Tuple[int, ...]  # a reduced word in the simple reflections (0-based)
    sign: int

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return not self.word

    def apply_fw(self, fw: Sequence) -> Tuple:
        n = len(self.matrix)
        return tuple(sum(self.matrix[i][j] * fw[j] for j in range(n)) for i in range(n))

    def __hash__(self):
        return hash(self.matrix)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix


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
    """Cartan matrix with its exact derived data and an ambient realization."""

    matrix: IntMatrix
    rank: int
    det: int
    inverse: Tuple[Tuple[Fraction, ...], ...]
    inverse_transpose: Tuple[Tuple[Fraction, ...], ...]
    realization: Realization
    label: str = "custom"

    # --- coordinate plumbing -------------------------------------------------

    def weight(self, fw: Sequence) -> Weight:
        fw_t = tuple(int(c) for c in fw)
        if len(fw_t) != self.rank:
            raise FormatError(f"expected {self.rank} fw coordinates")
        return Weight(fw_t, self.root_coords(fw_t))

    def root_coords(self, fw: Sequence) -> Vector:
        return mat_vec(self.inverse_transpose, vec(fw))

    def fw_from_root(self, root: Sequence) -> Vector:
        rv = vec(root)
        n = self.rank
        return tuple(
            sum((Fraction(self.matrix[j][i]) * rv[j] for j in range(n)), Fraction(0))
            for i in range(n)
        )

    def weight_from_root(self, root: Sequence) -> Weight:
        fw = self.fw_from_root(root)
        if any(c.denominator != 1 for c in fw):
            raise FormatError("root coordinates do not give a lattice weight")
        return self.weight(tuple(int(c) for c in fw))

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

    # --- reflections ----------------------------------------------------------

    def reflect_fw(self, i: int, x: Vector) -> Vector:
        """Simple reflection s_i on fw coordinates: x - x_i * alpha_i."""
        xi = x[i]
        if xi == 0:
            return x
        row = self.matrix[i]
        return tuple(c - xi * a for c, a in zip(x, row))

    def simple_reflection_matrix(self, i: int) -> IntMatrix:
        n = self.rank
        cols = []
        for j in range(n):
            basis = tuple(Fraction(1 if k == j else 0) for k in range(n))
            cols.append(self.reflect_fw(i, basis))
        return tuple(tuple(int(cols[j][k]) for j in range(n)) for k in range(n))


def _leading_principal_minors(matrix: IntMatrix):
    n = len(matrix)
    for k in range(1, n + 1):
        sub_m = [row[:k] for row in matrix[:k]]
        yield k, determinant(sub_m)


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
    if isinstance(spec, str):
        family, n = parse_type_label(spec)
        if n > max_rank:
            raise FormatError(f"rank {n} exceeds the configured limit {max_rank}")
        matrix = _named_matrix(family, n)
        realization = _epsilon_realization(family, n)
        label = f"{family}{n}"
    else:
        matrix = _check_cartan_conditions(spec)
    matrix = _check_cartan_conditions(matrix)
    n = len(matrix)
    for k, minor in _leading_principal_minors(matrix):
        if minor <= 0:
            raise NotFiniteTypeError(
                f"not finite type: leading principal {k}x{k} minor is {minor}"
            )
    det = determinant(matrix)
    inverse = invert_matrix(matrix)
    inv_t = tuple(tuple(inverse[j][i] for j in range(n)) for i in range(n))
    if realization is None:
        realization = Realization(
            n,
            tuple(tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)),
            tuple(tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)),
        )
    datum = CartanDatum(
        matrix=matrix,
        rank=n,
        det=int(det),
        inverse=inverse,
        inverse_transpose=inv_t,
        realization=realization,
        label=label,
    )
    _verify_datum(datum)
    return datum


def _verify_datum(datum: CartanDatum) -> None:
    n = datum.rank
    prod = mat_mul(datum.inverse, [[Fraction(v) for v in row] for row in datum.matrix])
    if prod != identity_matrix(n):
        raise FormatError("inverse check failed")
    # realization consistency: omega_i pairs to delta_ij against coroots
    for i in range(n):
        amb = datum.realization.to_ambient(tuple(1 if j == i else 0 for j in range(n)))
        back = datum.realization.from_ambient(amb)
        if back != tuple(Fraction(1 if j == i else 0) for j in range(n)):
            raise FormatError("ambient realization is not dual to the coroots")
    rho = datum.rho
    if any(c != 1 for c in rho.fw):
        raise FormatError("rho pairing check failed")


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
    return [datum.weight_from_root(r) for r in _positive_root_coords(datum.matrix)]


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


def weyl_group(datum: CartanDatum, budget: int = DEFAULT_WEYL_BUDGET) -> WeylGroup:
    """Enumerate the full Weyl group by breadth-first closure.

    BFS depth is the Coxeter length, so each element carries a reduced word
    and its sign for free.  A group whose closed-form order exceeds the
    budget is refused before any element is built.
    """
    order = weyl_order(datum)
    if order > budget:
        raise ResourceBudgetError(
            f"Weyl group of {datum.label} has {order} elements, over the budget {budget}"
        )
    n = datum.rank
    gens = [datum.simple_reflection_matrix(i) for i in range(n)]
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    seen: Dict[IntMatrix, WeylElement] = {}
    root_elt = WeylElement(ident, (), 1)
    seen[ident] = root_elt
    frontier = [root_elt]
    order = [root_elt]
    while frontier:
        nxt: List[WeylElement] = []
        for w in frontier:
            for i, g in enumerate(gens):
                # right multiplication: (w s_i)(x) = w(s_i(x))
                m = _int_mat_mul(w.matrix, g)
                if m not in seen:
                    elt = WeylElement(m, w.word + (i,), -w.sign)
                    seen[m] = elt
                    nxt.append(elt)
                    order.append(elt)
                    if len(seen) > budget:
                        raise ResourceBudgetError(
                            f"Weyl group exceeds budget {budget}", partial_count=len(seen)
                        )
        frontier = nxt
    return WeylGroup(tuple(order))


def _int_mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)) for i in range(n)
    )


def act(datum: CartanDatum, w: WeylElement, beta: Weight) -> Weight:
    """Linear Weyl action on a weight, in exact fw coordinates."""
    return datum.weight(w.apply_fw(beta.fw))


def act_vector(w: WeylElement, x: Vector) -> Vector:
    """Same action on an arbitrary rational vector in fw coordinates."""
    n = len(w.matrix)
    return tuple(
        sum((Fraction(w.matrix[i][j]) * x[j] for j in range(n)), Fraction(0)) for i in range(n)
    )


def inverse_element(group: WeylGroup, w: WeylElement) -> WeylElement:
    ident = identity_matrix(len(w.matrix))
    for cand in group:
        m = _int_mat_mul(w.matrix, cand.matrix)
        if all(m[i][j] == (1 if i == j else 0) for i in range(len(m)) for j in range(len(m))):
            return cand
    raise ValueError("inverse not found; group not closed")


def chamber_position(beta: Weight) -> str:
    """Classify against the dominant cone: "interior", "boundary" or "outside"."""
    if all(c > 0 for c in beta.fw):
        return "interior"
    if all(c >= 0 for c in beta.fw):
        return "boundary"
    return "outside"

