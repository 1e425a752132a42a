"""Root-system and Weyl-group arithmetic for finite-type Cartan matrices.

A weight is integer data only: its coordinates on the fundamental weights
(``fw``) and its coordinates on the simple roots scaled by det A
(``scaled``), read off the integer matrix ``coadj = det A * A^{-T}`` built
once per datum.  ``Weight.root`` gives the exact root coordinates, ints
where they are integral.  The pairing of a vector with the coroot h_i is
simply its i-th fw coordinate, which keeps every chamber test and height
function exact.

rho is regular, so the Weyl group is in bijection with the orbit of rho.  The
group is one breadth-first orbit tree of rho in flat integer arrays: each
element's w(rho), its parent and the letter of its edge.  An element is a
view of one index of the tree; its reduced word is spelled up the parent
chain when read, and the tree's depth gives the length and the sign.  A sum
over W walks the tree once, carrying a value down its edges.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import factorial, prod
from sys import byteorder
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import FormatError, NotFiniteTypeError, ResourceBudgetError
from .exact import Rational, Vector, add, dot, sub, vec, zero

IntMatrix = Tuple[Tuple[int, ...], ...]

MAX_NAMED_RANK = 8
DEFAULT_WEYL_BUDGET = 2_000_000

# sets a slot past Frozen.__setattr__; bound once, as every value class uses it
_set_slot = object.__setattr__


class Record:
    """Value class over ``__slots__``, built from one value per slot in order:
    equal to an instance of the same class whose ``_values()`` are equal, by
    default all slots in order.  Records are unhashable unless a subclass says
    how.  A subclass writes ``__init__`` only to validate or derive."""

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} values, "
                            f"got {len(values)}")
        for name, value in zip(names, values):
            _set_slot(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()


class Frozen(Record):
    """Immutable record, hashed by ``_values()``.  ``Record.__init__`` sets
    each slot once through ``object.__setattr__``, as does ``__setstate__``
    for copy and pickle; later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __hash__(self):
        return hash(self._values())

    def __setstate__(self, state):
        # copy and pickle restore the slots here, not through __setattr__
        for name, value in state[1].items():
            _set_slot(self, name, value)


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


class Realization(Frozen):
    """Rational ambient model: columns of ``fw_vectors`` are the omega_i.

    ``coroot_vectors`` pair against ambient coordinates by the standard dot
    product.  The default model uses the fundamental-weight basis itself.
    """

    __slots__ = ("dim", "fw_vectors", "coroot_vectors")

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


class Weight(Frozen):
    """Lattice weight: integer fw coordinates and integer root coordinates
    scaled by ``det``; equality and hashing read ``fw`` only."""

    __slots__ = ("fw", "scaled", "det")

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


class WeylElement(Frozen):
    """Element ``index`` of the ``OrbitTree`` ``tree``, a read-only view: its
    w(rho), its sign and ``is_identity`` read off the tree in O(1), its word
    spelled up the parent chain on each read.

    ``word`` is a reduced word with w = s_{word[0]} ... s_{word[-1]}, so
    the reflections act right to left, and ``sign`` is (-1)^len(word).
    Equality and hashing read w(rho), so the elements of two trees of one
    type that stand for the same w are equal.  Only ``OrbitTree`` builds one.
    """

    __slots__ = ("tree", "index")

    def _values(self) -> tuple:
        return (self.rho_image,)

    @property
    def rho_image(self) -> Tuple[int, ...]:
        rank = len(self.tree.cartan)
        return tuple(self.tree.images[self.index * rank:(self.index + 1) * rank])

    @property
    def word(self) -> Tuple[int, ...]:
        tree, k, out = self.tree, self.index, []
        while k:
            out.append(tree.letters[k])
            k = tree.parents[k]
        return tuple(out)

    @property
    def sign(self) -> int:
        return -1 if self.tree.lengths[self.index] & 1 else 1

    def is_identity(self) -> bool:
        return self.index == 0

    def apply_fw(self, fw: Sequence) -> Tuple:
        """w(x) on fw coordinates, ints or Fractions."""
        return self.apply_each((fw,))[0]

    def apply_each(self, vectors: Sequence[Sequence]) -> List[Tuple]:
        """w(x) for each x of ``vectors``, reading the word once."""
        letters, cartan = self.word[::-1], self.tree.cartan
        out = []
        for x in vectors:
            x = tuple(x)
            for i in letters:
                x = reflect(cartan, i, x)
            out.append(x)
        return out


class OrbitTree(Frozen):
    """The Weyl group as the breadth-first orbit tree of rho, in flat arrays.

    Element k is w_k, with w_k(rho) at ``images[k * rank:(k + 1) * rank]``.
    The identity is element 0; for k > 0, w_k = s_i w_p with i = ``letters[k]``
    and p = ``parents[k]``, and ``lengths[k]`` is the length of w_k, one more
    than its parent's, so the elements lie in length order.  The tree is a
    sequence of ``WeylElement`` views, each built on access; ``walk`` carries
    a value down its edges.

    Every array is read-only: ``images`` and ``parents`` are memoryviews of
    bytes (signed bytes and native int32), ``letters`` and ``lengths`` are
    bytes.
    The tree is determined by its Cartan matrix, which is its hash.
    """

    __slots__ = ("cartan", "images", "parents", "letters", "lengths")

    def __hash__(self):
        return hash(self.cartan)

    def __reduce__(self):
        # memoryviews do not pickle; the tree travels as its bytes
        return _packed_tree, (self.cartan, self.images.tobytes(), self.parents.tobytes(),
                              self.letters, self.lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, k: int) -> WeylElement:
        size = len(self.lengths)
        if not -size <= k < size:
            raise IndexError("Weyl group index out of range")
        return WeylElement(self, k % size)

    def __iter__(self) -> Iterator[WeylElement]:
        return map(WeylElement, repeat(self), range(len(self.lengths)))

    def walk(self, start, step: Callable) -> Iterator:
        """The value of each element in index order: ``start`` at the identity,
        then ``step(value of the parent, letter)`` along each edge.  Only the
        values of the previous and the current length are held."""
        parents, letters, lengths = self.parents, self.letters, self.lengths
        yield start
        # values of the previous length, the first of them at index ``first``
        first, previous, current = 0, [], [start]
        for k in range(1, len(lengths)):
            if lengths[k] != lengths[k - 1]:
                first, previous, current = k - len(current), current, []
            current.append(step(previous[parents[k] - first], letters[k]))
            yield current[-1]


def _packed_tree(cartan: IntMatrix, images: bytes, parents: bytes, letters: bytes,
                 lengths: bytes) -> OrbitTree:
    """The ``OrbitTree`` over packed images (signed bytes) and parents (int32)."""
    return OrbitTree(cartan, memoryview(images).cast("b"), memoryview(parents).cast("i"),
                     letters, lengths)


class CartanDatum(Frozen):
    """Cartan matrix with its exact derived data and an ambient realization.

    ``coadj`` is det * A^{-T}, the integer cofactor matrix of A: row i gives
    det times the i-th root coordinate of a weight from its fw coordinates.
    """

    __slots__ = ("matrix", "rank", "det", "coadj", "realization", "label")

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

    def simple_root(self, i: int) -> Weight:
        return self.weight(self.matrix[i])

    @property
    def rho(self) -> Weight:
        return self.weight((1,) * self.rank)

    def zero_weight(self) -> Weight:
        return self.weight((0,) * self.rank)


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

    Rejects a rank above ``max_rank``, a label's or a matrix's, and anything
    that is not an indecomposable finite-type Cartan matrix of rank at least
    1, naming the first non-positive leading principal minor.
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
    if not (isinstance(matrix, (list, tuple)) and matrix
            and all(isinstance(row, (list, tuple)) for row in matrix)):
        raise FormatError("a type is a label of rank >= 1, like \"C2\", or a non-empty "
                          f"list of matrix rows; got {spec!r}")
    if len(matrix) > max_rank:
        raise FormatError(f"rank {len(matrix)} exceeds the configured limit {max_rank}")
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
    datum = CartanDatum(matrix, n, det, coadj, realization, label)
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
        x = reflect(datum.matrix, word[-1], x)
    return tuple(word)


def weyl_group(datum: CartanDatum) -> OrbitTree:
    """Enumerate the Weyl group as the orbit tree of rho, the identity first.

    The walk takes one length at a time.  From x = w(rho) it reflects only
    positive coordinates: s_i(x) is s_i w, one longer, spelled (i,) +
    word(w).  A child met again from a later parent or letter keeps its first
    edge, so only the next length's images are held, and each length goes
    into the flat arrays once it is complete.  The BFS depth is the Coxeter
    length, so every word is reduced.

    During the walk x is one int of biased bytes, byte j holding x_j + 128:
    the packing is linear, so s_i(x) = x - x_i alpha_i is one subtraction of
    x_i times the packed row alpha_i.  A coordinate of w(rho) is the height
    of a coroot, below the Coxeter number, so it fits a signed byte, and an
    element's index fits an int32, on every group the budget admits.

    A group whose closed-form order exceeds ``DEFAULT_WEYL_BUDGET``, read at
    call time, is refused before any element is built.  This is the one
    budget test behind the group and the algebra's Weyl numerator.
    """
    order = weyl_order(datum)
    if order > DEFAULT_WEYL_BUDGET:
        raise ResourceBudgetError(f"Weyl group of {datum.label} has {order} elements, "
                                  f"over the budget {DEFAULT_WEYL_BUDGET}")
    rank = datum.rank
    bias = int.from_bytes(b"\x80" * rank, "little")
    alphas = [sum(a << 8 * j for j, a in enumerate(row)) for row in datum.matrix]
    level = [bias + int.from_bytes(b"\x01" * rank, "little")]
    images, parents = bytearray(b"\x01" * rank), bytearray(b"\xff" * 4)  # rho; parent -1
    letters, lengths = bytearray(1), bytearray(1)
    first = 0
    while level:
        # the next length: image -> parent * rank + letter of its first edge
        edges: Dict[int, int] = {}
        for k, x in enumerate(level, first):
            for i, b in enumerate(x.to_bytes(rank, "little")):
                if b > 128:
                    edges.setdefault(x - (b - 128) * alphas[i], k * rank + i)
        first += len(level)
        level = list(edges)
        # flipping each byte's top bit turns x_j + 128 into x_j as a signed byte
        images += b"".join([(x ^ bias).to_bytes(rank, "little") for x in level])
        codes = list(edges.values())
        parents += b"".join([(c // rank).to_bytes(4, byteorder) for c in codes])
        letters.extend([c % rank for c in codes])
        lengths.extend(repeat(lengths[-1] + 1, len(level)))
    return _packed_tree(datum.matrix, bytes(images), bytes(parents), bytes(letters),
                        bytes(lengths))


def act(datum: CartanDatum, w: WeylElement, beta: Weight) -> Weight:
    """Linear Weyl action on a weight, in exact fw coordinates."""
    return datum.weight(w.apply_fw(beta.fw))


def act_vector(w: WeylElement, x: Vector) -> Vector:
    """Same action on an arbitrary rational vector in fw coordinates."""
    return w.apply_fw(x)


def chamber_position(beta: Weight) -> str:
    """Classify against the dominant cone: "interior", "boundary" or "outside"."""
    if all(c > 0 for c in beta.fw):
        return "interior"
    if all(c >= 0 for c in beta.fw):
        return "boundary"
    return "outside"
