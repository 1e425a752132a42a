"""The integer weight lattice and the Weyl group as the orbit tree of rho.

Weights carry int fw coordinates and int root coordinates scaled by det A;
``Weight.root`` is checked against the rational inverse transpose of the
Cartan matrix, and the orbit tree of rho against the matrix-product closure,
both oracles kept in ``oracles``.  The Weyl numerator, walked down the
group's tree from mu + rho, is checked term by term against a fresh orbit
walk with a set of the points met (``oracles.weyl_orbit``), and against the
``act``-based alternating sum in ``test_character_engine.py``.
"""

from fractions import Fraction
from itertools import product

import pytest

from weylwalk import build_cartan_datum, weyl_group
from weylwalk.cartan import act, act_vector, positive_roots, reflect, unit_vectors
from weylwalk.charalg import CharacterAlgebra, ExponentPolynomial, TauPoint
from weylwalk.errors import DomainError, ExactEvaluationError

from oracles import (inverse_element, invert_matrix, matrix_weyl_group, orbit_weyl_numerator,
                     weyl_orbit, word_matrix)

CUSTOM = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
GROUP_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4",
               "D4", "D5", "G2", "F4", CUSTOM]


@pytest.mark.parametrize("spec", GROUP_TYPES, ids=str)
def test_orbit_group_equals_matrix_group(spec):
    datum = build_cartan_datum(spec)
    rho = (1,) * datum.rank
    oracle = matrix_weyl_group(datum)
    by_image = {tuple(sum(a * x for a, x in zip(row, rho)) for row in m): m for m in oracle}
    group = weyl_group(datum)
    assert len(by_image) == len(oracle) == len(group)
    assert {w.rho_image for w in group} == set(by_image)
    probe = tuple(range(2, datum.rank + 2))
    for w in group:
        m = by_image[w.rho_image]
        assert word_matrix(datum, w.word) == m  # the word spells its element
        assert len(w.word) == len(oracle[m])  # ... and is reduced
        assert w.sign == (-1) ** len(w.word)
        assert act_vector(w, probe) == tuple(sum(a * x for a, x in zip(row, probe)) for row in m)
    assert group[0].word == () and group[0].rho_image == rho


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "B3", "D4", "F4"])
def test_tree_links_spell_each_word_in_length_order(label):
    """Each element is its parent times one letter: the word of element k is
    (letters[k],) + the parent's word, one longer, and the tree lists the
    elements by length, the identity alone at index 0."""
    datum = build_cartan_datum(label)
    group = weyl_group(datum)
    words = [w.word for w in group]
    assert [len(word) for word in words] == list(group.lengths) == sorted(group.lengths)
    assert words[0] == () and group.parents[0] == -1
    for k in range(1, len(group)):
        assert words[k] == (group.letters[k],) + words[group.parents[k]]
        assert group.parents[k] < k
    assert [w.is_identity() for w in group] == [True] + [False] * (len(group) - 1)
    assert group[-1] == group[len(group) - 1] and group[-1].word == words[-1]
    with pytest.raises(IndexError):
        group[len(group)]


@pytest.mark.parametrize("spec", GROUP_TYPES, ids=str)
def test_walk_carries_the_fundamental_weights_to_every_element(spec):
    """The tree's walk, one reflection per edge from the unit vectors, gives
    each element's images of the fundamental weights, as its word does."""
    datum = build_cartan_datum(spec)
    group = weyl_group(datum)
    units = unit_vectors(datum.rank)
    walk = group.walk(units, lambda images, i: [reflect(datum.matrix, i, x) for x in images])
    for w, images in zip(group, walk, strict=True):
        assert images == [act_vector(w, fw) for fw in units]


@pytest.mark.parametrize("spec", GROUP_TYPES, ids=str)
def test_twist_reads_det_times_the_root_coordinates_of_w_x(spec):
    """L_w . x is det A times the root coordinates of w(x), with w(x) from
    w's word, and the identity's twist is coadj."""
    datum = build_cartan_datum(spec)
    units = unit_vectors(datum.rank)
    assert datum.twist(units) == datum.coadj
    probes = [datum.weight(tuple(range(1, datum.rank + 1))),
              datum.weight((-2,) + (1,) * (datum.rank - 1))]
    for w in weyl_group(datum):
        twist = datum.twist(w.apply_each(units))
        for x in probes:
            assert (tuple(sum(a * c for a, c in zip(row, x.fw)) for row in twist)
                    == act(datum, w, x).scaled)


@pytest.mark.parametrize("label,values", [
    ("A2", (0, 1, 2)), ("C2", (0, 1, 2)), ("G2", (0, 1, 2)), ("B3", (0, 1, 2)),
    ("D4", (0, 1)), ("F4", (0, 1))])
def test_tree_numerator_equals_fresh_orbit_walk(label, values):
    """One tree serves every regular start mu + rho: the numerator read down
    the group's tree has the terms, in the same order, of a fresh orbit walk
    from mu + rho."""
    datum = build_cartan_datum(label)
    algebra = CharacterAlgebra(datum)
    group = algebra.group
    edges = list(zip(group.parents, group.letters))[1:]
    for fw in product(values, repeat=datum.rank):
        mu = datum.weight(fw)
        walk = weyl_orbit(datum, tuple(c + 1 for c in fw))
        assert [(parent, i) for _, parent, i in walk[1:]] == edges
        numerator = algebra.weyl_numerator(mu)
        assert list(numerator.terms.items()) == list(orbit_weyl_numerator(datum, mu).terms.items())
        assert len(numerator.terms) == len(group)


def test_inverse_element_on_f4():
    datum = build_cartan_datum("F4")
    group = weyl_group(datum)
    elements = set(group)
    rho = (1,) * datum.rank
    for w in group:
        inv = inverse_element(w)
        assert inv in elements
        assert act_vector(inv, w.rho_image) == rho and act_vector(w, inv.rho_image) == rho
        assert (inv.sign, len(inv.word)) == (w.sign, len(w.word))


@pytest.mark.parametrize("spec", ["A1", "A2", "C2", "G2", "B3", "D4", "F4", "E6", CUSTOM],
                         ids=str)
def test_root_equals_inverse_transpose_product(spec):
    datum = build_cartan_datum(spec)
    n = datum.rank
    inverse = invert_matrix(datum.matrix)
    for fw in [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,), tuple(range(n)),
               tuple((-1) ** k * (k + 2) for k in range(n))]:
        expect = tuple(sum(inverse[j][i] * fw[j] for j in range(n)) for i in range(n))
        root = datum.weight(fw).root
        assert root == expect
        for c, e in zip(root, expect):
            assert type(c) is (int if e.denominator == 1 else Fraction)


@pytest.mark.parametrize("label", ["C2", "G2", "B3", "D4"])
def test_weight_and_group_arithmetic_stays_integer(label):
    datum = build_cartan_datum(label)
    lam, mu = datum.weight((1,) * datum.rank), datum.weight((1,) + (0,) * (datum.rank - 1))
    for w in (lam, mu, lam + mu, lam - mu, -mu, datum.rho, *positive_roots(datum)):
        assert all(type(c) is int for c in w.fw + w.scaled)
        assert type(w.det) is int
    for w in weyl_group(datum):
        assert all(type(c) is int for c in w.rho_image)
        assert all(type(c) is int for c in act(datum, w, mu).scaled)
    algebra = CharacterAlgebra(datum)
    for fw in [(0,) * datum.rank, (2,) + (1,) * (datum.rank - 1)]:
        for e, c in algebra.weyl_numerator(datum.weight(fw)).terms.items():
            assert all(type(x) is int for x in e) and type(c) is int


def test_orbit_depth_is_length_and_start_must_be_dominant():
    datum = build_cartan_datum("B3")
    orbit = weyl_orbit(datum, (1, 0, 2))
    depth = [0]
    for _, parent, _ in orbit[1:]:
        depth.append(depth[parent] + 1)
    assert depth == sorted(depth)  # breadth first
    assert len({x for x, _, _ in orbit}) == len(orbit)
    with pytest.raises(DomainError):
        weyl_orbit(datum, (1, -1, 0))
    with pytest.raises(DomainError):
        CharacterAlgebra(datum).weyl_numerator(datum.weight((-2, 0, 0)))


def test_int_and_fraction_exponents_are_one_key():
    poly = ExponentPolynomial({(Fraction(1), Fraction(1, 2)): 2, (0, 0): 1})
    assert poly == ExponentPolynomial({(1, Fraction(1, 2)): 2, (Fraction(0), 0): 1})
    assert [type(c) for e in poly.terms for c in e] == [int, Fraction, int, int]
    assert repr(poly) == "1 + 2*t1^1*t2^1/2"


def test_power_takes_int_and_rational_exponents():
    tau = TauPoint((Fraction(1, 4), Fraction(1, 9)), 2, (Fraction(1, 2), None))
    assert tau.power((2, -1)) == Fraction(9, 16)
    assert tau.power((Fraction(3, 2), Fraction(2))) == Fraction(1, 8) / 81
    with pytest.raises(ExactEvaluationError):
        tau.power((0, Fraction(1, 2)))  # no root of tau_2
    with pytest.raises(ExactEvaluationError):
        tau.power((Fraction(1, 3), 0))  # not a multiple of 1/2
    with pytest.raises(ValueError):
        tau.power((1,))  # one coordinate short
