"""The two character routes agree exactly, the algebra takes the one its rule
names, and the memos return what a fresh computation would.

S_lambda(tau) is the Weyl alternating sum over prod(1 - tau^alpha) or the sum
over the crystal B(lambda).  The algebra takes whichever has fewer terms (|W|
against dim V(lambda)), the Weyl sum only where the denominator is nonzero.
The crystal route is the oracle here.
"""

from fractions import Fraction

import pytest

from weylwalk import build_cartan_datum
from weylwalk import crystal as C
from weylwalk import markov as M
from weylwalk.cartan import act, weyl_order
from weylwalk.charalg import (
    CharacterAlgebra, ExponentPolynomial, tau_point, tau_point_from_roots)
from weylwalk.crystal import module_multiplicity
from weylwalk.errors import ResourceBudgetError, WeylwalkError

from conftest import partition_weight
from oracles import weyl_character_product

# Per type: weights with dim V(lambda) below |W| and above it, and a generic tau.
CASES = {
    "A2": ([(1, 0), (2, 0)], [(1, 1), (3, 2)], ["2/7", "3/5"]),
    "C2": ([(1, 0), (0, 1)], [(2, 1), (3, 3)], ["1/3", "2/5"]),
    "G2": ([(1, 0)], [(1, 1), (2, 1)], ["3/7", "1/4"]),
    "B3": ([(1, 0, 0), (0, 0, 1)], [(1, 1, 0), (1, 0, 2)], ["1/2", "2/7", "3/5"]),
    "D4": ([(1, 0, 0, 0), (1, 1, 0, 0)], [(1, 0, 1, 1)], ["1/3", "2/5", "3/7", "4/9"]),
    "F4": ([(0, 0, 0, 1), (1, 0, 0, 1)], [(0, 1, 0, 0)], ["1/2", "2/3", "3/5", "5/7"]),
}


@pytest.fixture(scope="module")
def algebras():
    return {label: CharacterAlgebra(build_cartan_datum(label)) for label in CASES}


def _weyl_route(algebra, lam, tau):
    return algebra.weyl_numerator(lam).evaluate(tau) / algebra.denominator_value(tau)


@pytest.mark.parametrize("label", sorted(CASES))
def test_weyl_route_equals_crystal_character(algebras, label):
    algebra = algebras[label]
    datum = algebra.datum
    small, large, tau_values = CASES[label]
    order = weyl_order(datum)
    points = [tau_point(datum, tau_values)]
    if label == "A2":
        points.append(tau_point_from_roots(datum, ["1/2", "2/3"]))
    for fw in small + large:
        lam = datum.weight(fw)
        assert (algebra.dimension(lam) > order) == (fw in large)
        crystal_poly = algebra.character_poly(lam)
        for tau in points:
            expect = crystal_poly.evaluate(tau)
            assert _weyl_route(algebra, lam, tau) == expect
            assert algebra.character_value(lam, tau) == expect
            assert algebra.psi(lam, tau) == expect * algebra.denominator_value(tau)
        if datum.rank <= 3:  # the product has thousands of terms on D4 and F4
            assert algebra.psi_poly(lam) == weyl_character_product(algebra, lam)


@pytest.mark.parametrize("label", sorted(CASES))
def test_dimension_formula_counts_crystal_nodes(algebras, label):
    algebra = algebras[label]
    small, large, _ = CASES[label]
    for fw in [(0,) * algebra.datum.rank] + small + large:
        lam = algebra.datum.weight(fw)
        assert algebra.dimension(lam) == len(algebra.cache.get(lam))


def _spy_on_crystal_route(monkeypatch):
    """The weights ``character_poly`` is called on, in order."""
    calls = []
    original = CharacterAlgebra.character_poly

    def spy(self, source):
        calls.append(source.fw)
        return original(self, source)

    monkeypatch.setattr(CharacterAlgebra, "character_poly", spy)
    return calls


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "B3", "D4"])
def test_route_reads_a_crystal_exactly_below_the_group_order(label, monkeypatch):
    """A dominant weight with dim V(lambda) < |W| reads its crystal and one
    above |W| takes the Weyl sum, whether or not its crystal is cached: the
    step sources' own crystals are cached by their step laws."""
    datum = build_cartan_datum(label)
    small, large, tau_values = CASES[label]
    weights = [datum.weight(fw) for fw in [(0,) * datum.rank] + small + large]
    tau = tau_point(datum, tau_values)
    expect = [CharacterAlgebra(datum).character_poly(lam).evaluate(tau) for lam in weights]
    calls = _spy_on_crystal_route(monkeypatch)
    algebra = CharacterAlgebra(datum)
    for source in (weights[1], weights[-1]):
        dist = M.build_distribution(algebra, source, tau)
        assert algebra.cache.get(source) is dist.crystals[0][0]
    assert [algebra.character_value(lam, tau) for lam in weights] == expect
    assert sorted(calls) == sorted([(0,) * datum.rank] + small)
    assert sorted(algebra._numerators) == sorted(large)


def test_a8_fundamental_character_reads_its_crystal(monkeypatch):
    """|W| = 9! = 362880 against dim V(omega_1) = 9: the 9-node crystal, not
    an orbit of 362880 points.  S = 1 + t1 + t1 t2 + ... + t1...t8."""
    a8 = build_cartan_datum("A8")
    calls = _spy_on_crystal_route(monkeypatch)
    algebra = CharacterAlgebra(a8)
    lam = a8.weight((1,) + (0,) * 7)
    assert algebra.character_value(lam, tau_point(a8, ["1/2"] * 8)) == 2 - Fraction(1, 256)
    assert calls == [lam.fw] and algebra._numerators == {}


def test_crystal_route_serves_e7_a_zero_denominator_and_a_non_dominant_weight(monkeypatch):
    e7 = build_cartan_datum("E7")
    c2 = build_cartan_datum("C2")
    calls = _spy_on_crystal_route(monkeypatch)
    zero = e7.zero_weight()
    assert CharacterAlgebra(e7).character_value(zero, tau_point(e7, ["1/2"] * 7)) == 1
    assert calls == [zero.fw]
    algebra = CharacterAlgebra(c2)
    lam = c2.weight((3, 3))  # dim V(lambda) > |W|: only the zero denominator sends it here
    vanishing = tau_point(c2, ["2", "1/2"])
    assert algebra.denominator_value(vanishing) == 0
    algebra.character_value(lam, vanishing)
    assert calls == [zero.fw, lam.fw]
    # the dimension formula gives 10 > |W| = 8 here; the crystal route still refuses it
    assert algebra.dimension(c2.weight((-6, 3))) == 10
    with pytest.raises(WeylwalkError, match="not dominant"):
        algebra.character_value(c2.weight((-6, 3)), tau_point(c2, ["1/3", "2/5"]))
    assert calls == [zero.fw, lam.fw, (-6, 3)]


def test_psi_ell_on_e7_builds_no_group():
    """psi_ell is the twisted stay at w = 1, read off the unit vectors, so it
    never enumerates W: E7's group is over the budget.  From 0 one step
    stays only at the highest node, so psi_1 = 1 / S_omega_7."""
    e7 = build_cartan_datum("E7")
    algebra = CharacterAlgebra(e7)
    omega7, tau = e7.weight((0,) * 6 + (1,)), tau_point(e7, ["1/2"] * 7)
    assert algebra.psi_ell(e7.zero_weight(), omega7, tau, 1) == 1 / algebra.character_value(
        omega7, tau)
    assert algebra._group is None


def test_weyl_route_off_the_unit_cube(algebras):
    """Any tau with a nonzero denominator takes the Weyl route; one with a
    vanishing denominator falls back to the crystal."""
    algebra = algebras["C2"]
    datum = algebra.datum
    lam = datum.weight((3, 3))
    poly = algebra.character_poly(lam)
    for values in (["3/2", "1/3"], ["2", "1/2"]):
        tau = tau_point(datum, values)
        assert algebra.character_value(lam, tau) == poly.evaluate(tau)
    assert algebra.denominator_value(tau_point(datum, ["2", "1/2"])) == 0


def test_custom_matrix_characters(monkeypatch):
    """A custom matrix knows |W| from its highest root, so it takes the Weyl
    route like a named type: under a 20-node crystal budget the 64-dimensional
    V(omega_1 + omega_2) still evaluates, which the crystal route could not."""
    custom = build_cartan_datum([[2, -1], [-3, 2]])
    named = build_cartan_datum("G2")
    assert weyl_order(custom) == 12
    reference = CharacterAlgebra(named)
    tau = tau_point(custom, ["1/3", "2/5"])
    weights = [(0, 0), (1, 0), (1, 1), (2, 1)]
    expect = [(reference.character_poly(named.weight(fw)).evaluate(tau),
               reference.psi(named.weight(fw), tau)) for fw in weights]
    monkeypatch.setattr(C, "DEFAULT_NODE_BUDGET", 20)
    algebra = CharacterAlgebra(custom)
    for fw, (character, psi) in zip(weights, expect):
        assert algebra.character_value(custom.weight(fw), tau) == character
        assert algebra.psi(custom.weight(fw), tau) == psi
    with pytest.raises(ResourceBudgetError):
        algebra.character_poly(custom.weight((1, 1)))


def test_denominator_times_character_equals_numerator(c2, a2, c2_algebra, a2_algebra):
    """The Weyl character formula on the weights of acceptance criterion 3,
    with the left side built from the crystal.  psi_poly takes the Weyl route
    on the larger of these weights, so comparing it with weyl_numerator would
    not test the identity there."""
    c2_mus = [partition_weight(c2, *p) for p in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1)]]
    a2_mus = [a2.weight(fw) for fw in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1)]]
    for algebra, mus in ((c2_algebra, c2_mus), (a2_algebra, a2_mus)):
        for mu in mus:
            assert weyl_character_product(algebra, mu) == algebra.weyl_numerator(mu)


def test_character_memo_returns_identical_value(algebras):
    algebra = algebras["B3"]
    datum = algebra.datum
    tau = tau_point(datum, ["1/2", "2/7", "3/5"])
    for fw in [(1, 0, 0), (1, 1, 0)]:
        lam = datum.weight(fw)
        first = algebra.character_value(lam, tau)
        assert algebra.character_value(datum.weight(fw), tau) is first
        assert algebra.character_value(lam, tau_point(datum, ["1/2", "2/7", "3/5"])) is first


def test_memoized_multiplicity_row_equals_fresh(algebras):
    algebra = algebras["C2"]
    datum = algebra.datum
    tau = tau_point(datum, ["1/3", "2/5"])
    dist = M.build_distribution(algebra, datum.weight((1, 1)), tau)
    for fw in [(0, 0), (1, 0), (2, 1), (0, 3)]:
        mu = datum.weight(fw)
        first = dist.multiplicity_row(mu)
        assert dist.multiplicity_row(mu) is first
        assert first == module_multiplicity(mu, dist.crystals)


def test_probability_of_matches_entries(algebras):
    algebra = algebras["C2"]
    datum = algebra.datum
    dist = M.build_distribution(algebra, datum.weight((1, 1)), tau_point(datum, ["1/3", "2/5"]))
    for e in dist.entries:
        assert dist.probability_of(e.crystal, e.node) == e.probability
    assert sum(p for _, _, p in M.twisted_distribution_probabilities(
        dist, max(algebra.group, key=lambda w: len(w.word)))) == Fraction(1)
    with pytest.raises(KeyError):
        dist.probability_of(algebra.cache.get(datum.weight((1, 0))), 0)


@pytest.mark.parametrize("label,weights", [("C2", [(0, 0), (1, 0), (2, 3)]),
                                           ("G2", [(0, 0), (0, 1), (2, 1)]),
                                           ("B3", [(0, 0, 0), (0, 0, 1), (2, 1, 0)]),
                                           ("D4", [(0, 0, 0, 0), (1, 0, 1, 1), (0, 2, 0, 1)]),
                                           ("F4", [(0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 2, 0)])])
def test_memoized_weyl_numerator_equals_fresh_sum(algebras, label, weights):
    algebra = algebras[label]
    datum = algebra.datum
    for fw in weights:
        mu = datum.weight(fw)
        first = algebra.weyl_numerator(mu)
        assert algebra.weyl_numerator(datum.weight(fw)) is first
        shifted = mu + datum.rho
        fresh = {}
        for w in algebra.group:
            e = (shifted - act(datum, w, shifted)).root
            fresh[e] = fresh.get(e, 0) + w.sign
        assert first == ExponentPolynomial(fresh)
