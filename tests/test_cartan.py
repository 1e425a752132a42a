import copy
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylwalk import (
    act,
    build_cartan_datum,
    chamber_position,
    positive_roots,
    weyl_group,
)
from weylwalk import cartan
from weylwalk.cartan import act_vector, weyl_order
from weylwalk.errors import FormatError, NotFiniteTypeError, ResourceBudgetError

from conftest import partition_weight
from oracles import inverse_element


def test_c2_datum_matches_standard_realization(c2):
    assert c2.matrix == ((2, -1), (-2, 2))
    assert c2.det == 2
    assert c2.realization.to_ambient((1, 0)) == (Fraction(1), Fraction(0))
    assert c2.realization.to_ambient((0, 1)) == (Fraction(1), Fraction(1))
    assert c2.realization.to_ambient(c2.rho.fw) == (Fraction(2), Fraction(1))
    assert c2.realization.to_ambient(c2.matrix[0]) == (Fraction(1), Fraction(-1))
    assert c2.realization.to_ambient(c2.matrix[1]) == (Fraction(0), Fraction(2))


def test_inverse_cartan_exact(c2, a2):
    # coadj = det * A^{-T}, so coadj^T / det times A is the identity
    for datum in (c2, a2):
        n = datum.rank
        prod = [[Fraction(sum(datum.coadj[k][i] * datum.matrix[k][j] for k in range(n)), datum.det)
                 for j in range(n)] for i in range(n)]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_a1_fundamental_weight_is_half_alpha(a1):
    assert a1.matrix == ((2,),)
    omega = a1.weight((1,))
    alpha = a1.weight(a1.matrix[0])
    assert omega.root == (Fraction(1, 2),)
    assert alpha.root == (Fraction(1),)


def test_affine_matrix_rejected():
    with pytest.raises(NotFiniteTypeError, match="2x2 minor is 0"):
        build_cartan_datum([[2, -2], [-2, 2]])


def test_malformed_matrices_rejected():
    with pytest.raises(FormatError):
        build_cartan_datum([[2, -1]])
    with pytest.raises(FormatError):
        build_cartan_datum([[2, 1], [1, 2]])
    with pytest.raises(FormatError):
        build_cartan_datum([[2, -1.5], [-1, 2]])
    with pytest.raises(FormatError):
        build_cartan_datum([[2, 0], [0, 2]])  # decomposable
    with pytest.raises(FormatError):
        build_cartan_datum("H3")


def test_rank_limit_enforced():
    a9 = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(9)] for i in range(9)]
    for spec in ("A9", a9):
        with pytest.raises(FormatError, match="exceeds"):
            build_cartan_datum(spec)
        build_cartan_datum(spec, max_rank=9)


def test_positive_roots_c2_golden(c2):
    roots = positive_roots(c2)
    ambient = {c2.realization.to_ambient(r.fw) for r in roots}
    expect = {
        (Fraction(1), Fraction(-1)),
        (Fraction(0), Fraction(2)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(0)),
    }
    assert ambient == expect


def test_positive_roots_a1(a1):
    assert [r.root for r in positive_roots(a1)] == [(Fraction(1),)]


def test_positive_roots_a2_against_orbit_closure(a2):
    # oracle: the full Weyl orbit of the simple roots, filtered to Q_+
    group = weyl_group(a2)
    orbit = set()
    for i in range(a2.rank):
        alpha = a2.weight(a2.matrix[i])
        for w in group:
            img = act(a2, w, alpha)
            if all(c >= 0 for c in img.root):
                orbit.add(img.root)
    computed = {r.root for r in positive_roots(a2)}
    assert computed == orbit
    assert len(computed) == 3


@pytest.mark.parametrize(
    "label,count,order",
    [("A1", 1, 2), ("A2", 3, 6), ("C2", 4, 8), ("B3", 9, 48), ("G2", 6, 12), ("D4", 12, 192)],
)
def test_classical_counts(label, count, order):
    datum = build_cartan_datum(label)
    assert len(positive_roots(datum)) == count
    assert len(weyl_group(datum)) == order


def test_weyl_group_c2(c2):
    group = weyl_group(c2)
    # a sequence of views: its length, indexing, the identity first, by length
    assert len(group) == 8 and list(group) == [group[k] for k in range(8)]
    assert group[0].is_identity() and group[0].sign == 1 and group[0].word == ()
    assert [len(w.word) for w in group] == [0, 1, 1, 2, 2, 3, 3, 4]
    assert sum(1 for w in group if w.sign == -1) == 4
    longest = max(group, key=lambda w: len(w.word))
    assert len(longest.word) == 4
    # the longest element sends the dominant cone to its negative
    for fw in [(1, 0), (0, 1), (3, 2)]:
        img = act_vector(longest, fw)
        assert all(c <= 0 for c in img)


def test_weyl_group_is_a_read_only_value(c2):
    """The tree's arrays refuse writes, it compares and hashes as a value,
    and copy and pickle rebuild it and its views."""
    group = weyl_group(c2)
    for name in ("images", "parents", "letters", "lengths"):
        with pytest.raises(TypeError):
            getattr(group, name)[1] = 0
    again = weyl_group(c2)
    assert again == group and hash(again) == hash(group)
    back = pickle.loads(pickle.dumps(group))
    assert back == group and [w.word for w in back] == [w.word for w in group]
    assert [w.rho_image for w in back] == [w.rho_image for w in group]
    view = group[5]
    for twin in (copy.copy(view), copy.deepcopy(view), pickle.loads(pickle.dumps(view))):
        assert twin == view and hash(twin) == hash(view)
        assert (twin.word, twin.sign) == (view.word, view.sign)


def test_weyl_group_a2_signs(a2):
    group = weyl_group(a2)
    assert len(group) == 6
    assert sum(1 for w in group if w.sign == -1) == 3


def test_simple_reflection_action(c2):
    group = weyl_group(c2)
    s1 = next(w for w in group if w.word == (0,))
    omega1 = c2.weight((1, 0))
    image = act(c2, s1, omega1)
    assert image == omega1 - c2.weight(c2.matrix[0])
    assert c2.realization.to_ambient(image.fw) == (Fraction(0), Fraction(1))  # epsilon_2


def test_action_fixes_origin_and_negates_own_root(c2):
    group = weyl_group(c2)
    zero = c2.zero_weight()
    for w in group:
        assert act(c2, w, zero) == zero
    s2 = next(w for w in group if w.word == (1,))
    alpha2 = c2.weight(c2.matrix[1])
    assert act(c2, s2, alpha2) == -alpha2


def test_chamber_position(c2):
    assert chamber_position(c2.rho) == "interior"
    assert chamber_position(c2.zero_weight()) == "boundary"
    eps2 = partition_weight(c2, 0, 1)
    assert eps2.fw == (-1, 1)
    assert chamber_position(eps2) == "outside"


def test_dominant_shift_stays_in_positive_root_cone(c2, a2):
    # mu + rho - w(mu + rho) has nonnegative integer root coordinates
    for datum in (c2, a2):
        group = weyl_group(datum)
        for fw in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 3)]:
            mu = datum.weight(fw)
            shifted = mu + datum.rho
            for w in group:
                diff = shifted - act(datum, w, shifted)
                assert all(c >= 0 and c.denominator == 1 for c in diff.root)


def test_sign_is_a_homomorphism_and_involutions(c2):
    # rho is regular, so an element is determined by its image of rho
    group = weyl_group(c2)
    by_image = {w.rho_image: w for w in group}
    assert len(by_image) == len(group)
    for u in group:
        for v in group:
            prod = by_image[act_vector(u, v.rho_image)]
            assert prod.sign == u.sign * v.sign
    for i in range(c2.rank):
        s = next(w for w in group if w.word == (i,))
        assert act_vector(s, s.rho_image) == group[0].rho_image


@given(fw=st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
@settings(max_examples=60, deadline=None)
def test_chamber_is_fundamental_domain(fw):
    datum = build_cartan_datum("C2")
    group = weyl_group(datum)
    beta = datum.weight(fw)
    orbit = {act(datum, w, beta) for w in group}
    dominant = [b for b in orbit if b.is_dominant()]
    assert len(dominant) == 1


def test_inverse_element(c2):
    group = weyl_group(c2)
    for w in group:
        inv = inverse_element(w)
        fw = (2, 5)
        assert act_vector(inv, act_vector(w, fw)) == fw


def test_act_vector_matches_weight_action(c2):
    group = weyl_group(c2)
    mu = c2.weight((2, 1))
    for w in group:
        assert act_vector(w, tuple(Fraction(c) for c in mu.fw)) == tuple(
            Fraction(c) for c in act(c2, w, mu).fw
        )


def test_root_coordinate_denominators_divide_det(c2, a2):
    for datum in (c2, a2):
        for fw in [(1, 0), (0, 1), (3, 2), (-2, 5)]:
            w = datum.weight(fw)
            assert all(datum.det % c.denominator == 0 for c in w.root)
            # and the two coordinate systems agree through the inverse map
            assert datum.fw_from_root(w.root) == tuple(Fraction(c) for c in w.fw)


@pytest.mark.parametrize("label,count", [("F4", 24), ("E6", 36), ("E7", 63), ("E8", 120)])
def test_exceptional_positive_root_counts(label, count):
    datum = build_cartan_datum(label)
    assert len(positive_roots(datum)) == count


@pytest.mark.parametrize("spec", [
    "A3", "B3", "C3", "D4", "G2", "F4",
    [[2, -1], [-3, 2]],
    [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
])
def test_weyl_order_closed_form_matches_enumeration(spec):
    datum = build_cartan_datum(spec)
    assert weyl_order(datum) == len(weyl_group(datum))


@pytest.mark.parametrize("label,order", [("E6", 51840), ("E7", 2903040), ("E8", 696729600)])
def test_weyl_order_of_e_types(label, order):
    """Too slow (E6) or over the group budget (E7, E8) to check by enumeration."""
    assert weyl_order(build_cartan_datum(label)) == order


def test_d6_group_and_one_read_of_every_word_stay_small():
    """The D6 group's tree, then one pass reading each element's word length
    and sign, as the benchmark's ``weyl_group`` job does: at most 4 MiB
    traced at the peak (9.6 MiB when each element kept its word tuple)."""
    datum = build_cartan_datum("D6")
    tracemalloc.start()
    try:
        group = weyl_group(datum)
        lengths = [len(w.word) for w in group]
        sign_sum = sum(w.sign for w in group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(group), sign_sum, max(lengths), lengths.count(30)) == (23040, 0, 30, 1)
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_weyl_group_over_budget_fails_before_enumerating(monkeypatch):
    with pytest.raises(ResourceBudgetError, match="2903040"):
        weyl_group(build_cartan_datum("E7"))
    monkeypatch.setattr(cartan, "DEFAULT_WEYL_BUDGET", 100)
    with pytest.raises(ResourceBudgetError, match="over the budget 100") as info:
        weyl_group(build_cartan_datum("D4"))
    assert info.value.partial_count == 0
