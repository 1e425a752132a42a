from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylwalk import build_cartan_datum
from weylwalk import paths as P
from weylwalk.cartan import act
from weylwalk.charalg import CharacterAlgebra, ExponentPolynomial, tau_point, tau_point_from_roots
from weylwalk.crystal import ModuleSpec
from weylwalk.errors import DomainError, ExactEvaluationError

from conftest import partition_weight
from oracles import (
    character_product_identity,
    normalizer_poly,
    pi_ell_w,
    poly_product,
    poly_sum,
    power_twisted_stay,
    weyl_character_product,
)

F = Fraction


def poly(terms):
    return ExponentPolynomial({tuple(map(F, e)): F(c) for e, c in terms.items()})


def test_character_goldens(c2, c2_algebra):
    S10 = c2_algebra.character_poly(c2.weight((1, 0)))
    assert S10 == poly({(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1})
    S11 = c2_algebra.character_poly(c2.weight((0, 1)))
    assert S11 == poly({(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1, (2, 2): 1})
    S0 = c2_algebra.character_poly(c2.zero_weight())
    assert S0 == ExponentPolynomial({(0, 0): 1})


def test_character_constant_term_and_positivity(c2, c2_algebra, tau_half):
    for fw in [(1, 0), (0, 1), (2, 1)]:
        p = c2_algebra.character_poly(c2.weight(fw))
        assert p.terms[(F(0), F(0))] == 1
        assert all(e[0] >= 0 and e[1] >= 0 and e[0].denominator == 1 for e in p.terms)
        assert p.evaluate(tau_half) > 0


def test_weyl_numerator_a1(a1, a1_algebra):
    num = a1_algebra.weyl_numerator(a1.zero_weight())
    assert num == ExponentPolynomial({(F(0),): F(1), (F(1),): F(-1)})


def test_weyl_numerator_c2_origin(c2, c2_algebra):
    num = c2_algebra.weyl_numerator(c2.zero_weight())
    expect = poly({
        (0, 0): 1, (1, 2): 1, (4, 3): 1, (3, 1): 1,
        (1, 0): -1, (0, 1): -1, (4, 2): -1, (3, 3): -1,
    })
    assert num == expect


def test_weyl_numerator_regular_orbit_distinct(c2, c2_algebra):
    num = c2_algebra.weyl_numerator(c2.weight((3, 2)))
    assert len(num.terms) == 8
    assert num.terms[(F(0), F(0))] == 1


# the eight-term symbolic expansion: (sign, exponent of t1, exponent of t2),
# each exponent an affine map (coeff of p1, coeff of p2, constant) in the
# partition coordinates p1 >= p2 of mu
EIGHT_TERM_DISPLAY = [
    (+1, (0, 0, 0), (0, 0, 0)),
    (+1, (1, -1, 1), (1, 0, 2)),
    (+1, (2, 0, 4), (1, 1, 3)),
    (+1, (1, 1, 3), (0, 1, 1)),
    (-1, (1, -1, 1), (0, 0, 0)),
    (-1, (0, 0, 0), (0, 1, 1)),
    (-1, (2, 0, 4), (1, 0, 2)),
    (-1, (1, 1, 3), (1, 1, 3)),
]


def test_symbolic_eight_term_display(c2, c2_algebra):
    """The orbit-sum exponents as affine functions of the partition coords."""
    group = c2_algebra.group
    rho = c2.rho

    def exponent_for(w, p1, p2):
        mu = partition_weight(c2, p1, p2)
        shifted = mu + rho
        return (shifted - act(c2, w, shifted)).root

    computed = []
    for w in group:
        base = exponent_for(w, 0, 0)
        d1 = tuple(a - b for a, b in zip(exponent_for(w, 1, 0), base))
        d2 = tuple(a - b for a, b in zip(exponent_for(w, 1, 1), exponent_for(w, 1, 0)))
        # affine coefficients must be exact over a larger probe as well
        probe = exponent_for(w, 5, 3)
        assert probe == tuple(5 * x + 3 * y + c for x, y, c in zip(d1, d2, base))
        computed.append(
            (w.sign,
             (int(d1[0]), int(d2[0]), int(base[0])),
             (int(d1[1]), int(d2[1]), int(base[1])))
        )
    assert sorted(computed) == sorted(EIGHT_TERM_DISPLAY)


def test_psi_product_equals_numerator(c2, a2, c2_algebra, a2_algebra):
    for datum, algebra in ((c2, c2_algebra), (a2, a2_algebra)):
        for fw in [(0, 0), (1, 0), (1, 1)]:
            mu = datum.weight(fw)
            assert algebra.psi_poly(mu) == weyl_character_product(algebra, mu)


def test_psi_poly_refuses_non_dominant_weights(c2, c2_algebra):
    """The orbit walk from a singular mu + rho would give a wrong signed sum."""
    for fw in [(-1, 0), (0, -1), (-1, -1)]:
        with pytest.raises(DomainError):
            c2_algebra.psi_poly(c2.weight(fw))


def test_psi_value_golden(c2, c2_algebra, tau_half):
    assert c2_algebra.psi(c2.zero_weight(), tau_half) == F(21, 128)


def test_psi_outside_region_rejected(c2, c2_algebra):
    bad = tau_point(c2, [F(3, 2), F(1, 2)])
    with pytest.raises(DomainError):
        c2_algebra.psi(c2.zero_weight(), bad)


def test_a1_psi_geometric(a1, a1_algebra):
    tau = tau_point(a1, [F(1, 3)])
    for k in range(6):
        mu = a1.weight((k,))
        # S is the geometric sum, psi telescopes to 1 - tau^{k+1}
        assert a1_algebra.character_value(mu, tau) == sum(F(1, 3) ** j for j in range(k + 1))
        assert a1_algebra.psi(mu, tau) == 1 - F(1, 3) ** (k + 1)
        assert a1_algebra.psi_poly(mu) == ExponentPolynomial(
            {(F(0),): F(1), (F(k + 1),): F(-1)}
        )


# --- finite-horizon quantities ---------------------------------------------------


def test_psi_ell_trivial_and_first_step(c2, c2_algebra, tau_half):
    zero = c2.zero_weight()
    kappa = c2.weight((1, 0))
    assert c2_algebra.psi_ell(zero, kappa, tau_half, 0) == 1
    # single step must stay dominant: only the highest node survives
    assert c2_algebra.psi_ell(zero, kappa, tau_half, 1) == F(8, 15)
    assert c2_algebra.psi_ell(zero, kappa, tau_half, 1) == 1 / c2_algebra.character_value(
        kappa, tau_half
    )


def _psi_ell_enumeration(algebra, dist_nodes, mu, tau, ell):
    """Oracle: full scan of the tensor power with path-level cone tests."""
    datum = algebra.datum
    start = tuple(F(c) for c in mu.fw)
    total = F(0)
    for combo in iproduct(dist_nodes, repeat=ell):
        prob = F(1)
        for _, p in combo:
            prob *= p
        path = P.concat_all([n for n, _ in combo])
        if path.stays_in_cone(start):
            total += prob
    return total


def test_psi_ell_against_enumeration(c2, c2_algebra, tau_half, b_pi1):
    zero = c2.zero_weight()
    kappa = c2.weight((1, 0))
    S = c2_algebra.character_value(kappa, tau_half)
    nodes = [
        (b_pi1.nodes[i], tau_half.power((b_pi1.kappa - b_pi1.weights[i]).root) / S)
        for i in range(len(b_pi1))
    ]
    for ell in (1, 2, 3, 4):
        oracle = _psi_ell_enumeration(c2_algebra, nodes, zero, tau_half, ell)
        assert c2_algebra.psi_ell(zero, kappa, tau_half, ell) == oracle


def test_psi_ell_monotone_and_bounded_below_by_psi(c2, c2_algebra, tau_half):
    zero = c2.zero_weight()
    kappa = c2.weight((1, 0))
    psi = c2_algebra.psi(zero, tau_half)
    values = [c2_algebra.psi_ell(zero, kappa, tau_half, ell) for ell in range(6)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v >= psi for v in values)


# --- module normalizer -------------------------------------------------------------


def test_sigma_m_value_golden(c2, c2_algebra):
    """Sigma_M = tau^{-r} N_r, here for V(omega_1), whose r is omega_1."""
    spec = ModuleSpec(((c2.weight((1, 0)), 1),))
    tau = tau_point(c2, [F(1, 2), F(1, 4)], roots=[None, F(1, 2)])
    shift = tau.power((-spec.reference).root)
    assert shift * c2_algebra.normalizer(spec, tau) == F(27, 4)


def test_sigma_m_single_summand_reduces(c2, c2_algebra):
    """One summand: N_r is S_kappa, so Sigma_M is tau^{-kappa} S_kappa."""
    spec = ModuleSpec(((c2.weight((0, 1)), 1),))
    tau = tau_point(c2, [F(1, 4), F(1, 9)], roots=[F(1, 2), F(1, 3)])
    kappa = c2.weight((0, 1))
    assert spec.reference == kappa
    assert c2_algebra.normalizer(spec, tau) == c2_algebra.character_value(kappa, tau)


def test_sigma_m_missing_roots(c2, c2_algebra):
    """Several summands: r = 0, so N_r is Sigma_M, and tau^{-omega_1} needs
    the root of tau_2."""
    spec = ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((0, 1)), 1)))
    assert spec.reference == c2.zero_weight()
    tau = tau_point(c2, [F(1, 2), F(1, 2)])
    with pytest.raises(ExactEvaluationError):
        c2_algebra.normalizer(spec, tau)


def _sigma_display_poly(a1_mult, a2_mult):
    # the two displayed numerators over t1*sqrt(t2) and t1*t2 respectively
    vector_terms = [(0, 0), (1, 0), (1, 1), (2, 1)]
    adjoint_terms = [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
    terms = {}
    for a, b in vector_terms:
        e = (F(a) - 1, F(b) - F(1, 2))
        terms[e] = terms.get(e, 0) + a1_mult
    for a, b in adjoint_terms:
        e = (F(a) - 1, F(b) - 1)
        terms[e] = terms.get(e, 0) + a2_mult
    return ExponentPolynomial({e: F(c) for e, c in terms.items()})


@pytest.mark.parametrize("a1_mult,a2_mult", [(1, 1), (2, 3)])
def test_sigma_m_symbolic_display(c2, c2_algebra, a1_mult, a2_mult):
    spec = ModuleSpec(((c2.weight((1, 0)), a1_mult), (c2.weight((0, 1)), a2_mult)))
    # several summands: r = 0, and N_r is Sigma_M
    assert normalizer_poly(c2_algebra, spec) == _sigma_display_poly(a1_mult, a2_mult)


# --- twisted relations ----------------------------------------------------------------


def test_character_twist_relation(c2, a2, c2_algebra, a2_algebra):
    """S_kappa at the twisted point picks up exactly tau^{w(kappa)-kappa}."""
    from weylwalk.markov import twisted_tau

    for datum, algebra in ((c2, c2_algebra), (a2, a2_algebra)):
        tau = tau_point(datum, [F(1, 2), F(1, 3)])
        for kappa_fw in [(1, 0), (0, 1), (1, 1)]:
            kappa = datum.weight(kappa_fw)
            S = algebra.character_poly(kappa)
            base = S.evaluate(tau)
            for w in algebra.group:
                tw = tau_point(datum, twisted_tau(datum, w, tau))
                shift = (act(datum, w, kappa) - kappa).root
                assert S.evaluate(tw) == tau.power(shift) * base


def test_master_identity(c2, a2, c2_algebra, a2_algebra, tau_half):
    cases = [
        (c2, c2_algebra, tau_half, (1, 0)),
        (a2, a2_algebra, tau_point(a2_stub := a2, [F(1, 2), F(1, 3)]), (1, 0)),
    ]
    for datum, algebra, tau, kappa_fw in cases:
        kappa = datum.weight(kappa_fw)
        for mu_fw in [(0, 0), (1, 0)]:
            mu = datum.weight(mu_fw)
            for ell in (1, 2, 3):
                left, right = algebra.master_identity_sides(mu, kappa, tau, ell)
                assert left == right


def test_twisted_term_factorization(c2, c2_algebra, tau_half):
    """Direct alternating-sum terms equal the twisted-walk factorization."""
    datum = c2
    algebra = c2_algebra
    kappa = datum.weight((1, 0))
    rho = datum.rho
    from weylwalk.crystal import count_f_multiplicity

    for mu_fw in [(0, 0), (1, 0)]:
        mu = datum.weight(mu_fw)
        for ell in (1, 2):
            counts = count_f_multiplicity(
                datum, mu, [(algebra.cache.get(kappa), 1)], ell
            )
            S = algebra.character_value(kappa, tau_half)
            for w in algebra.group:
                direct = F(0)
                for lam, f in counts.items():
                    expo = tuple(
                        ell * k + r
                        for k, r in zip(
                            kappa.root,
                            ((rho + mu) - act(datum, w, lam + rho)).root,
                        )
                    )
                    direct += f * tau_half.power(expo)
                direct /= S**ell
                assert direct == pi_ell_w(algebra, mu, kappa, tau_half, ell, w)


def test_character_product_identity_powers(c2, c2_algebra, a2, a2_algebra):
    for ell in (2, 3):
        assert character_product_identity(c2_algebra, c2.weight((1, 0)), c2.weight((1, 0)), ell)
        assert character_product_identity(a2_algebra, a2.weight((0, 0)), a2.weight((1, 0)), ell)
    spec = ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((0, 1)), 1)))
    assert character_product_identity(c2_algebra, c2.weight((1, 0)), spec, 2)


def test_tau_point_root_validation(c2):
    with pytest.raises(DomainError):
        tau_point(c2, [F(1, 2), F(1, 4)], roots=[F(1, 2), F(1, 3)])
    tp = tau_point_from_roots(c2, [F(1, 2), F(1, 3)])
    assert tp.values == (F(1, 4), F(1, 9))


# exponent pools of the oracle ring check: C2 on a grid, and the terms of the
# normalizer of README's C2 module V(omega_1) + V(omega_2); without tau_roots
# only integral exponents can be evaluated
_C2 = build_cartan_datum("C2")
_README_MODULE = ModuleSpec(((_C2.weight((1, 0)), 1), (_C2.weight((0, 1)), 1)))
_GRID = [(F(a, 2), F(b, 2)) for a in range(-4, 5) for b in range(-4, 5)]
RING_POOLS = {
    "C2": _GRID,
    "README module": list(normalizer_poly(CharacterAlgebra(_C2), _README_MODULE).terms),
}
UNIT = st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9)
COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@pytest.mark.parametrize("roots", [True, False], ids=["tau_roots", "no roots"])
@pytest.mark.parametrize("pool", sorted(RING_POOLS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_oracle_ring_evaluates_to_the_ring_of_values(pool, roots, data):
    """The oracles' sum and product of two term tables evaluate to the sum and
    product of the tables' values."""
    exponents = [e for e in RING_POOLS[pool] if roots or all(x.denominator == 1 for x in e)]
    a, b = [ExponentPolynomial({e: data.draw(COEFF) for e in data.draw(
        st.lists(st.sampled_from(exponents), max_size=5, unique=True))}) for _ in range(2)]
    coords = [data.draw(UNIT) for _ in range(_C2.rank)]
    tau = tau_point_from_roots(_C2, coords) if roots else tau_point(_C2, coords)
    assert poly_sum(a, b).evaluate(tau) == a.evaluate(tau) + b.evaluate(tau)
    assert poly_product(a, b).evaluate(tau) == a.evaluate(tau) * b.evaluate(tau)


def test_master_identity_module_variant(c2, c2_algebra):
    """The alternating finite-horizon identity for a two-summand source."""
    spec = ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((0, 1)), 1)))
    tau = tau_point(c2, [F(1, 4), F(1, 9)], roots=[F(1, 2), F(1, 3)])
    for mu_fw in [(0, 0), (1, 0)]:
        mu = c2.weight(mu_fw)
        for ell in (1, 2):
            left, right = c2_algebra.master_identity_sides(mu, spec, tau, ell)
            assert left == right


@pytest.mark.parametrize("label", ["B3", "G2"])
def test_psi_product_equals_numerator_higher_types(label):
    from weylwalk import build_cartan_datum
    from weylwalk.charalg import CharacterAlgebra

    datum = build_cartan_datum(label)
    algebra = CharacterAlgebra(datum)
    for fw in [(0,) * datum.rank, (1,) + (0,) * (datum.rank - 1)]:
        mu = datum.weight(fw)
        assert algebra.psi_poly(mu) == weyl_character_product(algebra, mu)


# --- the finite-horizon stay sum against one TauPoint.power per endpoint -------------


def _stay_source(name):
    """Datum, source, tau and start of a stay-sum case."""
    if name == "C2 module":
        datum = build_cartan_datum("C2")
        source = ModuleSpec(((datum.weight((1, 0)), 1), (datum.weight((0, 1)), 2)))
        return datum, source, tau_point(datum, [F(1, 4), F(1, 9)], roots=[F(1, 2), F(1, 3)])
    if name == "B3 module":
        # omega_1 + omega_3: the two summands lie in different cosets of the
        # root lattice, so exponents are half-integral and need the roots
        datum = build_cartan_datum("B3")
        source = ModuleSpec(((datum.weight((1, 0, 0)), 1), (datum.weight((0, 0, 1)), 1)))
        return datum, source, tau_point_from_roots(datum, [F(1, 2), F(2, 3), F(1, 2)])
    label, fw = {"B3 spin": ("B3", (0, 0, 1)), "G2 (1,0)": ("G2", (1, 0))}[name]
    datum = build_cartan_datum(label)
    return datum, datum.weight(fw), tau_point(datum, [F(1, 2)] + [F(2, 5)] * (datum.rank - 1))


@pytest.mark.parametrize("name", ["C2 module", "B3 spin", "B3 module", "G2 (1,0)"])
def test_twisted_stay_equals_power_oracle(name):
    datum, source, tau = _stay_source(name)
    algebra = CharacterAlgebra(datum)
    for mu in (datum.zero_weight(), datum.weight((1,) + (0,) * (datum.rank - 1))):
        for ell in (1, 2, 3, 4):
            counts, ell_r, norm = algebra._branching(mu, source, tau, ell)
            assert norm == algebra.normalizer(source, tau) ** ell
            for w in algebra.group:
                assert (algebra._twisted_stay(mu, counts, ell_r, norm, tau, w)
                        == power_twisted_stay(algebra, mu, counts, ell_r, norm, tau, w))


def test_twisted_stay_raises_without_roots():
    """A fractional exponent on a coordinate without a root raises, with the
    message TauPoint.power gives at the first such exponent."""
    datum, source, rooted = _stay_source("C2 module")
    algebra = CharacterAlgebra(datum)
    mu = datum.zero_weight()
    counts, ell_r, _ = algebra._branching(mu, source, rooted, 2)
    for tau in (tau_point(datum, [F(1, 4), F(1, 9)]),
                tau_point(datum, [F(1, 4), F(1, 9)], roots=[F(1, 2), None])):
        for w in algebra.group:
            with pytest.raises(ExactEvaluationError) as oracle:
                power_twisted_stay(algebra, mu, counts, ell_r, F(1), tau, w)
            with pytest.raises(ExactEvaluationError) as fast:
                algebra._twisted_stay(mu, counts, ell_r, F(1), tau, w)
            assert str(fast.value) == str(oracle.value)
