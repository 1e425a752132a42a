"""``TauPoint.sum_powers``, the one exact evaluator of sums of powers of tau,
against ``oracles.reference_power``, one ``Fraction`` power per coordinate.

Random exponent sets (negative exponents, zero columns, equal columns, mixed
integral and fractional columns, one term and none) on A2, C2, G2 and B3 and
README's C2 module, with ``tau_roots`` full, partial and absent.  Its callers
``power``, ``ExponentPolynomial.evaluate``, ``_twisted_stay`` and
``build_distribution`` raise the same errors as before on the module without
``tau_roots``; so does the evaluation of the oracle ``normalizer_poly``.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylwalk.cartan import act, build_cartan_datum
from weylwalk.charalg import CharacterAlgebra, ExponentPolynomial, TauPoint, tau_point
from weylwalk.crystal import ModuleSpec
from weylwalk.errors import ExactEvaluationError
from weylwalk.markov import build_distribution

from oracles import normalizer_poly, reference_power, reference_sum_powers

DATA = {label: build_cartan_datum(label) for label in ("A2", "C2", "G2", "B3")}
POSITIVE = st.fractions(min_value=F(1, 9), max_value=F(3, 2), max_denominator=9)


@st.composite
def points(draw, datum):
    """A tau point whose D-th roots are all given, some of them, or none."""
    roots_given = draw(st.sampled_from(["full", "partial", "absent"]))
    values, roots = [], []
    for _ in range(datum.rank):
        if roots_given == "full" or (roots_given == "partial" and draw(st.booleans())):
            u = draw(POSITIVE)
            values.append(u ** datum.det)
            roots.append(u)
        else:
            values.append(draw(POSITIVE))
            roots.append(None)
    return TauPoint(tuple(values), datum.det, None if roots_given == "absent" else tuple(roots))


@st.composite
def exponent_sets(draw, rank, d):
    """(coefficients, exponent vectors in units of 1/d), built column by column."""
    terms = draw(st.integers(0, 6))
    columns = []
    for _ in range(rank):
        kind = draw(st.sampled_from(["zero", "equal", "integral", "any"]))
        if kind == "zero":
            columns.append([0] * terms)
        elif kind == "equal":
            columns.append([draw(st.integers(-4 * d, 4 * d))] * terms)
        elif kind == "integral":
            columns.append([d * draw(st.integers(-4, 4)) for _ in range(terms)])
        else:
            columns.append([draw(st.integers(-4 * d, 4 * d)) for _ in range(terms)])
    coeff = st.one_of(st.integers(-5, 5), st.fractions(F(-3), F(3), max_denominator=5))
    coeffs = [draw(coeff) for _ in range(terms)]
    return coeffs, [list(row) for row in zip(*columns)] if terms else []


def _agree(fast, oracle):
    """The same exact Fraction from both, or the same error message."""
    try:
        expected = oracle()
    except ExactEvaluationError as err:
        with pytest.raises(ExactEvaluationError) as fast_err:
            fast()
        assert str(fast_err.value) == str(err)
        return
    got = fast()
    assert type(got) is F and got == expected


def _draw_case(data):
    datum = DATA[data.draw(st.sampled_from(sorted(DATA)))]
    tau = data.draw(points(datum))
    coeffs, exponents = data.draw(exponent_sets(datum.rank, datum.det))
    return tau, coeffs, exponents


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_powers_equals_reference(data):
    tau, coeffs, exponents = _draw_case(data)
    _agree(lambda: tau.sum_powers(coeffs, exponents),
           lambda: reference_sum_powers(tau, coeffs, exponents))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_power_and_evaluate_equal_reference(data):
    tau, coeffs, exponents = _draw_case(data)
    as_fractions = [tuple(F(n, tau.d) for n in e) for e in exponents]
    for e in as_fractions:
        _agree(lambda: tau.power(e), lambda: reference_power(tau, e))
    poly = ExponentPolynomial(dict(zip(as_fractions, coeffs)))
    _agree(lambda: poly.evaluate(tau),
           lambda: sum((c * reference_power(tau, e) for e, c in poly.terms.items()), F(0)))


def test_empty_sums_are_zero():
    tau = tau_point(DATA["C2"], [F(1, 4), F(1, 9)])
    assert tau.sum_powers([], []) == 0 and type(tau.sum_powers([], [])) is F
    assert ExponentPolynomial().evaluate(tau) == 0


# --- README's C2 module: V(omega_1) + V(omega_2), half-integral exponents -------------

C2 = DATA["C2"]
README_MODULE = ModuleSpec(((C2.weight((1, 0)), 1), (C2.weight((0, 1)), 1)))
README_POINTS = {
    "full": tau_point(C2, [F(1, 4), F(1, 9)], roots=[F(1, 2), F(1, 3)]),
    "partial u_1": tau_point(C2, [F(1, 4), F(1, 9)], roots=[F(1, 2), None]),
    "partial u_2": tau_point(C2, [F(1, 4), F(1, 9)], roots=[None, F(1, 3)]),
    "absent": tau_point(C2, [F(1, 4), F(1, 9)]),
}


@pytest.mark.parametrize("roots_given", sorted(README_POINTS))
def test_module_step_exponents_equal_reference(roots_given):
    """The step law's exponents r - wt and their Weyl twists, all at once and
    one term at a time."""
    tau = README_POINTS[roots_given]
    r = README_MODULE.reference
    algebra = CharacterAlgebra(C2)
    steps = [r - wt for kappa, _ in README_MODULE.summands
             for wt in algebra.cache.get(kappa).weights]
    for w in algebra.group:
        exponents = [list(act(C2, w, e).scaled) for e in steps]
        coeffs = list(range(1, len(exponents) + 1))
        _agree(lambda: tau.sum_powers(coeffs, exponents),
               lambda: reference_sum_powers(tau, coeffs, exponents))
        for e in exponents:
            _agree(lambda: tau.sum_powers([1], [e]),
                   lambda: reference_sum_powers(tau, [1], [e]))


def test_module_without_roots_raises_the_same_messages():
    """Each caller of the evaluator names the exponent that needs a missing
    root, the first one term by term, as each did before the evaluator."""
    tau = README_POINTS["absent"]
    algebra = CharacterAlgebra(C2)
    cases = [
        (lambda: tau.power((F(1, 2), 1)), "1/2"),
        (lambda: tau.power((0, F(-3, 2))), "-3/2"),
        (lambda: normalizer_poly(algebra, README_MODULE).evaluate(tau), "-1/2"),
        (lambda: build_distribution(algebra, README_MODULE, tau), "-1/2"),
    ]
    mu = C2.zero_weight()
    counts, ell_r, _ = algebra._branching(mu, README_MODULE, README_POINTS["full"], 2)
    first = next(iter(algebra.group))
    cases.append((lambda: algebra._twisted_stay(mu, counts, ell_r, F(1), tau, first), "-3/2"))
    for call, exponent in cases:
        with pytest.raises(ExactEvaluationError) as err:
            call()
        assert str(err.value) == f"fractional exponent {exponent} needs 2-th roots of tau"


def test_power_refuses_an_exponent_off_the_lattice_before_evaluating():
    tau = README_POINTS["absent"]
    for exponent in [(F(1, 3), F(1, 2)), (F(1, 2), F(1, 3))]:
        with pytest.raises(ExactEvaluationError, match=r"^exponent 1/3 is not a multiple of 1/2$"):
            tau.power(exponent)
    with pytest.raises(ExactEvaluationError, match="not a multiple"):
        ExponentPolynomial({(F(1, 2), 0): 1, (F(1, 3), 0): 1}).evaluate(tau)
