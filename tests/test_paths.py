import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylwalk import paths as P
from weylwalk.errors import FormatError, IntegralityError

from oracles import all_raising_null, ladder_apply_f, value_at


def test_collinear_segments_merge(c2):
    path = P.canonical_path(
        [0, Fraction(1, 2), 1],
        [(0, 0), (Fraction(1, 2), 0), (1, 0)],
    )
    assert path.num_segments == 1
    assert path.times == (Fraction(0), Fraction(1))
    assert path.endpoint() == (Fraction(1), Fraction(0))


def test_gamma12_canonical_breakpoints(c2, c2_paths):
    g = c2_paths["gamma12"]
    assert g.num_segments == 2
    assert g.times == (Fraction(0), Fraction(1, 2), Fraction(1))
    # the two segments point in genuinely different directions
    d1, d2 = g.displacements()
    assert d1 != d2


def test_zero_length_segment_dropped():
    path = P.canonical_path(
        [0, Fraction(1, 3), Fraction(2, 3), 1],
        [(0, 0), (1, 0), (1, 0), (1, 1)],
    )
    assert path.num_segments == 2


def test_bad_raw_paths_rejected():
    with pytest.raises(FormatError):
        P.canonical_path([0, Fraction(1, 2), Fraction(1, 2)], [(0, 0), (1, 0), (1, 1)])
    with pytest.raises(FormatError):
        P.canonical_path([0, 1], [(1, 0), (2, 0)])


def test_concat_neutral_and_endpoint(c2, c2_paths):
    pi1 = c2_paths["pi1"]
    const = P.straight_path((0, 0))
    assert P.concat(pi1, const) == pi1
    assert P.concat(const, pi1) == pi1
    both = P.concat(pi1, c2_paths["pibar1"])
    assert both.endpoint() == (Fraction(0), Fraction(0))
    assert both.num_segments == 2  # opposite directions do not merge


_POOL = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (0, 0)]


@given(st.lists(st.sampled_from(_POOL), min_size=1, max_size=6),
       st.lists(st.sampled_from(_POOL), min_size=1, max_size=6),
       st.lists(st.sampled_from(_POOL), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_concat_associative_in_canonical_form(d1, d2, d3):
    p1 = P.from_displacements([tuple(map(Fraction, d)) for d in d1], dim=2)
    p2 = P.from_displacements([tuple(map(Fraction, d)) for d in d2], dim=2)
    p3 = P.from_displacements([tuple(map(Fraction, d)) for d in d3], dim=2)
    assert P.concat(P.concat(p1, p2), p3) == P.concat(p1, P.concat(p2, p3))


@given(st.lists(st.sampled_from(_POOL), min_size=1, max_size=7))
@settings(max_examples=80, deadline=None)
def test_canonicalization_idempotent(disps):
    p = P.from_displacements([tuple(map(Fraction, d)) for d in disps], dim=2)
    again = P.canonical_path(p.times, p.points)
    assert again == p


def test_height_extrema(c2, c2_paths):
    m, wit = P.height_function_extrema(c2_paths["pi1"], 0)
    assert m == 0 and wit == (Fraction(0),)
    m, wit = P.height_function_extrema(P.straight_path((0, 0)), 0)
    assert m == 0
    m, wit = P.height_function_extrema(c2_paths["pibar1"], 0)
    assert m == -1 and wit == (Fraction(1),)


def test_lowering_chain_b_pi1(c2, c2_paths):
    p = c2_paths
    assert P.apply_f(c2, p["pi1"], 0) == p["pi2"]
    assert P.apply_f(c2, p["pi2"], 1) == p["pibar2"]
    assert P.apply_f(c2, p["pibar2"], 0) == p["pibar1"]
    assert P.apply_f(c2, p["pibar1"], 0) is None
    assert P.apply_f(c2, p["pibar1"], 1) is None
    assert P.apply_f(c2, p["pi1"], 1) is None


def test_lowering_chain_b_gamma12(c2, c2_paths):
    p = c2_paths
    assert P.apply_f(c2, p["gamma12"], 1) == p["gamma1bar2"]
    assert P.apply_f(c2, p["gamma1bar2"], 0) == p["gamma2bar2"]
    assert P.apply_f(c2, p["gamma2bar2"], 0) == p["gamma2bar1"]
    assert P.apply_f(c2, p["gamma2bar1"], 1) == p["gammabar2bar1"]
    assert P.apply_f(c2, p["gamma12"], 0) is None
    assert P.apply_f(c2, p["gammabar2bar1"], 0) is None
    assert P.apply_f(c2, p["gammabar2bar1"], 1) is None
    # the loop path starts and ends at the origin
    loop = p["gamma2bar2"]
    assert loop.points[0] == loop.points[-1] == (Fraction(0), Fraction(0))


def test_two_step_lowering_example(c2, c2_paths):
    step1 = P.apply_f(c2, c2_paths["gamma12"], 1)
    step2 = P.apply_f(c2, step1, 0)
    assert step2 == c2_paths["gamma2bar2"]


def test_raising_inverts_goldens(c2, c2_paths):
    p = c2_paths
    assert P.apply_e(c2, p["pi2"], 0) == p["pi1"]
    assert P.apply_e(c2, p["gamma1bar2"], 1) == p["gamma12"]
    assert P.apply_e(c2, None, 0) is None
    assert P.apply_f(c2, None, 0) is None


def _all_nodes(*crystals):
    for crystal in crystals:
        for node in crystal.nodes:
            yield crystal.datum, node


def test_involution_on_crystal_nodes(b_pi1, b_gamma12):
    for datum, node in _all_nodes(b_pi1, b_gamma12):
        for i in range(datum.rank):
            down = P.apply_f(datum, node, i)
            if down is not None:
                assert P.apply_e(datum, down, i) == node
            up = P.apply_e(datum, node, i)
            if up is not None:
                assert P.apply_f(datum, up, i) == node


def test_endpoint_shift(b_pi1, b_gamma12):
    for datum, node in _all_nodes(b_pi1, b_gamma12):
        alpha = [tuple(Fraction(a) for a in datum.matrix[i]) for i in range(datum.rank)]
        for i in range(datum.rank):
            up = P.apply_e(datum, node, i)
            if up is not None:
                assert up.endpoint() == tuple(a + b for a, b in zip(node.endpoint(), alpha[i]))
            down = P.apply_f(datum, node, i)
            if down is not None:
                assert down.endpoint() == tuple(a - b for a, b in zip(node.endpoint(), alpha[i]))


def _union_times(p1, p2):
    return sorted(set(p1.times) | set(p2.times))


def test_monotone_height_dominance(b_pi1, b_gamma12):
    for datum, node in _all_nodes(b_pi1, b_gamma12):
        for i in range(datum.rank):
            up = P.apply_e(datum, node, i)
            if up is not None:
                for t in _union_times(node, up):
                    assert value_at(up, t)[i] >= value_at(node, t)[i]
            down = P.apply_f(datum, node, i)
            if down is not None:
                for t in _union_times(node, down):
                    assert value_at(down, t)[i] <= value_at(node, t)[i]


def test_lowering_difference_is_increasing_root_multiple(b_pi1, b_gamma12):
    for datum, node in _all_nodes(b_pi1, b_gamma12):
        for i in range(datum.rank):
            down = P.apply_f(datum, node, i)
            if down is None:
                continue
            alpha = tuple(Fraction(a) for a in datum.matrix[i])
            gs = []
            for t in _union_times(node, down):
                diff = tuple(a - b for a, b in zip(value_at(node, t), value_at(down, t)))
                # diff must be a scalar multiple of alpha_i
                g = diff[i] / alpha[i]
                assert diff == tuple(g * a for a in alpha)
                gs.append(g)
            assert gs[0] == 0 and gs[-1] == 1
            assert all(a <= b for a, b in zip(gs, gs[1:]))


def test_highest_criterion(b_pi1, b_gamma12):
    for datum, node in _all_nodes(b_pi1, b_gamma12):
        assert all_raising_null(datum, node) == P.is_dominant_path(node)


def test_eps_phi_goldens(c2, c2_paths):
    assert P.eps_phi(c2_paths["pi1"], 0) == (0, 1)
    assert P.eps_phi(c2_paths["pi1"], 1) == (0, 0)
    assert P.eps_phi(c2_paths["gamma2bar2"], 0) == (1, 1)
    for i in range(2):
        assert P.eps_phi(c2_paths["gamma12"], i)[0] == 0


def test_path_weight(c2, c2_paths):
    assert P.path_weight(c2, c2_paths["pi2"]).fw == (-1, 1)
    assert P.path_weight(c2, P.straight_path((0, 0))).fw == (0, 0)
    assert P.path_weight(c2, c2_paths["gamma2bar2"]).fw == (0, 0)
    bad = P.canonical_path([0, 1], [(0, 0), (Fraction(1, 2), 0)])
    with pytest.raises(IntegralityError):
        P.path_weight(c2, bad)


def test_weight_equals_phi_minus_eps(b_pi1, b_gamma12):
    for crystal in (b_pi1, b_gamma12):
        datum = crystal.datum
        for idx in range(len(crystal)):
            expect = tuple(
                crystal.phi[idx][i] - crystal.eps[idx][i] for i in range(datum.rank)
            )
            assert crystal.weights[idx].fw == expect


def test_path_literal_roundtrip(c2, c2_paths):
    g = c2_paths["gamma12"]
    for basis in ("ambient", "fw", "root"):
        literal = P.path_to_literal(c2, g, basis=basis)
        assert P.path_from_literal(c2, literal, basis=basis) == g


def test_operator_properties_on_adjoint_crystal(c2, c2_algebra):
    """Richer path shapes: loops through the cone wall and flat plateaus."""
    crystal = c2_algebra.cache.get(c2.weight((2, 0)))
    alpha = [tuple(Fraction(a) for a in c2.matrix[i]) for i in range(2)]
    for node in crystal.nodes:
        for i in range(2):
            down = P.apply_f(c2, node, i)
            if down is not None:
                assert P.apply_e(c2, down, i) == node
                assert down.endpoint() == tuple(
                    a - b for a, b in zip(node.endpoint(), alpha[i])
                )
                for t in sorted(set(node.times) | set(down.times)):
                    assert value_at(down, t)[i] <= value_at(node, t)[i]
            up = P.apply_e(c2, node, i)
            if up is not None:
                assert P.apply_f(c2, up, i) == node
        assert all_raising_null(c2, node) == P.is_dominant_path(node)


def test_operators_on_plateau_path(c2):
    """A flat stretch sitting exactly at the height minimum."""
    # fw breakpoints (0,0) -> (-1,0) -> (-1,1) -> (0,1): height one plateaus at -1
    eta = P.canonical_path([0, Fraction(1, 3), Fraction(2, 3), 1],
                           [(0, 0), (-1, 0), (-1, 1), (0, 1)])
    up = P.apply_e(c2, eta, 0)
    assert up is not None
    assert up.endpoint() == (Fraction(2), Fraction(0))
    assert P.apply_f(c2, up, 0) == eta
    assert P.apply_e(c2, up, 0) is None  # minimum rose to zero
    down = P.apply_f(c2, eta, 0)  # final height sits exactly at min + 1
    assert down is not None
    assert down.endpoint() == (Fraction(-2), Fraction(2))
    assert P.apply_e(c2, down, 0) == eta


_MOVES = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1), (2, -1), (-2, 1)]


@given(st.lists(st.sampled_from(_MOVES), min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_operator_involution_on_random_integral_paths(moves):
    """Integer breakpoints make every height minimum integral, so the
    raising and lowering operators must invert each other everywhere."""
    from weylwalk import build_cartan_datum

    datum = build_cartan_datum("C2")
    path = P.from_displacements([tuple(map(Fraction, m)) for m in moves], dim=2)
    for i in range(2):
        down = P.apply_f(datum, path, i)
        if down is not None:
            assert P.apply_e(datum, down, i) == path
            alpha = tuple(Fraction(a) for a in datum.matrix[i])
            assert down.endpoint() == tuple(
                a - b for a, b in zip(path.endpoint(), alpha)
            )
        up = P.apply_e(datum, path, i)
        if up is not None:
            assert P.apply_f(datum, up, i) == path
        # null guards as specified
        h = path.heights(i)
        assert (up is None) == (min(h) > -1)
        assert (down is None) == (h[-1] < min(h) + 1)


def _iterate(datum, op, path, i):
    n, cur = 0, op(datum, path, i)
    while cur is not None:
        n, cur = n + 1, op(datum, cur, i)
    return n


def _check_rational_path(datum, path):
    assert P.dual(P.dual(path)) == path
    for i in range(datum.rank):
        counts = (_iterate(datum, P.apply_e, path, i), _iterate(datum, P.apply_f, path, i))
        assert counts == P.eps_phi(path, i)
        up = P.apply_e(datum, path, i)
        if up is not None:
            assert P.apply_f(datum, up, i) == path
        down = P.apply_f(datum, path, i)
        if down is not None:
            assert P.apply_e(datum, down, i) == path


@pytest.mark.parametrize("label", ["C2", "G2", "B3"])
def test_operators_invert_each_other_on_rational_paths(label):
    """Off the lattice the height minima are not integral; e_i = * f_i * must
    still apply eps_i times and undo f_i, whatever the seed."""
    from weylwalk import build_cartan_datum

    datum = build_cartan_datum(label)
    for seed in range(10):
        rng = random.Random(seed)
        for _ in range(60):
            steps = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(datum.rank))
                     for _ in range(rng.randint(1, 4))]
            _check_rational_path(datum, P.from_displacements(steps, dim=datum.rank))


def test_raising_with_a_half_integral_minimum(c2):
    """i-heights 0, -1, -1/2, -3/2: eps = 1, so e applies once and f undoes it."""
    path = P.from_displacements([(-1, 0), (Fraction(1, 2), 0), (-1, 0)], dim=2)
    assert path.heights(0) == [0, -1, Fraction(-1, 2), Fraction(-3, 2)]
    assert P.eps_phi(path, 0) == (1, 0)
    up = P.apply_e(c2, path, 0)
    assert up is not None and P.apply_e(c2, up, 0) is None
    assert P.apply_f(c2, up, 0) == path
    _check_rational_path(c2, path)


@pytest.mark.parametrize("label", ["C2", "G2", "B3"])
def test_closed_form_lowering_equals_ladder_on_rational_paths(label):
    """The later-minimum rule and the window-and-ladder are one operator, on
    paths whose heights have denominators up to 6."""
    from weylwalk import build_cartan_datum

    datum = build_cartan_datum(label)
    applied = 0
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(200):
            steps = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                           for _ in range(datum.rank))
                     for _ in range(rng.randint(1, 8))]
            path = P.from_displacements(steps, dim=datum.rank)
            for i in range(datum.rank):
                down = P.apply_f(datum, path, i)
                assert down == ladder_apply_f(datum, path, i)
                applied += down is not None
    assert applied > 200 * datum.rank  # a good share of pairs reach the non-null branch


@pytest.mark.parametrize("label,kappa", [("C2", (2, 1)), ("G2", (1, 1)), ("B3", (1, 0, 1))])
def test_closed_form_lowering_equals_ladder_on_crystals(label, kappa):
    from weylwalk import CrystalGraph, build_cartan_datum

    datum = build_cartan_datum(label)
    crystal = CrystalGraph(datum, P.straight_path(datum.weight(kappa).fw))
    for node in crystal.nodes:
        for i in range(datum.rank):
            assert P.apply_f(datum, node, i) == ladder_apply_f(datum, node, i)
