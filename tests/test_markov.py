import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from weylwalk import build_cartan_datum
from weylwalk import paths as P
from weylwalk import markov as M
from weylwalk.cartan import WeylElement, act_vector, unit_vectors
from weylwalk.charalg import CharacterAlgebra, in_unit_cube, tau_point
from weylwalk.crystal import CrystalGraph, ModuleSpec, TensorNode, tensor_apply_e, tensor_eps_phi
from weylwalk.errors import DomainError, HarmonicityError, WeylwalkError

from conftest import partition_weight
from oracles import (
    brute_force_restricted,
    drift_profile,
    inverse_element,
    is_minuscule,
    per_node_twisted_probability,
    probability_of,
    twisted_distribution_probabilities,
    twisted_drift_endpoint,
    twisted_walk_transition,
    walk_transition,
    weyl_action_on_node,
)

F = Fraction


@pytest.fixture()
def dist10(c2, c2_algebra, tau_half):
    return M.build_distribution(c2_algebra, c2.weight((1, 0)), tau_half)


@pytest.fixture()
def tau_mod(c2):
    return tau_point(c2, [F(1, 4), F(1, 9)], roots=[F(1, 2), F(1, 3)])


@pytest.fixture()
def dist_mod(c2, c2_algebra, tau_mod):
    spec = ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((0, 1)), 1)))
    return M.build_distribution(c2_algebra, spec, tau_mod)


def test_vector_distribution_golden(dist10):
    probs = [e.probability for e in dist10.entries]
    assert probs == [F(8, 15), F(4, 15), F(2, 15), F(1, 15)]
    assert sum(probs) == 1


def test_single_node_distribution(c2, c2_algebra, tau_half):
    dist = M.build_distribution(c2_algebra, c2.zero_weight(), tau_half)
    assert [e.probability for e in dist.entries] == [F(1)]


def test_module_distribution_matches_display(c2, dist_mod, tau_mod):
    """The nine step probabilities of the eight-neighbor walk, as displayed."""
    t1 = tau_mod.values[0]
    r2 = tau_mod.roots[1]  # sqrt of tau_2
    sigma = dist_mod.normalizer
    display = {
        (1, 0): 1 / (t1 * r2), (-1, 1): 1 / r2, (1, -1): r2, (-1, 0): t1 * r2,
        (0, 1): 1 / (t1 * r2 * r2), (2, -1): 1 / t1, (0, 0): F(1),
        (-2, 1): t1, (0, -1): t1 * r2 * r2,
    }
    for e in dist_mod.entries:
        fw = e.crystal.weights[e.node].fw
        assert e.probability == display[fw] / sigma
    assert sum(e.probability for e in dist_mod.entries) == 1


def test_distribution_invariant_under_isomorphism(c2, c2_algebra, tau_half):
    omega2 = c2.weight((0, 1))
    from_straight = M.build_distribution(c2_algebra, omega2, tau_half)
    gamma_crystal = CrystalGraph(
        c2, P.canonical_path([0, F(1, 2), 1], [(0, 0), (1, 0), (0, 1)])
    )
    by_weight_a = sorted((e.crystal.weights[e.node].fw, e.probability) for e in from_straight.entries)
    probs_b = sorted(
        (gamma_crystal.weights[i].fw,
         tau_half.power((gamma_crystal.kappa - gamma_crystal.weights[i]).root)
         / c2_algebra.character_value(omega2, tau_half))
        for i in range(len(gamma_crystal))
    )
    assert by_weight_a == probs_b


def test_walk_transition(c2, dist10, dist_mod):
    zero = c2.zero_weight()
    kappa = c2.weight((1, 0))
    # step by the highest weight has a single contributing node
    assert walk_transition(dist10, zero, kappa) == F(8, 15)
    # unreachable increment
    assert walk_transition(dist10, zero, c2.weight((3, 3))) == 0
    # module: the only weight-zero step is the loop node, mass a2/Sigma
    assert walk_transition(dist_mod, kappa, kappa) == 1 / dist_mod.normalizer
    # rows sum to one over the reachable increments
    eta = c2.weight((2, 1))
    increments = {e.crystal.weights[e.node] for e in dist_mod.entries}
    total = sum(walk_transition(dist_mod, eta, eta + d) for d in increments)
    assert total == 1


def test_restricted_golden_and_row_sum(c2, c2_algebra, dist10, tau_half):
    zero = c2.zero_weight()
    kappa = c2.weight((1, 0))
    assert dist10.restricted_transition(zero, kappa) == F(8, 15)
    # no other dominant target from the origin
    row = dist10.multiplicity_row(zero)
    assert set(row) == {kappa}
    # row sum equals the one-step stay probability
    assert sum(dist10.restricted_transition(zero, lam) for lam in row) == \
        c2_algebra.psi_ell(zero, kappa, tau_half, 1)


def test_restricted_row_sums_to_one_deep_inside(c2, dist10):
    mu = partition_weight(c2, 4, 2)
    row = dist10.multiplicity_row(mu)
    assert sum(dist10.restricted_transition(mu, lam) for lam in row) == 1


def test_restricted_matches_brute_force(c2, dist10, dist_mod):
    states = [partition_weight(c2, a, b) for a in range(4) for b in range(a + 1)]
    for dist in (dist10, dist_mod):
        for mu in states:
            for lam in states:
                assert dist.restricted_transition(mu, lam) == brute_force_restricted(dist, mu, lam)


def test_doob_identity_and_harmonicity(c2, c2_algebra, dist10, tau_half):
    states = M.state_closure(dist10, [c2.zero_weight()], inside=M.coordinate_box(3))
    table = M.restricted_table(dist10, states, strict=False)
    psi_vals = {s: c2_algebra.psi(s, tau_half) for s in states}
    transformed = M.doob_transform(table, psi_vals)  # harmonicity checked inside
    hc = M.hchain_matrix(dist10, states, strict=False)
    assert transformed.rows == hc.rows
    assert transformed.row_complete == hc.row_complete
    assert any(transformed.row_complete)


def test_harmonicity_directly_on_full_rows(c2, c2_algebra, dist10, tau_half):
    # no truncation: the row support is finite, sum it in full
    for a in range(4):
        for b in range(a + 1):
            mu = partition_weight(c2, a, b)
            row = dist10.multiplicity_row(mu)
            total = sum(
                dist10.restricted_transition(mu, lam) * c2_algebra.psi(lam, tau_half)
                for lam in row
            )
            assert total == c2_algebra.psi(mu, tau_half)


def test_doob_trivial_and_scaled(c2, c2_algebra, dist10, tau_half):
    states = M.state_closure(dist10, [c2.zero_weight()], inside=M.coordinate_box(3))
    hc = M.hchain_matrix(dist10, states, strict=False)
    ones = {s: F(1) for s in states}
    assert M.doob_transform(hc, ones).rows == hc.rows  # h == 1 leaves it alone
    table = M.restricted_table(dist10, states, strict=False)
    psi_vals = {s: c2_algebra.psi(s, tau_half) for s in states}
    scaled = {s: 7 * v for s, v in psi_vals.items()}
    assert M.doob_transform(table, psi_vals).rows == M.doob_transform(table, scaled).rows


def test_doob_rejects_non_harmonic(c2, dist10):
    states = M.state_closure(dist10, [c2.zero_weight()], inside=M.coordinate_box(3))
    table = M.restricted_table(dist10, states, strict=False)
    bad = {s: F(1) for s in states}
    with pytest.raises(HarmonicityError) as err:
        M.doob_transform(table, bad)
    assert err.value.defect is not None and err.value.defect != 0


def _conditioned(dist, states):
    """Entries of the conditioned kernel on the states: the psi-Doob transform
    of the restricted table, keyed by (mu, lam)."""
    table = M.restricted_table(dist, states, strict=False)
    doob = M.doob_transform(table, M.psi_harmonic_witness(dist, table))
    return {(mu, lam): p for mu, row in zip(doob.states, doob.rows)
            for lam, p in zip(doob.states, row)}


def test_conditioned_equals_hchain(c2, dist10, dist_mod):
    states = [partition_weight(c2, a, b) for a in range(4) for b in range(a + 1)]
    for dist in (dist10, dist_mod):
        conditioned = _conditioned(dist, states)
        for mu in states:
            for lam in states:
                assert conditioned[(mu, lam)] == M.hchain_entry(dist, mu, lam)


def test_conditioned_corner_cases(c2, dist10, dist_mod):
    zero = c2.zero_weight()
    states = [partition_weight(c2, a, b) for a in range(4) for b in range(a + 1)]
    # no self-loop at the origin for the vector representation
    assert _conditioned(dist10, states)[(zero, zero)] == 0
    # strictly dominant self-loop carries exactly the loop-node mass a2/Sigma
    mu = partition_weight(c2, 2, 1)
    assert _conditioned(dist_mod, states)[(mu, mu)] == 1 / dist_mod.normalizer


def test_hchain_origin_row(c2, dist10):
    zero = c2.zero_weight()
    kappa = c2.weight((1, 0))
    assert M.hchain_entry(dist10, zero, kappa) == 1


def test_module_closing_display(c2, c2_algebra, dist_mod, tau_mod, b_pi1, b_gamma12):
    """Transformed kernel against the closed display in partition coordinates."""
    from weylwalk.crystal import count_multiplicity

    t1 = tau_mod.values[0]
    r2 = tau_mod.roots[1]
    sigma = dist_mod.normalizer
    parts = [(a, b) for a in range(4) for b in range(a + 1)]
    for p_mu in parts:
        for p_lam in parts:
            mu = partition_weight(c2, *p_mu)
            lam = partition_weight(c2, *p_lam)
            m1 = count_multiplicity(mu, b_pi1).get(lam, 0)
            m2 = count_multiplicity(mu, b_gamma12).get(lam, 0)
            psi_mu = c2_algebra.psi(mu, tau_mod)
            psi_lam = c2_algebra.psi(lam, tau_mod)
            display = (
                psi_lam / (psi_mu * sigma) * (m1 + m2)
                * t1 ** (p_mu[0] - p_lam[0])
                * r2 ** (p_mu[0] + p_mu[1] - p_lam[0] - p_lam[1])
            )
            assert M.hchain_entry(dist_mod, mu, lam) == display


# --- twisting ---------------------------------------------------------------------


def test_twisted_tau_identity_and_a1(c2, a1, tau_half):
    from weylwalk import weyl_group

    ident = weyl_group(c2)[0]
    assert M.twisted_tau(c2, ident, tau_half) == tau_half.values
    a1_group = weyl_group(a1)
    s = max(a1_group, key=lambda w: len(w.word))
    tau = tau_point(a1, [F(1, 3)])
    assert M.twisted_tau(a1, s, tau) == (F(3),)


def test_twisted_tau_leaves_cube_c2_a2(c2, a2):
    from weylwalk import weyl_group

    for datum in (c2, a2):
        tau = tau_point(datum, [F(1, 2), F(1, 3)])
        for w in weyl_group(datum):
            inside = in_unit_cube(M.twisted_tau(datum, w, tau))
            assert inside == w.is_identity()


def test_twisted_law_is_permuted_law(c2, c2_algebra, tau_half, b_pi1, b_gamma12):
    from weylwalk import weyl_group

    group = weyl_group(c2)
    for crystal in (b_pi1, b_gamma12):
        dist = M.build_distribution(c2_algebra, crystal.kappa, tau_half)
        S = c2_algebra.character_value(crystal.kappa, tau_half)
        for w in group:
            for idx in range(len(crystal)):
                img = weyl_action_on_node(crystal, w, idx)
                p_img = tau_half.power((crystal.kappa - crystal.weights[img]).root) / S
                assert M.twisted_node_probability(dist, w, crystal, idx) == p_img


@pytest.mark.parametrize("label,summands,tau,roots", [
    ("A2", [((1, 1), 1)], [F(1, 2), F(1, 3)], None),  # adjoint: weight 0 twice
    ("C2", [((1, 0), 1)], [F(1, 2), F(1, 3)], None),
    ("G2", [((1, 0), 1)], [F(1, 2), F(1, 3)], None),
    ("B3", [((0, 0, 1), 1)], [F(1, 2), F(1, 3), F(1, 5)], None),
    ("C2", [((1, 0), 1), ((0, 1), 2)], [F(1, 4), F(1, 9)], [F(1, 2), F(1, 3)]),
])
def test_twisted_law_matches_per_node_formula(label, summands, tau, roots):
    """The per-w law equals the per-node formula at every w and node."""
    datum = build_cartan_datum(label)
    algebra = CharacterAlgebra(datum)
    spec = ModuleSpec(tuple((datum.weight(fw), m) for fw, m in summands))
    dist = M.build_distribution(algebra, spec, tau_point(datum, tau, roots))
    for w in algebra.group:
        law = M.twisted_law(dist, w)
        for e in dist.entries:
            oracle = per_node_twisted_probability(dist, w, e.crystal, e.node)
            assert law[(e.crystal.kappa, e.crystal.weights[e.node])] == oracle
            assert M.twisted_node_probability(dist, w, e.crystal, e.node) == oracle


@pytest.mark.parametrize("label,kappas,tau,roots", [
    ("C2", [(1, 0), (0, 1)], [F(1, 4), F(1, 4)], [None, F(1, 2)]),
    ("B3", [(1, 0, 0), (0, 0, 1)], [F(1, 4), F(1, 3), F(1, 4)], [F(1, 2), None, F(1, 2)]),
])
def test_twisted_law_with_partial_roots(label, kappas, tau, roots):
    """A source whose law needs only some D-th roots twists at every w: w(e)
    needs the roots that e needs.  A tau^w point would lack some of them."""
    datum = build_cartan_datum(label)
    algebra = CharacterAlgebra(datum)
    spec = ModuleSpec(tuple((datum.weight(fw), 1) for fw in kappas))
    dist = M.build_distribution(algebra, spec, tau_point(datum, tau, roots))
    for w in algebra.group:
        law = M.twisted_law(dist, w)
        assert sum(law[(c.kappa, wt)] for c, _ in dist.crystals for wt in c.weights) == 1
        for crystal, idx, p in twisted_distribution_probabilities(dist, w):
            assert law[(crystal.kappa, crystal.weights[idx])] == p


# (type, summands, tau, tau_roots): two minuscule sources, then C2's adjoint
# (2,0) with a zero weight of multiplicity 2, G2's 7 nodes with a zero weight,
# B3's 21 nodes with i-strings of two arrows and a zero weight of multiplicity
# 3, and the C2 module (1,0) + 2 (0,1) that needs tau_roots
WALK_SOURCES = [
    ("A2", [((1, 0), 1)], ["1/2", "1/3"], None),
    ("C2", [((1, 0), 1)], ["1/2", "1/3"], None),
    ("C2", [((2, 0), 1)], ["1/2", "1/3"], None),
    ("G2", [((1, 0), 1)], ["1/2", "1/3"], None),
    ("B3", [((0, 1, 0), 1)], ["1/2", "1/3", "1/4"], None),
    ("C2", [((1, 0), 1), ((0, 1), 2)], ["1/4", "1/9"], ["1/2", "1/3"]),
]


def _walk_source(label, summands, tau, roots):
    datum = build_cartan_datum(label)
    spec = ModuleSpec(tuple((datum.weight(fw), m) for fw, m in summands))
    return M.build_distribution(CharacterAlgebra(datum), spec, tau_point(datum, tau, roots))


@pytest.mark.parametrize("label,summands,tau,roots", WALK_SOURCES)
def test_twisted_walk_matches_the_word_oracles(label, summands, tau, roots):
    """At every element, the walk's images, node permutations and law equal
    w's word applied one letter at a time: ``act_vector``,
    ``weyl_action_on_node``, ``twisted_law`` and the permuted law
    ``twisted_distribution_probabilities``."""
    dist = _walk_source(label, summands, tau, roots)
    datum = dist.datum
    group = dist.algebra.group
    for w, (images, perms) in zip(group, M._twisted_walk(dist), strict=True):
        assert images == [act_vector(w, u) for u in unit_vectors(datum.rank)]
        for (crystal, _), perm in zip(dist.crystals, perms, strict=True):
            assert list(perm) == [weyl_action_on_node(crystal, w, b) for b in range(len(crystal))]
        law = M._law_at(dist, datum.twist(images))
        assert law == M.twisted_law(dist, w)
        for crystal, idx, p in twisted_distribution_probabilities(dist, w):
            assert law[(crystal.kappa, crystal.weights[idx])] == p
    assert list(M.twisted_checks(dist)) == [("twisted tau outside ]0,1[^n unless w=1", True),
                                            ("twisted law equals permuted law", True)]


def test_sums_over_w_read_no_word(monkeypatch):
    """``twisted_checks`` and ``master_identity_sides`` walk the orbit tree:
    on D4 (1,0,0,0), |W| = 192, neither reads one element's word."""
    d4 = build_cartan_datum("D4")
    algebra = CharacterAlgebra(d4)
    kappa, tau = d4.weight((1, 0, 0, 0)), tau_point(d4, ["1/2", "1/3", "1/4", "1/5"])
    dist = M.build_distribution(algebra, kappa, tau)
    group = algebra.group
    reads = []
    spelled = WeylElement.word.fget
    monkeypatch.setattr(WeylElement, "word", property(lambda w: reads.append(w) or spelled(w)))
    assert all(ok for _, ok in M.twisted_checks(dist))
    left, right = algebra.master_identity_sides(d4.zero_weight(), kappa, tau, 3)
    assert left != 0 and left == right
    assert reads == []
    assert group[5].word and len(reads) == 1  # the spy sees a read


def test_twisted_walk_transition_formula(c2, c2_algebra, dist10, tau_half):
    """Kernel formula against the definition via the permuted step law."""
    from weylwalk import weyl_group

    group = weyl_group(c2)
    crystal = dist10.crystals[0][0]
    twisted = {w: twisted_distribution_probabilities(dist10, w) for w in group}
    etas = [c2.weight(fw) for fw in [(0, 0), (1, 0), (2, 1)]]
    for w in group:
        probs = {crystal.weights[i].fw: p for _, i, p in twisted[w]}
        for eta in etas:
            for inc in {crystal.weights[i] for i in range(len(crystal))}:
                beta = eta + inc
                assert twisted_walk_transition(dist10, w, eta, beta) == probs[inc.fw]


# --- Pitman transform ----------------------------------------------------------------


def test_pitman_fixes_highest(c2, dist10, b_pi1):
    node = TensorNode(((b_pi1, 0), (b_pi1, 0)))
    assert M.pitman(c2, node) == node
    assert M.pitman(c2, b_pi1.nodes[0]) == b_pi1.nodes[0]


def test_pitman_single_factor(c2, b_pi1):
    raised = M.pitman(c2, TensorNode(((b_pi1, 3),)))
    assert raised.factors[0][1] == 0  # up to the highest path
    assert M.pitman(c2, b_pi1.nodes[3]) == b_pi1.nodes[0]


def test_pitman_weight_zero_pair(c2, b_pi1):
    idx = {w.fw: k for k, w in enumerate(b_pi1.weights)}
    highest_pair = TensorNode(((b_pi1, idx[(1, 0)]), (b_pi1, idx[(-1, 0)])))
    assert M.pitman(c2, highest_pair) == highest_pair  # already all-raising-null
    # the reversed pair climbs to the doubled weight, like the rank-one
    # reflection transform of a down-up excursion
    reversed_pair = TensorNode(((b_pi1, idx[(-1, 0)]), (b_pi1, idx[(1, 0)])))
    raised = M.pitman(c2, reversed_pair)
    assert sum((c.weights[i] for c, i in raised.factors), c2.zero_weight()).fw == (2, 0)
    assert raised.path() == M.pitman(c2, reversed_pair.path())


def test_pitman_is_unique_null_node_and_order_free(c2, b_pi1):
    rng = random.Random(7)
    nodes = list(iproduct(range(4), repeat=2)) + [
        tuple(rng.randrange(4) for _ in range(3)) for _ in range(12)
    ]
    for combo in nodes:
        node = TensorNode(tuple((b_pi1, i) for i in combo))
        raised = M.pitman(c2, node)
        assert all(tensor_eps_phi(raised, i)[0] == 0 for i in range(2))
        # random raising orders land on the same node
        for _ in range(3):
            cur = node
            while True:
                live = [i for i in range(2) if tensor_eps_phi(cur, i)[0] > 0]
                if not live:
                    break
                cur = tensor_apply_e(cur, rng.choice(live))
            assert cur == raised
        # path-level agreement
        assert raised.path() == M.pitman(c2, node.path())


def test_pitman_prefix_consistency(c2, b_pi1):
    rng = random.Random(11)
    combos = list(iproduct(range(4), repeat=2)) + [
        tuple(rng.randrange(4) for _ in range(3)) for _ in range(10)
    ]
    for combo in combos:
        node = TensorNode(tuple((b_pi1, i) for i in combo))
        hs = M.pitman_prefix_weights(c2, node)
        for k in range(1, len(combo) + 1):
            prefix_path = TensorNode(node.factors[:k]).path()
            raised_path = M.pitman(c2, prefix_path)
            assert raised_path.endpoint() == tuple(F(c) for c in hs[k - 1])


# --- drift ----------------------------------------------------------------------------


def test_drift_golden(c2, dist10):
    m1 = dist10.drift_endpoint()
    assert m1 == (F(1, 3), F(2, 15))
    assert c2.realization.to_ambient(m1) == (F(7, 15), F(2, 15))


def test_drift_interior_at_random_tau(c2, c2_algebra):
    rng = random.Random(20240809)
    kappa = c2.weight((1, 0))
    for _ in range(10):
        tau = tau_point(c2, [F(rng.randint(1, 9), 10), F(rng.randint(1, 9), 10)])
        dist = M.build_distribution(c2_algebra, kappa, tau)
        m1 = dist.drift_endpoint()
        assert all(c > 0 for c in m1)  # interior in fw coordinates


def test_twisted_drift_outside_cone(c2, c2_algebra, dist10):
    from weylwalk import weyl_group

    group = weyl_group(c2)
    m1 = dist10.drift_endpoint()
    for w in group:
        w_inv = inverse_element(w)
        twisted = twisted_drift_endpoint(dist10, w_inv)
        # matches the permuted-law expectation
        perm = twisted_distribution_probabilities(dist10, w)
        crystal = dist10.crystals[0][0]
        direct = tuple(
            sum((p * F(crystal.weights[i].fw[k]) for _, i, p in perm), F(0))
            for k in range(2)
        )
        assert twisted == direct
        if w.is_identity():
            assert all(c > 0 for c in twisted)
        else:
            assert any(c < 0 for c in twisted)


def test_a1_drift_formula(a1, a1_algebra):
    tau = tau_point(a1, [F(1, 3)])
    dist = M.build_distribution(a1_algebra, a1.weight((1,)), tau)
    t = F(1, 3)
    assert dist.drift_endpoint() == ((1 - t) / (1 + t),)


def test_drift_profile_endpoint(c2, dist10):
    profile = drift_profile(dist10)
    assert profile[0][1] == (F(0), F(0))
    assert profile[-1][1] == dist10.drift_endpoint()


# --- table plumbing -------------------------------------------------------------------


def test_table_exports(c2, dist10):
    states = M.state_closure(dist10, [c2.zero_weight()], inside=M.coordinate_box(2))
    table = M.restricted_table(dist10, states, strict=False)
    csv = table.to_csv()
    assert csv.splitlines()[0].startswith("state,complete")
    import json

    payload = json.loads(table.to_json())
    assert payload["kind"] == "substochastic"
    assert len(payload["rows"]) == len(states)


def test_table_validation():
    from weylwalk import build_cartan_datum
    from weylwalk.markov import TransitionTable

    datum = build_cartan_datum("A1")
    s = (datum.weight((0,)), datum.weight((1,)))
    with pytest.raises(WeylwalkError) as bad:
        TransitionTable(s, ((F(1, 2), F(-1, 2)), (F(0), F(1))), "stochastic")
    assert not isinstance(bad.value, DomainError)
    with pytest.raises(WeylwalkError) as bad:
        TransitionTable(s, ((F(1, 2), F(1, 4)), (F(0), F(1))), "stochastic")
    assert not isinstance(bad.value, DomainError)
    TransitionTable(s, ((F(1, 2), F(1, 4)), (F(0), F(1))), "substochastic")


def test_strict_closure_raises(c2, dist10):
    from weylwalk.errors import ClosureError

    states = [c2.zero_weight(), c2.weight((1, 0))]
    with pytest.raises(ClosureError):
        M.restricted_table(dist10, states, strict=True)


@pytest.mark.parametrize("label,tau_vals", [("B3", ("1/2", "1/3", "1/4")), ("G2", ("1/3", "1/4"))])
def test_psi_harmonic_across_types(label, tau_vals):
    """The exit-free probability balances the restricted kernel beyond rank 2."""
    from weylwalk import build_cartan_datum
    from weylwalk.charalg import CharacterAlgebra, in_unit_cube, tau_point

    datum = build_cartan_datum(label)
    algebra = CharacterAlgebra(datum)
    tau = tau_point(datum, [F(v) for v in tau_vals])
    kappa = datum.weight((1,) + (0,) * (datum.rank - 1))
    dist = M.build_distribution(algebra, kappa, tau)
    for mu_fw in [(0,) * datum.rank, (1,) + (0,) * (datum.rank - 1)]:
        mu = datum.weight(mu_fw)
        row = dist.multiplicity_row(mu)
        total = sum(
            dist.restricted_transition(mu, lam) * algebra.psi(lam, tau) for lam in row
        )
        assert total == algebra.psi(mu, tau)


def test_psi_harmonic_witness(c2, c2_algebra, dist10, tau_half):
    states = M.state_closure(dist10, [c2.zero_weight()], inside=M.coordinate_box(3))
    table = M.restricted_table(dist10, states, strict=False)
    witness = M.psi_harmonic_witness(dist10, table)
    assert witness[c2.zero_weight()] == F(21, 128)
    M.check_harmonic(table, witness)  # must not raise
    assert M.doob_transform(table, witness).kind == "stochastic"


@pytest.fixture()
def dist_adjoint(c2, c2_algebra):
    """Ten-node source with a multiplicity-two zero weight."""
    return M.build_distribution(
        c2_algebra, c2.weight((2, 0)), tau_point(c2, [F(1, 2), F(1, 3)])
    )


def test_adjoint_crystal_shape(c2, dist_adjoint):
    crystal = dist_adjoint.crystals[0][0]
    assert len(crystal) == 10
    counts = {w.fw: n for w, n in crystal.weight_counts().items()}
    assert counts[(0, 0)] == 2
    assert crystal.kappa0().fw == (1, 1)
    assert not is_minuscule(crystal)


def test_adjoint_zero_weight_step_mass(c2, dist_adjoint):
    # the two distinct loop nodes both feed the null increment
    crystal = dist_adjoint.crystals[0][0]
    zero_nodes = [i for i, w in enumerate(crystal.weights) if w.fw == (0, 0)]
    assert len(zero_nodes) == 2
    eta = c2.weight((3, 1))
    expect = sum(probability_of(dist_adjoint, crystal, i) for i in zero_nodes)
    assert walk_transition(dist_adjoint, eta, eta) == expect


def test_adjoint_harmonicity_and_law_equality(c2, c2_algebra, dist_adjoint):
    tau = dist_adjoint.tau
    inner = [c2.weight((a, b)) for a in range(4) for b in range(4 - a)]
    reached = {lam for mu in inner for lam in dist_adjoint.multiplicity_row(mu)}
    conditioned = _conditioned(dist_adjoint, sorted(reached | set(inner), key=lambda s: s.fw))
    for a in range(4):
        for b in range(4 - a):
            mu = c2.weight((a, b))
            row = dist_adjoint.multiplicity_row(mu)
            total = sum(
                dist_adjoint.restricted_transition(mu, lam) * c2_algebra.psi(lam, tau)
                for lam in row
            )
            assert total == c2_algebra.psi(mu, tau)
            for lam in row:
                assert conditioned[(mu, lam)] == M.hchain_entry(dist_adjoint, mu, lam)
                assert dist_adjoint.restricted_transition(mu, lam) == \
                    brute_force_restricted(dist_adjoint, mu, lam)


def test_adjoint_twisted_law_permutation(c2, c2_algebra, dist_adjoint):
    crystal = dist_adjoint.crystals[0][0]
    tau = dist_adjoint.tau
    S = c2_algebra.character_value(crystal.kappa, tau)
    for w in c2_algebra.group:
        for idx in range(len(crystal)):
            img = weyl_action_on_node(crystal, w, idx)
            p_img = tau.power((crystal.kappa - crystal.weights[img]).root) / S
            assert M.twisted_node_probability(dist_adjoint, w, crystal, idx) == p_img


def test_exactness_near_cube_boundary(c2, c2_algebra):
    """Large-denominator tau: everything stays exact, drift stays interior."""
    tau = tau_point(c2, [F(99, 100), F(97, 100)])
    dist = M.build_distribution(c2_algebra, c2.weight((1, 0)), tau)
    assert sum(e.probability for e in dist.entries) == 1
    m1 = dist.drift_endpoint()
    assert all(c > 0 for c in m1)
    mu = c2.weight((1, 1))
    row = dist.multiplicity_row(mu)
    total = sum(
        dist.restricted_transition(mu, lam) * c2_algebra.psi(lam, tau) for lam in row
    )
    assert total == c2_algebra.psi(mu, tau)
