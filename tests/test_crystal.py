from fractions import Fraction

import pytest

from weylwalk import crystal as C
from weylwalk import paths as P
from weylwalk import weyl_group
from weylwalk.cartan import act
from weylwalk.crystal import (
    CrystalCache,
    CrystalGraph,
    ModuleSpec,
    TensorNode,
    count_f_multiplicity,
    count_multiplicity,
    module_multiplicity,
    tensor_apply_e,
    tensor_apply_f,
    tensor_eps_phi,
)
from weylwalk.errors import ResourceBudgetError, WeylwalkError

from conftest import lit, partition_weight
from oracles import (
    canonical_signature,
    character_product_identity,
    enumerate_f_multiplicity,
    is_minuscule,
    tensor_is_highest,
)


def test_b_pi1_golden(c2, c2_paths, b_pi1):
    expect = [c2_paths[k] for k in ("pi1", "pi2", "pibar2", "pibar1")]
    assert b_pi1.nodes == expect
    assert b_pi1.edges() == [(0, 0, 1), (1, 1, 2), (2, 0, 3)]  # colors 1,2,1
    assert b_pi1.heights == [0, 1, 2, 3]


def test_b_gamma12_golden(c2, c2_paths, b_gamma12):
    expect = [
        c2_paths[k]
        for k in ("gamma12", "gamma1bar2", "gamma2bar2", "gamma2bar1", "gammabar2bar1")
    ]
    assert b_gamma12.nodes == expect
    assert b_gamma12.edges() == [(0, 1, 1), (1, 0, 2), (2, 0, 3), (3, 1, 4)]  # 2,1,1,2
    loop = b_gamma12.nodes[2]
    assert loop.points[0] == loop.points[-1] == (Fraction(0), Fraction(0))


def test_a1_crystal(a1):
    crystal = CrystalGraph(a1, P.straight_path((Fraction(1),)))
    assert len(crystal) == 2


def test_non_dominant_seed_rejected(c2, c2_paths):
    with pytest.raises(WeylwalkError, match="dominant"):
        CrystalGraph(c2, c2_paths["pibar1"])


def test_node_budget(c2, c2_paths):
    with pytest.raises(ResourceBudgetError) as err:
        CrystalGraph(c2, c2_paths["gamma12"], budget=3)
    assert err.value.partial_count == 3


def test_unique_highest_and_dominant_image(b_pi1, b_gamma12):
    for crystal in (b_pi1, b_gamma12):
        tops = [k for k in range(len(crystal)) if all(v == 0 for v in crystal.eps[k])]
        assert tops == [crystal.highest]
        assert P.is_dominant_path(crystal.nodes[crystal.highest])


def test_weight_multiset_weyl_invariant(c2, b_pi1, b_gamma12):
    group = weyl_group(c2)
    for crystal in (b_pi1, b_gamma12):
        counts = crystal.weight_counts()
        for w in group:
            for wt, k in counts.items():
                assert counts.get(act(c2, w, wt), 0) == k


# --- tensor rule vs path-level operators -----------------------------------------


def _tensor_product_nodes(crystal, ell):
    from itertools import product as iproduct

    for combo in iproduct(range(len(crystal)), repeat=ell):
        yield TensorNode(tuple((crystal, i) for i in combo))


@pytest.mark.parametrize("ell", [2, 3])
def test_tensor_rule_matches_concatenation(c2, b_pi1, ell):
    for node in _tensor_product_nodes(b_pi1, ell):
        concat = node.path()
        for i in range(c2.rank):
            eps, phi = tensor_eps_phi(node, i)
            assert (eps, phi) == P.eps_phi(concat, i)
            te = tensor_apply_e(node, i)
            pe = P.apply_e(c2, concat, i)
            assert (te is None) == (pe is None)
            if te is not None:
                assert te.path() == pe
            tf = tensor_apply_f(node, i)
            pf = P.apply_f(c2, concat, i)
            assert (tf is None) == (pf is None)
            if tf is not None:
                assert tf.path() == pf


def test_tensor_rule_mixed_module_factors(c2, b_pi1, b_gamma12):
    for ca in (b_pi1, b_gamma12):
        for cb in (b_pi1, b_gamma12):
            for ia in range(len(ca)):
                for ib in range(len(cb)):
                    node = TensorNode(((ca, ia), (cb, ib)))
                    concat = node.path()
                    for i in range(c2.rank):
                        te = tensor_apply_e(node, i)
                        pe = P.apply_e(c2, concat, i)
                        assert (te is None) == (pe is None)
                        if te is not None:
                            assert te.path() == pe


def test_weight_zero_highest_tensor_node(c2, b_pi1):
    idx = {w.fw: k for k, w in enumerate(b_pi1.weights)}
    node = TensorNode(((b_pi1, idx[(1, 0)]), (b_pi1, idx[(-1, 0)])))
    assert tensor_is_highest(node)
    assert node.weight().fw == (0, 0)


def test_lowering_acts_on_left_factor_of_pi1_pi1(c2, b_pi1):
    # phi_1(pi1) = 1 > eps_1(pi1) = 0, so the first factor is lowered; the
    # path-level operator on the (merged, straight) concatenation is the oracle
    node = TensorNode(((b_pi1, 0), (b_pi1, 0)))
    lowered = tensor_apply_f(node, 0)
    assert [b_pi1.weights[i].fw for _, i in lowered.factors] == [(-1, 1), (1, 0)]
    assert lowered.path() == P.apply_f(c2, node.path(), 0)


def test_highest_tensor_pair_criterion(c2, b_pi1, b_gamma12):
    # both factors highest and eps_i(right) <= phi_i(left) for all i => highest
    node = TensorNode(((b_gamma12, b_gamma12.highest), (b_pi1, b_pi1.highest)))
    assert all(
        b_pi1.eps[b_pi1.highest][i] <= b_gamma12.phi[b_gamma12.highest][i]
        for i in range(c2.rank)
    )
    assert tensor_is_highest(node)


# --- Weyl action -------------------------------------------------------------------


def test_simple_reflection_swaps_chain_ends(c2, b_pi1):
    assert b_pi1.simple_reflection_on_node(0, 0) == 1  # pi1 <-> pi2
    assert b_pi1.simple_reflection_on_node(0, 1) == 0


def test_reflection_fixed_points(c2, b_gamma12):
    # the middle of the length-2 color-1 chain has eps = phi, hence is fixed
    loop = 2
    assert b_gamma12.eps[loop][0] == b_gamma12.phi[loop][0] == 1
    assert b_gamma12.simple_reflection_on_node(0, loop) == loop


def test_longest_element_on_crystal(c2, b_pi1):
    group = weyl_group(c2)
    longest = max(group, key=lambda w: len(w.word))
    image = b_pi1.weyl_action_on_node(longest, 0)
    assert b_pi1.weights[image].fw == (-1, 0)  # epsilon_1 -> -epsilon_1


def test_weyl_action_weight_equivariance(c2, b_pi1, b_gamma12):
    group = weyl_group(c2)
    for crystal in (b_pi1, b_gamma12):
        for w in group:
            for idx in range(len(crystal)):
                img = crystal.weyl_action_on_node(w, idx)
                assert crystal.weights[img] == act(c2, w, crystal.weights[idx])


# --- multiplicities ------------------------------------------------------------------


def test_box_rule_for_vector_summand(c2, b_pi1):
    # generic interior mu: neighbors differing by one box, never mu itself
    mu = partition_weight(c2, 3, 1)
    row = count_multiplicity(mu, b_pi1)
    expect = {
        partition_weight(c2, 4, 1): 1,
        partition_weight(c2, 2, 1): 1,
        partition_weight(c2, 3, 2): 1,
        partition_weight(c2, 3, 0): 1,
    }
    assert row == expect
    # wall mu2 = 0: the -epsilon_2 move dies
    row = count_multiplicity(partition_weight(c2, 1, 0), b_pi1)
    assert row == {
        partition_weight(c2, 2, 0): 1,
        partition_weight(c2, 1, 1): 1,
        partition_weight(c2, 0, 0): 1,
    }


def test_box_rule_for_adjoint_like_summand(c2, b_gamma12):
    # self-transition exists exactly when mu1 > mu2 (the loop path fits)
    for (p1, p2), expect in [((2, 1), 1), ((1, 1), 0), ((1, 0), 1), ((0, 0), 0)]:
        mu = partition_weight(c2, p1, p2)
        row = count_multiplicity(mu, b_gamma12)
        assert row.get(mu, 0) == expect


def test_multiplicity_from_origin_is_kronecker(c2, b_pi1, b_gamma12):
    zero = c2.zero_weight()
    for crystal in (b_pi1, b_gamma12):
        assert count_multiplicity(zero, crystal) == {crystal.kappa: 1}


def test_multiplicity_dimension_sum(c2, c2_algebra, b_pi1, b_gamma12):
    cache = c2_algebra.cache
    for crystal in (b_pi1, b_gamma12):
        for fw in [(1, 0), (0, 1), (1, 1)]:
            mu = c2.weight(fw)
            row = count_multiplicity(mu, crystal)
            total = sum(m * len(cache.get(lam)) for lam, m in row.items())
            assert total == len(cache.get(mu)) * len(crystal)


def test_multiplicities_against_character_products(c2, c2_algebra):
    # s_mu * s_kappa = sum_lam m s_lam as exact polynomials
    for kappa_fw in [(1, 0), (0, 1)]:
        for mu_fw in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 1)]:
            assert character_product_identity(
                c2_algebra, c2.weight(mu_fw), c2.weight(kappa_fw), 1
            )


def test_f_dp_equals_enumeration(c2, c2_algebra, b_pi1, b_gamma12):
    zero = c2.zero_weight()
    omega1 = c2.weight((1, 0))
    crystals = [(b_pi1, 1)]
    for mu, mu_crystal in [(zero, None), (omega1, c2_algebra.cache.get(omega1))]:
        for ell in (1, 2):
            dp = count_f_multiplicity(c2, mu, crystals, ell)
            oracle = enumerate_f_multiplicity(c2, mu_crystal, crystals, ell)
            assert dp == oracle
    # module with two summands
    module_crystals = [(b_pi1, 1), (b_gamma12, 1)]
    dp = count_f_multiplicity(c2, zero, module_crystals, 2)
    oracle = enumerate_f_multiplicity(c2, None, module_crystals, 2)
    assert dp == oracle


def test_f_dp_equals_enumeration_module_ell3(c2, c2_algebra, b_pi1, b_gamma12):
    """Integer keys and clip-class rows against the full tensor cube of a
    two-summand module with a multiplicity."""
    module_crystals = [(b_pi1, 1), (b_gamma12, 2)]
    dp = count_f_multiplicity(c2, c2.zero_weight(), module_crystals, 3)
    assert dp == enumerate_f_multiplicity(c2, None, module_crystals, 3)
    assert sum(dp.values()) > len(dp) > 3


def test_f_dp_horizon_zero_and_start_outside_cone(c2, b_pi1):
    inside, outside = c2.weight((3, 1)), c2.weight((2, -1))
    for mu in (inside, outside):
        assert count_f_multiplicity(c2, mu, [(b_pi1, 1)], 0) == {mu: 1}
    # no step from outside the cone stays in it
    assert count_f_multiplicity(c2, outside, [(b_pi1, 1)], 2) == {}


def test_f_squared_golden(c2, b_pi1):
    # frozen from the enumeration oracle: V(w1)^{x2} = V(2w1) + V(w2) + V(0)
    dp = count_f_multiplicity(c2, c2.zero_weight(), [(b_pi1, 1)], 2)
    assert {k.fw: v for k, v in dp.items()} == {(2, 0): 1, (0, 1): 1, (0, 0): 1}


def test_f_ell_one_reduces_to_multiplicity(c2, b_pi1):
    mu = c2.weight((2, 1))
    assert count_f_multiplicity(c2, mu, [(b_pi1, 1)], 1) == count_multiplicity(mu, b_pi1)


def test_f_support_inside_root_cone(c2, b_pi1):
    # nonzero counts only when ell*kappa - lambda is a nonnegative root sum
    kappa = c2.weight((1, 0))
    for ell in (1, 2, 3):
        counts = count_f_multiplicity(c2, c2.zero_weight(), [(b_pi1, 1)], ell)
        for lam, f in counts.items():
            if f:
                diff = c2.weight(tuple(ell * a - b for a, b in zip(kappa.fw, lam.fw)))
                assert all(c >= 0 and c.denominator == 1 for c in diff.root)


def test_f_dp_refuses_once_its_states_pass_the_budget(a1, monkeypatch):
    """A1 B(omega_1) from 0 carries floor(k/2) + 1 states at layer k: 35 over
    ten layers, 41 over eleven."""
    crystals = [(CrystalCache(a1).get(a1.weight((1,))), 1)]
    monkeypatch.setattr(C, "DEFAULT_DP_BUDGET", 35)
    assert sum(count_f_multiplicity(a1, a1.zero_weight(), crystals, 10).values()) == 252
    with pytest.raises(ResourceBudgetError) as err:
        count_f_multiplicity(a1, a1.zero_weight(), crystals, 11)
    assert err.value.partial_count == 41


def test_a2_f_dp_vs_enumeration(a2):
    crystal = CrystalGraph(a2, P.straight_path((Fraction(1), Fraction(0))))
    assert len(crystal) == 3
    for ell in (1, 2):
        dp = count_f_multiplicity(a2, a2.zero_weight(), [(crystal, 1)], ell)
        oracle = enumerate_f_multiplicity(a2, None, [(crystal, 1)], ell)
        assert dp == oracle


# --- chain statistics ------------------------------------------------------------------


def test_kappa0(c2, b_pi1, b_gamma12):
    assert b_pi1.kappa0().fw == (0, 0)
    assert b_gamma12.kappa0().fw == (1, 0)  # omega_1


def test_minuscule_detection(c2, a2, b_pi1, b_gamma12):
    assert is_minuscule(b_pi1)
    assert not is_minuscule(b_gamma12)
    a2_crystal = CrystalGraph(a2, P.straight_path((Fraction(1), Fraction(0))))
    assert is_minuscule(a2_crystal)
    assert a2_crystal.kappa0().fw == (0, 0)


def test_kappa0_zero_iff_minuscule_small_sweep(c2, c2_algebra):
    for fw in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        crystal = c2_algebra.cache.get(c2.weight(fw))
        assert (crystal.kappa0().fw == (0, 0)) == is_minuscule(crystal)


def test_isomorphism_invariance_of_generation(c2, c2_paths, b_gamma12):
    # second dominant path to omega_2: the straight line
    straight = CrystalGraph(c2, P.straight_path(tuple(Fraction(c) for c in (0, 1))))
    assert len(straight) == len(b_gamma12) == 5
    assert canonical_signature(straight) == canonical_signature(b_gamma12)
    assert straight.weight_counts() == b_gamma12.weight_counts()


def test_exports(b_pi1):
    dot = b_pi1.to_dot()
    assert dot.count("->") == 3
    import json

    payload = json.loads(b_pi1.to_json())
    assert payload["kappa"] == [1, 0]
    assert len(payload["nodes"]) == 4 and len(payload["edges"]) == 3


def test_module_spec_validation(c2):
    with pytest.raises(Exception):
        ModuleSpec(((c2.weight((-1, 0)), 1),))
    with pytest.raises(Exception):
        ModuleSpec(((c2.weight((1, 0)), 0),))
    with pytest.raises(Exception):
        ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((1, 0)), 2)))
    ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((0, 1)), 1)))


def test_module_multiplicity_is_weighted_sum(c2, b_pi1, b_gamma12):
    mu = partition_weight(c2, 2, 1)
    row = module_multiplicity(mu, [(b_pi1, 2), (b_gamma12, 3)])
    r1 = count_multiplicity(mu, b_pi1)
    r2 = count_multiplicity(mu, b_gamma12)
    for lam in set(r1) | set(r2):
        assert row[lam] == 2 * r1.get(lam, 0) + 3 * r2.get(lam, 0)


def _symmetrizer(datum):
    """Half squared root lengths d_j, normalized d_0 = 1 (connected type)."""
    from fractions import Fraction as Fr

    n = datum.rank
    d = [None] * n
    d[0] = Fr(1)
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(n):
            if datum.matrix[i][j] != 0 and i != j and d[j] is None:
                # a_ij d_j = a_ji d_i keeps the Gram matrix symmetric
                d[j] = d[i] * Fr(datum.matrix[j][i], datum.matrix[i][j])
                pending.append(j)
    return d


def _dimension_formula(datum, lam):
    """Independent oracle: product over positive roots of the shifted pairings."""
    from fractions import Fraction as Fr
    from weylwalk import positive_roots

    d = _symmetrizer(datum)

    def form(beta_root, alpha_root):
        # (beta, alpha) with Gram entries (alpha_i, alpha_j) = a_ij d_j
        return sum(
            beta_root[i] * datum.matrix[i][j] * d[j] * alpha_root[j]
            for i in range(datum.rank)
            for j in range(datum.rank)
        )

    rho = datum.rho
    shifted = lam + rho
    value = Fr(1)
    for alpha in positive_roots(datum):
        value *= form(shifted.root, alpha.root) / form(rho.root, alpha.root)
    assert value.denominator == 1
    return int(value)


@pytest.mark.parametrize(
    "label,fw",
    [
        ("C2", (1, 0)), ("C2", (0, 1)), ("C2", (2, 0)), ("C2", (1, 1)), ("C2", (0, 2)),
        ("C2", (3, 2)),
        ("A2", (1, 0)), ("A2", (1, 1)), ("A2", (2, 1)),
        ("B3", (1, 0, 0)), ("B3", (0, 1, 0)), ("B3", (0, 0, 1)),
        ("G2", (1, 0)), ("G2", (0, 1)),
    ],
)
def test_crystal_size_matches_dimension_formula(label, fw):
    from weylwalk import build_cartan_datum
    from weylwalk.crystal import CrystalCache

    datum = build_cartan_datum(label)
    lam = datum.weight(fw)
    assert len(CrystalCache(datum).get(lam)) == _dimension_formula(datum, lam)


def test_adjoint_generation_is_realization_independent(c2, c2_algebra):
    """A bent dominant path to the same top weight gives an isomorphic graph."""
    straight = c2_algebra.cache.get(c2.weight((2, 0)))
    bent = CrystalGraph(c2, lit(c2, (0, 0), (1, 1), (2, 0)))
    assert len(bent) == len(straight) == 10
    assert canonical_signature(bent) == canonical_signature(straight)
    assert bent.weight_counts() == straight.weight_counts()
    assert bent.kappa0() == straight.kappa0()


def test_tensor_rule_on_mixed_shapes(c2, c2_algebra, b_pi1):
    """Product rule vs path operators with a many-segment left factor."""
    adjoint = c2_algebra.cache.get(c2.weight((2, 0)))
    for ia in range(len(adjoint)):
        for ib in range(len(b_pi1)):
            node = TensorNode(((adjoint, ia), (b_pi1, ib)))
            concat = node.path()
            for i in range(2):
                assert tensor_eps_phi(node, i) == P.eps_phi(concat, i)
                te = tensor_apply_e(node, i)
                pe = P.apply_e(c2, concat, i)
                assert (te is None) == (pe is None)
                if te is not None:
                    assert te.path() == pe
