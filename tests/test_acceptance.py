"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its runtime.  Tolerances are pinned here, not calibrated elsewhere:
exact checks are exact (==), statistical ones use 4-sigma bands with the
stated truncation allowances.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as iproduct

from weylwalk import markov as M
from weylwalk import montecarlo as MC
from weylwalk.cartan import act, weyl_group
from weylwalk.charalg import ExponentPolynomial, tau_point
from weylwalk.crystal import (
    ModuleSpec,
    TensorNode,
    count_f_multiplicity,
    tensor_apply_e,
    tensor_apply_f,
    tensor_eps_phi,
)

from conftest import partition_weight
from oracles import (
    enumerate_f_multiplicity,
    exhaustive_h_trajectories,
    inverse_element,
    normalizer_poly,
    twisted_drift_endpoint,
    weyl_character_product,
)

F = Fraction


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"\n[criterion {number:2d}] PASS {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_01_golden_crystals(c2, c2_paths, b_pi1, b_gamma12):
    with criterion(1, 1.0, "golden crystals B(pi1) and B(gamma12)"):
        assert b_pi1.nodes == [c2_paths[k] for k in ("pi1", "pi2", "pibar2", "pibar1")]
        assert [i + 1 for _, i, _ in b_pi1.edges()] == [1, 2, 1]
        assert b_gamma12.nodes == [
            c2_paths[k] for k in
            ("gamma12", "gamma1bar2", "gamma2bar2", "gamma2bar1", "gammabar2bar1")
        ]
        assert [i + 1 for _, i, _ in b_gamma12.edges()] == [2, 1, 1, 2]
        loop = b_gamma12.nodes[2]
        assert loop.points[0] == loop.points[-1] == (F(0), F(0))


def test_criterion_02_character_goldens(c2, c2_algebra):
    with criterion(2, 5.0, "character and module-normalizer goldens"):
        S10 = c2_algebra.character_poly(c2.weight((1, 0)))
        assert S10 == ExponentPolynomial(
            {(F(0), F(0)): F(1), (F(1), F(0)): F(1), (F(1), F(1)): F(1), (F(2), F(1)): F(1)}
        )
        S11 = c2_algebra.character_poly(c2.weight((0, 1)))
        assert S11 == ExponentPolynomial(
            {(F(0), F(0)): F(1), (F(0), F(1)): F(1), (F(1), F(1)): F(1),
             (F(2), F(1)): F(1), (F(2), F(2)): F(1)}
        )
        # the displayed two-summand normalizer, checked at generic multiplicities
        for a1m, a2m in ((1, 1), (2, 3), (5, 1)):
            spec = ModuleSpec(((c2.weight((1, 0)), a1m), (c2.weight((0, 1)), a2m)))
            display = {}
            for a, b in [(0, 0), (1, 0), (1, 1), (2, 1)]:
                e = (F(a) - 1, F(b) - F(1, 2))
                display[e] = display.get(e, 0) + a1m
            for a, b in [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
                e = (F(a) - 1, F(b) - 1)
                display[e] = display.get(e, 0) + a2m
            # two summands: r = 0, and the normalizer N_r is Sigma_M
            assert normalizer_poly(c2_algebra, spec) == ExponentPolynomial(
                {e: F(c) for e, c in display.items()}
            )


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


def test_criterion_03_weyl_formula_identity(c2, a2, c2_algebra, a2_algebra):
    with criterion(3, 5.0, "denominator-times-character equals the signed orbit sum"):
        c2_mus = [partition_weight(c2, *p) for p in
                  [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1)]]
        # psi_poly is the signed orbit sum; the product is built from the crystal
        for mu in c2_mus:
            assert c2_algebra.psi_poly(mu) == weyl_character_product(c2_algebra, mu)
        a2_mus = [a2.weight(fw) for fw in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1)]]
        for mu in a2_mus:
            assert a2_algebra.psi_poly(mu) == weyl_character_product(a2_algebra, mu)
        # symbolic eight-term display, term for term
        rho = c2.rho

        def exponent_for(w, p1, p2):
            shifted = partition_weight(c2, p1, p2) + rho
            return (shifted - act(c2, w, shifted)).root

        computed = []
        for w in c2_algebra.group:
            base = exponent_for(w, 0, 0)
            d1 = tuple(a - b for a, b in zip(exponent_for(w, 1, 0), base))
            d2 = tuple(a - b for a, b in zip(exponent_for(w, 1, 1), exponent_for(w, 1, 0)))
            for p1, p2 in [(4, 2), (7, 0), (5, 5)]:
                probe = exponent_for(w, p1, p2)
                assert probe == tuple(
                    p1 * x + p2 * y + c for x, y, c in zip(d1, d2, base)
                )
            computed.append((w.sign,
                             tuple(int(v) for v in (d1[0], d2[0], base[0])),
                             tuple(int(v) for v in (d1[1], d2[1], base[1]))))
        assert sorted(computed) == sorted(EIGHT_TERM_DISPLAY)


def _law_equality_case(datum, algebra, source, tau, states):
    dist = M.build_distribution(algebra, source, tau)
    sub = M.restricted_table(dist, states, strict=False)
    psi_vals = {s: algebra.psi(s, tau) for s in states}
    transformed = M.doob_transform(sub, psi_vals)  # exact harmonicity inside
    hc = M.hchain_matrix(dist, states, strict=False)
    assert transformed.rows == hc.rows
    assert sum(transformed.row_complete) > 0
    # harmonicity on full rows, independent of any state-set truncation
    for mu in states:
        row = dist.multiplicity_row(mu)
        total = sum(
            dist.restricted_transition(mu, lam) * algebra.psi(lam, tau) for lam in row
        )
        assert total == algebra.psi(mu, tau)


def test_criterion_04_central_law_equality(c2, a2, c2_algebra, a2_algebra, tau_half):
    with criterion(4, 10.0, "conditioned kernel equals the transformed-walk kernel"):
        c2_states = [partition_weight(c2, a, b) for a in range(5) for b in range(a + 1)]
        _law_equality_case(c2, c2_algebra, c2.weight((1, 0)), tau_half, c2_states)
        _law_equality_case(c2, c2_algebra, c2.weight((0, 1)), tau_half, c2_states)
        tau_mod = tau_point(c2, [F(1, 4), F(1, 9)], roots=[F(1, 2), F(1, 3)])
        spec = ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((0, 1)), 1)))
        _law_equality_case(c2, c2_algebra, spec, tau_mod, c2_states)
        a2_states = [a2.weight((a, b)) for a in range(5) for b in range(5)]
        tau_a2 = tau_point(a2, [F(1, 2), F(1, 3)])
        _law_equality_case(a2, a2_algebra, a2.weight((1, 0)), tau_a2, a2_states)


def test_criterion_05_master_identity(c2, a2, c2_algebra, a2_algebra, tau_half):
    with criterion(5, 30.0, "finite-horizon alternating identity, DP vs enumeration"):
        cases = [
            (c2, c2_algebra, tau_half, c2.weight((1, 0))),
            (a2, a2_algebra, tau_point(a2, [F(1, 2), F(1, 3)]), a2.weight((1, 0))),
        ]
        for datum, algebra, tau, kappa in cases:
            crystal = algebra.cache.get(kappa)
            for mu_fw in [(0, 0), (1, 0)]:
                mu = datum.weight(mu_fw)
                for ell in (1, 2, 3):
                    left, right = algebra.master_identity_sides(mu, kappa, tau, ell)
                    assert left == right
                mu_crystal = None if mu_fw == (0, 0) else algebra.cache.get(mu)
                for ell in (1, 2):
                    dp = count_f_multiplicity(datum, mu, [(crystal, 1)], ell)
                    oracle = enumerate_f_multiplicity(datum, mu_crystal, [(crystal, 1)], ell)
                    assert dp == oracle


def _components(nodes):
    """Connected components of a set of tensor nodes under both operators."""
    index = {node: k for k, node in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    datum_rank = 2
    for node in nodes:
        for i in range(datum_rank):
            down = tensor_apply_f(node, i)
            if down is not None and down in index:
                union(index[node], index[down])
    groups = {}
    for node in nodes:
        groups.setdefault(find(index[node]), []).append(node)
    return list(groups.values())


def test_criterion_06_pitman_enumeration(c2, c2_algebra, tau_half, b_pi1):
    with criterion(6, 30.0, "exhaustive transformed-walk law and unique top nodes"):
        dist = M.build_distribution(c2_algebra, c2.weight((1, 0)), tau_half)
        rng = random.Random(606)
        for ell in (2, 3):
            law = exhaustive_h_trajectories(dist, ell)
            assert sum(law.values()) == 1
            for traj, prob in law.items():
                assert prob == MC.h_trajectory_prediction(dist, traj)
            nodes = [
                TensorNode(tuple((b_pi1, i) for i in combo))
                for combo in iproduct(range(len(b_pi1)), repeat=ell)
            ]
            for comp in _components(nodes):
                tops = [n for n in comp
                        if all(tensor_eps_phi(n, i)[0] == 0 for i in range(2))]
                assert len(tops) == 1
                for node in comp:
                    raised = M.pitman(c2, node)
                    assert raised == tops[0]
                    # operator order cannot matter
                    cur = node
                    while True:
                        live = [i for i in range(2) if tensor_eps_phi(cur, i)[0] > 0]
                        if not live:
                            break
                        cur = tensor_apply_e(cur, rng.choice(live))
                    assert cur == tops[0]


def test_criterion_07_monte_carlo_psi(c2, c2_algebra, tau_half):
    with criterion(7, 60.0, "sampled cone-stay probability vs exact values"):
        kappa = c2.weight((1, 0))
        zero = c2.zero_weight()
        dist = M.build_distribution(c2_algebra, kappa, tau_half)
        n = 200_000
        summary = MC.simulate_exits(dist, zero, 50, n, seed=20240807)
        psi6 = c2_algebra.psi_ell(zero, kappa, tau_half, 6)
        psi_inf = c2_algebra.psi(zero, tau_half)
        assert psi_inf == F(21, 128)
        r6 = MC.bernoulli_report("stay<=6", summary.stay_count_continuous(6), n, psi6)
        assert r6.within(4.0), f"z={r6.z}"
        r50 = MC.bernoulli_report(
            "stay<=50", summary.stay_count_continuous(50), n, psi_inf,
            slack=float(psi6 - psi_inf),
        )
        assert r50.within(4.0)


def test_criterion_08_twisted_tau_exhaustive(c2, a2):
    with criterion(8, 5.0, "twisted coordinates leave the unit cube off identity"):
        c2_group = weyl_group(c2)
        a2_group = weyl_group(a2)
        assert sum(1 for w in c2_group if not w.is_identity()) == 7
        assert sum(1 for w in a2_group if not w.is_identity()) == 5
        for datum, group in ((c2, c2_group), (a2, a2_group)):
            tau = tau_point(datum, [F(1, 2), F(1, 3)])
            for w in group:
                inside = M.in_unit_cube(M.twisted_tau(datum, w, tau))
                assert inside == w.is_identity()


def test_criterion_09_twisted_law_permutation(c2, c2_algebra, tau_half, b_pi1, b_gamma12):
    with criterion(9, 5.0, "twisted node law equals the permuted law"):
        group = c2_algebra.group
        for crystal in (b_pi1, b_gamma12):
            dist = M.build_distribution(c2_algebra, crystal.kappa, tau_half)
            S = c2_algebra.character_value(crystal.kappa, tau_half)
            for w in group:
                for idx in range(len(crystal)):
                    direct = M.twisted_node_probability(dist, w, crystal, idx)
                    img = crystal.weyl_action_on_node(w, idx)
                    permuted = tau_half.power(
                        (crystal.kappa - crystal.weights[img]).root
                    ) / S
                    assert direct == permuted


def test_criterion_10_drift(c2, c2_algebra):
    with criterion(10, 10.0, "drift interior, twisted drift outside the cone"):
        rng = random.Random(1010)
        group = c2_algebra.group
        kappa = c2.weight((1, 0))
        for _ in range(10):
            tau = tau_point(
                c2, [F(rng.randint(1, 19), 20), F(rng.randint(1, 19), 20)]
            )
            dist = M.build_distribution(c2_algebra, kappa, tau)
            m1 = dist.drift_endpoint()
            assert all(c > 0 for c in m1)  # interior, exact
            for w in group:
                if w.is_identity():
                    continue
                w_inv = inverse_element(w)
                twisted = twisted_drift_endpoint(dist, w_inv)
                assert any(c < 0 for c in twisted)  # strictly outside


def test_criterion_11_sandwich(c2, c2_algebra, tau_half):
    with criterion(11, 120.0, "discrete-stay sandwich and the shift lemma"):
        zero = c2.zero_weight()
        # minuscule: bounds pinch, estimate must match the limit at 4 sigma
        dist10 = M.build_distribution(c2_algebra, c2.weight((1, 0)), tau_half)
        report = MC.sandwich_check(dist10, zero, 80, 100_000, seed=20240808)
        assert report.kappa0 == (0, 0)
        assert report.lower == report.upper == F(21, 128)
        gap = abs(report.discrete.estimate - float(report.lower))
        assert gap <= 4 * report.discrete.stderr
        assert report.lemma_violations == 0
        assert report.bounds_hold
        # non-minuscule: strict sandwich plus the exact per-sample lemma
        dist11 = M.build_distribution(c2_algebra, c2.weight((0, 1)), tau_half)
        report = MC.sandwich_check(dist11, zero, 40, 100_000, seed=20240809)
        assert report.kappa0 == (1, 0)
        assert report.lower < report.upper
        assert report.discrete.estimate >= float(report.lower) - 4 * report.discrete.stderr
        assert report.discrete.estimate <= float(report.upper_finite) + 4 * report.discrete.stderr
        assert report.lemma_violations == 0
        assert report.bounds_hold


def test_criterion_12_asymptotic_ratio(c2, c2_algebra, tau_half):
    with criterion(12, 120.0, "branching ratios trend to the character limit"):
        dist = M.build_distribution(c2_algebra, c2.weight((1, 0)), tau_half)
        mu = c2.weight((2, 0))  # twice the first fundamental weight, in Q
        reports = MC.asymptotic_ratio(dist, mu, list(range(4, 15)))
        assert reports and reports[-1].ell == 14
        target = tau_half.power(tuple(-c for c in mu.root)) * \
            c2_algebra.character_value(mu, tau_half)
        assert all(r.target == target for r in reports)
        assert reports[-1].deviation < reports[0].deviation
