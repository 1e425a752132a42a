"""One step-source model and one integer cone test, against their oracles.

Every step source is a direct sum of irreducible summands; a weight kappa is
the one-summand module V(kappa).  The cone test x >= eps(b) is checked
against the path-level test ``PiecewisePath.stays_in_cone``.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from itertools import product as iproduct

import pytest

from weylwalk import build_cartan_datum
from weylwalk import charalg
from weylwalk import markov as M
from weylwalk import montecarlo as MC
from weylwalk.charalg import tau_point
from weylwalk.crystal import CrystalCache, ModuleSpec, count_multiplicity
from weylwalk.errors import DomainError, FormatError

from oracles import numpy_philox, pi_ell_w, twisted_walk_transition

F = Fraction


def _fundamental_crystals(label):
    datum = build_cartan_datum(label)
    cache = CrystalCache(datum)
    return datum, [cache.get(datum.weight(tuple(int(j == i) for j in range(datum.rank))))
                   for i in range(datum.rank)]


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "B3", "D4"])
def test_integer_cone_test_matches_paths(label):
    datum, crystals = _fundamental_crystals(label)
    _check_cone_test(datum, crystals)


def test_integer_cone_test_matches_paths_gamma12(c2, b_gamma12):
    _check_cone_test(c2, [b_gamma12])


def _check_cone_test(datum, crystals):
    for crystal in crystals:
        for fw in iproduct(range(3), repeat=datum.rank):
            mu = datum.weight(fw)
            oracle = {}
            for idx, node in enumerate(crystal.nodes):
                stays = node.stays_in_cone(tuple(F(c) for c in fw))
                assert stays == all(m >= e for m, e in zip(fw, crystal.eps[idx]))
                if stays:
                    lam = mu + crystal.weights[idx]
                    oracle[lam] = oracle.get(lam, 0) + 1
            assert count_multiplicity(mu, crystal) == oracle


# --- a weight is the one-summand module --------------------------------------------


@pytest.mark.parametrize("kappa_fw", [(1, 0), (0, 1)])
def test_weight_and_one_summand_modules_agree(c2, c2_algebra, kappa_fw):
    kappa = c2.weight(kappa_fw)
    # no D-th roots: the one-summand reference weight keeps exponents integral
    tau = tau_point(c2, [F(1, 2), F(1, 3)])
    sources = [kappa, ModuleSpec(((kappa, 1),)), ModuleSpec(((kappa, 2),))]
    dists = [M.build_distribution(c2_algebra, s, tau) for s in sources]
    probs = [[e.probability for e in d.entries] for d in dists]
    assert probs[0] == probs[1] == probs[2]
    assert dists[0].normalizer == dists[1].normalizer == c2_algebra.character_value(kappa, tau)
    assert dists[2].normalizer == 2 * dists[0].normalizer
    zero = c2.zero_weight()
    states = M.state_closure(dists[0], [zero], inside=M.coordinate_box(3))
    for build in (M.restricted_table, M.hchain_matrix):
        tables = [build(d, states, strict=False) for d in dists]
        assert tables[0].rows == tables[1].rows == tables[2].rows
        assert tables[0].row_complete == tables[1].row_complete == tables[2].row_complete
    for mu in (zero, c2.weight((1, 0))):
        for ell in range(4):
            values = {c2_algebra.psi_ell(mu, s, tau, ell) for s in sources}
            assert len(values) == 1
        for ell in (1, 2):
            sides = {c2_algebra.master_identity_sides(mu, s, tau, ell) for s in sources}
            assert len(sides) == 1
            left, right = sides.pop()
            assert left == right


def test_reference_weight_rule(c2):
    kappa = c2.weight((1, 0))
    assert ModuleSpec(((kappa, 3),)).reference == kappa
    two = ModuleSpec(((kappa, 1), (c2.weight((0, 1)), 2)))
    assert two.reference == c2.zero_weight()


def test_empty_module_is_rejected():
    with pytest.raises(FormatError):
        ModuleSpec(())


@pytest.fixture()
def tau_mod(c2):
    return tau_point(c2, [F(1, 4), F(1, 9)], roots=[F(1, 2), F(1, 3)])


@pytest.fixture()
def dist_mod(c2, c2_algebra, tau_mod):
    spec = ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((0, 1)), 1)))
    return M.build_distribution(c2_algebra, spec, tau_mod)


def test_twisted_walk_transition_on_a_module(c2, c2_algebra, dist_mod):
    """Closed kernel formula against the permuted step law, two summands."""
    etas = [c2.weight(fw) for fw in [(0, 0), (1, 0), (2, 1)]]
    increments = {e.crystal.weights[e.node] for e in dist_mod.entries}
    for w in c2_algebra.group:
        mass = {}
        for crystal, idx, p in M.twisted_distribution_probabilities(dist_mod, w):
            fw = crystal.weights[idx].fw
            mass[fw] = mass.get(fw, F(0)) + p
        for eta in etas:
            for inc in increments:
                assert twisted_walk_transition(dist_mod, w, eta, eta + inc) == mass[inc.fw]


def test_sandwich_one_summand_module_equals_weight(c2, c2_algebra, tau_half, dist_mod):
    kappa = c2.weight((0, 1))
    reports = [
        MC.sandwich_check(M.build_distribution(c2_algebra, s, tau_half),
                          c2.zero_weight(), 12, 800, seed=5)
        for s in (kappa, ModuleSpec(((kappa, 2),)))
    ]
    assert reports[0] == reports[1]
    with pytest.raises(DomainError):
        MC.sandwich_check(dist_mod, c2.zero_weight(), 12, 800, seed=5)


# --- the sampler's cone events, sample for sample ------------------------------------


def _exits_by_paths(dist, mu, horizon, n, seed, kappa0):
    """First exits per sample from the exact cumulative law and path breakpoints."""
    cums = list(accumulate(e.probability for e in dist.entries))
    cont, disc, lemma_bad = [], [], 0
    for row in numpy_philox(seed).random(size=(n, horizon)):
        pos = mu.fw
        spos = tuple(a + b for a, b in zip(mu.fw, kappa0.fw))
        c_exit = d_exit = None
        shifted_ok = True
        for step, u in enumerate(row, start=1):
            e = dist.entries[bisect_right(cums, F(float(u)))]
            node = e.crystal.nodes[e.node]
            if c_exit is None and not node.stays_in_cone(pos):
                c_exit = step
            if not node.stays_in_cone(spos):
                shifted_ok = False
            wt = e.crystal.weights[e.node].fw
            pos = tuple(a + b for a, b in zip(pos, wt))
            spos = tuple(a + b for a, b in zip(spos, wt))
            if d_exit is None and any(c < 0 for c in pos):
                d_exit = step
        cont.append(c_exit)
        disc.append(d_exit)
        if d_exit is None and not shifted_ok:
            lemma_bad += 1
    return cont, disc, lemma_bad


@pytest.mark.parametrize("source", ["1,0", "0,1", "module"])
def test_simulate_exits_matches_path_oracle(c2, c2_algebra, tau_mod, source):
    if source == "module":
        spec = ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((0, 1)), 1)))
        dist = M.build_distribution(c2_algebra, spec, tau_mod)
        kappa0 = c2.weight((1, 0))
    else:
        dist = M.build_distribution(
            c2_algebra, c2.weight(tuple(map(int, source.split(",")))), tau_mod)
        kappa0 = dist.crystals[0][0].kappa0()
    mu = c2.weight((1, 0))
    summary = MC.simulate_exits(dist, mu, 12, 1500, seed=23, kappa0=kappa0)
    cont, disc, lemma_bad = _exits_by_paths(dist, mu, 12, 1500, 23, kappa0)
    assert summary.continuous_exit == cont
    assert summary.discrete_exit == disc
    assert summary.lemma_violations == lemma_bad
    assert any(c is not None for c in cont) and any(c is None for c in cont)


# --- the alternating identity shares one set of branching counts ---------------------


def test_master_identity_counts_once(monkeypatch, c2, a2, c2_algebra, a2_algebra):
    calls = []
    original = charalg.count_f_multiplicity

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(charalg, "count_f_multiplicity", counting)
    cases = [
        (c2, c2_algebra, tau_point(c2, [F(1, 2), F(1, 2)])),
        (a2, a2_algebra, tau_point(a2, [F(1, 2), F(1, 3)])),
    ]
    for datum, algebra, tau in cases:
        kappa = datum.weight((1, 0))
        for mu_fw in [(0, 0), (1, 0)]:
            mu = datum.weight(mu_fw)
            for ell in (1, 2, 3):
                calls.clear()
                left, right = algebra.master_identity_sides(mu, kappa, tau, ell)
                assert len(calls) == 1
                assert left == right == algebra.psi(mu, tau)
                terms = [w.sign * pi_ell_w(algebra, mu, kappa, tau, ell, w)
                         for w in algebra.group]
                assert right == sum(terms, F(0))
