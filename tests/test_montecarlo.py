import math
from fractions import Fraction

import pytest

from weylwalk import montecarlo as MC
from weylwalk import markov as M
from weylwalk.charalg import tau_point
from weylwalk.crystal import ModuleSpec

from conftest import partition_weight
from oracles import exhaustive_h_trajectories

F = Fraction


@pytest.fixture()
def dist10(c2, c2_algebra, tau_half):
    return M.build_distribution(c2_algebra, c2.weight((1, 0)), tau_half)


def test_sampling_is_deterministic(c2, dist10):
    a = MC.sample_walk(dist10, c2.zero_weight(), 25, seed=99)
    b = MC.sample_walk(dist10, c2.zero_weight(), 25, seed=99)
    assert a.steps == b.steps and a.positions == b.positions
    c = MC.sample_walk(dist10, c2.zero_weight(), 25, seed=100)
    assert a.steps != c.steps


def test_zero_horizon(c2, dist10):
    sample = MC.sample_walk(dist10, c2.weight((2, 1)), 0, seed=1)
    assert sample.steps == [] and sample.positions == []
    assert sample.start == (2, 1)


def test_sample_positions_accumulate_weights(c2, dist10):
    sampler = MC.StepSampler.from_distribution(dist10)
    sample = MC.sample_walk(dist10, c2.zero_weight(), 40, seed=5, sampler=sampler)
    pos = (0, 0)
    for k, p in zip(sample.steps, sample.positions):
        pos = tuple(a + b for a, b in zip(pos, sampler.weights[k]))
        assert p == pos


def test_empirical_step_law(c2, dist10):
    sampler = MC.StepSampler.from_distribution(dist10)
    rng = MC._rng(123)
    n = 100_000
    counts = [0] * len(sampler.nodes)
    for u in rng.random(size=n):
        counts[sampler.pick(float(u))] += 1
    for k, e in enumerate(dist10.entries):
        p = float(e.probability)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts[k] / n - p) <= 4 * se


def test_pick_exact_at_boundaries(a1, a1_algebra):
    tau = tau_point(a1, [F(1, 3)])
    dist = M.build_distribution(a1_algebra, a1.weight((1,)), tau)
    sampler = MC.StepSampler.from_distribution(dist)
    assert sampler.cum_fracs == [F(3, 4), F(1)]
    assert sampler.pick(0.75) == 1  # boundary belongs to the upper cell
    assert sampler.pick(0.7499999999) == 0
    assert sampler.pick(0.0) == 0


def test_exit_summary_nesting_and_inclusion(c2, dist10):
    summary = MC.simulate_exits(dist10, c2.zero_weight(), 30, 4000, seed=7)
    counts = [summary.stay_count_continuous(ell) for ell in range(1, 31)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    # discrete violation implies an earlier-or-equal continuous violation
    for c_exit, d_exit in zip(summary.continuous_exit, summary.discrete_exit):
        if d_exit is not None:
            assert c_exit is not None and c_exit <= d_exit
    d_counts = [summary.stay_count_discrete(ell) for ell in range(1, 31)]
    assert all(d >= c for d, c in zip(d_counts, counts))


def test_stay_estimate_matches_exact_small_horizon(c2, c2_algebra, dist10, tau_half):
    zero = c2.zero_weight()
    exact = c2_algebra.psi_ell(zero, c2.weight((1, 0)), tau_half, 4)
    report = MC.estimate_stay_probability(dist10, zero, 4, 40_000, seed=31, target=exact)
    assert report.within(4.0)


def test_stay_curve_reports(c2, dist10):
    reports = MC.stay_probability_curve(dist10, c2.zero_weight(), [2, 5, 9], 2000, seed=3)
    assert [r.n for r in reports] == [2000] * 3
    assert reports[0].estimate >= reports[1].estimate >= reports[2].estimate


def test_twisted_finite_horizon_decreases(c2, c2_algebra, tau_half):
    """Exact twisted stay probabilities fall along the horizon (and fast)."""
    kappa = c2.weight((1, 0))
    zero = c2.zero_weight()
    s1 = next(w for w in c2_algebra.group if w.word == (0,))
    values = [
        c2_algebra.psi_ell_twisted(zero, kappa, tau_half, ell, s1)
        for ell in (5, 10, 20, 40)
    ]
    assert values[0] > values[1] > values[2] > values[3]
    assert values[3] < F(1, 100)
    # the untwisted sequence stays bounded away from zero
    plain = c2_algebra.psi_ell(zero, kappa, tau_half, 20)
    assert plain > F(21, 128)


def test_twisted_sampling_consistent_with_exact(c2, c2_algebra, dist10, tau_half):
    s1 = next(w for w in c2_algebra.group if w.word == (0,))
    weighted = M.twisted_distribution_probabilities(dist10, s1)
    sampler = MC.StepSampler(weighted)
    zero = c2.zero_weight()
    summary = MC.simulate_exits(dist10, zero, 10, 30_000, seed=17, sampler=sampler)
    for ell in (5, 10):
        exact = c2_algebra.psi_ell_twisted(zero, c2.weight((1, 0)), tau_half, ell, s1)
        hits = summary.stay_count_continuous(ell)
        p_hat = hits / summary.n
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / summary.n)
        assert abs(p_hat - float(exact)) <= 4 * se


def test_sandwich_minuscule(c2, c2_algebra, dist10, tau_half):
    report = MC.sandwich_check(dist10, c2.zero_weight(), 30, 30_000, seed=41)
    assert report.kappa0 == (0, 0)
    # the limit bounds pinch: discrete and continuous stay agree for lines
    assert report.lower == report.upper == F(21, 128)
    assert report.lemma_violations == 0
    assert report.bounds_hold
    # straight-line factors: the discrete and continuous events coincide
    assert report.discrete.estimate == report.continuous.estimate
    # the continuous estimate has an exact finite-horizon target
    assert report.continuous.target == c2_algebra.psi_ell(
        c2.zero_weight(), c2.weight((1, 0)), tau_half, 30
    )
    assert report.continuous.within(4.0)


def test_sandwich_strict_case(c2, c2_algebra, tau_half):
    dist = M.build_distribution(c2_algebra, c2.weight((0, 1)), tau_half)
    report = MC.sandwich_check(dist, c2.zero_weight(), 25, 20_000, seed=43)
    assert report.kappa0 == (1, 0)
    assert report.lower < report.upper
    assert report.lemma_violations == 0
    assert report.bounds_hold


def test_module_distribution_sampling(c2, c2_algebra):
    tau = tau_point(c2, [F(1, 4), F(1, 9)], roots=[F(1, 2), F(1, 3)])
    spec = ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((0, 1)), 1)))
    dist = M.build_distribution(c2_algebra, spec, tau)
    summary = MC.simulate_exits(dist, c2.zero_weight(), 6, 20_000, seed=91)
    exact = c2_algebra.psi_ell(c2.zero_weight(), spec, tau, 6)
    hits = summary.stay_count_continuous(6)
    p_hat = hits / summary.n
    se = math.sqrt(p_hat * (1 - p_hat) / summary.n)
    assert abs(p_hat - float(exact)) <= 4 * se


# --- transformed-walk law ---------------------------------------------------------


def test_exhaustive_h_law_matches_markov_product(c2, dist10):
    for ell in (1, 2):
        law = exhaustive_h_trajectories(dist10, ell)
        assert sum(law.values()) == 1
        for traj, prob in law.items():
            assert prob == MC.h_trajectory_prediction(dist10, traj)


def test_sampled_h_law(c2, dist10):
    reports = MC.h_law_reports(dist10, 3, 20_000, seed=57)
    assert reports, "no transitions observed"
    for r in reports:
        assert r.within(4.0), f"{r.name}: {r.estimate} vs {r.target}"
    # the origin row is deterministic
    first = [r for r in reports if r.name.startswith("H (0, 0)->")]
    assert len(first) == 1 and first[0].estimate == 1.0


# --- ratio -----------------------------------------------------------------------


def test_ratio_trivial_at_origin(c2, dist10):
    reports = MC.asymptotic_ratio(dist10, c2.zero_weight(), [2, 4, 6])
    assert reports
    for r in reports:
        assert r.ratio == 1 and r.target == 1


def test_ratio_trend_toward_target(c2, dist10):
    mu = c2.weight((2, 0))  # inside the root lattice
    reports = MC.asymptotic_ratio(dist10, mu, [4, 6, 8, 10])
    assert len(reports) >= 3
    assert reports[-1].deviation < reports[0].deviation


def test_ratio_requires_root_lattice(c2, dist10):
    from weylwalk.errors import DomainError

    with pytest.raises(DomainError):
        MC.asymptotic_ratio(dist10, c2.weight((1, 0)), [4])


def test_reports_serialize(c2, dist10):
    report = MC.estimate_stay_probability(dist10, c2.zero_weight(), 3, 500, seed=2,
                                          target=F(1, 2))
    payload = report.as_dict()
    assert set(payload) >= {"name", "estimate", "n", "stderr", "target", "z"}


def test_nearest_dominant_tie_break(c2):
    """Equidistant candidates resolve to the smaller fw coordinates."""
    a = c2.weight((0, 1))
    b = c2.weight((2, 0))
    goal_mid = tuple(
        (x + y) / 2
        for x, y in zip(c2.ambient(a), c2.ambient(b))
    )
    pick = MC.nearest_dominant(c2, [b, a], goal_mid)
    assert pick == a  # (0, 1) < (2, 0) lexicographically
    assert MC.nearest_dominant(c2, [], goal_mid) is None


def test_exhaustive_h_law_module_source(c2, c2_algebra):
    """Full enumeration of the two-component tensor square, exact law match."""
    tau = tau_point(c2, [F(1, 4), F(1, 9)], roots=[F(1, 2), F(1, 3)])
    spec = ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((0, 1)), 1)))
    dist = M.build_distribution(c2_algebra, spec, tau)
    law = exhaustive_h_trajectories(dist, 2)
    assert sum(law.values()) == 1
    for traj, prob in law.items():
        assert prob == MC.h_trajectory_prediction(dist, traj)
    # the first transformed position is a component top weight
    firsts = {traj[0] for traj in law}
    assert firsts == {(1, 0), (0, 1)}


def test_b3_spin_minuscule_sandwich():
    """Minuscule case in rank three: straight paths, pinched bounds."""
    from weylwalk import build_cartan_datum
    from weylwalk.charalg import CharacterAlgebra

    b3 = build_cartan_datum("B3")
    algebra = CharacterAlgebra(b3)
    spin = b3.weight((0, 0, 1))
    crystal = algebra.cache.get(spin)
    assert len(crystal) == 8
    assert crystal.is_minuscule() and crystal.kappa0().fw == (0, 0, 0)
    tau = tau_point(b3, [F(1, 2), F(1, 3), F(1, 2)])
    dist = M.build_distribution(algebra, spin, tau)
    report = MC.sandwich_check(dist, b3.zero_weight(), 20, 5000, seed=88)
    assert report.lower == report.upper  # bounds pinch for minuscule sources
    assert report.discrete.estimate == report.continuous.estimate
    assert report.lemma_violations == 0 and report.bounds_hold
