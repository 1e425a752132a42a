import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from weylwalk import build_cartan_datum
from weylwalk import montecarlo as MC
from weylwalk import markov as M
from weylwalk.charalg import CharacterAlgebra, tau_point
from weylwalk.crystal import ModuleSpec, TensorNode

from oracles import exhaustive_h_trajectories, is_minuscule, scalar_simulate_exits

F = Fraction


@pytest.fixture()
def dist10(c2, c2_algebra, tau_half):
    return M.build_distribution(c2_algebra, c2.weight((1, 0)), tau_half)


def test_sampling_is_deterministic(c2, dist10):
    a = MC.simulate_exits(dist10, c2.zero_weight(), 25, 200, seed=99)
    assert a == MC.simulate_exits(dist10, c2.zero_weight(), 25, 200, seed=99)
    assert a != MC.simulate_exits(dist10, c2.zero_weight(), 25, 200, seed=100)


def test_zero_horizon(c2, dist10):
    summary = MC.simulate_exits(dist10, c2.weight((2, 1)), 0, 10, seed=1)
    assert summary.continuous_exit == summary.discrete_exit == [None] * 10
    assert summary.stay_count_continuous(0) == summary.stay_count_discrete(5) == 10


def test_empirical_step_law(c2, dist10):
    sampler = MC.StepSampler.from_distribution(dist10)
    rng = MC._rng(123)
    n = 100_000
    counts = [0] * len(sampler.nodes)
    for k in sampler.pick_many(rng.random(size=n)).tolist():
        counts[k] += 1
    for k, e in enumerate(dist10.entries):
        p = float(e.probability)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts[k] / n - p) <= 4 * se


def test_pick_exact_at_boundaries(a1, a1_algebra):
    tau = tau_point(a1, [F(1, 3)])
    dist = M.build_distribution(a1_algebra, a1.weight((1,)), tau)
    sampler = MC.StepSampler.from_distribution(dist)
    assert sampler.cum_fracs == [F(3, 4), F(1)]
    # the boundary 3/4 belongs to the upper cell
    assert sampler.pick_many(np.array([0.75, 0.7499999999, 0.0])).tolist() == [1, 0, 0]


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
    summary = MC.simulate_exits(dist10, zero, 4, 40_000, seed=31)
    report = MC.bernoulli_report("stay<=L=4", summary.stay_count_continuous(4), 40_000, exact)
    assert report.within(4.0)


def test_stay_curve_reports(c2, dist10):
    summary = MC.simulate_exits(dist10, c2.zero_weight(), 9, 2000, seed=3)
    assert summary.n == len(summary.continuous_exit) == 2000
    stays = [summary.stay_count_continuous(ell) for ell in (2, 5, 9)]
    assert stays[0] >= stays[1] >= stays[2]


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
    summary = MC.simulate_exits(dist10, c2.zero_weight(), 3, 500, seed=2)
    report = MC.bernoulli_report("stay<=L=3", summary.stay_count_continuous(3), 500, F(1, 2))
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
    assert is_minuscule(crystal) and crystal.kappa0().fw == (0, 0, 0)
    tau = tau_point(b3, [F(1, 2), F(1, 3), F(1, 2)])
    dist = M.build_distribution(algebra, spin, tau)
    report = MC.sandwich_check(dist, b3.zero_weight(), 20, 5000, seed=88)
    assert report.lower == report.upper  # bounds pinch for minuscule sources
    assert report.discrete.estimate == report.continuous.estimate
    assert report.lemma_violations == 0 and report.bounds_hold


# --- the vectorized exit kernel against the scalar oracle ----------------------------


KERNEL_CASES = {
    "A2 (1,0)": ("A2", (1, 0)),
    "C2 (1,0)": ("C2", (1, 0)),
    "C2 (0,1)": ("C2", (0, 1)),
    "C2 (2,0)": ("C2", (2, 0)),
    "G2 (1,0)": ("G2", (1, 0)),
    "B3 (0,0,1)": ("B3", (0, 0, 1)),
    "C2 module": ("C2", "module"),
    # a start far out along one coordinate: A8 needs two packed words, C2 wide fields
    "A8 adjoint far": ("A8", (1,) + (0,) * 6 + (1,), (512,) + (1,) * 7),
    "C2 (2,0) far": ("C2", (2, 0), (1000, 1)),
}


def _kernel_case(name):
    """Distribution, start and kappa0 of a kernel case; the start is omega_1
    unless the case names one."""
    label, kappa, *start = KERNEL_CASES[name]
    datum = build_cartan_datum(label)
    algebra = CharacterAlgebra(datum)
    if kappa == "module":
        spec = ModuleSpec(((datum.weight((1, 0)), 1), (datum.weight((0, 1)), 2)))
        tau = tau_point(datum, [F(1, 4), F(1, 9)], roots=[F(1, 2), F(1, 3)])
        dist = M.build_distribution(algebra, spec, tau)
        kappa0 = datum.weight((1, 0))
    else:
        tau = tau_point(datum, [F(1, 2)] + [F(2, 5)] * (datum.rank - 1))
        dist = M.build_distribution(algebra, datum.weight(kappa), tau)
        kappa0 = dist.crystals[0][0].kappa0()
    omega1 = (1,) + (0,) * (datum.rank - 1)
    return dist, datum.weight(start[0] if start else omega1), kappa0


@pytest.mark.parametrize("shift", [False, True], ids=["plain", "kappa0"])
@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_exit_kernel_equals_scalar_oracle(name, shift):
    dist, mu, kappa0 = _kernel_case(name)
    kappa0 = kappa0 if shift else None
    summary = MC.simulate_exits(dist, mu, 12, 400, seed=29, kappa0=kappa0)
    assert summary == scalar_simulate_exits(dist, mu, 12, 400, seed=29, kappa0=kappa0)
    assert any(e is None for e in summary.continuous_exit)
    assert any(e is not None for e in summary.continuous_exit)


def test_packed_kernel_splits_into_words():
    """Eight A8 fields wide enough for a start coordinate of 512 overflow one
    word and take two; the two C2 fields for 1000 fit in one."""
    for name, words in (("A8 adjoint far", 2), ("C2 (2,0) far", 1)):
        dist, mu, kappa0 = _kernel_case(name)
        sampler = MC.StepSampler.from_distribution(dist)
        for shift in (None, kappa0.fw):
            width, packed = MC._packed_words(sampler, mu.fw, shift, 12)
            assert width >= 12 and len(packed) == words
            assert (len(mu.fw) * width > MC.WORD_BITS) == (words > 1)
    from weylwalk.errors import DomainError

    # a start too far out for one int64 field is refused, not wrapped
    with pytest.raises(DomainError):
        MC._packed_words(sampler, (2 ** 61, 1), None, 12)


@pytest.mark.parametrize("name", ["C2 (0,1)", "C2 module"])
def test_exit_kernel_chunks_and_short_horizons(name):
    dist, mu, kappa0 = _kernel_case(name)
    # n not a multiple of the chunk: the last block is short
    small = MC.simulate_exits(dist, mu, 9, 50, seed=3, kappa0=kappa0, chunk=7)
    assert small == scalar_simulate_exits(dist, mu, 9, 50, seed=3, kappa0=kappa0, chunk=7)
    # the sample set does not depend on the chunk size
    assert small == MC.simulate_exits(dist, mu, 9, 50, seed=3, kappa0=kappa0)
    for horizon in (0, 1):
        summary = MC.simulate_exits(dist, mu, horizon, 60, seed=4, kappa0=kappa0, chunk=16)
        assert summary == scalar_simulate_exits(dist, mu, horizon, 60, seed=4,
                                                kappa0=kappa0, chunk=16)
    assert MC.simulate_exits(dist, mu, 5, 0, seed=4).continuous_exit == []


def test_stay_counts_read_exit_steps(c2, dist10):
    summary = MC.simulate_exits(dist10, c2.zero_weight(), 20, 3000, seed=71)
    for ell in range(-1, 23):
        for exits, count in ((summary.continuous_exit, summary.stay_count_continuous),
                             (summary.discrete_exit, summary.stay_count_discrete)):
            assert count(ell) == sum(1 for e in exits if e is None or e > ell)


def _boundary_sampler():
    """G2 (1,0) at a generic tau: seven cells, boundaries of large height."""
    g2 = build_cartan_datum("G2")
    algebra = CharacterAlgebra(g2)
    dist = M.build_distribution(algebra, g2.weight((1, 0)), tau_point(g2, [F(3, 7), F(2, 9)]))
    return MC.StepSampler.from_distribution(dist)


def _bucket_edge_sampler():
    """A1 (1) at tau 1/3: the boundary 3/4 is the bucket edge 3072/4096."""
    a1 = build_cartan_datum("A1")
    dist = M.build_distribution(CharacterAlgebra(a1), a1.weight((1,)), tau_point(a1, [F(1, 3)]))
    sampler = MC.StepSampler.from_distribution(dist)
    assert sampler.cum_fracs[0] == F(3072, MC.BUCKETS)
    return sampler


def test_pick_many_is_exact_at_edges():
    for sampler in (_boundary_sampler(), _bucket_edge_sampler()):
        below_one = [np.nextafter(1.0, 0.0), 1 - 1e-10, 1 - 1e-12]
        edges = [0.0] + below_one
        for c in sampler.cum_floats[:-1]:
            edges += [c, c - 1e-10, c + 1e-10, np.nextafter(c, 0.0), np.nextafter(c, 1.0)]
        # both sides of every bucket edge
        for k in range(1, MC.BUCKETS):
            edges += [k / MC.BUCKETS - 1e-12, k / MC.BUCKETS, k / MC.BUCKETS + 1e-12]
        u = np.array(edges)
        exact = [bisect_right(sampler.cum_fracs, F(x)) for x in edges]
        assert sampler.pick_many(u).tolist() == exact
        assert [int(sampler.pick_many(np.array([x]))[0]) for x in edges] == exact
        # any shape, one index per uniform
        assert sampler.pick_many(u.reshape(-1, 1)).ravel().tolist() == exact


def test_pick_many_is_exact_on_a_stream():
    sampler = _boundary_sampler()
    u = MC._rng(5).random(size=(200, 30))
    picks = sampler.pick_many(u)
    assert picks.shape == u.shape
    assert picks.ravel().tolist() == [bisect_right(sampler.cum_fracs, F(x)) for x in u.ravel()]


def test_empirical_h_law_reads_one_row_per_sample(c2, dist10):
    sampler = MC.StepSampler.from_distribution(dist10)
    rng = MC._rng(19)
    expected = {}
    for _ in range(300):
        row = [bisect_right(sampler.cum_fracs, F(x)) for x in rng.random(size=3)]
        node = TensorNode(tuple(sampler.nodes[k] for k in row))
        hs = [(0, 0)] + M.pitman_prefix_weights(c2, node)
        for a, b in zip(hs, hs[1:]):
            expected[(a, b)] = expected.get((a, b), 0) + 1
    assert MC.empirical_h_law(dist10, 3, 300, seed=19) == expected
