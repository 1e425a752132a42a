import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, islice, product

import numpy as np
import pytest

from weylwalk import build_cartan_datum
from weylwalk import montecarlo as MC
from weylwalk import markov as M
from weylwalk.charalg import CharacterAlgebra, tau_point
from weylwalk.crystal import ModuleSpec, TensorNode
from weylwalk.errors import DomainError

from oracles import (exact_picker, exhaustive_h_trajectories, is_minuscule, numpy_philox,
                     scalar_simulate_exits, twisted_distribution_probabilities)

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
    n = 100_000
    counts = [0] * len(sampler.nodes)
    for k in islice(chain.from_iterable(sampler.draws(123)), n):
        counts[k] += 1
    for k, e in enumerate(dist10.entries):
        p = float(e.probability)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts[k] / n - p) <= 4 * se


def test_pick_exact_at_boundaries(a1, a1_algebra):
    tau = tau_point(a1, [F(1, 3)])
    dist = M.build_distribution(a1_algebra, a1.weight((1,)), tau)
    sampler = MC.StepSampler.from_distribution(dist)
    assert sampler.thresholds == [3 * 2**51, 2**53]
    # the boundary 3/4 belongs to the upper cell
    draws = [3 * 2**51, 3 * 2**51 - 1, 0, 2**51]
    assert list(sampler._resolve(_lanes(map(_word, draws)))) == [1, 0, 0, 0]
    assert exact_picker(dist)(k * 2.0**-53 for k in draws) == [1, 0, 0, 0]


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


def test_twisted_sampling_consistent_with_exact(c2, c2_algebra, dist10, tau_half,
                                                monkeypatch):
    s1 = next(w for w in c2_algebra.group if w.word == (0,))
    weighted = twisted_distribution_probabilities(dist10, s1)
    sampler = MC.StepSampler(weighted)
    monkeypatch.setattr(MC.StepSampler, "from_distribution", lambda dist: sampler)
    zero = c2.zero_weight()
    summary = MC.simulate_exits(dist10, zero, 10, 30_000, seed=17)
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


def test_within_is_exact_at_the_edge_of_the_band():
    """A gap equal to the slack passes, where the float gap of 2000 stays
    out of 2000 from psi = 80/81 comes out above the float slack 1/81; a
    gap above the slack by 2^-80 fails."""
    psi = F(80, 81)
    assert abs(1.0 - float(psi)) > float(1 - psi)
    assert MC.bernoulli_report("stay", 2000, 2000, psi, slack=1 - psi).within(4.0)
    assert not MC.bernoulli_report("stay", 2000, 2000, psi - F(1, 2**80),
                                   slack=1 - psi).within(4.0)


def test_bernoulli_report_where_every_sample_or_none_hits():
    """With no target the standard error of hits 0 or n is 0; with a target,
    sigma is the target's sqrt(t(1 - t) / n), and z is 0 on the target."""
    for hits in (0, 2000):
        bare = MC.bernoulli_report("stay", hits, 2000)
        assert (bare.stderr, bare.z) == (0.0, None) and bare.within(4.0)
    psi = F(29790, 29791)
    sigma = math.sqrt(float(psi * (1 - psi)) / 2000)
    every = MC.bernoulli_report("stay", 2000, 2000, psi)
    assert every.stderr == sigma and every.z == (1 - float(psi)) / sigma and every.within(4.0)
    none = MC.bernoulli_report("stay", 0, 2000, psi)
    assert none.stderr == sigma and none.z == -float(psi) / sigma and not none.within(4.0)
    # a target of exactly 1: the band is the point 1
    on = MC.bernoulli_report("stay", 2000, 2000, F(1))
    assert (on.stderr, on.z) == (0.0, 0.0) and on.within(4.0)
    off = MC.bernoulli_report("stay", 0, 2000, F(1))
    assert (off.stderr, off.z) == (0.0, -math.inf) and not off.within(4.0)


def test_nearest_dominant_tie_break(c2):
    """Equidistant candidates resolve to the smaller fw coordinates."""
    a = c2.weight((0, 1))
    b = c2.weight((2, 0))
    goal_mid = tuple(
        (x + y) / 2
        for x, y in zip(c2.realization.to_ambient(a.fw), c2.realization.to_ambient(b.fw))
    )
    pick = MC.nearest_dominant(c2, [b.fw, a.fw], goal_mid)
    assert pick == a.fw  # (0, 1) < (2, 0) lexicographically
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
    # a start far out along one coordinate: A8 takes 2-byte fields, 128 bits a
    # slot, and C2 wide fields
    "A8 adjoint far": ("A8", (1,) + (0,) * 6 + (1,), (512,) + (1,) * 7),
    "C2 (2,0) far": ("C2", (2, 0), (1000, 1)),
    # 729 nodes, more than a byte can name
    "A3 (2,2,2)": ("A3", (2, 2, 2)),
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
    """A slot holds one byte-aligned field per coordinate of one Python int,
    so no int64 word bounds it: starts of +-2^61, far past an int64 field,
    match the oracle with and without the shift."""
    dist, _, kappa0 = _kernel_case("C2 (2,0) far")
    for fw in ((2**61, 1), (1, -2**61), (2**61, 2**61)):
        mu = dist.datum.weight(fw)
        for shift in (None, kappa0):
            summary = MC.simulate_exits(dist, mu, 12, 60, seed=8, kappa0=shift)
            assert summary == scalar_simulate_exits(dist, mu, 12, 60, seed=8, kappa0=shift)


@pytest.mark.parametrize("name", ["C2 (0,1)", "C2 module"])
def test_exit_kernel_chunks_and_short_horizons(name, monkeypatch):
    """The sample set does not depend on the tile: the kernel matches the
    oracle, which draws one row at a time, sample for sample."""
    dist, mu, kappa0 = _kernel_case(name)
    whole = MC.simulate_exits(dist, mu, 9, 202, seed=3, kappa0=kappa0)
    assert whole == scalar_simulate_exits(dist, mu, 9, 202, seed=3, kappa0=kappa0)
    # a zero shift counts the samples that stay discretely but exit
    # continuously, which only the module's (0,1) summand has here
    zero = mu - mu
    # a tile of 40 takes 4 rows of 9 at a time, so the last of 51 groups holds
    # 2; a tile of 4 works each row in slices of 4, 4 and 1 steps
    for tile in (40, 4):
        monkeypatch.setattr(MC, "TILE", tile)
        for shift in (None, zero, kappa0):
            summary = MC.simulate_exits(dist, mu, 9, 202, seed=3, kappa0=shift)
            assert summary == scalar_simulate_exits(dist, mu, 9, 202, seed=3, kappa0=shift)
            assert (summary.lemma_violations > 0) == (shift is zero and name == "C2 module")
        assert summary == whole
        # exits in the second and third slices read the position carried over
        assert {e for e in summary.continuous_exit + summary.discrete_exit
                if e is not None and e > 4}
        for horizon in (0, 1):
            for shift in (None, kappa0):
                summary = MC.simulate_exits(dist, mu, horizon, 60, seed=4, kappa0=shift)
                assert summary == scalar_simulate_exits(dist, mu, horizon, 60, seed=4,
                                                        kappa0=shift)
    assert MC.simulate_exits(dist, mu, 5, 0, seed=4).continuous_exit == []


@pytest.mark.parametrize("shift", [False, True], ids=["plain", "kappa0"])
def test_exit_kernel_carries_two_words_across_slices(monkeypatch, shift):
    """A slot of 128 bits, carried from slice to slice of a row."""
    dist, mu, kappa0 = _kernel_case("A8 adjoint far")
    kappa0 = kappa0 if shift else None
    monkeypatch.setattr(MC, "TILE", 5)
    summary = MC.simulate_exits(dist, mu, 12, 200, seed=29, kappa0=kappa0)
    assert summary == scalar_simulate_exits(dist, mu, 12, 200, seed=29, kappa0=kappa0)
    assert {e for e in summary.continuous_exit if e is not None and e > 5}


def test_exit_kernel_memory_does_not_grow_with_the_horizon():
    """Every buffer spans one tile: 3 samples of A1 (1) over 2^18 steps, 8
    tiles a row, peak at a few MiB, where drawing and testing whole rows took
    about 50 bytes per uniform, about 38 MiB here."""
    datum = build_cartan_datum("A1")
    tau = tau_point(datum, [F(1, 3)])
    dist = M.build_distribution(CharacterAlgebra(datum), datum.weight((1,)), tau)
    MC.simulate_exits(dist, datum.zero_weight(), 2, 2, seed=1)
    tracemalloc.start()
    try:
        summary = MC.simulate_exits(dist, datum.zero_weight(), 2**18, 3, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.n == 3 and peak < 8 * 2**20


def test_one_row_tiles_stay_under_two_mib():
    """10 samples of A1 (1) over 2^17 steps, each row in four one-row tiles of
    2^15 slots: at most 2 MiB traced at the peak, where building the step
    counts slot by slot and 15 masks a tile took 4.6 MiB."""
    datum = build_cartan_datum("A1")
    tau = tau_point(datum, [F(1, 3)])
    dist = M.build_distribution(CharacterAlgebra(datum), datum.weight((1,)), tau)
    MC.simulate_exits(dist, datum.zero_weight(), 2, 2, seed=1)
    tracemalloc.start()
    try:
        summary = MC.simulate_exits(dist, datum.zero_weight(), 2**17, 10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.n == 10 and peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("rows,cols,stride", [(1, 1, 2), (1, 9, 1), (1, 2**12, 3), (3, 7, 2),
                                              (5, 16, 4)])
def test_tile_shape_counts_steps_and_masks_rows(rows, cols, stride):
    """The tile constants, slot by slot: a 1 in every slot, t + 1 in slot t of
    each row, and per doubling d the mask of the slots t >= d of every row,
    or for one row any mask that keeps the row and clears what lies above."""
    ones, ramp, doublings = MC._tile_shape(rows, cols, stride)
    slot = 8 * stride
    assert ones == sum(1 << slot * k for k in range(rows * cols))
    assert ramp == sum((k % cols + 1) << slot * k for k in range(rows * cols))
    assert [s for s, _ in doublings] == [slot * d for d in (1, 2, 4, 8, 16, 32, 64, 128, 256,
                                                            512, 1024, 2048) if d < cols]
    for s, mask in doublings:
        d = s // slot
        rows_mask = sum(((1 << slot) - 1) << slot * k for k in range(rows * cols)
                        if k % cols >= d)
        if rows == 1:
            assert mask & rows_mask == rows_mask and mask >> slot * cols == 0
        else:
            assert mask == rows_mask


def test_stay_counts_read_exit_steps(c2, dist10):
    summary = MC.simulate_exits(dist10, c2.zero_weight(), 20, 3000, seed=71)
    for ell in range(-1, 23):
        for exits, count in ((summary.continuous_exit, summary.stay_count_continuous),
                             (summary.discrete_exit, summary.stay_count_discrete)):
            assert count(ell) == sum(1 for e in exits if e is None or e > ell)


def _boundary_dist():
    """G2 (1,0) at a generic tau: seven cells, boundaries of large height."""
    g2 = build_cartan_datum("G2")
    algebra = CharacterAlgebra(g2)
    return M.build_distribution(algebra, g2.weight((1, 0)), tau_point(g2, [F(3, 7), F(2, 9)]))


def _group_edge_dist():
    """A1 (1) at tau 1/3: the boundary 3/4 is the group edge 192/256."""
    a1 = build_cartan_datum("A1")
    dist = M.build_distribution(CharacterAlgebra(a1), a1.weight((1,)), tau_point(a1, [F(1, 3)]))
    assert dist.entries[0].probability == F(192, MC.GROUPS)
    return dist


def _edge_draws(sampler):
    """The integer draws k of the uniforms k / 2^53 at the edges: 0, the last
    draw 2^53 - 1, every group edge with its two neighbours, and every
    threshold T with T - 1 below it."""
    edges = {0, 2**53 - 1}
    for g in range(MC.GROUPS):
        edges |= {(g << 45) - 1, g << 45, (g << 45) + 1}
    for t in sampler.thresholds:
        edges |= {t - 1, t}
    return sorted(k for k in edges if 0 <= k < 2**53)


def _word(k, low_bits=0):
    """The Philox word of the draw k; its low 11 bits do not reach k."""
    return k << 11 | low_bits


def _lanes(words):
    """Words, four to a block, laid out as one chunk of ``philox_lanes``."""
    words = list(words)
    words += [0] * (-len(words) % 4)
    return tuple(b"".join(x.to_bytes(8, "little") + bytes(8) for x in words[w::4])
                 for w in range(4))


def _stream_words(lanes):
    """The words of a chunk of ``philox_lanes``, in stream order."""
    return [int.from_bytes(lanes[w][16 * j:16 * j + 8], "little")
            for j in range(len(lanes[0]) // 16) for w in range(4)]


def test_node_stream_is_exact_at_edges():
    """Every edge draw, with its low 11 bits clear and set, in one chunk and
    one word a chunk, picks the oracle's node; A3 (2,2,2) has 16-bit picks."""
    for dist in (_boundary_dist(), _group_edge_dist(), _kernel_case("A3 (2,2,2)")[0]):
        sampler = MC.StepSampler.from_distribution(dist)
        edges = _edge_draws(sampler)
        exact = exact_picker(dist)(k * 2.0**-53 for k in edges)
        for low_bits in (0, 2**11 - 1):
            picks = sampler._resolve(_lanes(_word(k, low_bits) for k in edges))
            assert list(picks)[:len(edges)] == exact
            # one draw at a time, each the first word of its chunk
            assert [sampler._resolve(_lanes([_word(k, low_bits)]))[0] for k in edges] == exact


def test_node_stream_is_exact_on_a_stream(monkeypatch):
    """200 x 30 draws of the seed's stream, over the edge of a chunk of
    ``4 * LANES`` draws, and with one and three lanes a chunk."""
    dist = _boundary_dist()
    sampler = MC.StepSampler.from_distribution(dist)
    exact = exact_picker(dist)(numpy_philox(5).random(200 * 30))
    assert 200 * 30 > 4 * MC.LANES
    for lanes in (MC.LANES, 1, 3):
        monkeypatch.setattr(MC, "LANES", lanes)
        chunks = list(islice(sampler.draws(5), -(-200 * 30 // (4 * lanes))))
        assert {len(c) for c in chunks} == {4 * lanes}
        assert list(chain.from_iterable(chunks))[:200 * 30] == exact


def test_node_stream_hands_open_draws_to_pick(monkeypatch):
    """A spy on the bisect sees the draw of every word whose group the table
    leaves open, once and in order, and no other draw: on a stream and at the
    edges.  G2 (1,0) opens groups, and on the stream the share of such draws
    stays below twice the share of open groups, at most len(nodes) - 1 of
    256; A1 (1), whose threshold 3/4 is a group edge, opens none."""
    stream = list(islice(MC.philox_lanes(5), 2))
    cases = [(_boundary_dist(), stream)]
    cases += [(d, None) for d in (_boundary_dist(), _group_edge_dist())]
    for dist, chunks in cases:
        sampler = MC.StepSampler.from_distribution(dist)
        groups = sampler._groups
        if chunks is None:
            chunks = [_lanes(map(_word, _edge_draws(sampler)))]
        seen = []

        def spy(thresholds, k, sampler=sampler, seen=seen):
            assert thresholds is sampler.thresholds
            seen.append(k)
            return bisect_right(thresholds, k)

        with monkeypatch.context() as patch:
            patch.setattr(MC, "bisect_right", spy)
            picks = list(chain.from_iterable(sampler._resolve(c) for c in chunks))
        words = [x for c in chunks for x in _stream_words(c)]
        assert seen == [x >> 11 for x in words if groups[x >> 56] == MC.OPEN]
        assert groups.count(MC.OPEN) <= len(sampler.nodes) - 1
        assert (MC.OPEN in groups) == (len(sampler.nodes) == 7) == bool(seen)
        assert len(seen) < len(words)
        if chunks is stream:
            assert len(seen) < 2 * len(words) * groups.count(MC.OPEN) // MC.GROUPS
        assert picks == exact_picker(dist)((x >> 11) * 2.0**-53 for x in words)


SOURCES = ["A2 (1,0)", "C2 (1,0)", "C2 (0,1)", "C2 (2,0)", "G2 (1,0)", "B3 (0,0,1)"]


@pytest.mark.parametrize("name", SOURCES)
def test_groups_open_only_on_a_threshold(name):
    """At every tau of the benchmark's Monte-Carlo pool, a group [g 2^45,
    (g+1) 2^45) is open exactly when a threshold lies past its first draw and
    at or below its last, so a source of at most 255 nodes leaves at most
    len(nodes) - 1 groups open.  The picks are exact on a stream and at the
    edges."""
    label, kappa = KERNEL_CASES[name]
    datum = build_cartan_datum(label)
    algebra = CharacterAlgebra(datum)
    for taus in product([F(2, 5), F(1, 2), F(3, 5)], repeat=datum.rank):
        dist = M.build_distribution(algebra, datum.weight(kappa), tau_point(datum, list(taus)))
        sampler = MC.StepSampler.from_distribution(dist)
        assert len(sampler.nodes) <= MC.OPEN
        assert sampler._groups.count(MC.OPEN) <= len(sampler.nodes) - 1
        assert [byte == MC.OPEN for byte in sampler._groups] == [
            any(g << 45 < t < (g + 1) << 45 for t in sampler.thresholds)
            for g in range(MC.GROUPS)]
    draws = [int(x * 2**53) for x in numpy_philox(11).random(3000)] + _edge_draws(sampler)
    picks = chain.from_iterable(sampler._resolve(_lanes(map(_word, draws[i:i + 4096])))
                                for i in range(0, len(draws), 4096))
    assert list(picks)[:len(draws)] == exact_picker(dist)(k * 2.0**-53 for k in draws)


@pytest.mark.parametrize("name", SOURCES)
def test_top_group_and_bucket_settle(name):
    """No draw below 2^53 picks past the last node, whose threshold is 2^53,
    so at every tau of the benchmark's Monte-Carlo pool the last draw
    2^53 - 1 picks the last node, and the top group settles it unless a
    lower threshold lies in it."""
    label, kappa = KERNEL_CASES[name]
    datum = build_cartan_datum(label)
    algebra = CharacterAlgebra(datum)
    for taus in product([F(2, 5), F(1, 2), F(3, 5)], repeat=datum.rank):
        dist = M.build_distribution(algebra, datum.weight(kappa), tau_point(datum, list(taus)))
        sampler = MC.StepSampler.from_distribution(dist)
        last = len(sampler.nodes) - 1
        assert sampler.thresholds[-1] == 2**53
        top = [_word(2**53 - 1), _word(2**53 - 1, 2**11 - 1), _word(MC.GROUPS - 1 << 45)]
        assert list(sampler._resolve(_lanes(top)))[:2] == [last, last]
        top_free = sampler.thresholds[-2] <= MC.GROUPS - 1 << 45
        assert (sampler._groups[-1] == last) == top_free
        assert top_free or label in ("G2", "B3")


def test_boundary_rounding_to_one_settles_every_group():
    """A boundary 1 - 2^-60, whose float is 1.0, has the threshold 2^53,
    which no draw reaches: every group, the top one too, settles node 0, and
    the last draw 2^53 - 1 picks it."""
    sampler = MC.StepSampler([(None, 0, 1 - F(1, 2**60)), (None, 1, F(1, 2**60))])
    assert sampler.thresholds == [2**53, 2**53]
    assert sampler._groups == bytes(MC.GROUPS)
    words = [_word(2**53 - 1), _word(2**53 - 1, 2**11 - 1), _word(2**52)]
    assert sampler._resolve(_lanes(words))[:3] == bytearray(3)


def test_empirical_h_law_reads_one_row_per_sample(c2, dist10):
    sampler = MC.StepSampler.from_distribution(dist10)
    picks = exact_picker(dist10)
    rng = numpy_philox(19)
    expected = {}
    for _ in range(300):
        row = picks(rng.random(size=3))
        node = TensorNode(tuple(sampler.nodes[k] for k in row))
        hs = [(0, 0)] + M.pitman_prefix_weights(c2, node)
        for a, b in zip(hs, hs[1:]):
            expected[(a, b)] = expected.get((a, b), 0) + 1
    assert MC.empirical_h_law(dist10, 3, 300, seed=19) == expected


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**63 + 5, 2**64 - 1])
def test_python_stream_equals_numpy_philox(seed, monkeypatch):
    """The pure-Python Philox4x64-10 yields numpy's words bit for bit, across
    the edges of blocks (4 words) and of lane chunks (4 * LANES words),
    whatever the number of lanes, and so numpy's doubles."""
    for lanes, k in ((MC.LANES, 2 * 4 * MC.LANES + 5), (1, 29), (3, 29)):
        monkeypatch.setattr(MC, "LANES", lanes)
        chunks = islice(MC.philox_lanes(seed), -(-k // (4 * lanes)))
        words = list(chain.from_iterable(map(_stream_words, chunks)))[:k]
        raw = np.random.Philox(key=np.uint64(seed)).random_raw(k).tolist()
        assert words == raw
        assert [(x >> 11) * 2.0**-53 for x in words] == numpy_philox(seed).random(k).tolist()


@pytest.mark.parametrize("seed", [1.5, True, False, -1, 2**64, "1", None])
def test_seeds_outside_the_philox_keys_are_refused(c2, dist10, seed):
    """Both evaluators of the stream refuse a seed that is not an int key in
    [0, 2^64), before they draw, and so do the samplers that read them."""
    sampler = MC.StepSampler.from_distribution(dist10)
    for stream in (numpy_philox, MC.philox_lanes, sampler.draws):
        with pytest.raises(DomainError):
            stream(seed)
    with pytest.raises(DomainError):
        MC.simulate_exits(dist10, c2.zero_weight(), 3, 5, seed=seed)
    with pytest.raises(DomainError):
        MC.empirical_h_law(dist10, 3, 5, seed=seed)
