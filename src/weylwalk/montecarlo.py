"""Sampling of the random path, cone-exit estimators and exact/empirical
comparisons.

Random draws come from a counter-based generator (Philox keyed by the seed),
so runs are reproducible and the stream could be split across workers.  The
stay-in-cone events are decided in exact integer arithmetic: the step by node
b from position x stays in the cone exactly when x_i >= eps_i(b) for every
color i, since the minimum of h_i along b is -eps_i(b).  Floats only ever
enter through the uniform variates themselves, and each draw is resolved
against the exact rational cumulative weights.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cartan import Weight
from .crystal import CrystalGraph, TensorNode
from .errors import DomainError
from .markov import CrystalDistribution, hchain_entry, pitman_prefix_weights


@dataclass
class EstimatorReport:
    """Bernoulli estimate with its standard error and optional exact target.

    ``slack`` widens the acceptance band to max(sigmas * stderr, slack); it
    carries an exact truncation allowance when the target is an
    infinite-horizon limit probed at a finite horizon.
    """

    name: str
    estimate: float
    n: int
    stderr: float
    target: Optional[Fraction] = None
    z: Optional[float] = None
    slack: float = 0.0
    notes: Dict[str, object] = field(default_factory=dict)

    def within(self, sigmas: float, slack: Optional[float] = None) -> bool:
        if self.target is None:
            return True
        allowance = self.slack if slack is None else slack
        gap = abs(self.estimate - float(self.target))
        return gap <= max(sigmas * self.stderr, allowance)

    def as_dict(self) -> Dict[str, object]:
        out = {
            "name": self.name,
            "estimate": self.estimate,
            "n": self.n,
            "stderr": self.stderr,
        }
        if self.target is not None:
            out["target"] = str(self.target)
            out["target_float"] = float(self.target)
            out["z"] = self.z
        out.update({k: (str(v) if isinstance(v, Fraction) else v) for k, v in self.notes.items()})
        return out


def _bernoulli_report(name: str, hits: int, n: int, target: Optional[Fraction] = None,
                      slack: float = 0.0, **notes) -> EstimatorReport:
    p_hat = hits / n
    stderr = math.sqrt(max(p_hat * (1 - p_hat), 1e-300) / n)
    z = None
    if target is not None:
        z = (p_hat - float(target)) / stderr if stderr > 0 else math.inf
    return EstimatorReport(name, p_hat, n, stderr, target, z, slack, dict(notes))


class StepSampler:
    """Inverse-CDF sampler over a finite node list with exact boundaries."""

    def __init__(self, weighted_nodes: Sequence[Tuple[CrystalGraph, int, Fraction]]):
        self.nodes = [(c, i) for c, i, _ in weighted_nodes]
        cums: List[Fraction] = []
        acc = Fraction(0)
        for _, _, p in weighted_nodes:
            if p <= 0:
                raise DomainError("step probabilities must be positive")
            acc += p
            cums.append(acc)
        if acc != 1:
            raise DomainError(f"step probabilities sum to {acc}")
        self.cum_fracs = cums
        self.cum_floats = [float(c) for c in cums]
        # integer data per node: weight and raising depths
        self.weights = [c.weights[i].fw for c, i in self.nodes]
        self.eps = [c.eps[i] for c, i in self.nodes]

    @classmethod
    def from_distribution(cls, dist: CrystalDistribution) -> "StepSampler":
        return cls([(e.crystal, e.node, e.probability) for e in dist.entries])

    def pick(self, u: float) -> int:
        """Index of the sampled node; exact against the rational boundaries."""
        idx = bisect_right(self.cum_floats, u)
        # the float bisect can be off only within rounding distance of a
        # boundary; settle those cases against the exact boundaries
        lo = self.cum_floats[idx - 1] if idx > 0 else -1.0
        hi = self.cum_floats[idx] if idx < len(self.cum_floats) else 2.0
        if u - lo <= 1e-9 or hi - u <= 1e-9:
            idx = bisect_right(self.cum_fracs, Fraction(u))
        return min(idx, len(self.cum_fracs) - 1)

    def continuous_stay(self, pos: Tuple[int, ...], node_idx: int) -> bool:
        """Whether pos + path stays dominant across the step: pos >= eps."""
        return all(p >= e for p, e in zip(pos, self.eps[node_idx]))


@dataclass
class WalkSample:
    seed: int
    start: Tuple[int, ...]
    steps: List[int]
    positions: List[Tuple[int, ...]]  # positions after each step
    stay_flags: List[bool]  # continuous stay during step k


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def sample_walk(dist: CrystalDistribution, mu: Weight, horizon: int, seed: int,
                sampler: Optional[StepSampler] = None) -> WalkSample:
    """One reproducible trajectory of length ``horizon`` started at mu."""
    sampler = sampler or StepSampler.from_distribution(dist)
    rng = _rng(seed)
    pos = mu.fw
    steps: List[int] = []
    positions: List[Tuple[int, ...]] = []
    flags: List[bool] = []
    for _ in range(horizon):
        u = rng.random()
        k = sampler.pick(u)
        steps.append(k)
        flags.append(sampler.continuous_stay(pos, k))
        pos = tuple(p + w for p, w in zip(pos, sampler.weights[k]))
        positions.append(pos)
    return WalkSample(seed, mu.fw, steps, positions, flags)


@dataclass
class ExitSummary:
    """First violation steps per sample; None means no violation up to L."""

    horizon: int
    n: int
    continuous_exit: List[Optional[int]]
    discrete_exit: List[Optional[int]]
    lemma_violations: int

    def stay_count_continuous(self, ell: int) -> int:
        return sum(1 for e in self.continuous_exit if e is None or e > ell)

    def stay_count_discrete(self, ell: int) -> int:
        return sum(1 for e in self.discrete_exit if e is None or e > ell)


def simulate_exits(dist: CrystalDistribution, mu: Weight, horizon: int, n: int,
                   seed: int, kappa0: Optional[Weight] = None,
                   sampler: Optional[StepSampler] = None,
                   chunk: int = 8192) -> ExitSummary:
    """First continuous/discrete cone-exit step over n independent samples.

    Each sample consumes exactly ``horizon`` uniforms, so the sample set for
    a given (seed, horizon, n) is independent of any early stopping and
    nested events across smaller horizons refer to identical trajectories.
    When ``kappa0`` is given, every sample that stays discretely also has its
    kappa0-shifted continuous trajectory checked (exactly) and violations of
    that implication are counted.
    """
    sampler = sampler or StepSampler.from_distribution(dist)
    rng = _rng(seed)
    cont_exit: List[Optional[int]] = []
    disc_exit: List[Optional[int]] = []
    lemma_bad = 0
    shifted = None if kappa0 is None else tuple(a + b for a, b in zip(mu.fw, kappa0.fw))
    remaining = n
    while remaining > 0:
        block = min(chunk, remaining)
        us = rng.random(size=(block, horizon))
        for row in us:
            pos = mu.fw
            c_exit: Optional[int] = None
            d_exit: Optional[int] = None
            shifted_ok = True
            spos = shifted
            for step in range(horizon):
                k = sampler.pick(float(row[step]))
                if c_exit is None and not sampler.continuous_stay(pos, k):
                    c_exit = step + 1
                if spos is not None and not sampler.continuous_stay(spos, k):
                    shifted_ok = False
                pos = tuple(p + w for p, w in zip(pos, sampler.weights[k]))
                if spos is not None:
                    spos = tuple(p + w for p, w in zip(spos, sampler.weights[k]))
                if d_exit is None and any(c < 0 for c in pos):
                    d_exit = step + 1
                # a full row of uniforms is drawn up front, so stopping after
                # both exits (which also settles the shift lemma) cannot
                # perturb later samples
                if c_exit is not None and d_exit is not None:
                    break
            cont_exit.append(c_exit)
            disc_exit.append(d_exit)
            if kappa0 is not None and d_exit is None and not shifted_ok:
                lemma_bad += 1
        remaining -= block
    return ExitSummary(horizon, n, cont_exit, disc_exit, lemma_bad)


def estimate_stay_probability(dist: CrystalDistribution, mu: Weight, horizon: int,
                              n: int, seed: int,
                              target: Optional[Fraction] = None) -> EstimatorReport:
    """Estimate of the continuous stay probability up to the horizon."""
    summary = simulate_exits(dist, mu, horizon, n, seed)
    hits = summary.stay_count_continuous(horizon)
    return _bernoulli_report(f"stay<=L={horizon}", hits, n, target)


def stay_probability_curve(dist: CrystalDistribution, mu: Weight, horizons: Sequence[int],
                           n: int, seed: int) -> List[EstimatorReport]:
    """Nested estimates over several horizons computed from the same samples."""
    top = max(horizons)
    summary = simulate_exits(dist, mu, top, n, seed)
    return [
        _bernoulli_report(f"stay<=L={ell}", summary.stay_count_continuous(ell), n)
        for ell in horizons
    ]


def empirical_h_law(dist: CrystalDistribution, ellmax: int, n: int, seed: int
                    ) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]:
    """Sampled transition counts of the transformed walk up to time ellmax."""
    sampler = StepSampler.from_distribution(dist)
    rng = _rng(seed)
    datum = dist.datum
    counts: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    zero_fw = (0,) * datum.rank
    for _ in range(n):
        us = rng.random(size=ellmax)
        factors = tuple(sampler.nodes[sampler.pick(float(u))] for u in us)
        node = TensorNode(factors)
        hs = [zero_fw] + [w.fw for w in pitman_prefix_weights(datum, node)]
        for a, b in zip(hs, hs[1:]):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def h_law_reports(dist: CrystalDistribution, ellmax: int, n: int, seed: int
                  ) -> List[EstimatorReport]:
    """Empirical transformed-walk step frequencies against the exact kernel.

    Frequencies are conditioned on the source state; each (mu, lam) pair seen
    is compared to the closed-form transition entry.
    """
    counts = empirical_h_law(dist, ellmax, n, seed)
    by_source: Dict[Tuple[int, ...], int] = {}
    for (a, _), c in counts.items():
        by_source[a] = by_source.get(a, 0) + c
    datum = dist.datum
    reports = []
    for (a, b), c in sorted(counts.items()):
        mu = datum.weight(a)
        lam = datum.weight(b)
        exact = hchain_entry(dist, mu, lam)
        reports.append(
            _bernoulli_report(f"H {a}->{b}", c, by_source[a], exact)
        )
    return reports


def h_trajectory_prediction(dist: CrystalDistribution, traj: Sequence[Tuple[int, ...]]
                            ) -> Fraction:
    """Markov-chain prediction for a transformed-walk trajectory from 0."""
    datum = dist.datum
    prev = datum.weight((0,) * datum.rank)
    out = Fraction(1)
    for fw in traj:
        cur = datum.weight(fw)
        out *= hchain_entry(dist, prev, cur)
        prev = cur
    return out


@dataclass
class SandwichReport:
    mu: Tuple[int, ...]
    kappa0: Tuple[int, ...]
    discrete: EstimatorReport
    continuous: EstimatorReport
    lower: Fraction
    upper: Fraction
    upper_finite: Fraction
    exact_horizon: int
    lemma_violations: int
    bounds_hold: bool


def sandwich_check(dist: CrystalDistribution, mu: Weight, horizon: int, n: int,
                   seed: int, exact_horizon: Optional[int] = None) -> SandwichReport:
    """Estimate the discrete stay probability and test the two-sided bounds.

    Lower bound: exit-free probability of the continuous path.  Upper bound:
    the same quantity started kappa0 deeper in the cone; since the estimate
    stops at a finite horizon, the bound actually asserted is its exact
    finite-horizon form (stay up to L0 started kappa0 deeper), which the
    per-sample shift lemma implies for every L >= L0.  That lemma (discrete
    stay forces the kappa0-shifted continuous path to stay) is also checked
    exactly on every sample.
    """
    algebra = dist.algebra
    if len(dist.crystals) != 1:
        raise DomainError("sandwich bounds are stated for a single summand")
    kappa0 = dist.crystals[0][0].kappa0()
    summary = simulate_exits(dist, mu, horizon, n, seed, kappa0=kappa0)
    l0 = min(horizon, exact_horizon if exact_horizon is not None else 12)
    lower = algebra.psi(mu, dist.tau)
    upper = algebra.psi(mu + kappa0, dist.tau)
    upper_finite = algebra.psi_ell(mu + kappa0, dist.source, dist.tau, l0)
    disc = _bernoulli_report(
        f"discrete-stay L={horizon}", summary.stay_count_discrete(horizon), n
    )
    cont = _bernoulli_report(
        f"continuous-stay L={horizon}", summary.stay_count_continuous(horizon), n,
        target=algebra.psi_ell(mu, dist.source, dist.tau, horizon),
    )
    cont.notes["limit"] = lower
    cont.notes["truncation"] = Fraction(cont.target) - lower
    hold = (
        disc.estimate >= float(lower) - 4 * disc.stderr
        and disc.estimate <= float(upper_finite) + 4 * disc.stderr
    )
    return SandwichReport(
        mu.fw, kappa0.fw, disc, cont, lower, upper, upper_finite, l0,
        summary.lemma_violations, hold,
    )


@dataclass
class RatioReport:
    ell: int
    lam: Tuple[int, ...]
    ratio: Fraction
    target: Fraction

    @property
    def deviation(self) -> Fraction:
        return abs(self.ratio - self.target)


def nearest_dominant(datum, candidates: Sequence[Weight], goal: Sequence[Fraction]
                     ) -> Optional[Weight]:
    """Candidate closest to the goal in exact ambient distance.

    Ties break toward the lexicographically smallest fw coordinates.
    """
    best = None
    for lam in candidates:
        amb = datum.ambient(lam)
        d2 = sum(((a - g) ** 2 for a, g in zip(amb, goal)), Fraction(0))
        key = (d2, lam.fw)
        if best is None or key < best[0]:
            best = (key, lam)
    return None if best is None else best[1]


def asymptotic_ratio(dist: CrystalDistribution, mu: Weight, ells: Sequence[int]
                     ) -> List[RatioReport]:
    """Exact branching-count ratios toward the character limit.

    For each horizon the dominant endpoint nearest ell * drift with nonzero
    counts from both 0 and mu is selected; the reported target is
    tau^{-mu} S_mu(tau).  Only the deviation sequence is reported; the
    statement behind it is a limit, so no monotonicity is asserted here.
    """
    from .crystal import count_f_multiplicity

    algebra = dist.algebra
    datum = dist.datum
    if any(c.denominator != 1 for c in mu.root):
        raise DomainError("mu must lie in the root lattice")
    tau = dist.tau
    target = tau.power(tuple(-c for c in mu.root)) * algebra.character_value(mu, tau)
    m1 = dist.drift_endpoint()
    zero_w = datum.weight((0,) * datum.rank)
    out = []
    for ell in ells:
        from_zero = count_f_multiplicity(datum, zero_w, dist.crystals, ell)
        from_mu = count_f_multiplicity(datum, mu, dist.crystals, ell)
        goal = datum.realization.to_ambient(tuple(ell * c for c in m1))
        candidates = [lam for lam, f in from_zero.items()
                      if f > 0 and from_mu.get(lam, 0) > 0]
        lam = nearest_dominant(datum, candidates, goal)
        if lam is None:
            continue
        ratio = Fraction(from_mu[lam], from_zero[lam])
        out.append(RatioReport(ell, lam.fw, ratio, target))
    return out
