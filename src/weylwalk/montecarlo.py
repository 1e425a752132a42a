"""Sampling of the random path, cone-exit estimators and exact/empirical
comparisons.

Random draws come from a counter-based generator (Philox keyed by the seed),
so runs are reproducible and the stream could be split across workers.  The
stay-in-cone events are decided in exact integer arithmetic: the step by node
b from position x stays in the cone exactly when x_i >= eps_i(b) for every
color i, since the minimum of h_i along b is -eps_i(b).  Floats only ever
enter through the uniform variates themselves, and each draw is resolved
against the exact rational cumulative weights: a table of equal buckets on
[0, 1) settles every draw whose bucket holds no float boundary, and the rest
go through a float search and an exact settle.  The exit kernel packs each
sample's position into int64 words, one biased field per coordinate, so a
sub-block of rows takes all its steps in one cumulative sum and every cone
test is one mask of the fields' top bits.

Only the sampling kernels need numpy, and each imports it where it runs, so
importing this module, or using its exact helpers (``asymptotic_ratio``,
``nearest_dominant``, ``h_trajectory_prediction``), does not load numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .cartan import Record, Weight
from .crystal import CrystalGraph, TensorNode, count_f_multiplicity
from .errors import DomainError, ResourceBudgetError, WeylwalkError
from .markov import CrystalDistribution, hchain_entry, pitman_prefix_weights

if TYPE_CHECKING:
    import numpy as np

# samples per block of uniforms drawn at once
CHUNK = 8192
# most uniforms one block may hold: with the sub-block's int64 and bool arrays
# a block takes at most about 50 bytes per uniform (when it is a single
# sub-block; 11 bytes for a full CHUNK), so a run at the limit stays under 1 GiB
MAX_BLOCK_UNIFORMS = 2**24
# rows of a block whose steps are picked, packed and tested together
SUB_BLOCK = 512
# equal buckets on [0, 1); a draw in a bucket free of boundaries is one lookup
BUCKETS = 4096
# bits of an int64 word that packed fields may fill, so every word stays positive
WORD_BITS = 62


class EstimatorReport(Record):
    """Bernoulli estimate with its standard error and optional exact target.

    ``slack`` widens the acceptance band to max(sigmas * stderr, slack); it
    carries an exact truncation allowance when the target is an
    infinite-horizon limit probed at a finite horizon.
    """

    __slots__ = ("name", "estimate", "n", "stderr", "target", "z", "slack", "notes")

    def __init__(self, name: str, estimate: float, n: int, stderr: float,
                 target: Optional[Fraction] = None, z: Optional[float] = None,
                 slack: float = 0.0, notes: Optional[Dict[str, object]] = None):
        super().__init__(name, estimate, n, stderr, target, z, slack,
                         {} if notes is None else notes)

    def within(self, sigmas: float) -> bool:
        if self.target is None:
            return True
        gap = abs(self.estimate - float(self.target))
        return gap <= max(sigmas * self.stderr, self.slack)

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


def bernoulli_report(name: str, hits: int, n: int, target: Optional[Fraction] = None,
                     slack: float = 0.0) -> EstimatorReport:
    p_hat = hits / n
    stderr = math.sqrt(max(p_hat * (1 - p_hat), 1e-300) / n)
    z = None
    if target is not None:
        z = (p_hat - float(target)) / stderr if stderr > 0 else math.inf
    return EstimatorReport(name, p_hat, n, stderr, target, z, slack)


class StepSampler:
    """Inverse-CDF sampler over a finite node list with exact boundaries.

    ``weights`` and ``eps`` hold the weight and the raising depths of every
    node as integer arrays of shape (nodes, rank), gathered per draw.
    """

    def __init__(self, weighted_nodes: Sequence[Tuple[CrystalGraph, int, Fraction]]):
        import numpy as np

        self.nodes = [(c, i) for c, i, _ in weighted_nodes]
        cums: List[Fraction] = []
        acc = Fraction(0)
        for _, _, p in weighted_nodes:
            if p <= 0:
                raise WeylwalkError("step probabilities must be positive")
            acc += p
            cums.append(acc)
        if acc != 1:
            raise WeylwalkError(f"step probabilities sum to {acc}")
        self.cum_fracs = cums
        self.cum_floats = np.array([float(c) for c in cums])
        # the float boundaries below and above each searchsorted index
        self._lower = np.concatenate(([-1.0], self.cum_floats))
        self._upper = np.concatenate((self.cum_floats, [2.0]))
        # the pick of every draw in a bucket with no float boundary within the
        # settle margin of it, -1 for the other buckets
        edges = np.arange(BUCKETS + 1) / BUCKETS
        first = np.searchsorted(self.cum_floats, edges[:-1] - 1e-9, side="left")
        past = np.searchsorted(self.cum_floats, edges[1:] + 1e-9, side="right")
        self._buckets = np.where(first == past, first, -1)
        self.weights = np.array([c.weights[i].fw for c, i in self.nodes], dtype=np.int64)
        self.eps = np.array([c.eps[i] for c, i in self.nodes], dtype=np.int64)

    @classmethod
    def from_distribution(cls, dist: CrystalDistribution) -> "StepSampler":
        return cls([(e.crystal, e.node, e.probability) for e in dist.entries])

    def pick_many(self, u: np.ndarray) -> np.ndarray:
        """Indices of the sampled nodes, one per uniform, exact against the
        rational boundaries."""
        import numpy as np

        idx = self._buckets[np.clip((u * BUCKETS).astype(np.intp), 0, BUCKETS - 1)]
        rest = idx < 0
        if rest.any():
            ur = u[rest]
            ir = np.searchsorted(self.cum_floats, ur, side="right")
            # the float search can be off only within rounding distance of a
            # boundary; settle those draws against the exact boundaries
            near = (ur - self._lower[ir] <= 1e-9) | (self._upper[ir] - ur <= 1e-9)
            for j in np.flatnonzero(near):
                ir[j] = bisect_right(self.cum_fracs, Fraction(float(ur[j])))
            idx[rest] = ir
        return np.minimum(idx, len(self.cum_fracs) - 1, out=idx)


def _rng(seed: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _exited_by(exits: Sequence[Optional[int]], horizon: int) -> List[int]:
    """Entry ell: the number of samples whose exit step is at most ell."""
    counts = [0] * (horizon + 1)
    for e in exits:
        if e is not None:
            counts[e] += 1
    return list(accumulate(counts))


class ExitSummary(Record):
    """First violation steps per sample; None means no violation up to L."""

    __slots__ = ("horizon", "n", "continuous_exit", "discrete_exit", "lemma_violations",
                 "_continuous_by", "_discrete_by")

    def __init__(self, horizon: int, n: int, continuous_exit: List[Optional[int]],
                 discrete_exit: List[Optional[int]], lemma_violations: int):
        super().__init__(horizon, n, continuous_exit, discrete_exit, lemma_violations,
                         _exited_by(continuous_exit, horizon),
                         _exited_by(discrete_exit, horizon))

    def stay_count_continuous(self, ell: int) -> int:
        return self._stay_count(self._continuous_by, ell)

    def stay_count_discrete(self, ell: int) -> int:
        return self._stay_count(self._discrete_by, ell)

    def _stay_count(self, exited_by: List[int], ell: int) -> int:
        # both exit lists hold one entry per sample
        return len(self.continuous_exit) - exited_by[min(max(ell, 0), self.horizon)]


def _packed_words(sampler: StepSampler, start: Sequence[int],
                  shift: Optional[Sequence[int]], horizon: int) -> Tuple[int, list]:
    """Field width and int64 words of the packed exit kernel.

    A field of width w holds one coordinate plus the bias 2^(w-1), so its top
    bit is set exactly when the coordinate is >= 0.  w = bit_length(bound) + 2,
    where bound covers every |pos_i - eps_i| up to the horizon, the start and
    the shift included.  The coordinates fill words of WORD_BITS // w fields;
    a word is (its top bits, the biased start, the packed shift, and the
    packed weight and eps of every node).
    """
    import numpy as np

    rank = len(start)
    shift = (0,) * rank if shift is None else shift
    bound = max(abs(start[i]) + abs(shift[i]) + int(sampler.eps[:, i].max())
                + horizon * int(np.abs(sampler.weights[:, i]).max()) for i in range(rank))
    width = bound.bit_length() + 2
    per_word = WORD_BITS // width
    if per_word == 0:
        raise DomainError(f"positions up to {bound} do not fit an int64 field")
    words = []
    for lo in range(0, rank, per_word):
        cols = slice(lo, lo + per_word)
        place = [1 << (width * j) for j in range(len(start[cols]))]
        scale = np.array(place, dtype=np.int64)
        words.append((sum(place) << (width - 1),
                      sum((x + (1 << (width - 1))) * p for x, p in zip(start[cols], place)),
                      sum(x * p for x, p in zip(shift[cols], place)),
                      sampler.weights[:, cols] @ scale, sampler.eps[:, cols] @ scale))
    return width, words


def _first_true(bad: np.ndarray):
    """1 + the first True column of each row, 0 for a row with none."""
    if not bad.shape[1]:
        return 0
    return (bad.argmax(axis=1) + 1) * bad.any(axis=1)


def simulate_exits(dist: CrystalDistribution, mu: Weight, horizon: int, n: int,
                   seed: int, kappa0: Optional[Weight] = None,
                   sampler: Optional[StepSampler] = None,
                   chunk: int = CHUNK) -> ExitSummary:
    """First continuous/discrete cone-exit step over n independent samples.

    Each sample consumes exactly ``horizon`` uniforms, so the sample set for
    a given (seed, horizon, n) is independent of the chunk size, and nested
    events across smaller horizons refer to identical trajectories.  When
    ``kappa0`` is given, every sample that stays discretely also has its
    kappa0-shifted continuous trajectory checked (exactly) and violations of
    that implication are counted.

    A chunk draws its (chunk, horizon) block of uniforms at once and is
    worked in sub-blocks of ``SUB_BLOCK`` rows, all steps together: the
    positions of a row are one cumulative sum of packed node weights (see
    ``_packed_words``), the step from x by node b stays in the cone when
    every field of x - eps(b) has its top bit set, and the path ends a step
    in the discrete cone when every field of the new position does.

    A block of more than ``MAX_BLOCK_UNIFORMS`` uniforms raises
    ``ResourceBudgetError`` before anything is drawn or allocated.
    """
    if min(chunk, n) * horizon > MAX_BLOCK_UNIFORMS:
        raise ResourceBudgetError(f"a block of {min(chunk, n)} x {horizon} uniforms is over "
                                  f"the budget {MAX_BLOCK_UNIFORMS}")
    import numpy as np

    sampler = sampler or StepSampler.from_distribution(dist)
    rng = _rng(seed)
    # exit step per sample, 0 while the sample has not exited
    cont = np.zeros(max(n, 0), dtype=np.int64)
    disc = np.zeros(max(n, 0), dtype=np.int64)
    lemma_bad = 0
    _, words = _packed_words(sampler, mu.fw, None if kappa0 is None else kappa0.fw, horizon)
    for lo in range(0, n, chunk):
        block = min(chunk, n - lo)
        us = rng.random(size=(block, horizon))
        for r0 in range(0, block, SUB_BLOCK):
            k = sampler.pick_many(us[r0:r0 + SUB_BLOCK])
            c_bad = d_bad = s_bad = False
            for high, begin, shift, wt, eps in words:
                steps = wt[k]
                after = np.cumsum(steps, axis=1)
                after += begin
                low = after - steps
                low -= eps[k]
                c_bad = c_bad | ((low & high) != high)
                d_bad = d_bad | ((after & high) != high)
                if kappa0 is not None:
                    low += shift
                    s_bad = s_bad | ((low & high) != high)
            rows = slice(lo + r0, lo + r0 + len(k))
            cont[rows] = _first_true(c_bad)
            disc[rows] = _first_true(d_bad)
            if kappa0 is not None:
                lemma_bad += int(np.count_nonzero(~d_bad.any(axis=1) & s_bad.any(axis=1)))
    return ExitSummary(horizon, n, [e or None for e in cont.tolist()],
                       [e or None for e in disc.tolist()], lemma_bad)


def empirical_h_law(dist: CrystalDistribution, ellmax: int, n: int, seed: int
                    ) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]:
    """Sampled transition counts of the transformed walk up to time ellmax."""
    sampler = StepSampler.from_distribution(dist)
    rng = _rng(seed)
    datum = dist.datum
    counts: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    zero_fw = (0,) * datum.rank
    for lo in range(0, n, CHUNK):
        picks = sampler.pick_many(rng.random(size=(min(CHUNK, n - lo), ellmax)))
        for row in picks.tolist():
            node = TensorNode(tuple(sampler.nodes[k] for k in row))
            hs = [zero_fw] + pitman_prefix_weights(datum, node)
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
            bernoulli_report(f"H {a}->{b}", c, by_source[a], exact)
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


class SandwichReport(Record):
    __slots__ = ("mu", "kappa0", "discrete", "continuous", "lower", "upper", "upper_finite",
                 "exact_horizon", "lemma_violations", "bounds_hold")


def sandwich_check(dist: CrystalDistribution, mu: Weight, horizon: int, n: int,
                   seed: int) -> SandwichReport:
    """Estimate the discrete stay probability and test the two-sided bounds.

    Lower bound: exit-free probability of the continuous path.  Upper bound:
    the same quantity started kappa0 deeper in the cone; since the estimate
    stops at a finite horizon, the bound actually asserted is its exact
    finite-horizon form (stay up to L0 = min(L, 12) started kappa0 deeper),
    which the per-sample shift lemma implies for every L >= L0.  That lemma
    (discrete stay forces the kappa0-shifted continuous path to stay) is also
    checked exactly on every sample.
    """
    algebra = dist.algebra
    if len(dist.crystals) != 1:
        raise DomainError("sandwich bounds are stated for a single summand")
    kappa0 = dist.crystals[0][0].kappa0()
    summary = simulate_exits(dist, mu, horizon, n, seed, kappa0=kappa0)
    l0 = min(horizon, 12)
    lower = algebra.psi(mu, dist.tau)
    upper = algebra.psi(mu + kappa0, dist.tau)
    upper_finite = algebra.psi_ell(mu + kappa0, dist.source, dist.tau, l0)
    disc = bernoulli_report(
        f"discrete-stay L={horizon}", summary.stay_count_discrete(horizon), n
    )
    cont = bernoulli_report(
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


class RatioReport(Record):
    __slots__ = ("ell", "lam", "ratio", "target")

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
