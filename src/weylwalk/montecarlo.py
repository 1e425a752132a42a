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
go through the scalar pick, a float search and an exact settle.  The exit
kernel packs each sample's position into int64 words, one biased field per
coordinate, so a tile of uniforms takes all its steps in one cumulative sum
and every cone test is one mask of the fields' top bits.  Every buffer of
the sampling kernels spans one tile of at most ``TILE`` uniforms, drawn just
before it is worked, so their memory does not grow with the sample count or
the horizon.

The seed's stream has two evaluators that yield the same floats: numpy's
Philox, which the vectorized exit kernel draws from by tiles, and
``philox_uniforms``, the same Philox4x64-10 in pure Python, which the
row-by-row h-law draws from one uniform at a time and resolves with the scalar
``StepSampler.pick``.  Only the exit kernel needs numpy, and it imports numpy
where it runs, so importing this module, building a ``StepSampler``, the
h-law (``empirical_h_law``, ``h_law_reports``) and the exact helpers
(``asymptotic_ratio``, ``nearest_dominant``, ``h_trajectory_prediction``) do
not load numpy.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, islice
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from .cartan import Record, Weight
from .crystal import CrystalGraph, TensorNode, count_f_layers
from .errors import DomainError, ResourceBudgetError, WeylwalkError
from .exact import dot, vec
from .markov import CrystalDistribution, hchain_entry, pitman_prefix_weights

if TYPE_CHECKING:
    import numpy as np

# most uniforms one tile may hold: the uniforms drawn, picked, packed and
# tested together, max(1, TILE // horizon) rows at a time or a slice of one row
TILE = 2**15
# a run is refused when its first BUDGET_ROWS samples take more than
# MAX_BLOCK_UNIFORMS uniforms; this caps the work, not the memory, which the
# tile bounds whatever the horizon
BUDGET_ROWS = 8192
MAX_BLOCK_UNIFORMS = 2**24
# equal buckets on [0, 1); a draw in a bucket free of boundaries is one lookup
BUCKETS = 4096
# bits of an int64 word that packed fields may fill, so every word stays positive
WORD_BITS = 62
# Philox4x64-10: the round multipliers and the Weyl constants that bump the key
PHILOX_M0, PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
PHILOX_W0, PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
MASK64 = (1 << 64) - 1
# Philox blocks the pure-Python stream works together, one per 128-bit lane
LANES = 256


class EstimatorReport(Record):
    """Bernoulli estimate with its standard error and optional exact target.

    ``slack`` widens the acceptance band to max(sigmas * stderr, slack); it
    carries an exact truncation allowance when the target is an
    infinite-horizon limit probed at a finite horizon.  ``notes`` starts
    empty; ``as_dict`` writes out what callers add to it.
    """

    __slots__ = ("name", "estimate", "n", "stderr", "target", "z", "slack", "notes")

    def __init__(self, name: str, estimate: float, n: int, stderr: float,
                 target: Optional[Fraction] = None, z: Optional[float] = None,
                 slack: float = 0.0):
        super().__init__(name, estimate, n, stderr, target, z, slack, {})

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

    ``cum_fracs`` holds the exact cumulative weights and ``cum_floats`` their
    floats.  ``pick`` resolves one uniform in Python and ``pick_many`` an array
    of them, by a bucket table and ``pick`` for the draws the table leaves
    open; both return the exact inverse-CDF index.
    """

    def __init__(self, weighted_nodes: Sequence[Tuple[CrystalGraph, int, Fraction]]):
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
        self.cum_floats = [float(c) for c in cums]

    @classmethod
    def from_distribution(cls, dist: CrystalDistribution) -> "StepSampler":
        return cls([(e.crystal, e.node, e.probability) for e in dist.entries])

    def pick(self, u: float) -> int:
        """Index of the sampled node for one uniform: a float search, settled
        against the exact boundaries when ``u`` is within 1e-9 of a float one."""
        floats = self.cum_floats
        i = bisect_right(floats, u)
        if (i and u - floats[i - 1] <= 1e-9) or (i < len(floats) and floats[i] - u <= 1e-9):
            i = bisect_right(self.cum_fracs, Fraction(u))
        return min(i, len(floats) - 1)

    @cached_property
    def _buckets(self) -> np.ndarray:
        """The pick of every draw in a bucket with no float boundary within
        the settle margin of it, -1 for the other buckets; built on the first
        call of ``pick_many``."""
        import numpy as np

        floats = np.array(self.cum_floats)
        edges = np.arange(BUCKETS + 1) / BUCKETS
        first = np.searchsorted(floats, edges[:-1] - 1e-9, side="left")
        past = np.searchsorted(floats, edges[1:] + 1e-9, side="right")
        return np.where(first == past, first, -1)

    def pick_many(self, u: np.ndarray) -> np.ndarray:
        """Indices of the sampled nodes, one per uniform, as ``pick`` gives
        them: a bucket lookup where it settles the draw, else ``pick``."""
        import numpy as np

        idx = self._buckets[np.clip((u * BUCKETS).astype(np.intp), 0, BUCKETS - 1)]
        rest = idx < 0
        idx[rest] = [self.pick(x) for x in u[rest].tolist()]
        return idx


def _check_seed(seed: int) -> int:
    """``seed`` once it is a Philox key: an int, not a bool, in [0, 2^64)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 64:
        raise DomainError(f"a seed is an integer in [0, 2^64), not {seed!r}")
    return seed


def _rng(seed: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.Philox(key=np.uint64(_check_seed(seed))))


def philox_uniforms(seed: int) -> Iterator[float]:
    """The uniforms of ``_rng(seed).random()``, one at a time, in pure Python.

    numpy's Philox keyed by ``seed`` is Philox4x64-10 with key (seed, 0): block
    k = 1, 2, ... starts from the counter (k, 0, 0, 0); each of its ten rounds
    takes the products p0 = M0 c0 and p1 = M1 c2 to (c0, c1, c2, c3) <-
    (hi p1 ^ c1 ^ k0, lo p1, hi p0 ^ c3 ^ k1, lo p0) and then bumps the key
    by the Weyl constants, mod 2^64; its four words x give the doubles
    (x >> 11) * 2^-53 in order.  The blocks are worked ``LANES`` at a time,
    one per 128-bit lane of a Python int: a lane's 64-bit word times a 64-bit
    multiplier fits its lane, so every step of a round is one big-int
    operation on all the lanes at once.
    """
    _check_seed(seed)
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * LANES, "little")
    low = MASK64 * ones
    lane_index = int.from_bytes(b"".join(j.to_bytes(16, "little") for j in range(LANES)),
                                "little")
    round_keys = []
    k0, k1 = seed, 0
    for _ in range(10):
        round_keys.append((k0 * ones, k1 * ones))
        k0, k1 = (k0 + PHILOX_W0) & MASK64, (k1 + PHILOX_W1) & MASK64
    unpack = struct.Struct(f"<{2 * LANES}Q").unpack

    def chunks() -> Iterator[List[float]]:
        for first in count(1, LANES):
            # c1 holds the counters' second words, 0 below 2^64 blocks
            c0, c1, c2, c3 = first * ones + lane_index, 0, 0, 0
            for key0, key1 in round_keys:
                p0, p1 = PHILOX_M0 * c0, PHILOX_M1 * c2
                c0, c1, c2, c3 = (((p1 >> 64) & low) ^ c1 ^ key0, p1 & low,
                                  ((p0 >> 64) & low) ^ c3 ^ key1, p0 & low)
            words = [unpack(c.to_bytes(16 * LANES, "little"))[::2] for c in (c0, c1, c2, c3)]
            yield [(x >> 11) * 2.0**-53 for x in chain.from_iterable(zip(*words))]

    return chain.from_iterable(chunks())


def _exit_steps(exits: np.ndarray) -> List[int]:
    """The exit steps that happened, in increasing order: one entry per
    exited sample, so its size follows n and not the horizon."""
    import numpy as np

    return np.sort(exits[exits > 0]).tolist()


class ExitSummary(Record):
    """First violation steps per sample; None means no violation up to L.

    It is built from the exit steps as int arrays, 0 for no violation, as the
    exit kernel keeps them.
    """

    __slots__ = ("horizon", "n", "continuous_exit", "discrete_exit", "lemma_violations",
                 "_continuous_steps", "_discrete_steps")

    def __init__(self, horizon: int, n: int, continuous_exit: np.ndarray,
                 discrete_exit: np.ndarray, lemma_violations: int):
        super().__init__(horizon, n, [e or None for e in continuous_exit.tolist()],
                         [e or None for e in discrete_exit.tolist()], lemma_violations,
                         _exit_steps(continuous_exit), _exit_steps(discrete_exit))

    def stay_count_continuous(self, ell: int) -> int:
        return self._stay_count(self._continuous_steps, ell)

    def stay_count_discrete(self, ell: int) -> int:
        return self._stay_count(self._discrete_steps, ell)

    def _stay_count(self, exit_steps: List[int], ell: int) -> int:
        # both exit lists hold one entry per sample
        return len(self.continuous_exit) - bisect_right(exit_steps, ell)


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

    weights = np.array([c.weights[i].fw for c, i in sampler.nodes], dtype=np.int64)
    eps = np.array([c.eps[i] for c, i in sampler.nodes], dtype=np.int64)
    rank = len(start)
    shift = (0,) * rank if shift is None else shift
    bound = max(abs(start[i]) + abs(shift[i]) + int(eps[:, i].max())
                + horizon * int(np.abs(weights[:, i]).max()) for i in range(rank))
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
                      weights[:, cols] @ scale, eps[:, cols] @ scale))
    return width, words


def _note_exits(exits: np.ndarray, bad: np.ndarray, first_step: int) -> None:
    """Give each row of ``exits`` still at 0 the step of its first True column
    in ``bad``, a slice of steps that starts at ``first_step`` + 1."""
    hit = bad.any(axis=1)
    hit &= exits == 0
    exits[hit] = bad.argmax(axis=1)[hit] + (first_step + 1)


def simulate_exits(dist: CrystalDistribution, mu: Weight, horizon: int, n: int,
                   seed: int, kappa0: Optional[Weight] = None) -> ExitSummary:
    """First continuous/discrete cone-exit step over n independent samples.

    Each sample consumes exactly ``horizon`` uniforms, read row by row from
    the seed's stream, so the sample set for a given (seed, horizon, n) does
    not depend on how the rows are tiled, and nested events across smaller
    horizons refer to identical trajectories.  When ``kappa0`` is given,
    every sample that stays discretely also has its kappa0-shifted continuous
    trajectory checked (exactly) and violations of that implication are
    counted.

    The rows are taken ``max(1, TILE // horizon)`` at a time, and a row longer
    than ``TILE`` in slices of ``TILE`` steps; each tile's uniforms are drawn
    just before it is worked, all its steps together: the positions of a row
    are one cumulative sum of packed node weights (see ``_packed_words``)
    from the packed position the previous slice ended at, the step from x by
    node b stays in the cone when every field of x - eps(b) has its top bit
    set, and the path ends a step in the discrete cone when every field of
    the new position does.

    A run whose first ``BUDGET_ROWS`` samples take more than
    ``MAX_BLOCK_UNIFORMS`` uniforms raises ``ResourceBudgetError`` before
    anything is drawn or allocated.
    """
    if min(BUDGET_ROWS, n) * horizon > MAX_BLOCK_UNIFORMS:
        raise ResourceBudgetError(f"a block of {min(BUDGET_ROWS, n)} x {horizon} uniforms "
                                  f"is over the budget {MAX_BLOCK_UNIFORMS}")
    import numpy as np

    sampler = StepSampler.from_distribution(dist)
    rng = _rng(seed)
    # exit step per sample, 0 while the sample has not exited
    cont = np.zeros(max(n, 0), dtype=np.int64)
    disc = np.zeros(max(n, 0), dtype=np.int64)
    lemma_bad = 0
    _, words = _packed_words(sampler, mu.fw, None if kappa0 is None else kappa0.fw, horizon)
    rows = max(1, TILE // max(horizon, 1))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        # the packed position of each row per word, carried from slice to slice
        pos = [np.full(hi - lo, begin, dtype=np.int64) for _, begin, _, _, _ in words]
        shifted_out = np.zeros(hi - lo, dtype=bool)
        for t0 in range(0, horizon, TILE):
            k = sampler.pick_many(rng.random(size=(hi - lo, min(TILE, horizon - t0))))
            c_bad = d_bad = s_bad = False
            for j, (high, _, shift, wt, eps) in enumerate(words):
                steps = wt[k]
                after = np.cumsum(steps, axis=1)
                after += pos[j][:, None]
                pos[j] = after[:, -1].copy()
                low = after - steps
                low -= eps[k]
                c_bad = c_bad | ((low & high) != high)
                d_bad = d_bad | ((after & high) != high)
                if kappa0 is not None:
                    low += shift
                    s_bad = s_bad | ((low & high) != high)
            _note_exits(cont[lo:hi], c_bad, t0)
            _note_exits(disc[lo:hi], d_bad, t0)
            if kappa0 is not None:
                shifted_out |= s_bad.any(axis=1)
        if kappa0 is not None:
            lemma_bad += int(np.count_nonzero(shifted_out & (disc[lo:hi] == 0)))
    return ExitSummary(horizon, n, cont, disc, lemma_bad)


def empirical_h_law(dist: CrystalDistribution, ellmax: int, n: int, seed: int
                    ) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]:
    """Sampled transition counts of the transformed walk up to time ellmax.

    Each sample takes the next ``ellmax`` uniforms of the seed's stream, the
    same floats ``simulate_exits`` reads, here drawn by ``philox_uniforms``
    and picked by ``StepSampler.pick`` one at a time, so numpy is not loaded.
    """
    sampler = StepSampler.from_distribution(dist)
    uniforms = philox_uniforms(seed)
    datum = dist.datum
    counts: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    zero_fw = (0,) * datum.rank
    for _ in range(n):
        node = TensorNode(tuple(sampler.nodes[sampler.pick(u)]
                                for u in islice(uniforms, ellmax)))
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


def nearest_dominant(datum, candidates: Sequence[Tuple[int, ...]], goal: Sequence[Fraction]
                     ) -> Optional[Tuple[int, ...]]:
    """fw coordinates of the candidate closest to the goal in exact ambient
    distance.

    Ties break toward the lexicographically smallest fw coordinates.  For x
    in fw coordinates, |x - goal|^2 - |goal|^2 = x.G.x - x.b, where G is the
    Gram matrix of the fundamental weights and b_i = 2 omega_i.goal; scaled by
    the common denominator of G and b it is an integer form.
    """
    omegas = datum.realization.fw_vectors
    gram = [[dot(u, v) for v in omegas] for u in omegas]
    lin = [2 * dot(u, vec(goal)) for u in omegas]
    den = math.lcm(*(Fraction(c).denominator for c in lin + [g for row in gram for g in row]))
    gram = [[int(c * den) for c in row] for row in gram]
    lin = [int(c * den) for c in lin]

    def key(fw: Tuple[int, ...]):
        form = sum(x * sum(g * y for g, y in zip(row, fw)) for x, row in zip(fw, gram))
        return form - sum(b * x for b, x in zip(lin, fw)), fw

    return min(candidates, key=key, default=None)


def asymptotic_ratio(dist: CrystalDistribution, mu: Weight, ells: Sequence[int]
                     ) -> List[RatioReport]:
    """Exact branching-count ratios toward the character limit.

    One report per distinct horizon of ``ells`` that has an endpoint, in
    increasing order.  For each horizon the dominant endpoint nearest
    ell * drift with nonzero counts from both 0 and mu is selected; the
    reported target is tau^{-mu} S_mu(tau).  Only the deviation sequence is
    reported; the statement behind it is a limit, so no monotonicity is
    asserted here.
    """
    algebra = dist.algebra
    datum = dist.datum
    if any(c.denominator != 1 for c in mu.root):
        raise DomainError("mu must lie in the root lattice")
    tau = dist.tau
    target = tau.power(tuple(-c for c in mu.root)) * algebra.character_value(mu, tau)
    m1 = dist.drift_endpoint()
    zero_w = datum.weight((0,) * datum.rank)
    # one branching DP per start, to the largest horizon, read layer by layer
    reports = []
    for (ell, from_zero), (_, from_mu) in zip(
            count_f_layers(datum, zero_w, dist.crystals, ells),
            count_f_layers(datum, mu, dist.crystals, ells)):
        goal = datum.realization.to_ambient(tuple(ell * c for c in m1))
        candidates = [fw for fw, f in from_zero.items() if f > 0 and from_mu.get(fw, 0) > 0]
        lam = nearest_dominant(datum, candidates, goal)
        if lam is not None:
            reports.append(RatioReport(ell, lam, Fraction(from_mu[lam], from_zero[lam]), target))
    return reports
