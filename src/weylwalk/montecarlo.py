"""Sampling of the random path, cone-exit estimators and exact/empirical
comparisons.

Random draws come from a counter-based generator (Philox keyed by the seed),
so runs are reproducible and the stream could be split across workers.  The
stay-in-cone events are decided in exact integer arithmetic: the step by node
b from position x stays in the cone exactly when x_i >= eps_i(b) for every
color i, since the minimum of h_i along b is -eps_i(b).  No float enters a
pick: a draw is the integer k of the uniform k / 2^53, and its node is one
integer bisect on the thresholds ceil(c_i 2^53) of the exact cumulative
weights c_i, after a table of 256 equal groups has settled every draw whose
group holds no threshold.

The seed's stream has one evaluator, ``philox_lanes``: Philox4x64-10 in pure
Python, many blocks at once, one per lane of a Python int.
``StepSampler.draws`` turns its words into node indices, a byte each for
sources of at most 255 nodes, and both samplers read them: the exit kernel
by tiles, the h-law one row at a time.  The exit kernel packs each sample's
position into byte-aligned biased fields of one Python int per tile, so a
step of every row of the tile is a few big-int operations and each cone
test is a mask of the fields' top bits.  Every buffer of the sampling
kernels spans one tile of at most ``TILE`` uniforms, drawn just before it is
worked, so their memory does not grow with the sample count or the horizon.
Nothing here imports numpy.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, islice, repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .cartan import Record, Weight
from .crystal import CrystalGraph, TensorNode, count_f_layers
from .errors import DomainError, ResourceBudgetError, WeylwalkError
from .exact import dot, vec
from .markov import CrystalDistribution, hchain_entry, pitman_prefix_weights

# most uniforms one tile may hold: the uniforms drawn, picked, packed and
# tested together, max(1, TILE // horizon) rows at a time or a slice of one row
TILE = 2**15
# a run is refused when its first BUDGET_ROWS samples take more than
# MAX_BLOCK_UNIFORMS uniforms; this caps the work, not the memory, which the
# tile bounds whatever the horizon
BUDGET_ROWS = 8192
MAX_BLOCK_UNIFORMS = 2**24
# equal groups of draws, one per top byte of a Philox word; a draw in a group
# free of thresholds is one lookup
GROUPS = 256
# the byte of a group that settles no node index a byte can name
OPEN = 255
# Philox4x64-10: the round multipliers and the Weyl constants that bump the key
PHILOX_M0, PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
PHILOX_W0, PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
MASK64 = (1 << 64) - 1
# Philox blocks the pure-Python stream works together, one per 128-bit lane
LANES = 1024

# node indices of a chunk of draws: a byte each, or 16 bits past OPEN nodes
Picks = Union[bytearray, array]


class EstimatorReport(Record):
    """Bernoulli estimate with its standard error and optional exact target.

    ``estimate`` is the float of hits / n.  ``slack`` widens the acceptance
    band to max(sigmas * stderr, slack); it carries an exact truncation
    allowance when the target is an infinite-horizon limit probed at a
    finite horizon.  ``within`` tests the band exactly, on hits / n, so an
    estimate that lies on its edge passes.  ``notes`` starts empty;
    ``as_dict`` writes out what callers add to it.
    """

    __slots__ = ("name", "estimate", "n", "stderr", "target", "z", "slack", "notes")

    def __init__(self, name: str, estimate: float, n: int, stderr: float,
                 target: Optional[Fraction] = None, z: Optional[float] = None,
                 slack: Union[Fraction, float] = 0.0):
        super().__init__(name, estimate, n, stderr, target, z, slack, {})

    def within(self, sigmas: float) -> bool:
        if self.target is None:
            return True
        gap = abs(Fraction(round(self.estimate * self.n), self.n) - self.target)
        return gap <= max(Fraction(sigmas * self.stderr), self.slack)

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
                     slack: Union[Fraction, float] = 0.0) -> EstimatorReport:
    """hits / n with its Wald standard error sqrt(p(1 - p) / n), which is 0 where
    every sample or none hits: a report with a target then takes p = target."""
    p_hat = hits / n
    p = p_hat if target is None or 0 < hits < n else target
    stderr = math.sqrt(float(p * (1 - p)) / n)
    z = None
    if target is not None:
        gap = p_hat - float(target)
        z = gap / stderr if stderr else math.copysign(math.inf, gap) if gap else 0.0
    return EstimatorReport(name, p_hat, n, stderr, target, z, slack)


class StepSampler:
    """Inverse-CDF sampler over a finite node list with exact boundaries.

    ``thresholds`` holds T_i = ceil(c_i 2^53) for the exact cumulative
    weights c_i, so c_i <= k / 2^53 exactly when T_i <= k, and the draw k
    in [0, 2^53) of a word's top 53 bits picks ``bisect_right(thresholds,
    k)``.  ``draws`` resolves the seed's stream by a group table and that
    bisect.
    """

    def __init__(self, weighted_nodes: Sequence[Tuple[CrystalGraph, int, Fraction]]):
        self.nodes = [(c, i) for c, i, _ in weighted_nodes]
        self.thresholds: List[int] = []
        acc = Fraction(0)
        for _, _, p in weighted_nodes:
            if p <= 0:
                raise WeylwalkError("step probabilities must be positive")
            acc += p
            self.thresholds.append(math.ceil(acc * 2**53))
        if acc != 1:
            raise WeylwalkError(f"step probabilities sum to {acc}")

    @classmethod
    def from_distribution(cls, dist: CrystalDistribution) -> "StepSampler":
        return cls([(e.crystal, e.node, e.probability) for e in dist.entries])

    @cached_property
    def _groups(self) -> bytes:
        """The ``translate`` table from a word's top byte g to the node index
        of every draw of its group, [g 2^45, (g+1) 2^45), or ``OPEN`` where
        the group's first and last draws pick apart or the index does not fit
        a byte."""
        t = self.thresholds
        ends = ((bisect_right(t, g << 45), bisect_right(t, (g + 1 << 45) - 1))
                for g in range(GROUPS))
        return bytes(first if first == last < OPEN else OPEN for first, last in ends)

    def draws(self, seed: int) -> Iterator[Picks]:
        """The node index of every uniform of the seed's stream, in order, a
        chunk of ``4 * LANES`` at a time."""
        return map(self._resolve, philox_lanes(seed))

    def _resolve(self, lanes: Tuple[bytes, ...]) -> Picks:
        """Node indices of one chunk of ``philox_lanes``: each word's top byte
        through ``_groups``, and a word x in an open group by the bisect of
        its draw x >> 11 on the thresholds."""
        top = bytearray(len(lanes[0]) // 4)
        for w, raw in enumerate(lanes):
            top[w::4] = raw[7::16]
        settled = top.translate(self._groups)
        # narrow picks are ``settled`` itself; a pick written there is below OPEN
        picks = settled if len(self.nodes) <= OPEN else array("H", list(settled))
        at = settled.find(OPEN)
        while at >= 0:
            lane = 16 * (at >> 2)
            x = int.from_bytes(lanes[at & 3][lane:lane + 8], "little")
            picks[at] = bisect_right(self.thresholds, x >> 11)
            at = settled.find(OPEN, at + 1)
        return picks


def _check_seed(seed: int) -> int:
    """``seed`` once it is a Philox key: an int, not a bool, in [0, 2^64)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 64:
        raise DomainError(f"a seed is an integer in [0, 2^64), not {seed!r}")
    return seed


def philox_lanes(seed: int) -> Iterator[Tuple[bytes, bytes, bytes, bytes]]:
    """The words of numpy's ``Philox(key=seed)``, in pure Python, ``LANES``
    blocks at a time.

    numpy's Philox keyed by ``seed`` is Philox4x64-10 with key (seed, 0): block
    k = 1, 2, ... starts from the counter (k, 0, 0, 0); each of its ten rounds
    takes the products p0 = M0 c0 and p1 = M1 c2 to (c0, c1, c2, c3) <-
    (hi p1 ^ c1 ^ k0, lo p1, hi p0 ^ c3 ^ k1, lo p0) and then bumps the key
    by the Weyl constants, mod 2^64.  The stream reads each block's words c0,
    c1, c2, c3 in order, and a word x is the double (x >> 11) * 2^-53 of
    ``random()``.  The blocks are worked one per 128-bit lane of a Python
    int: a lane's 64-bit word times a 64-bit multiplier fits its lane, so
    every step of a round is one big-int operation on all the lanes at once.
    Each chunk is the little-endian bytes of c0, c1, c2 and c3, 16 bytes a
    lane, the lane's word in its low 8.
    """
    _check_seed(seed)
    lanes = LANES
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * lanes, "little")
    low = MASK64 * ones
    lane_index = int.from_bytes(b"".join(j.to_bytes(16, "little") for j in range(lanes)),
                                "little")
    round_keys = []
    k0, k1 = seed, 0
    for _ in range(10):
        round_keys.append((k0 * ones, k1 * ones))
        k0, k1 = (k0 + PHILOX_W0) & MASK64, (k1 + PHILOX_W1) & MASK64

    def chunks() -> Iterator[Tuple[bytes, bytes, bytes, bytes]]:
        for first in count(1, lanes):
            # c1 holds the counters' second words, 0 below 2^64 blocks
            c0, c1, c2, c3 = first * ones + lane_index, 0, 0, 0
            for key0, key1 in round_keys:
                p0, p1 = PHILOX_M0 * c0, PHILOX_M1 * c2
                c0, c1, c2, c3 = (((p1 >> 64) & low) ^ c1 ^ key0, p1 & low,
                                  ((p0 >> 64) & low) ^ c3 ^ key1, p0 & low)
            yield tuple(c.to_bytes(16 * lanes, "little") for c in (c0, c1, c2, c3))

    return chunks()


class ExitSummary(Record):
    """First violation steps per sample; None means no violation up to L.

    It is built from the exit steps as int lists, 0 for no violation, as the
    exit kernel keeps them.
    """

    __slots__ = ("horizon", "n", "continuous_exit", "discrete_exit", "lemma_violations",
                 "_continuous_steps", "_discrete_steps")

    def __init__(self, horizon: int, n: int, continuous_exit: List[int],
                 discrete_exit: List[int], lemma_violations: int):
        # the exit steps that happened, sorted: one entry per exited sample
        super().__init__(horizon, n, [e or None for e in continuous_exit],
                         [e or None for e in discrete_exit], lemma_violations,
                         sorted(filter(None, continuous_exit)), sorted(filter(None, discrete_exit)))

    def stay_count_continuous(self, ell: int) -> int:
        return self._stay_count(self._continuous_steps, ell)

    def stay_count_discrete(self, ell: int) -> int:
        return self._stay_count(self._discrete_steps, ell)

    def _stay_count(self, exit_steps: List[int], ell: int) -> int:
        # both exit lists hold one entry per sample
        return len(self.continuous_exit) - bisect_right(exit_steps, ell)


def _byte_tables(records: Sequence[int], stride: int) -> List[Tuple[int, bytes]]:
    """(j, table) for each byte j of a ``stride``-byte slot that some record
    sets: ``table[k]`` is byte j of node k's record, padded for ``translate``."""
    tables = [(j, bytes((r >> 8 * j) & 255 for r in records)) for j in range(stride)]
    return [(j, table.ljust(256, b"\x00")) for j, table in tables if any(table)]


def _wide_lookup(tile: array, table: bytes) -> bytes:
    return bytes(map(table.__getitem__, tile))


def _packed_slots(lookup, tile: Picks, tables: List[Tuple[int, bytes]], stride: int) -> int:
    """One int of a ``stride``-byte slot per pick of ``tile``, byte j of each
    slot read through ``tables`` by ``lookup``; its record buffer is gone
    once the int is built."""
    records = bytearray(len(tile) * stride)
    for j, table in tables:
        records[j::stride] = lookup(tile, table)
    return int.from_bytes(records, "little")


def _tile_shape(rows: int, cols: int, stride: int) -> Tuple[int, int, List[Tuple[int, int]]]:
    """The constants of a tile of ``rows`` rows of ``cols`` slots of
    ``stride`` bytes: a 1 in every slot, each slot's step count t + 1 in its
    row, and for each doubling d < cols, the bit shift of d slots and the
    mask of the slots t >= d, which keeps a row's prefix sums inside it.  A
    shift of d slots already clears the slots t < d of a one-row tile, so
    there every doubling shares one mask of the whole row.  The step counts
    are one row's prefix sums of its ones, by the same doublings."""
    row = cols * stride
    whole_row = (1 << 8 * row) - 1
    ones = b"\x01".ljust(stride, b"\x00") * cols
    ramp = int.from_bytes(ones, "little")
    doublings = []
    d = 1
    while d < cols:
        shift = 8 * stride * d
        ramp += (ramp << shift) & whole_row
        doublings.append((shift, whole_row if rows == 1 else int.from_bytes(
            (bytes(d * stride) + b"\xff" * (row - d * stride)) * rows, "little")))
        d *= 2
    return (int.from_bytes(ones * rows, "little"),
            int.from_bytes(ramp.to_bytes(row, "little") * rows, "little"), doublings)


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
    than ``TILE`` in slices of ``TILE`` steps; each tile's node indices are
    drawn just before it is worked, all its steps together, in one int with a
    ``stride``-byte slot per step, in the order of the draws.  A slot holds
    ``rank`` fields of ``field`` bytes, and a position is its coordinates
    plus the bias 2^(8 field - 1), so a field's top bit is set exactly when
    its coordinate is >= 0.  The node weights, each field offset to be >= 0,
    are read into the slots by one ``translate`` per byte; summing each
    slot's row prefix by doubling, adding the start and taking the offsets
    off gives every position.  ``field`` fits those prefix sums and every
    |pos_i - eps_i| up to the horizon, the start and the shift included.  The
    step from x by node b stays in the cone when every field of x - eps(b)
    has its top bit set, and the path ends it in the discrete cone when every
    field of the new position does: the AND of a slot's fields lands on the
    top bit of its first field, and a row's first slot where it is clear is
    its exit.  A row that spans slices carries its last position on.

    A run whose first ``BUDGET_ROWS`` samples take more than
    ``MAX_BLOCK_UNIFORMS`` uniforms raises ``ResourceBudgetError`` before
    anything is drawn or allocated.
    """
    if min(BUDGET_ROWS, n) * horizon > MAX_BLOCK_UNIFORMS:
        raise ResourceBudgetError(f"a block of {min(BUDGET_ROWS, n)} x {horizon} uniforms "
                                  f"is over the budget {MAX_BLOCK_UNIFORMS}")
    sampler = StepSampler.from_distribution(dist)
    draws = sampler.draws(seed)
    start = mu.fw
    rank = len(start)
    shift = (0,) * rank if kappa0 is None else kappa0.fw
    weights = [c.weights[i].fw for c, i in sampler.nodes]
    eps = [c.eps[i] for c, i in sampler.nodes]
    offsets = [-min(w[i] for w in weights) for i in range(rank)]
    spans = [max(w[i] for w in weights) + offsets[i] for i in range(rank)]
    bound = max(abs(start[i]) + abs(shift[i]) + max(e[i] for e in eps)
                + horizon * max(abs(w[i]) for w in weights) for i in range(rank))
    # the largest prefix sum of offset weights, and of step counts, in one slice
    widest = min(TILE, horizon) * max(spans + [1])
    field = (max(bound.bit_length() + 1, widest.bit_length()) + 7) // 8
    stride = rank * field
    flag = 8 * field - 1
    later_fields = [8 * field * i for i in range(1, rank)]

    def packed(values: Sequence[int]) -> int:
        return sum(v << 8 * field * i for i, v in enumerate(values))

    start_row = packed([x + (1 << flag) for x in start])
    offset_row, shift_row = packed(offsets), packed(shift)
    weight_tables = _byte_tables([packed([a + b for a, b in zip(w, offsets)]) for w in weights],
                                 stride)
    eps_tables = _byte_tables([packed(e) for e in eps], stride)
    narrow = len(sampler.nodes) <= OPEN
    lookup = bytearray.translate if narrow else _wide_lookup
    pending: Picks = bytearray() if narrow else array("H")
    shapes: Dict[Tuple[int, int], Tuple[int, int, List[Tuple[int, int]]]] = {}
    # exit step per sample, 0 while the sample has not exited
    cont = [0] * max(n, 0)
    disc = [0] * max(n, 0)
    lemma_bad = 0
    rows = max(1, TILE // max(horizon, 1))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        row_start = start_row
        shifted_out = [False] * (hi - lo)
        for t0 in range(0, horizon, TILE):
            cols = min(TILE, horizon - t0)
            size = (hi - lo) * cols
            while len(pending) < size:
                pending += next(draws)
            tile = pending[:size]
            del pending[:size]
            if all(cont[lo:hi]) and all(disc[lo:hi]):
                continue
            if (hi - lo, cols) not in shapes:
                shapes[hi - lo, cols] = _tile_shape(hi - lo, cols, stride)
            slots, ramp, doublings = shapes[hi - lo, cols]
            flags = slots << flag
            steps = _packed_slots(lookup, tile, weight_tables, stride)
            depths = _packed_slots(lookup, tile, eps_tables, stride)
            pos = steps
            for s, mask in doublings:
                pos += (pos << s) & mask
            pos += row_start * slots - offset_row * ramp
            low = pos - steps + offset_row * slots - depths
            starts, ends = range(0, size, cols), range(cols, size + 1, cols)
            tests = [(cont, low), (disc, pos)]
            if kappa0 is not None:
                tests.append((None, low + shift_row * slots))
            # a row longer than a tile goes on from its last position
            row_start = pos >> 8 * stride * (size - 1)
            for exits, fields in tests:
                ok = fields
                for s in later_fields:
                    ok &= fields >> s
                # one byte per step: 0x80 where the step passes the test, else 0
                passed = (ok & flags).to_bytes(size * stride, "little")[field - 1::stride]
                # each row's first failed step, as an index into passed, -1 for none
                fails = map(passed.find, repeat(0), starts, ends)
                if exits is None:
                    shifted_out = [o or f >= 0 for o, f in zip(shifted_out, fails)]
                else:
                    exits[lo:hi] = [e or (f - a + t0 + 1 if f >= 0 else 0)
                                    for e, f, a in zip(exits[lo:hi], fails, starts)]
        if kappa0 is not None:
            lemma_bad += sum(1 for o, d in zip(shifted_out, disc[lo:hi]) if o and not d)
    return ExitSummary(horizon, n, cont, disc, lemma_bad)


def empirical_h_law(dist: CrystalDistribution, ellmax: int, n: int, seed: int
                    ) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]:
    """Sampled transition counts of the transformed walk up to time ellmax.

    Each sample takes the next ``ellmax`` node indices of the seed's stream,
    the same draws ``simulate_exits`` reads.
    """
    sampler = StepSampler.from_distribution(dist)
    picks = chain.from_iterable(sampler.draws(seed))
    datum = dist.datum
    counts: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    zero_fw = (0,) * datum.rank
    for _ in range(n):
        node = TensorNode(tuple(sampler.nodes[k] for k in islice(picks, ellmax)))
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
