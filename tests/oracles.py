"""Brute-force oracles for the exact kernels, kept with the tests.

Each one enumerates what the library computes by a shortcut: the full tensor
product for the branching counts and the transformed-walk law, one raising
operator at a time for the one-pass Pitman transform, the node list with the
path-level cone test for the restricted kernel, one sample and one step
at a time for the vectorized Monte-Carlo exit kernel, integer matrix
products for the Weyl group, Gauss-Jordan elimination over the
rationals for the inverse Cartan matrix, one normalizer per node for the
twisted step law, and the window-and-ladder construction for the lowering
operator.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

from weylwalk import paths as P
from weylwalk.cartan import CartanDatum, Weight, WeylElement, reflect
from weylwalk.crystal import CrystalGraph, TensorNode, tensor_apply_e, tensor_eps_phi
from weylwalk.markov import CrystalDistribution, _twisted_point, pitman
from weylwalk.montecarlo import ExitSummary, StepSampler, _rng


def enumerate_f_multiplicity(datum: CartanDatum, mu_crystal: Optional[CrystalGraph],
                             crystals: Sequence[Tuple[CrystalGraph, int]],
                             ell: int) -> Dict[Weight, int]:
    """Brute-force oracle: scan the full tensor product for highest paths.

    Uses the path-level raising operators on actual concatenations, staying
    independent of both the DP and the tensor rule.
    """
    pool: List[Tuple[CrystalGraph, int, int]] = []
    for crystal, mult in crystals:
        for idx in range(len(crystal)):
            pool.append((crystal, idx, mult))
    firsts: List[Tuple[Optional[P.PiecewisePath], int]] = []
    if mu_crystal is None:
        firsts.append((None, 1))
    else:
        for idx in range(len(mu_crystal)):
            firsts.append((mu_crystal.nodes[idx], 1))
    out: Dict[Weight, int] = {}
    for first, _ in firsts:
        for combo in iproduct(pool, repeat=ell):
            pieces = ([] if first is None else [first]) + [c.nodes[i] for c, i, _ in combo]
            weight_mult = 1
            for _, _, m in combo:
                weight_mult *= m
            path = P.concat_all(pieces) if pieces else None
            if path is None:
                continue
            if P.all_raising_null(datum, path):
                lam = P.path_weight(datum, path)
                out[lam] = out.get(lam, 0) + weight_mult
    return out


def exhaustive_h_trajectories(dist: CrystalDistribution, ell: int
                              ) -> Dict[Tuple[Tuple[int, ...], ...], Fraction]:
    """Exact law of (H_1..H_ell) by full enumeration of the tensor power.

    H_k is the endpoint of the path-level transform of the concatenated
    k-prefix, raised on its own; neither the one-pass tensor transform nor
    its causality is used.
    """
    datum = dist.datum
    pool = [(e.crystal, e.node, e.probability) for e in dist.entries]
    out: Dict[Tuple[Tuple[int, ...], ...], Fraction] = {}
    for combo in iproduct(pool, repeat=ell):
        prob = Fraction(1)
        for _, _, p in combo:
            prob *= p
        paths = [c.nodes[i] for c, i, _ in combo]
        traj = tuple(P.path_weight(datum, pitman(datum, P.concat_all(paths[:k]))).fw
                     for k in range(1, ell + 1))
        out[traj] = out.get(traj, Fraction(0)) + prob
    return out


def repeated_raising_pitman(datum: CartanDatum, node: TensorNode) -> TensorNode:
    """Oracle for the one-pass tensor ``pitman``: one raising operator at a
    time through the tensor rule, lowest live color first, until all are null.
    """
    cur = node
    while True:
        live = next((i for i in range(datum.rank) if tensor_eps_phi(cur, i)[0] > 0), None)
        if live is None:
            return cur
        cur = tensor_apply_e(cur, live)


def per_node_twisted_probability(dist: CrystalDistribution, w: WeylElement,
                                 crystal: CrystalGraph, node: int) -> Fraction:
    """Oracle for ``twisted_law``: p^w of one node from its definition,
    rebuilding tau^w and the whole normalizer at tau^w for that node."""
    tw = _twisted_point(dist.datum, w, dist.tau)
    r = dist.reference
    denom = sum((mult * tw.power((r - wt).root)
                 for summand, mult in dist.crystals for wt in summand.weights), Fraction(0))
    mult = sum(m for summand, m in dist.crystals if summand.kappa == crystal.kappa)
    return mult * tw.power((r - crystal.weights[node]).root) / denom


def brute_force_restricted(dist: CrystalDistribution, mu: Weight, lam: Weight) -> Fraction:
    """Oracle for the restricted kernel: direct sum of node probabilities."""
    start = tuple(Fraction(c) for c in mu.fw)
    out = Fraction(0)
    for e in dist.entries:
        node = e.crystal.nodes[e.node]
        if (mu + e.crystal.weights[e.node]) == lam and node.stays_in_cone(start):
            out += e.probability
    return out


def scalar_simulate_exits(dist: CrystalDistribution, mu: Weight, horizon: int, n: int,
                          seed: int, kappa0: Optional[Weight] = None,
                          sampler: Optional[StepSampler] = None,
                          chunk: int = 8192) -> ExitSummary:
    """Oracle for ``simulate_exits``: one sample and one step at a time.

    It reads the same Philox uniforms in the same (chunk, horizon) blocks,
    settles every draw by an exact bisect on the rational cumulative law, and
    takes the weights and raising depths from the crystals themselves.
    """
    sampler = sampler or StepSampler.from_distribution(dist)
    weights = [c.weights[i].fw for c, i in sampler.nodes]
    eps = [c.eps[i] for c, i in sampler.nodes]
    rng = _rng(seed)
    cont_exit: List[Optional[int]] = []
    disc_exit: List[Optional[int]] = []
    lemma_bad = 0
    shifted = None if kappa0 is None else tuple(a + b for a, b in zip(mu.fw, kappa0.fw))
    remaining = n
    while remaining > 0:
        block = min(chunk, remaining)
        for row in rng.random(size=(block, horizon)):
            pos = mu.fw
            c_exit: Optional[int] = None
            d_exit: Optional[int] = None
            shifted_ok = True
            spos = shifted
            for step in range(horizon):
                k = bisect_right(sampler.cum_fracs, Fraction(float(row[step])))
                if c_exit is None and not all(p >= e for p, e in zip(pos, eps[k])):
                    c_exit = step + 1
                if spos is not None and not all(p >= e for p, e in zip(spos, eps[k])):
                    shifted_ok = False
                pos = tuple(p + w for p, w in zip(pos, weights[k]))
                if spos is not None:
                    spos = tuple(p + w for p, w in zip(spos, weights[k]))
                if d_exit is None and any(c < 0 for c in pos):
                    d_exit = step + 1
                # the row of uniforms is drawn up front, so stopping after
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


IntMatrix = Tuple[Tuple[int, ...], ...]


def _int_mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)) for i in range(n)
    )


def simple_reflection_matrix(datum: CartanDatum, i: int) -> IntMatrix:
    """s_i on fw coordinates as an integer matrix (column j = s_i(omega_j))."""
    n = datum.rank
    return tuple(
        tuple((int(j == k) - (j == i) * datum.matrix[i][k]) for j in range(n)) for k in range(n)
    )


def word_matrix(datum: CartanDatum, word: Sequence[int]) -> IntMatrix:
    """The matrix of s_{word[0]} ... s_{word[-1]}."""
    n = datum.rank
    out = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in word:
        out = _int_mat_mul(out, simple_reflection_matrix(datum, i))
    return out


def matrix_weyl_group(datum: CartanDatum) -> Dict[IntMatrix, Tuple[int, ...]]:
    """Brute-force oracle: W as integer matrices on fw coordinates, closed
    breadth first under right multiplication by the simple reflections.

    Maps each element to the word of its first discovery, w = s_{word[0]}
    ... s_{word[-1]}; BFS depth is the length, so these words are reduced.
    """
    n = datum.rank
    gens = [simple_reflection_matrix(datum, i) for i in range(n)]
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for i, g in enumerate(gens):
                prod_m = _int_mat_mul(m, g)
                if prod_m not in seen:
                    seen[prod_m] = seen[m] + (i,)
                    nxt.append(prod_m)
        frontier = nxt
    return seen


def invert_matrix(m) -> Tuple[Tuple[Fraction, ...], ...]:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [inv_p * v for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def ladder_apply_f(datum: CartanDatum, path: Optional[P.PiecewisePath], i: int
                   ) -> Optional[P.PiecewisePath]:
    """Lowering operator by the window and the ladder: None iff the final
    height is below m+1.

    The window runs from the last visit of the minimum m to the last time
    the height equals m+1, and the sub-segments climbing the future minimum
    are reflected.  The endpoint loses alpha_i.
    """
    if path is None:
        return None
    h = path.heights(i)
    m = min(h)
    if h[-1] < m + 1:
        return None
    disp = path.displacements()
    k0 = max(k for k, v in enumerate(h) if v == m)  # last minimum breakpoint
    target = m + 1
    # last segment [j, j+1] with h[j] < m+1: the window closes inside it
    j = max(j for j in range(k0, len(disp)) if h[j] < target)
    prefix = disp[:k0]
    window = []
    for k in range(k0, j):
        window.append((disp[k], h[k], h[k + 1]))
    if h[j + 1] == target:
        window.append((disp[j], h[j], h[j + 1]))
        suffix = disp[j + 1:]
    else:
        lam = (target - h[j]) / (h[j + 1] - h[j])
        before, after = P._split_displacement(disp[j], lam)
        window.append((before, h[j], target))
        suffix = [after] + disp[j + 1:]

    out_rev = []
    running_min = target
    for d, ha, hb in reversed(window):
        if ha >= running_min:
            out_rev.append(d)
            continue
        if hb > running_min:
            lam = (running_min - ha) / (hb - ha)
            climb, keep = P._split_displacement(d, lam)
            out_rev.append(keep)
            out_rev.append(reflect(datum.matrix, i, climb))
        else:  # hb == running_min: the whole segment climbs the ladder
            out_rev.append(reflect(datum.matrix, i, d))
        running_min = ha
    return P.from_displacements(prefix + list(reversed(out_rev)) + suffix, dim=path.dim)
