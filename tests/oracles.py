"""Brute-force oracles for the exact kernels, kept with the tests.

Each one enumerates what the library computes by a shortcut: the full tensor
product for the branching counts and the transformed-walk law, and the node
list with the path-level cone test for the restricted kernel.
"""

from fractions import Fraction
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

from weylwalk import paths as P
from weylwalk.cartan import CartanDatum, Weight
from weylwalk.crystal import CrystalGraph, TensorNode
from weylwalk.markov import CrystalDistribution, pitman_prefix_weights


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
    """Exact law of (H_1..H_ell) by full enumeration of the tensor power."""
    datum = dist.datum
    pool = [(e.crystal, e.node, e.probability) for e in dist.entries]
    out: Dict[Tuple[Tuple[int, ...], ...], Fraction] = {}
    for combo in iproduct(pool, repeat=ell):
        node = TensorNode(tuple((c, i) for c, i, _ in combo))
        prob = Fraction(1)
        for _, _, p in combo:
            prob *= p
        traj = tuple(w.fw for w in pitman_prefix_weights(datum, node))
        out[traj] = out.get(traj, Fraction(0)) + prob
    return out


def brute_force_restricted(dist: CrystalDistribution, mu: Weight, lam: Weight) -> Fraction:
    """Oracle for the restricted kernel: direct sum of node probabilities."""
    start = tuple(Fraction(c) for c in mu.fw)
    out = Fraction(0)
    for e in dist.entries:
        node = e.crystal.nodes[e.node]
        if (mu + e.crystal.weights[e.node]) == lam and node.stays_in_cone(start):
            out += e.probability
    return out
