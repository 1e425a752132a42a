"""Brute-force oracles for the exact kernels, kept with the tests.

Each one enumerates what the library computes by a shortcut: the full tensor
product for the branching counts and the transformed-walk law, one raising
operator at a time for the Pitman transform (of tensor nodes, and of paths
with integral minima), the node list with the path-level cone test for the
restricted kernel, a ``Fraction`` bisect of each float uniform on the
cumulative law for the sampler's picks, one sample and one step
at a time for the vectorized Monte-Carlo exit kernel, integer matrix
products for the Weyl group, a fresh walk per weight that keeps every orbit
point it meets in a set for the orbits and the Weyl numerator, Gauss-Jordan
elimination over the rationals for the inverse Cartan matrix, one normalizer per node at tau^w
built as a point of its own (``_twisted_point``, with the D-th roots
u^{w(alpha_i)}) for the twisted step law, w's word read one chain reflection
at a time for the node permutations of the twisted checks' walk and the
permuted law, one power per endpoint for the
finite-horizon stay sum and for each term of the alternating identity, and
the window-and-ladder construction for the lowering operator.  Powers of tau
come from ``reference_power``, one ``Fraction`` power per coordinate, never
from the library's integer evaluator ``TauPoint.sum_powers``.

The unrestricted walk kernel, its twisted form and the drift profile live
here too: they are definitions the tests check the library against, and the
library itself has no use for them.  So do the sum and product of
``ExponentPolynomial`` term tables, and the polynomial identities built on
them: the Weyl character formula's product ``denominator * S_mu``, the
normalizer polynomial N_r (Sigma_M for several summands) and the character
product identity.  Last come small definitions that only the tests read: a
path's value at a time, whether every raising operator kills a path or a
tensor node, the minuscule test, a crystal's isomorphism signature and the
inverse of a Weyl element.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, product as iproduct
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from weylwalk import paths as P
from weylwalk.cartan import CartanDatum, Weight, WeylElement, act, act_vector, reflect
from weylwalk.charalg import CharacterAlgebra, ExponentPolynomial, TauPoint
from weylwalk.crystal import (CrystalGraph, TensorNode, as_module, count_f_multiplicity,
                              tensor_apply_e, tensor_eps_phi)
from weylwalk.errors import DomainError, ExactEvaluationError, FormatError
from weylwalk.exact import Vector, add, smul, zero
from weylwalk.markov import CrystalDistribution, pitman
from weylwalk.montecarlo import ExitSummary, _check_seed


def numpy_philox(seed: int) -> np.random.Generator:
    """numpy's Philox keyed by a checked seed: the independent evaluator of
    the stream that ``montecarlo.philox_lanes`` writes out in Python."""
    return np.random.Generator(np.random.Philox(key=np.uint64(_check_seed(seed))))


def exact_picker(dist: CrystalDistribution) -> Callable[[Iterable[float]], List[int]]:
    """Oracle for the sampler's picks: the function from float uniforms to
    their inverse-CDF node indices, in the order of ``dist.entries``, each a
    bisect of ``Fraction(u)`` on the cumulative ``Fraction``s of the node
    probabilities."""
    cums = list(accumulate(e.probability for e in dist.entries))
    return lambda uniforms: [bisect_right(cums, Fraction(float(u))) for u in uniforms]


def enumerate_f_multiplicity(datum: CartanDatum, mu_crystal: Optional[CrystalGraph],
                             crystals: Sequence[Tuple[CrystalGraph, int]],
                             ell: int) -> Dict[Tuple[int, ...], int]:
    """Brute-force oracle: scan the full tensor product for highest paths,
    counted by the fw coordinates of their weights as ``count_f_multiplicity``
    keys them.

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
    out: Dict[Tuple[int, ...], int] = {}
    for first, _ in firsts:
        for combo in iproduct(pool, repeat=ell):
            pieces = ([] if first is None else [first]) + [c.nodes[i] for c, i, _ in combo]
            weight_mult = 1
            for _, _, m in combo:
                weight_mult *= m
            path = P.concat_all(pieces) if pieces else None
            if path is None:
                continue
            if all_raising_null(datum, path):
                lam = P.path_weight(datum, path).fw
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


def repeated_raising_path_pitman(datum: CartanDatum, path: P.PiecewisePath) -> P.PiecewisePath:
    """Oracle for ``pitman`` on a path whose height functions have integral
    local minima: one path-level raising operator at a time, lowest live
    color first, until all are null.  Off the integers it can stop early,
    since ``apply_e`` is None while a minimum lies above -1."""
    while True:
        for i in range(datum.rank):
            raised = P.apply_e(datum, path, i)
            if raised is not None:
                path = raised
                break
        else:
            return path


def reference_power(tau: TauPoint, exponent: Sequence) -> Fraction:
    """Oracle for ``TauPoint.power``: tau^e coordinate by coordinate in
    ``Fraction``s, raising at the first coordinate it cannot evaluate."""
    out = Fraction(1)
    for taui, ui, e in zip(tau.values, tau.roots or (None,) * tau.rank, exponent, strict=True):
        num, den = e.numerator, e.denominator
        if den == 1:
            out *= taui ** num
        else:
            if tau.d % den:
                raise ExactEvaluationError(f"exponent {e} is not a multiple of 1/{tau.d}")
            if ui is None:
                raise ExactEvaluationError(
                    f"fractional exponent {e} needs {tau.d}-th roots of tau")
            out *= ui ** (num * (tau.d // den))
    return out


def reference_sum_powers(tau: TauPoint, coeffs: Sequence, exponents: Sequence) -> Fraction:
    """Oracle for ``TauPoint.sum_powers``: one ``reference_power`` per term,
    its exponent vector taken in units of 1/D."""
    return sum((c * reference_power(tau, [Fraction(n, tau.d) for n in e])
                for c, e in zip(coeffs, exponents, strict=True)), Fraction(0))


def _monomial(coords: Sequence[Optional[Fraction]], exponent: Sequence[int]
              ) -> Optional[Fraction]:
    """prod coords_j^{e_j} over the nonzero e_j; None if one of those coords is."""
    out = Fraction(1)
    for x, e in zip(coords, exponent):
        if e:
            if x is None:
                return None
            out *= x ** e
    return out


def _twisted_point(datum: CartanDatum, w: WeylElement, tau: TauPoint) -> TauPoint:
    """tau^w as a point, with the D-th roots u^{w(alpha_i)} wherever tau has
    the roots those need, so fractional exponents evaluate at tau^w too."""
    values, roots = [], []
    for i in range(datum.rank):
        exponent = act(datum, w, datum.weight(datum.matrix[i])).root  # a root: integral
        values.append(_monomial(tau.values, exponent))
        roots.append(None if tau.roots is None else _monomial(tau.roots, exponent))
    return TauPoint(tuple(values), datum.det, None if tau.roots is None else tuple(roots))


def per_node_twisted_probability(dist: CrystalDistribution, w: WeylElement,
                                 crystal: CrystalGraph, node: int) -> Fraction:
    """Oracle for ``twisted_law``: p^w of one node from its definition,
    rebuilding tau^w and the whole normalizer at tau^w for that node."""
    tw = _twisted_point(dist.datum, w, dist.tau)
    r = dist.reference
    denom = sum((mult * reference_power(tw, (r - wt).root)
                 for summand, mult in dist.crystals for wt in summand.weights), Fraction(0))
    mult = sum(m for summand, m in dist.crystals if summand.kappa == crystal.kappa)
    return mult * reference_power(tw, (r - crystal.weights[node]).root) / denom


def weyl_action_on_node(crystal: CrystalGraph, w: WeylElement, idx: int) -> int:
    """Oracle for the node permutation of ``markov._twisted_walk``: w(b) by
    w's word, one chain reflection at a time, right to left."""
    for i in reversed(w.word):
        idx = crystal.simple_reflection_on_node(i, idx)
    return idx


def probability_of(dist: CrystalDistribution, crystal: CrystalGraph, node: int) -> Fraction:
    """The step probability of one node, read off the law by (kappa, wt)."""
    return dist.law[(crystal.kappa, crystal.weights[node])]


def twisted_distribution_probabilities(dist: CrystalDistribution, w: WeylElement
                                       ) -> List[Tuple[CrystalGraph, int, Fraction]]:
    """Oracle for ``twisted_law``: the permuted law p^w_b = p_{w(b)} of each
    node, w(b) by ``weyl_action_on_node``."""
    return [(e.crystal, e.node, probability_of(dist, e.crystal,
                                               weyl_action_on_node(e.crystal, w, e.node)))
            for e in dist.entries]


def walk_transition(dist: CrystalDistribution, eta: Weight, beta: Weight) -> Fraction:
    """Unrestricted one-step kernel; depends on beta - eta only."""
    delta = beta - eta
    return sum((crystal.weights.count(delta) * dist.law.get((crystal.kappa, delta), 0)
                for crystal, _ in dist.crystals), Fraction(0))


def twisted_walk_transition(dist: CrystalDistribution, w: WeylElement,
                            eta: Weight, beta: Weight) -> Fraction:
    """One step of the twisted walk, K_{M,beta-eta} tau^{r+w(eta)-w(beta)} / N_r: the
    kernel from w(eta) to w(beta), as B(kappa) has as many nodes of weight w(delta) as delta."""
    return walk_transition(dist, act(dist.datum, w, eta), act(dist.datum, w, beta))


def drift_profile(dist: CrystalDistribution) -> List[Tuple[Fraction, Vector]]:
    """Expected path at the union of all node breakpoints."""
    mesh = sorted({t for e in dist.entries for t in e.crystal.nodes[e.node].times})
    profile = []
    for t in mesh:
        val = zero(dist.datum.rank)
        for e in dist.entries:
            val = add(val, smul(e.probability, value_at(e.crystal.nodes[e.node], t)))
        profile.append((t, val))
    return profile


def twisted_drift_endpoint(dist: CrystalDistribution, w_inverse: WeylElement) -> Vector:
    return act_vector(w_inverse, dist.drift_endpoint())


def power_twisted_stay(algebra: CharacterAlgebra, mu: Weight,
                       counts: Dict[Tuple[int, ...], int], ell_r: Weight, norm: Fraction,
                       tau: TauPoint, w: WeylElement) -> Fraction:
    """Oracle for ``CharacterAlgebra._twisted_stay``: one ``act`` and one
    ``reference_power`` per endpoint, summed in Fractions."""
    w_mu = act(algebra.datum, w, mu)
    out = Fraction(0)
    for fw, f in counts.items():
        w_lam = act(algebra.datum, w, algebra.datum.weight(fw))
        out += f * reference_power(tau, (ell_r + w_mu - w_lam).root)
    return out / norm


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
                          seed: int, kappa0: Optional[Weight] = None) -> ExitSummary:
    """Oracle for ``simulate_exits``: one sample and one step at a time.

    It draws the same Philox uniforms one row of ``horizon`` at a time,
    settles every draw by an exact bisect on the rational cumulative law, and
    takes the weights and raising depths from the crystals themselves.
    """
    picks = exact_picker(dist)
    nodes = [(e.crystal, e.node) for e in dist.entries]
    weights = [c.weights[i].fw for c, i in nodes]
    eps = [c.eps[i] for c, i in nodes]
    rng = numpy_philox(seed)
    cont_exit: List[Optional[int]] = []
    disc_exit: List[Optional[int]] = []
    lemma_bad = 0
    shifted = None if kappa0 is None else tuple(a + b for a, b in zip(mu.fw, kappa0.fw))
    for _ in range(n):
        row = picks(rng.random(size=horizon))
        pos = mu.fw
        c_exit: Optional[int] = None
        d_exit: Optional[int] = None
        shifted_ok = True
        spos = shifted
        for step in range(horizon):
            k = row[step]
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
    return ExitSummary(horizon, n, [e or 0 for e in cont_exit], [e or 0 for e in disc_exit],
                       lemma_bad)


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


def weyl_orbit(datum: CartanDatum, start: Sequence[int]) -> List[Tuple[Tuple[int, ...], int, int]]:
    """The W-orbit of a dominant integer fw vector, breadth first, each point
    checked against a set of every point met so far.

    Entry k is ``(x, parent, i)`` with x = s_i(orbit[parent][0]); the start
    comes first as ``(start, -1, -1)``.  Only positive coordinates are
    reflected, and each such step lengthens the element by one, so the depth
    of w(start) is the length of w when the start is regular (rho, mu + rho).
    """
    if any(c < 0 for c in start):
        raise DomainError(f"orbit walk needs a dominant start, got {tuple(start)}")
    orbit = [(tuple(start), -1, -1)]
    seen = {orbit[0][0]}
    k = 0
    while k < len(orbit):
        x = orbit[k][0]
        for i, xi in enumerate(x):
            if xi > 0:
                y = reflect(datum.matrix, i, x)
                if y not in seen:
                    seen.add(y)
                    orbit.append((y, k, i))
        k += 1
    return orbit


def orbit_weyl_numerator(datum: CartanDatum, mu: Weight) -> ExponentPolynomial:
    """The Weyl numerator by a fresh orbit walk from mu + rho: stepping x to
    s_i(x) adds x_i to the i-th root coordinate of the exponent and flips the
    sign, term by term down the walk's own (parent, i) edges."""
    orbit = weyl_orbit(datum, tuple(c + 1 for c in mu.fw))
    terms = [((0,) * datum.rank, 1)]
    for _, parent, i in orbit[1:]:
        e, sign = terms[parent]
        step = orbit[parent][0][i]
        terms.append((e[:i] + (e[i] + step,) + e[i + 1:], -sign))
    return ExponentPolynomial(dict(terms))


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


# -- the ring of ExponentPolynomial, over term tables ---------------------------


def monomial(exponent: Sequence, coeff=1) -> ExponentPolynomial:
    return ExponentPolynomial({tuple(exponent): coeff})


def poly_sum(*polys: ExponentPolynomial) -> ExponentPolynomial:
    """Sum of the term tables; the empty sum is 0."""
    out: Dict[Tuple, Fraction] = {}
    for poly in polys:
        for e, c in poly.terms.items():
            out[e] = out.get(e, 0) + c
    return ExponentPolynomial(out)


def poly_product(first: ExponentPolynomial, *rest: ExponentPolynomial) -> ExponentPolynomial:
    """Product of the term tables, every term of one times every term of the next."""
    out = dict(first.terms)
    for poly in rest:
        nxt: Dict[Tuple, Fraction] = {}
        for e1, c1 in out.items():
            for e2, c2 in poly.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nxt[e] = nxt.get(e, 0) + c1 * c2
        out = nxt
    return ExponentPolynomial(out)


def denominator_poly(algebra: CharacterAlgebra) -> ExponentPolynomial:
    """prod over the positive roots of (1 - tau^alpha); finite type, all m_alpha = 1."""
    one = (0,) * algebra.datum.rank
    return poly_product(*(ExponentPolynomial({one: 1, alpha.root: -1})
                          for alpha in algebra.posroots))


def weyl_character_product(algebra: CharacterAlgebra, mu: Weight) -> ExponentPolynomial:
    """denominator * S_mu, with S_mu from the crystal: by the Weyl character
    formula it equals ``psi_poly(mu)``, the alternating orbit sum."""
    return poly_product(denominator_poly(algebra), algebra.character_poly(mu))


def normalizer_poly(algebra: CharacterAlgebra, source) -> ExponentPolynomial:
    """N_r = sum of a_kappa tau^{r - kappa} S_kappa as a polynomial, r the
    source's reference weight; for several summands r = 0, and N_r is Sigma_M."""
    spec = as_module(source)
    return poly_sum(*(poly_product(monomial((spec.reference - kappa).root, mult),
                                   algebra.character_poly(kappa))
                      for kappa, mult in spec.summands))


def character_product_identity(algebra: CharacterAlgebra, mu: Weight, source, ell: int) -> bool:
    """S_mu * N_r^ell = sum_lam f^ell_lam tau^{ell*r + mu - lam} S_lam, checked
    on polynomials.

    Rebasing by tau^{ell*r + mu - lam} matches the S-normalization of each
    character on both sides.
    """
    spec = as_module(source)
    counts = count_f_multiplicity(algebra.datum, mu, algebra.module_crystals(spec), ell)
    ell_r = algebra.datum.weight(tuple(ell * c for c in spec.reference.fw))
    left = poly_product(algebra.character_poly(mu), *[normalizer_poly(algebra, spec)] * ell)
    lams = {algebra.datum.weight(fw): f for fw, f in counts.items()}
    right = poly_sum(*(poly_product(monomial((ell_r + mu - lam).root, f),
                                    algebra.character_poly(lam))
                       for lam, f in lams.items()))
    return left == right


def pi_ell_w(algebra: CharacterAlgebra, mu: Weight, source, tau: TauPoint, ell: int,
             w: WeylElement) -> Fraction:
    """One term of the alternating sum: tau^{(mu + rho) - w(mu + rho)} times
    the finite-horizon stay probability of the w-twisted walk."""
    shifted = mu + algebra.datum.rho
    shift = reference_power(tau, (shifted - act(algebra.datum, w, shifted)).root)
    return shift * algebra.psi_ell_twisted(mu, source, tau, ell, w)


def word_master_identity_sides(algebra: CharacterAlgebra, mu: Weight, source, tau: TauPoint,
                               ell: int) -> Tuple[Fraction, Fraction]:
    """Oracle for ``CharacterAlgebra.master_identity_sides``: the signed sum
    one element at a time, each w applied by its word (``act``), with one
    ``reference_power`` for the shift and ``power_twisted_stay`` for the
    stay; the left side is ``psi``."""
    datum = algebra.datum
    counts, ell_r, norm = algebra._branching(mu, source, tau, ell)
    shifted = mu + datum.rho
    right = Fraction(0)
    for w in algebra.group:
        shift = reference_power(tau, (shifted - act(datum, w, shifted)).root)
        right += w.sign * shift * power_twisted_stay(algebra, mu, counts, ell_r, norm, tau, w)
    return algebra.psi(mu, tau), right


# -- definitions only the tests read --------------------------------------------


def value_at(path: P.PiecewisePath, t) -> Vector:
    """Exact value of the canonical representative at rational time t."""
    t = Fraction(t)
    if t < 0 or t > 1:
        raise FormatError("time outside [0,1]")
    s = t * path.num_segments
    k = min(math.floor(s), path.num_segments - 1)
    lam = s - k
    p0, p1 = path.points[k], path.points[k + 1]
    return tuple(a + lam * (b - a) for a, b in zip(p0, p1))


def all_raising_null(datum: CartanDatum, path: P.PiecewisePath) -> bool:
    return all(P.apply_e(datum, path, i) is None for i in range(datum.rank))


def tensor_is_highest(node: TensorNode) -> bool:
    return all(tensor_eps_phi(node, i)[0] == 0 for i in range(node.datum.rank))


def is_minuscule(crystal: CrystalGraph) -> bool:
    """Whether the node weights form a single Weyl orbit (no repeats).

    W(kappa) lies among the weights, so repeat-free weights form one orbit
    exactly when there are as many nodes as orbit points."""
    counts = crystal.weight_counts()
    return (all(c == 1 for c in counts.values())
            and len(weyl_orbit(crystal.datum, crystal.kappa.fw)) == len(counts))


def canonical_signature(crystal: CrystalGraph):
    """Isomorphism invariant: deterministic BFS relabeling from the top.

    Crystal graphs have at most one arrow per color out of and into each
    node, so this signature is complete for colored-digraph isomorphism.
    """
    order = {crystal.highest: 0}
    queue = [crystal.highest]
    sig = []
    while queue:
        cur = queue.pop(0)
        for i in range(crystal.datum.rank):
            dst = crystal.f_edge.get((cur, i))
            if dst is None:
                continue
            if dst not in order:
                order[dst] = len(order)
                queue.append(dst)
            sig.append((order[cur], i, order[dst]))
    return tuple(sorted(sig))


def inverse_element(w: WeylElement) -> WeylElement:
    """w^{-1}, looked up in w's group by w^{-1}(rho), which applies w's word
    left to right."""
    tree = w.tree
    rho = (1,) * len(tree.cartan)
    for i in w.word:
        rho = reflect(tree.cartan, i, rho)
    return next(v for v in tree if v.rho_image == rho)

