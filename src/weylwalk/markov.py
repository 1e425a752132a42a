"""Probability layer: crystal step distributions, restricted and conditioned
transition kernels, Doob transforms and the path transform to the highest
node.  Everything is exact rational; nothing here samples.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .cartan import CartanDatum, Frozen, Weight, WeylElement, longest_word
from .charalg import CharacterAlgebra, TauPoint
from .crystal import (
    CrystalGraph,
    ModuleSpec,
    TensorNode,
    as_module,
    module_multiplicity,
)
from .errors import ClosureError, HarmonicityError, ResourceBudgetError, WeylwalkError
from .exact import Vector, add, smul, vec, zero
from . import paths as P

Source = Union[Weight, ModuleSpec]

CLOSURE_CAP = 4096


class DistEntry(Frozen):
    __slots__ = ("crystal", "node", "probability")


class CrystalDistribution:
    """Step distribution on the paths of a direct sum of crystals.

    Node b of a summand B(kappa) has probability a_kappa tau^{r - wt(b)} / N_r,
    with r the reference weight of the source (see ``ModuleSpec.reference``)
    and N_r the normalizer of ``CharacterAlgebra.normalizer``.  Only kappa and
    wt(b) enter, so ``law`` holds it keyed by (kappa, wt(b)).
    """

    def __init__(self, algebra: CharacterAlgebra, source: Source, tau: TauPoint):
        tau.require_in_region()
        self.algebra = algebra
        self.datum = algebra.datum
        self.source = as_module(source)
        self.reference = self.source.reference
        self.tau = tau
        self.crystals = algebra.module_crystals(self.source)
        self.normalizer = algebra.normalizer(self.source, tau)
        weights, total = _step_weights(self, None)
        if total != self.normalizer:
            raise WeylwalkError(f"probabilities sum to {total / self.normalizer}, not 1")
        self.law = {key: p / self.normalizer for key, p in weights.items()}
        self.entries = tuple(DistEntry(c, idx, self.law[(c.kappa, wt)])
                             for c, _ in self.crystals for idx, wt in enumerate(c.weights))
        self._rows: Dict[Tuple[int, ...], Dict[Weight, int]] = {}

    def probability_of(self, crystal: CrystalGraph, node: int) -> Fraction:
        return self.law[(crystal.kappa, crystal.weights[node])]

    def multiplicity_row(self, mu: Weight) -> Dict[Weight, int]:
        """Branching row of mu, computed once per mu; callers must not mutate it."""
        row = self._rows.get(mu.fw)
        if row is None:
            row = module_multiplicity(mu, self.crystals)
            self._rows[mu.fw] = row
        return row

    # -- step kernels ----------------------------------------------------------

    def restricted_transition(self, mu: Weight, lam: Weight) -> Fraction:
        """Step mu -> lam with the interpolated path held in the cone."""
        row = self.multiplicity_row(mu)
        m = row.get(lam, 0)
        if m == 0:
            return Fraction(0)
        return m * self.tau.power((self.reference + mu - lam).root) / self.normalizer

    # -- drift -------------------------------------------------------------------

    def drift_endpoint(self) -> Vector:
        out = zero(self.datum.rank)
        for e in self.entries:
            out = add(out, smul(e.probability, vec(e.crystal.weights[e.node].fw)))
        return out


def build_distribution(algebra: CharacterAlgebra, source: Source, tau: TauPoint) -> CrystalDistribution:
    return CrystalDistribution(algebra, source, tau)


# -- twisting -------------------------------------------------------------------


def _twisted_roots(datum: CartanDatum, w: WeylElement) -> List[Tuple]:
    """Root coordinates of w(alpha_i) for every i, w's word read once."""
    simple = [datum.simple_root(i).fw for i in range(datum.rank)]
    return [datum.weight(x).root for x in w.apply_each(simple)]


def _step_weights(dist: CrystalDistribution, w: Optional[WeylElement]
                  ) -> Tuple[Dict[Tuple[Weight, Weight], Fraction], Fraction]:
    """a_kappa tau^{w(r - wt)} keyed by (kappa, wt), and its total over every
    node of every summand with its multiplicity; ``w`` None is the identity.

    The law at tau^w, as (tau^w)^e = tau^{w(e)}, with w(e) = sum_i e_i w(alpha_i):
    w(e) - e is in the root lattice, so w(e) needs the D-th roots e needs."""
    # cols[j][i] is the j-th root coordinate of w(alpha_i)
    cols = None if w is None else list(zip(*_twisted_roots(dist.datum, w)))
    weights: Dict[Tuple[Weight, Weight], Fraction] = {}
    total = Fraction(0)
    for summand, m in dist.crystals:
        for wt, count in summand.weight_counts().items():
            e = (dist.reference - wt).root
            e = e if cols is None else [sum([c * x for c, x in zip(e, col)]) for col in cols]
            weights[(summand.kappa, wt)] = p = m * dist.tau.power(e)
            total += count * p
    return weights, total


def twisted_tau(datum: CartanDatum, w: WeylElement, tau: TauPoint) -> Tuple[Fraction, ...]:
    """Coordinates tau^w with tau_i^w = tau^{w(alpha_i)} (integer exponents)."""
    return tuple(tau.power(root) for root in _twisted_roots(datum, w))


def twisted_law(dist: CrystalDistribution, w: WeylElement
                ) -> Dict[Tuple[Weight, Weight], Fraction]:
    """p^w keyed by (kappa, node weight): the step law a_kappa tau^{r - wt} / N_r
    of the source at tau^w, normalized over every node of every summand with
    its multiplicity: one power per (summand, weight) and one normalizer."""
    weights, total = _step_weights(dist, w)
    return {key: p / total for key, p in weights.items()}


def twisted_node_probability(dist: CrystalDistribution, w: WeylElement,
                             crystal: CrystalGraph, node: int) -> Fraction:
    """p^w of one node, read off ``twisted_law``; 0 off the source's summands.

    ``crystal`` may be any model of a summand B(kappa): only kappa and the
    node's weight enter."""
    return twisted_law(dist, w).get((crystal.kappa, crystal.weights[node]), Fraction(0))


def twisted_distribution_probabilities(dist: CrystalDistribution, w: WeylElement
                                       ) -> List[Tuple[CrystalGraph, int, Fraction]]:
    """Twisted step law via the permutation p^w_b = p_{w(b)} (exact)."""
    out = []
    for e in dist.entries:
        img = e.crystal.weyl_action_on_node(w, e.node)
        out.append((e.crystal, e.node, dist.probability_of(e.crystal, img)))
    return out


# -- transition tables ------------------------------------------------------------


class TransitionTable(Frozen):
    """Exact kernel on a finite list of dominant states.

    The dominant lattice is infinite, so a finite state set is in general not
    closed under one step; ``row_complete[i]`` records whether the full
    support of row i lies inside the state set.  Stochasticity is only
    asserted on complete rows.
    """

    __slots__ = ("states", "rows", "kind", "row_complete")

    def __init__(self, states: Tuple[Weight, ...], rows: Tuple[Tuple[Fraction, ...], ...],
                 kind: str, row_complete: Tuple[bool, ...] = ()):
        # kind is "stochastic" or "substochastic"
        row_complete = row_complete or (True,) * len(states)
        for row, complete in zip(rows, row_complete):
            total = sum(row, Fraction(0))
            if any(x < 0 for x in row):
                raise WeylwalkError("negative transition probability")
            if kind == "stochastic" and complete and total != 1:
                raise WeylwalkError(f"complete row sums to {total}, expected 1")
            if total > 1:
                raise WeylwalkError(f"row sums to {total} > 1")
        super().__init__(states, rows, kind, row_complete)

    def to_csv(self) -> str:
        head = ["state", "complete"] + ["/".join(map(str, s.fw)) for s in self.states]
        lines = [",".join(head)]
        for s, ok, row in zip(self.states, self.row_complete, self.rows):
            lines.append(
                ",".join(
                    ["/".join(map(str, s.fw)), "1" if ok else "0"]
                    + [str(x) for x in row]
                )
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "states": [list(s.fw) for s in self.states],
                "row_complete": list(self.row_complete),
                "rows": [[str(x) for x in row] for row in self.rows],
                "rows_float": [[float(x) for x in row] for row in self.rows],
            },
            indent=2,
        )


def state_closure(dist: CrystalDistribution, seeds: Sequence[Weight],
                  inside: Callable[[Weight], bool]) -> List[Weight]:
    """States reachable from the seeds under the restricted kernel.

    ``inside`` bounds the expansion (the reachable set is infinite); discovered
    states outside the predicate are dropped, which leaves the corresponding
    boundary rows incomplete in the resulting tables.  More than
    ``CLOSURE_CAP`` states raise ``ResourceBudgetError``.
    """
    seeds = [s for s in seeds if inside(s)]
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        mu = frontier.pop()
        for lam in dist.multiplicity_row(mu):
            if lam not in seen and inside(lam):
                if len(seen) >= CLOSURE_CAP:
                    raise ResourceBudgetError(
                        f"state closure exceeds cap {CLOSURE_CAP}", partial_count=len(seen)
                    )
                seen.add(lam)
                frontier.append(lam)
    return sorted(seen, key=lambda s: s.fw)


def coordinate_box(limit: int):
    """Predicate: every fw coordinate at most ``limit``."""
    return lambda s: all(c <= limit for c in s.fw)


def _table(dist: CrystalDistribution, states: Sequence[Weight], strict: bool,
           entry: Callable[[Weight, Weight], Fraction], kind: str) -> TransitionTable:
    """Table of ``entry`` on the states; a row is complete when the branching
    row of its state stays inside the state set."""
    state_set = set(states)
    missing = []
    rows = []
    complete = []
    for mu in states:
        exits = [lam for lam in dist.multiplicity_row(mu) if lam not in state_set]
        missing.extend((mu, lam) for lam in exits)
        complete.append(not exits)
        rows.append(tuple(entry(mu, lam) for lam in states))
    if missing and strict:
        raise ClosureError(
            f"state set not closed under one step ({len(missing)} exits)", missing
        )
    return TransitionTable(tuple(states), tuple(rows), kind, tuple(complete))


def restricted_table(dist: CrystalDistribution, states: Sequence[Weight],
                     strict: bool = True) -> TransitionTable:
    """Substochastic table of the cone-restricted kernel on the given states."""
    return _table(dist, states, strict, dist.restricted_transition, "substochastic")


def check_harmonic(table: TransitionTable, h: Dict[Weight, Fraction]) -> None:
    """Exact balance check of h against every complete row.

    Raises with the worst defect; incomplete boundary rows are skipped since
    part of their mass lies outside the state set.
    """
    worst = None
    worst_defect = Fraction(0)
    for mu, row, complete in zip(table.states, table.rows, table.row_complete):
        if not complete:
            continue
        lhs = sum((p * h[lam] for p, lam in zip(row, table.states)), Fraction(0))
        defect = lhs - h[mu]
        if defect != 0 and abs(defect) >= abs(worst_defect):
            worst, worst_defect = mu, defect
    if worst is not None:
        raise HarmonicityError(
            f"h is not harmonic: worst row {worst.fw} has defect {worst_defect}",
            worst_state=worst,
            defect=worst_defect,
        )


def doob_transform(table: TransitionTable, h: Dict[Weight, Fraction]) -> TransitionTable:
    """h-transform of a substochastic kernel by a positive harmonic function."""
    if any(h[s] <= 0 for s in table.states):
        raise HarmonicityError("h must be positive on all states")
    check_harmonic(table, h)
    rows = []
    for mu, row in zip(table.states, table.rows):
        rows.append(tuple(p * h[lam] / h[mu] for p, lam in zip(row, table.states)))
    return TransitionTable(table.states, tuple(rows), "stochastic", table.row_complete)


def psi_harmonic_witness(dist: CrystalDistribution, table: TransitionTable
                         ) -> Dict[Weight, Fraction]:
    """psi on the states of the table: the h that ``check_harmonic`` and
    ``doob_transform`` take."""
    return {s: dist.algebra.psi(s, dist.tau) for s in table.states}


def hchain_entry(dist: CrystalDistribution, mu: Weight, lam: Weight) -> Fraction:
    """Transition of the transformed walk, in closed character form:
    the restricted kernel times S_lam(tau) / S_mu(tau)."""
    base = dist.restricted_transition(mu, lam)
    if base == 0:
        return Fraction(0)
    algebra = dist.algebra
    return base * algebra.character_value(lam, dist.tau) / algebra.character_value(mu, dist.tau)


def hchain_matrix(dist: CrystalDistribution, states: Sequence[Weight],
                  strict: bool = True) -> TransitionTable:
    """Stochastic table of the transformed walk on the given states."""
    return _table(dist, states, strict, lambda mu, lam: hchain_entry(dist, mu, lam),
                  "stochastic")


# -- path transform ----------------------------------------------------------------


def pitman(datum: CartanDatum, obj: Union[TensorNode, P.PiecewisePath]
           ) -> Union[TensorNode, P.PiecewisePath]:
    """P_w0 = P_{i_1} ... P_{i_N} over a reduced word of w0, the letters
    taken right to left; it raises a tensor node to the highest node of its
    connected component and takes a path into the dominant cone.

    A tensor node takes one integer pass over the factors per letter.
    P_{alpha_i} is e_i^{eps_i}: the i-height dips to ``height - eps_i(b)``
    inside a factor b entered at ``height``, and b is raised once for every
    level by which that dip sets a new minimum below ``low``, the minimum
    before it.  A path takes ``paths.pitman_letter`` per letter.
    """
    word = reversed(longest_word(datum))
    if not isinstance(obj, TensorNode):
        for i in word:
            obj = P.pitman_letter(datum, obj, i)
        return obj
    factors = list(obj.factors)
    for i in word:
        height = low = 0
        for k, (crys, idx) in enumerate(factors):
            dip = height - crys.eps[idx][i]
            height += crys.weights[idx].fw[i]
            if dip < low:
                for _ in range(low - dip):
                    idx = crys.e_edge[(idx, i)]
                factors[k] = (crys, idx)
                low = dip
    return TensorNode(tuple(factors))


def pitman_prefix_weights(datum: CartanDatum, node: TensorNode) -> List[Tuple[int, ...]]:
    """Transformed-walk positions: endpoint of the raised k-prefix, k = 1..len.

    The transform is causal, so the raised k-prefix is the first k factors of
    the raised node and the positions are partial sums of its factor weights.
    """
    pos = [0] * datum.rank
    out = []
    for crys, idx in pitman(datum, node).factors:
        pos = [a + b for a, b in zip(pos, crys.weights[idx].fw)]
        out.append(tuple(pos))
    return out
