"""Crystal graphs of dominant paths: generation, tensor nodes, multiplicities.

A crystal is generated by closing a dominant path under the lowering
operators; nodes are canonical paths, so deduplication is exact.  Tensor
nodes keep their factors and act through the concatenation rule, which
``tensor_rule_checks`` checks against the path-level operators.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .cartan import CartanDatum, Frozen, Weight
from .errors import FormatError, ResourceBudgetError, WeylwalkError
from . import paths as P

DEFAULT_NODE_BUDGET = 200_000
# most states the branching DP may carry, summed over its layers
DEFAULT_DP_BUDGET = 1_000_000


class CrystalGraph:
    """Connected colored digraph of paths generated from a dominant path."""

    def __init__(self, datum: CartanDatum, highest_path: P.PiecewisePath):
        if not P.is_dominant_path(highest_path):
            raise WeylwalkError("highest path leaves the dominant cone")
        self.datum = datum
        self.nodes: List[P.PiecewisePath] = []
        self.f_edge: Dict[Tuple[int, int], int] = {}
        self.e_edge: Dict[Tuple[int, int], int] = {}
        self._generate(highest_path)
        self.highest = 0  # generation starts at the highest path
        self.weights: List[Weight] = [P.path_weight(datum, b) for b in self.nodes]
        self.kappa: Weight = self.weights[self.highest]
        depths = [[P.eps_phi(b, i) for i in range(datum.rank)] for b in self.nodes]
        self.eps: List[Tuple[int, ...]] = [tuple(e for e, _ in d) for d in depths]
        self.phi: List[Tuple[int, ...]] = [tuple(f for _, f in d) for d in depths]
        self.heights: List[int] = [self._height(w) for w in self.weights]
        self._check_unique_highest()

    # -- construction ---------------------------------------------------------

    def _generate(self, seed: P.PiecewisePath) -> None:
        datum = self.datum
        self.nodes.append(seed)
        index = {seed: 0}
        frontier = [0]
        while frontier:
            idx = frontier.pop()
            b = self.nodes[idx]
            for i in range(datum.rank):
                img = P.apply_f(datum, b, i)
                if img is None:
                    continue
                jdx = index.get(img)
                if jdx is None:
                    if len(self.nodes) >= DEFAULT_NODE_BUDGET:
                        raise ResourceBudgetError(
                            f"crystal exceeds node budget {DEFAULT_NODE_BUDGET}",
                            partial_count=len(self.nodes),
                        )
                    jdx = len(self.nodes)
                    self.nodes.append(img)
                    index[img] = jdx
                    frontier.append(jdx)
                self.f_edge[(idx, i)] = jdx
                self.e_edge[(jdx, i)] = idx

    def _height(self, w: Weight) -> int:
        diff = self.kappa - w
        total = sum(diff.root)
        if total.denominator != 1:
            raise WeylwalkError("height is not an integer")
        return int(total)

    def _check_unique_highest(self) -> None:
        tops = [k for k, e in enumerate(self.eps) if all(v == 0 for v in e)]
        if tops != [self.highest]:
            raise WeylwalkError(f"expected a unique highest node, found {len(tops)}")

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def edges(self) -> List[Tuple[int, int, int]]:
        return sorted((src, i, dst) for (src, i), dst in self.f_edge.items())

    def weight_counts(self) -> Dict[Weight, int]:
        out: Dict[Weight, int] = {}
        for w in self.weights:
            out[w] = out.get(w, 0) + 1
        return out

    def simple_reflection_on_node(self, i: int, idx: int) -> int:
        """Chain symmetry: swaps raising and lowering depth within the i-chain."""
        k = self.phi[idx][i] - self.eps[idx][i]
        cur = idx
        if k > 0:
            for _ in range(k):
                cur = self.f_edge[(cur, i)]
        else:
            for _ in range(-k):
                cur = self.e_edge[(cur, i)]
        return cur

    def kappa0(self) -> Weight:
        """Dominant weight built from the longest i-string arrow counts.

        Every node of an i-string has eps_i + phi_i equal to the string's
        arrow count.  kappa0 vanishes exactly for minuscule highest weights,
        where every i-string has at most one arrow.
        """
        coords = []
        for i in range(self.datum.rank):
            longest = max(e[i] + f[i] for e, f in zip(self.eps, self.phi))
            coords.append(max(longest, 1) - 1)
        return self.datum.weight(tuple(coords))

    # -- exports -----------------------------------------------------------------

    def to_dot(self, name: str = "crystal") -> str:
        palette = ["red", "blue", "green", "orange", "purple", "brown", "cyan", "black"]
        lines = [f"digraph {name} {{"]
        for k, w in enumerate(self.weights):
            lines.append(f'  n{k} [label="wt={w.fw} ht={self.heights[k]}"];')
        for src, i, dst in self.edges():
            color = palette[i % len(palette)]
            lines.append(f'  n{src} -> n{dst} [label="{i + 1}", color={color}];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "kappa": list(self.kappa.fw),
            "nodes": [
                {
                    "id": k,
                    "weight": list(self.weights[k].fw),
                    "height": self.heights[k],
                    "eps": list(self.eps[k]),
                    "phi": list(self.phi[k]),
                    "path": P.path_to_literal(self.datum, self.nodes[k], basis="fw"),
                }
                for k in range(len(self.nodes))
            ],
            "edges": [
                {"source": s, "color": i + 1, "target": t} for s, i, t in self.edges()
            ],
        }
        return json.dumps(payload, indent=2)


class CrystalCache:
    """Crystals B(straight path to lambda), generated once per weight."""

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self._store: Dict[Tuple[int, ...], CrystalGraph] = {}

    def get(self, w: Weight) -> CrystalGraph:
        key = w.fw
        if key not in self._store:
            if not w.is_dominant():
                raise WeylwalkError(f"weight {w.fw} is not dominant")
            path = P.straight_path(tuple(Fraction(c) for c in w.fw))
            self._store[key] = CrystalGraph(self.datum, path)
        return self._store[key]


class ModuleSpec(Frozen):
    """Direct sum of irreducible summands with positive multiplicities."""

    __slots__ = ("summands",)

    def __init__(self, summands: Tuple[Tuple[Weight, int], ...]):
        if not summands:
            raise FormatError("a module needs at least one summand")
        seen = set()
        for kappa, mult in summands:
            if not kappa.is_dominant():
                raise FormatError(f"summand {kappa.fw} is not dominant")
            if mult < 1:
                raise FormatError("summand multiplicities must be positive")
            if kappa.fw in seen:
                raise FormatError("summand weights must be distinct")
            seen.add(kappa.fw)
        super().__init__(summands)

    @property
    def reference(self) -> Weight:
        """Reference weight r of the step law a_kappa tau^{r - wt(b)} / N_r.

        kappa for a single summand, which keeps every exponent in the root
        lattice; 0 for several summands, whose weights need not share a coset.
        """
        kappa = self.summands[0][0]
        return kappa if len(self.summands) == 1 else kappa - kappa


def as_module(source: Union[Weight, ModuleSpec]) -> ModuleSpec:
    """Every step source as a direct sum: a weight kappa is V(kappa) once."""
    return source if isinstance(source, ModuleSpec) else ModuleSpec(((source, 1),))


class TensorNode(Frozen):
    """Ordered factors (crystal, node index), realized as the concatenation."""

    __slots__ = ("factors",)

    def __init__(self, factors: Tuple[Tuple[CrystalGraph, int], ...]):
        if not factors:
            raise FormatError("tensor node needs at least one factor")
        super().__init__(factors)

    @property
    def datum(self) -> CartanDatum:
        return self.factors[0][0].datum

    def path(self) -> P.PiecewisePath:
        return P.concat_all([crys.nodes[idx] for crys, idx in self.factors])

    def _values(self) -> tuple:
        # factors are equal when they are the same crystal at the same node
        return tuple((id(c), i) for c, i in self.factors)


def _factor_lows(node: TensorNode, i: int) -> Tuple[List[int], int]:
    """The i-height minimum inside each factor, and the final i-height.

    Factor b entered at height H dips to H - eps_i(b) (integrality of path
    minima), so the minimum m of the concatenation is the least of these.
    """
    lows = []
    height = 0
    for crys, idx in node.factors:
        lows.append(height - crys.eps[idx][i])
        height += crys.weights[idx].fw[i]
    return lows, height


def _move_factor(node: TensorNode, pos: int, i: int, up: bool) -> Optional[TensorNode]:
    """Raise (``up``) or lower factor ``pos`` along its i-edge; None off the end."""
    crys, idx = node.factors[pos]
    nxt = (crys.e_edge if up else crys.f_edge).get((idx, i))
    return None if nxt is None else TensorNode(
        node.factors[:pos] + ((crys, nxt),) + node.factors[pos + 1:])


def tensor_eps_phi(node: TensorNode, i: int) -> Tuple[int, int]:
    """Raising and lowering depths of the concatenation: (-m, h_i(1) - m)."""
    lows, end = _factor_lows(node, i)
    m = min(lows)
    return -m, end - m


def tensor_apply_e(node: TensorNode, i: int) -> Optional[TensorNode]:
    """Raising operator through the tensor rule: None iff it kills the node.

    The path-level operator acts at the first visit of the minimum, so it
    raises the first factor whose dip reaches it.
    """
    lows, _ = _factor_lows(node, i)
    return _move_factor(node, lows.index(min(lows)), i, up=True)


def tensor_apply_f(node: TensorNode, i: int) -> Optional[TensorNode]:
    """Lowering operator through the tensor rule: it acts at the last visit of
    the minimum, so it lowers the last factor whose dip reaches it."""
    lows, _ = _factor_lows(node, i)
    m = min(lows)
    return _move_factor(node, max(k for k, low in enumerate(lows) if low == m), i, up=False)


def tensor_rule_checks(crystal: CrystalGraph) -> Iterator[Tuple[str, bool]]:
    """Yield ``(name, passed)`` for ``tensor_apply_e`` on every node of
    ``crystal`` tensor ``crystal`` against ``paths.apply_e`` on its path."""
    datum, ok = crystal.datum, True
    for i0 in range(len(crystal)):
        for i1 in range(len(crystal)):
            node = TensorNode(((crystal, i0), (crystal, i1)))
            path = node.path()
            for i in range(datum.rank):
                te = tensor_apply_e(node, i)
                pe = P.apply_e(datum, path, i)
                ok = ok and ((te is None) == (pe is None))
                if te is not None:
                    ok = ok and te.path() == pe
    yield "tensor rule matches path operators (ell=2)", ok


def count_multiplicity(mu: Weight, crystal: CrystalGraph) -> Dict[Weight, int]:
    """Branching counts by path translation: nodes whose mu-shifted path stays
    in the dominant cone, grouped by final weight.

    The minimum of h_i along a node b is -eps_i(b) (integrality of path
    minima), so the shifted path stays exactly when mu_i >= eps_i(b).
    """
    out: Dict[Weight, int] = {}
    for idx, eps in enumerate(crystal.eps):
        if all(m >= e for m, e in zip(mu.fw, eps)):
            lam = mu + crystal.weights[idx]
            out[lam] = out.get(lam, 0) + 1
    return out


def module_multiplicity(mu: Weight,
                        crystals: Sequence[Tuple[CrystalGraph, int]]) -> Dict[Weight, int]:
    """Multiplicity row for a direct sum: sum of a_kappa-weighted counts."""
    out: Dict[Weight, int] = {}
    for crystal, mult in crystals:
        for lam, m in count_multiplicity(mu, crystal).items():
            out[lam] = out.get(lam, 0) + mult * m
    return out


def count_f_multiplicity(datum: CartanDatum, mu: Weight,
                         crystals: Sequence[Tuple[CrystalGraph, int]],
                         ell: int) -> Dict[Tuple[int, ...], int]:
    """Layer ``ell`` of ``count_f_layers``: the count of each endpoint, keyed
    by its fw coordinates."""
    return dict(count_f_layers(datum, mu, crystals, (ell,)))[ell]


def count_f_layers(datum: CartanDatum, mu: Weight,
                   crystals: Sequence[Tuple[CrystalGraph, int]],
                   ells: Sequence[int]) -> Iterator[Tuple[int, Dict[Tuple[int, ...], int]]]:
    """Layered dynamic program over dominant endpoints: (ell, layer ell) for
    each distinct ell of ``ells``, in increasing order, as the one pass to
    max(ells) reaches it.  A layer maps the fw coordinates of each endpoint
    to its count.

    Iterates the one-step branching row, so layer ell counts highest-weight
    tensor nodes of ell factors weighted by the summand multiplicities.

    A dominant weight is one int, its fw coordinates in mixed radix with a
    base over every coordinate reachable in max(ells) steps, so a step is an
    int add.  The row of nu depends only on its clip class min(nu_i, max_b
    eps_i(b)), since a node passes the cone test at nu exactly when it does
    there; it is computed once per class, as (step key, multiplicity) pairs.

    It raises ``ResourceBudgetError`` once its states pass ``DEFAULT_DP_BUDGET``.
    """
    wanted = set(ells)
    for ell in sorted(wanted):
        if ell <= 0:
            yield ell, {mu.fw: 1}
        elif not mu.is_dominant():
            # no node's step from outside the cone stays in it
            yield ell, {}
    top = max(wanted, default=0)
    if top <= 0 or not mu.is_dominant():
        return
    rank = datum.rank
    tops = [max(eps[i] for crystal, _ in crystals for eps in crystal.eps) for i in range(rank)]
    base = max(mu.fw) + top * max(max(w.fw) for crystal, _ in crystals
                                  for w in crystal.weights) + 1
    place = [base ** i for i in range(rank)]

    def key(fw) -> int:
        return sum(c * p for c, p in zip(fw, place))

    def coords(k: int) -> Tuple[int, ...]:
        return tuple(k // p % base for p in place)

    class_rows: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
    rows: Dict[int, List[Tuple[int, int]]] = {}
    state: Dict[int, int] = {key(mu.fw): 1}
    carried = 0
    for step in range(1, top + 1):
        nxt: Dict[int, int] = {}
        for k, c in state.items():
            row = rows.get(k)
            if row is None:
                clip = tuple(min(x, t) for x, t in zip(coords(k), tops))
                row = class_rows.get(clip)
                if row is None:
                    nu = datum.weight(clip)
                    row = class_rows[clip] = [
                        (key((lam - nu).fw), m)
                        for lam, m in module_multiplicity(nu, crystals).items()]
                rows[k] = row
            for d, m in row:
                nxt[k + d] = nxt.get(k + d, 0) + c * m
        state = nxt
        carried += len(state)
        if carried > DEFAULT_DP_BUDGET:
            raise ResourceBudgetError(f"branching counts over {top} steps carry more than "
                                      f"{DEFAULT_DP_BUDGET} states", partial_count=carried)
        if step in wanted:
            yield step, {coords(k): c for k, c in state.items()}
