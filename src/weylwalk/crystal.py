"""Crystal graphs of dominant paths: generation, tensor nodes, multiplicities.

A crystal is generated by closing a dominant path under the lowering
operators; nodes are canonical paths, so deduplication is exact.  Tensor
nodes keep their factors and act through the concatenation rule, which is
cross-checked against the path-level operators in the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .cartan import CartanDatum, Weight, WeylElement, weyl_orbit
from .errors import FormatError, ResourceBudgetError, WeylwalkError
from . import paths as P

DEFAULT_NODE_BUDGET = 200_000


class CrystalGraph:
    """Connected colored digraph of paths generated from a dominant path."""

    def __init__(self, datum: CartanDatum, highest_path: P.PiecewisePath,
                 budget: int = DEFAULT_NODE_BUDGET):
        if not P.is_dominant_path(highest_path):
            raise WeylwalkError("highest path leaves the dominant cone")
        self.datum = datum
        self.nodes: List[P.PiecewisePath] = []
        self.f_edge: Dict[Tuple[int, int], int] = {}
        self.e_edge: Dict[Tuple[int, int], int] = {}
        self._generate(highest_path, budget)
        self.highest = 0  # generation starts at the highest path
        self.weights: List[Weight] = [P.path_weight(datum, b) for b in self.nodes]
        self.kappa: Weight = self.weights[self.highest]
        depths = [[P.eps_phi(b, i) for i in range(datum.rank)] for b in self.nodes]
        self.eps: List[Tuple[int, ...]] = [tuple(e for e, _ in d) for d in depths]
        self.phi: List[Tuple[int, ...]] = [tuple(f for _, f in d) for d in depths]
        self.heights: List[int] = [self._height(w) for w in self.weights]
        self._check_unique_highest()

    # -- construction ---------------------------------------------------------

    def _generate(self, seed: P.PiecewisePath, budget: int) -> None:
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
                    if len(self.nodes) >= budget:
                        raise ResourceBudgetError(
                            f"crystal exceeds node budget {budget}",
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

    def weyl_action_on_node(self, w: WeylElement, idx: int) -> int:
        cur = idx
        for i in reversed(w.word):
            cur = self.simple_reflection_on_node(i, cur)
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

    def is_minuscule(self) -> bool:
        """Whether the node weights form a single Weyl orbit (no repeats).

        W(kappa) lies among the weights, so repeat-free weights form one
        orbit exactly when there are as many nodes as orbit points."""
        counts = self.weight_counts()
        return (all(c == 1 for c in counts.values())
                and len(weyl_orbit(self.datum, self.kappa.fw)) == len(counts))

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

    def canonical_signature(self):
        """Isomorphism invariant: deterministic BFS relabeling from the top.

        Crystal graphs have at most one arrow per color out of and into each
        node, so this signature is complete for colored-digraph isomorphism.
        """
        order = {self.highest: 0}
        queue = [self.highest]
        sig = []
        while queue:
            cur = queue.pop(0)
            for i in range(self.datum.rank):
                dst = self.f_edge.get((cur, i))
                if dst is None:
                    continue
                if dst not in order:
                    order[dst] = len(order)
                    queue.append(dst)
                sig.append((order[cur], i, order[dst]))
        return tuple(sorted(sig))


def generate_crystal(datum: CartanDatum, highest_path: P.PiecewisePath,
                     budget: int = DEFAULT_NODE_BUDGET) -> CrystalGraph:
    return CrystalGraph(datum, highest_path, budget)


class CrystalCache:
    """Crystals B(straight path to lambda), generated once per weight."""

    def __init__(self, datum: CartanDatum, budget: int = DEFAULT_NODE_BUDGET):
        self.datum = datum
        self.budget = budget
        self._store: Dict[Tuple[int, ...], CrystalGraph] = {}

    def get(self, w: Weight) -> CrystalGraph:
        key = w.fw
        if key not in self._store:
            if not w.is_dominant():
                raise WeylwalkError(f"weight {w.fw} is not dominant")
            path = P.straight_path(tuple(Fraction(c) for c in w.fw))
            self._store[key] = CrystalGraph(self.datum, path, self.budget)
        return self._store[key]

    def dim(self, w: Weight) -> int:
        return len(self.get(w))


@dataclass(frozen=True)
class ModuleSpec:
    """Direct sum of irreducible summands with positive multiplicities."""

    summands: Tuple[Tuple[Weight, int], ...]

    def __post_init__(self):
        if not self.summands:
            raise FormatError("a module needs at least one summand")
        seen = set()
        for kappa, mult in self.summands:
            if not kappa.is_dominant():
                raise FormatError(f"summand {kappa.fw} is not dominant")
            if mult < 1:
                raise FormatError("summand multiplicities must be positive")
            if kappa.fw in seen:
                raise FormatError("summand weights must be distinct")
            seen.add(kappa.fw)

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


@dataclass(frozen=True)
class TensorNode:
    """Ordered factors (crystal, node index), realized as the concatenation."""

    factors: Tuple[Tuple[CrystalGraph, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise FormatError("tensor node needs at least one factor")

    @property
    def datum(self) -> CartanDatum:
        return self.factors[0][0].datum

    def path(self) -> P.PiecewisePath:
        return P.concat_all([crys.nodes[idx] for crys, idx in self.factors])

    def weight_fw(self) -> Tuple[int, ...]:
        n = self.datum.rank
        out = [0] * n
        for crys, idx in self.factors:
            for k, c in enumerate(crys.weights[idx].fw):
                out[k] += c
        return tuple(out)

    def weight(self) -> Weight:
        return self.datum.weight(self.weight_fw())

    def prefix(self, k: int) -> "TensorNode":
        return TensorNode(self.factors[:k])

    def __hash__(self):
        return hash(tuple((id(c), i) for c, i in self.factors))

    def __eq__(self, other):
        return isinstance(other, TensorNode) and all(
            a is c and i == j for (a, i), (c, j) in zip(self.factors, other.factors)
        ) and len(self.factors) == len(other.factors)


def _prefix_eps_phi(node: TensorNode, i: int) -> List[Tuple[int, int]]:
    """Raising and lowering depths of every prefix, by the product rule."""
    out = [(0, 0)]
    eps, phi = 0, 0
    for crys, idx in node.factors:
        fe, fp = crys.eps[idx][i], crys.phi[idx][i]
        eps = eps + max(0, fe - phi)
        phi = fp + max(0, phi - fe)
        out.append((eps, phi))
    return out


def tensor_eps_phi(node: TensorNode, i: int) -> Tuple[int, int]:
    """Raising and lowering depths of the concatenation."""
    return _prefix_eps_phi(node, i)[-1]


def tensor_apply_e(node: TensorNode, i: int) -> Optional[TensorNode]:
    """Raising operator through the tensor rule: None iff it kills the node.

    For a split head * last, the operator hits the last factor exactly when
    its raising depth exceeds the lowering depth of the head; otherwise it
    descends into the head.
    """
    pre = _prefix_eps_phi(node, i)
    pos = 0
    for k in range(len(node.factors), 0, -1):
        crys, idx = node.factors[k - 1]
        if crys.eps[idx][i] > pre[k - 1][1]:
            pos = k - 1
            break
    crys, idx = node.factors[pos]
    up = crys.e_edge.get((idx, i))
    if up is None:
        return None
    factors = list(node.factors)
    factors[pos] = (crys, up)
    return TensorNode(tuple(factors))


def tensor_apply_f(node: TensorNode, i: int) -> Optional[TensorNode]:
    """Lowering operator through the tensor rule (mirror of the raising one).

    It hits the earliest factor whose preceding lowering depth beats the
    raising depth of everything after the split point.
    """
    pre = _prefix_eps_phi(node, i)
    pos = len(node.factors) - 1
    for k in range(len(node.factors) - 1, 0, -1):
        crys, idx = node.factors[k]
        if pre[k][1] > crys.eps[idx][i]:
            pos = k - 1
        else:
            break
    crys, idx = node.factors[pos]
    down = crys.f_edge.get((idx, i))
    if down is None:
        return None
    factors = list(node.factors)
    factors[pos] = (crys, down)
    return TensorNode(tuple(factors))


def tensor_is_highest(node: TensorNode) -> bool:
    n = node.datum.rank
    return all(tensor_eps_phi(node, i)[0] == 0 for i in range(n))


def count_multiplicity(datum: CartanDatum, mu: Weight, crystal: CrystalGraph) -> Dict[Weight, int]:
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


def module_multiplicity(datum: CartanDatum, mu: Weight,
                        crystals: Sequence[Tuple[CrystalGraph, int]]) -> Dict[Weight, int]:
    """Multiplicity row for a direct sum: sum of a_kappa-weighted counts."""
    out: Dict[Weight, int] = {}
    for crystal, mult in crystals:
        for lam, m in count_multiplicity(datum, mu, crystal).items():
            out[lam] = out.get(lam, 0) + mult * m
    return out


def count_f_multiplicity(datum: CartanDatum, mu: Weight,
                         crystals: Sequence[Tuple[CrystalGraph, int]],
                         ell: int) -> Dict[Weight, int]:
    """Layered dynamic program over dominant endpoints.

    Iterates the one-step branching row, so the result counts highest-weight
    tensor nodes weighted by the summand multiplicities.
    """
    state: Dict[Weight, int] = {mu: 1}
    row_cache: Dict[Tuple[int, ...], Dict[Weight, int]] = {}
    for _ in range(ell):
        nxt: Dict[Weight, int] = {}
        for nu, c in state.items():
            row = row_cache.get(nu.fw)
            if row is None:
                row = module_multiplicity(datum, nu, crystals)
                row_cache[nu.fw] = row
            for lam, m in row.items():
                nxt[lam] = nxt.get(lam, 0) + c * m
        state = nxt
    return state
