"""Exact character algebra in the variables tau_i = e^{-alpha_i}.

Exponent vectors are rational coordinates on the simple roots, closed over
(1/D)Z with D = det of the Cartan matrix; integral coordinates are plain
ints.  Evaluation of fractional exponents is exact when the tau point
carries rational D-th roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from .cartan import (
    DEFAULT_WEYL_BUDGET,
    CartanDatum,
    Weight,
    WeylElement,
    WeylGroup,
    act,
    positive_coroots,
    positive_roots,
    weyl_group,
    weyl_orbit,
    weyl_order,
)
from .crystal import CrystalCache, CrystalGraph, ModuleSpec, as_module, count_f_multiplicity
from .errors import DomainError, ExactEvaluationError, FormatError, ResourceBudgetError
from .exact import Rational, exact_unit


@dataclass(frozen=True)
class TauPoint:
    """Positive rational tau with optional exact D-th roots u_i (u_i^D = tau_i).

    Roots may be supplied per coordinate (None where no rational root exists
    or none is needed); fractional exponents touching a root-less coordinate
    fail loudly at evaluation time.
    """

    values: Tuple[Fraction, ...]
    d: int
    roots: Optional[Tuple[Optional[Fraction], ...]] = None

    def __post_init__(self):
        if any(v <= 0 for v in self.values):
            raise DomainError("tau coordinates must be positive")
        if self.roots is not None:
            if len(self.roots) != len(self.values):
                raise DomainError("need one root slot per tau coordinate")
            for u, v in zip(self.roots, self.values):
                if u is not None and (u <= 0 or u**self.d != v):
                    raise DomainError(f"root {u} is not an exact {self.d}-th root of {v}")

    @property
    def rank(self) -> int:
        return len(self.values)

    def in_convergence_region(self) -> bool:
        """Finite type: the open unit cube."""
        return all(0 < v < 1 for v in self.values)

    def require_in_region(self) -> None:
        if not self.in_convergence_region():
            raise DomainError(f"tau {tuple(map(str, self.values))} is outside ]0,1[^n")

    def power(self, exponent: Sequence) -> Fraction:
        """Exact tau^e for an exponent vector in root coordinates, each an
        int or a Fraction whose denominator divides D."""
        out = Fraction(1)
        for taui, ui, e in zip(self.values, self.roots or (None,) * self.rank, exponent,
                               strict=True):
            num, den = e.numerator, e.denominator
            if den == 1:
                out *= taui ** num
            else:
                if self.d % den:
                    raise ExactEvaluationError(
                        f"exponent {e} is not a multiple of 1/{self.d}"
                    )
                if ui is None:
                    raise ExactEvaluationError(
                        f"fractional exponent {e} needs {self.d}-th roots of tau"
                    )
                out *= ui ** (num * (self.d // den))
        return out


def _one_per_rank(datum: CartanDatum, name: str, coords: Sequence) -> Sequence:
    if len(coords) != datum.rank:
        raise FormatError(f"{name!r} needs {datum.rank} coordinates, got {len(coords)}")
    return coords


def tau_point(datum: CartanDatum, values: Sequence, roots: Optional[Sequence] = None) -> TauPoint:
    vals = tuple(Fraction(v) for v in _one_per_rank(datum, "tau", values))
    rts = None
    if roots is not None:
        rts = tuple(None if r is None else Fraction(r)
                    for r in _one_per_rank(datum, "tau_roots", roots))
    return TauPoint(vals, datum.det, rts)


def tau_point_from_roots(datum: CartanDatum, roots: Sequence) -> TauPoint:
    rts = tuple(Fraction(r) for r in _one_per_rank(datum, "tau_roots", roots))
    vals = tuple(r**datum.det for r in rts)
    return TauPoint(vals, datum.det, rts)


class ExponentPolynomial:
    """Sparse Laurent polynomial with rational exponents and coefficients.

    Exponent coordinates and coefficients are ints where integral and
    Fractions elsewhere; the two compare, hash and print alike."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Tuple, Rational]] = None):
        self.terms: Dict[Tuple, Rational] = {}
        if terms:
            for e, c in terms.items():
                c = exact_unit(c)
                if c != 0:
                    self.terms[tuple(exact_unit(x) for x in e)] = c

    @staticmethod
    def zero() -> "ExponentPolynomial":
        return ExponentPolynomial()

    @staticmethod
    def one(rank: int) -> "ExponentPolynomial":
        return ExponentPolynomial({(0,) * rank: 1})

    @staticmethod
    def monomial(exponent: Sequence, coeff=1) -> "ExponentPolynomial":
        return ExponentPolynomial({tuple(exponent): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, ExponentPolynomial) and self.terms == other.terms

    def __add__(self, other: "ExponentPolynomial") -> "ExponentPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return ExponentPolynomial(out)

    def __neg__(self) -> "ExponentPolynomial":
        return ExponentPolynomial({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "ExponentPolynomial") -> "ExponentPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return ExponentPolynomial()
            return ExponentPolynomial({e: c * other for e, c in self.terms.items()})
        out: Dict[Tuple, Rational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return ExponentPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ExponentPolynomial":
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        rank = len(next(iter(self.terms))) if self.terms else 0
        out = ExponentPolynomial.one(rank)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def evaluate(self, tau: TauPoint) -> Fraction:
        return sum((c * tau.power(e) for e, c in self.terms.items()), Fraction(0))

    def sorted_terms(self) -> List[Tuple[Tuple, Rational]]:
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"t{k + 1}^{x}" for k, x in enumerate(e) if x != 0
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(bits)


class CharacterAlgebra:
    """Characters, the stay-in-cone harmonic function and its relatives.

    Caches one crystal per dominant weight (straight highest path), the
    positive roots and the Weyl group of a fixed finite-type datum, every
    character value per (weight, tau) and every Weyl numerator per weight.

    S_lambda(tau) and psi are computed by whichever route costs less: the
    Weyl alternating sum has |W| terms, the crystal B(lambda) has
    dim V(lambda) nodes.  The crystal route serves every weight when |W| is
    over the group budget (E7, E8), where psi_poly, always the sum, is refused.
    """

    def __init__(self, datum: CartanDatum, cache: Optional[CrystalCache] = None):
        self.datum = datum
        self.cache = cache if cache is not None else CrystalCache(datum)
        self._group = None
        self._posroots = None
        self._order = weyl_order(datum)
        self._coroots = positive_coroots(datum)
        self._rho_dim = prod(sum(c) for c in self._coroots)
        self._characters: Dict[Tuple[Tuple[int, ...], TauPoint], Fraction] = {}
        self._denominators: Dict[TauPoint, Fraction] = {}
        self._numerators: Dict[Tuple[int, ...], ExponentPolynomial] = {}
        self._identity = WeylElement((1,) * datum.rank, (), 1, datum.matrix)

    @property
    def group(self) -> WeylGroup:
        if self._group is None:
            self._group = weyl_group(self.datum)
        return self._group

    @property
    def posroots(self) -> List[Weight]:
        if self._posroots is None:
            self._posroots = positive_roots(self.datum)
        return self._posroots

    def dimension(self, lam: Weight) -> int:
        """dim V(lambda) by the Weyl dimension formula over the positive coroots."""
        num = prod(sum(c * (x + 1) for c, x in zip(cor, lam.fw)) for cor in self._coroots)
        return num // self._rho_dim

    def _uses_weyl_sum(self, lam: Weight) -> bool:
        """Whether the |W|-term alternating sum is cheaper than B(lambda).

        Non-dominant weights stay on the crystal route, which rejects them.
        """
        return (self._order <= DEFAULT_WEYL_BUDGET and lam.is_dominant()
                and self._order < self.dimension(lam))

    def denominator_value(self, tau: TauPoint) -> Fraction:
        """prod over positive roots of (1 - tau^alpha), once per tau."""
        out = self._denominators.get(tau)
        if out is None:
            out = Fraction(1)
            for alpha in self.posroots:
                out *= 1 - tau.power(alpha.root)
            self._denominators[tau] = out
        return out

    # -- characters -------------------------------------------------------------

    def character_poly(self, source) -> ExponentPolynomial:
        """S_kappa as a polynomial for a dominant weight kappa: sum over the
        nodes of B(kappa) of tau^{kappa - wt}."""
        crystal = self.cache.get(source)
        out: Dict[Tuple, int] = {}
        for w in crystal.weights:
            e = (crystal.kappa - w).root
            out[e] = out.get(e, 0) + 1
        return ExponentPolynomial(out)

    def character_value(self, kappa: Weight, tau: TauPoint) -> Fraction:
        """S_kappa(tau), from the Weyl sum over the denominator where that is
        cheaper and the denominator is nonzero, else from the crystal."""
        key = (kappa.fw, tau)
        out = self._characters.get(key)
        if out is None:
            denom = self.denominator_value(tau)
            if denom != 0 and self._uses_weyl_sum(kappa):
                out = self.weyl_numerator(kappa).evaluate(tau) / denom
            else:
                out = self.character_poly(kappa).evaluate(tau)
            self._characters[key] = out
        return out

    def weyl_numerator(self, mu: Weight) -> ExponentPolynomial:
        """Alternating orbit sum rebased at dominant mu:
        sum_w sign(w) tau^{mu+rho-w(mu+rho)}, one term per point of the orbit
        of mu + rho.

        Stepping x to s_i(x) adds x_i to the i-th root coordinate of the
        exponent (mu + rho) - x and flips the sign.  Built once per mu;
        callers must not mutate it.  A non-dominant mu is refused, and so is a
        group over the budget, as by ``weyl_group``."""
        poly = self._numerators.get(mu.fw)
        if poly is None:
            if not mu.is_dominant():
                raise DomainError(f"weight {mu.fw} is not dominant")
            if self._order > DEFAULT_WEYL_BUDGET:
                raise ResourceBudgetError(f"Weyl group of {self.datum.label} has "
                                          f"{self._order} elements, over the budget "
                                          f"{DEFAULT_WEYL_BUDGET}")
            orbit = weyl_orbit(self.datum, tuple(c + 1 for c in mu.fw))
            terms = [((0,) * self.datum.rank, 1)]
            for _, parent, i in orbit[1:]:
                e, sign = terms[parent]
                step = orbit[parent][0][i]
                terms.append((e[:i] + (e[i] + step,) + e[i + 1:], -sign))
            poly = self._numerators[mu.fw] = ExponentPolynomial(dict(terms))
        return poly

    def denominator_poly(self) -> ExponentPolynomial:
        """prod over positive roots of (1 - tau^alpha); finite type, all m_alpha = 1."""
        rank = self.datum.rank
        out = ExponentPolynomial.one(rank)
        for alpha in self.posroots:
            out = out * (ExponentPolynomial.one(rank) - ExponentPolynomial.monomial(alpha.root))
        return out

    # -- psi ---------------------------------------------------------------------

    def psi_poly(self, mu: Weight) -> ExponentPolynomial:
        """prod(1 - tau^alpha) * S_mu, which by the Weyl character formula is
        the alternating sum weyl_numerator(mu): the expanded product alone
        has |W| terms, so the numerator is never the dearer route."""
        return self.weyl_numerator(mu)

    def psi(self, mu: Weight, tau: TauPoint) -> Fraction:
        """Probability of never leaving the cone: prod(1 - tau^alpha) * S_mu(tau)."""
        tau.require_in_region()
        return self.character_value(mu, tau) * self.denominator_value(tau)

    def sigma_m(self, modspec: ModuleSpec, tau: TauPoint) -> Fraction:
        """Sigma_M(tau) = sum of a_kappa tau^{-kappa} S_kappa(tau) = tau^{-r} N_r(tau)."""
        tau.require_in_region()
        return tau.power((-modspec.reference).root) * self.normalizer(modspec, tau)

    def sigma_m_poly(self, modspec: ModuleSpec) -> ExponentPolynomial:
        shift = ExponentPolynomial.monomial((-modspec.reference).root)
        return shift * self._normalizer_poly(modspec)

    # -- step sources ----------------------------------------------------------------

    def module_crystals(self, source) -> List[Tuple[CrystalGraph, int]]:
        return [(self.cache.get(kappa), mult) for kappa, mult in as_module(source).summands]

    def normalizer(self, source, tau: TauPoint) -> Fraction:
        """N_r(tau) = sum of a_kappa tau^{r - kappa} S_kappa(tau), r the source's
        reference weight: a_kappa S_kappa(tau) for one summand, Sigma_M(tau) for
        several."""
        spec = as_module(source)
        r = spec.reference
        return sum((mult * tau.power((r - kappa).root) * self.character_value(kappa, tau)
                    for kappa, mult in spec.summands), Fraction(0))

    def _normalizer_poly(self, spec: ModuleSpec) -> ExponentPolynomial:
        r = spec.reference
        out = ExponentPolynomial.zero()
        for kappa, mult in spec.summands:
            term = ExponentPolynomial.monomial((r - kappa).root, mult)
            out = out + term * self.character_poly(kappa)
        return out

    # -- finite-horizon quantities -------------------------------------------------

    def _branching(self, mu: Weight, spec: ModuleSpec, ell: int):
        """Counts f^ell_lam(mu) of the source and the exponent base ell * r."""
        counts = count_f_multiplicity(self.datum, mu, self.module_crystals(spec), ell)
        return counts, self.datum.weight(tuple(ell * c for c in spec.reference.fw))

    def _twisted_stay(self, mu: Weight, counts, ell_r: Weight, norm: Fraction,
                      tau: TauPoint, w) -> Fraction:
        """Sum over lambda of f_lam tau^{ell*r + w(mu) - w(lambda)}, over N_r^ell."""
        w_mu = act(self.datum, w, mu)
        out = Fraction(0)
        for lam, f in counts.items():
            out += f * tau.power((ell_r + w_mu - act(self.datum, w, lam)).root)
        return out / norm

    def _rho_shift(self, mu: Weight, tau: TauPoint, w) -> Fraction:
        shifted = mu + self.datum.rho
        return tau.power((shifted - act(self.datum, w, shifted)).root)

    def psi_ell(self, mu: Weight, source, tau: TauPoint, ell: int) -> Fraction:
        """Finite-horizon stay probability via the branching counts (w = 1)."""
        return self.psi_ell_twisted(mu, source, tau, ell, self._identity)

    def psi_ell_twisted(self, mu: Weight, source, tau: TauPoint, ell: int,
                        w) -> Fraction:
        """Finite-horizon stay probability of the w-twisted walk.

        Uses tau^{ell*r + w(mu) - w(lambda)} over the untwisted normalizer
        N_r^ell; only finite horizons are exposed since the limit vanishes off
        the identity.
        """
        tau.require_in_region()
        spec = as_module(source)
        counts, ell_r = self._branching(mu, spec, ell)
        norm = self.normalizer(spec, tau) ** ell
        return self._twisted_stay(mu, counts, ell_r, norm, tau, w)

    def pi_ell_w(self, mu: Weight, source, tau: TauPoint, ell: int, w) -> Fraction:
        """One twisted term of the finite-horizon expansion of psi's product form."""
        return self._rho_shift(mu, tau, w) * self.psi_ell_twisted(mu, source, tau, ell, w)

    def master_identity_sides(self, mu: Weight, source, tau: TauPoint, ell: int):
        """Exact two sides of the finite-horizon alternating identity.

        Left: the closed product form of psi(mu).  Right: the signed sum of
        the twisted finite-horizon terms, which share one set of branching
        counts and one normalizer.
        """
        left = self.psi(mu, tau)
        spec = as_module(source)
        counts, ell_r = self._branching(mu, spec, ell)
        norm = self.normalizer(spec, tau) ** ell
        right = Fraction(0)
        for w in self.group:
            stay = self._twisted_stay(mu, counts, ell_r, norm, tau, w)
            right += w.sign * self._rho_shift(mu, tau, w) * stay
        return left, right

    def character_product_identity(self, mu: Weight, source, ell: int) -> bool:
        """S_mu * N_r^ell = sum_lam f^ell_lam tau^{ell*r + mu - lam} S_lam, checked
        on S-polynomials.

        Rebasing by tau^{ell*r + mu - lam} matches the S-normalization of each
        character on both sides.
        """
        spec = as_module(source)
        counts, ell_r = self._branching(mu, spec, ell)
        left = self.character_poly(mu) * self._normalizer_poly(spec) ** ell
        right = ExponentPolynomial.zero()
        for lam, f in counts.items():
            shift = ExponentPolynomial.monomial((ell_r + mu - lam).root)
            right = right + f * shift * self.character_poly(lam)
        return left == right
