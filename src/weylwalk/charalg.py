"""Exact character algebra in the variables tau_i = e^{-alpha_i}.

Exponent vectors are rational coordinates on the simple roots, closed over
(1/D)Z with D = det of the Cartan matrix; integral coordinates are plain
ints.  Every sum of powers of tau is evaluated in integers by
``TauPoint.sum_powers``; fractional exponents need the tau point's rational
D-th roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from .cartan import (
    DEFAULT_WEYL_BUDGET,
    CartanDatum,
    Frozen,
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
from .crystal import CrystalCache, CrystalGraph, as_module, count_f_multiplicity
from .errors import DomainError, ExactEvaluationError, FormatError, ResourceBudgetError
from .exact import Rational, exact_unit


def in_unit_cube(values: Sequence[Fraction]) -> bool:
    return all(0 < v < 1 for v in values)


class TauPoint(Frozen):
    """Positive rational tau with optional exact D-th roots u_i (u_i^D = tau_i).

    Roots may be supplied per coordinate (None where no rational root exists
    or none is needed); fractional exponents touching a root-less coordinate
    fail loudly at evaluation time.
    """

    __slots__ = ("values", "d", "roots")

    def __init__(self, values: Tuple[Fraction, ...], d: int,
                 roots: Optional[Tuple[Optional[Fraction], ...]] = None):
        if any(v <= 0 for v in values):
            raise DomainError("tau coordinates must be positive")
        if roots is not None:
            if len(roots) != len(values):
                raise DomainError("need one root slot per tau coordinate")
            for u, v in zip(roots, values):
                if u is not None and (u <= 0 or u**d != v):
                    raise DomainError(f"root {u} is not an exact {d}-th root of {v}")
        super().__init__(values, d, roots)

    @property
    def rank(self) -> int:
        return len(self.values)

    def require_in_region(self) -> None:
        """Finite type: the convergence region is the open unit cube."""
        if not in_unit_cube(self.values):
            raise DomainError(f"tau {tuple(map(str, self.values))} is outside ]0,1[^n")

    def power(self, exponent: Sequence) -> Fraction:
        """Exact tau^e for an exponent vector in root coordinates, each an
        int or a Fraction whose denominator divides D."""
        return self.sum_powers((1,), (_in_units(exponent, self.d),))

    def sum_powers(self, coeffs: Sequence[Rational],
                   exponents: Sequence[Sequence[int]]) -> Fraction:
        """Exact sum of c * tau^(n/D) over the coefficients c and the integer
        exponent vectors n, in units of 1/D, taken in pairs.

        Coordinate i sums in tau_i where all its exponents are multiples of D,
        else in the D-th root u_i.  With base p/q and exponents n in lo..hi,
        p^n/q^n is p^(n-lo) q^(hi-n) times p^lo/q^hi, so the sum is one
        integer sum over one common denominator.  A coordinate whose exponents
        are all equal only scales it and builds no power table.
        """
        if not exponents:
            return Fraction(0)
        d, roots = self.d, self.roots or (None,) * self.rank
        num = den = 1
        factors = []
        for column, v, u in zip(zip(*exponents), self.values, roots, strict=True):
            lo, hi = min(column), max(column)
            if lo % d == 0 and (lo == hi or all(n % d == 0 for n in column)):
                b, lo, hi = v, lo // d, hi // d
                column = [n // d for n in column]
            elif u is not None:
                b = u
            else:
                # the first exponent, term by term, that needs a missing root
                n = next(n for row in exponents for n, r in zip(row, roots) if n % d and r is None)
                raise ExactEvaluationError(
                    f"fractional exponent {Fraction(n, d)} needs {d}-th roots of tau")
            p, q = b.numerator, b.denominator
            if lo != hi:
                p_pow = [p ** j for j in range(hi - lo + 1)]
                q_pow = [q ** j for j in range(hi - lo + 1)]
                factors.append([p_pow[n - lo] * q_pow[hi - n] for n in column])
            # the common factor p^lo / q^hi
            num, den = (num * p ** lo, den) if lo >= 0 else (num, den * p ** -lo)
            num, den = (num, den * q ** hi) if hi >= 0 else (num * q ** -hi, den)
        total = sum(c * prod(parts) for c, *parts in zip(coeffs, *factors))
        return Fraction(total * num, den)


def _in_units(exponent: Sequence, d: int) -> List[int]:
    """An exponent vector of ints and Fractions in units of 1/D."""
    out = []
    for x in exponent:
        if d % x.denominator:
            raise ExactEvaluationError(f"exponent {x} is not a multiple of 1/{d}")
        out.append(x.numerator * d // x.denominator)
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
    """Sparse Laurent polynomial with rational exponents and coefficients, a
    read-only table of terms that evaluates at a tau point and prints.

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

    def __eq__(self, other):
        return isinstance(other, ExponentPolynomial) and self.terms == other.terms

    def evaluate(self, tau: TauPoint) -> Fraction:
        return tau.sum_powers(self.terms.values(), [_in_units(e, tau.d) for e in self.terms])

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

    # -- finite-horizon quantities -------------------------------------------------

    def _branching(self, mu: Weight, source, tau: TauPoint, ell: int):
        """Counts f^ell_lam(mu) of the source, the exponent base ell * r and
        the normalizer N_r(tau)^ell."""
        spec = as_module(source)
        counts = count_f_multiplicity(self.datum, mu, self.module_crystals(spec), ell)
        ell_r = self.datum.weight(tuple(ell * c for c in spec.reference.fw))
        return counts, ell_r, self.normalizer(spec, tau) ** ell

    def _twisted_stay(self, mu: Weight, counts, ell_r: Weight, norm: Fraction,
                      tau: TauPoint, w) -> Fraction:
        """Sum over lambda of f_lam tau^{ell*r + w(mu) - w(lambda)}, over N_r^ell.

        The exponents are integers in units of 1/D, read through the coadj
        rows on w's images of the fundamental weights, and sum in one
        ``TauPoint.sum_powers`` call.
        """
        datum = self.datum
        images = [w.apply_fw(tuple(int(j == k) for j in range(datum.rank)))
                  for k in range(datum.rank)]
        # D times the coordinate of w(x) is lin . x
        lins = [[sum(x * y for x, y in zip(row, img)) for img in images] for row in datum.coadj]
        base = [a + sum(x * y for x, y in zip(lin, mu.fw)) for a, lin in zip(ell_r.scaled, lins)]
        exponents = [[a - sum(x * y for x, y in zip(lin, lam.fw)) for a, lin in zip(base, lins)]
                     for lam in counts]
        return tau.sum_powers(counts.values(), exponents) / norm

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
        return self._twisted_stay(mu, *self._branching(mu, source, tau, ell), tau, w)

    def master_identity_sides(self, mu: Weight, source, tau: TauPoint, ell: int):
        """Exact two sides of the finite-horizon alternating identity.

        Left: the closed product form of psi(mu).  Right: the signed sum of
        the twisted finite-horizon terms, which share one set of branching
        counts and one normalizer.
        """
        left = self.psi(mu, tau)
        counts, ell_r, norm = self._branching(mu, source, tau, ell)
        shifted = mu + self.datum.rho
        right = Fraction(0)
        for w in self.group:
            stay = self._twisted_stay(mu, counts, ell_r, norm, tau, w)
            right += w.sign * tau.power((shifted - act(self.datum, w, shifted)).root) * stay
        return left, right
