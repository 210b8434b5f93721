"""Multilinear polynomials over exact rationals and degree-bounded proof search.

Lines are polynomial equations [p = 0] over Boolean variables.  Monomials are
sets of indeterminates (multilinearity is structural); in PCR mode each
variable x also has a dual indeterminate behaving like its negation, tied by
the complementarity polynomial x + x_dual - 1.

The degree-d decision procedure builds a triangular basis for the space of
derivable polynomials, kept as a dict keyed by leading monomial: every pending
polynomial is Gaussian-reduced against the basis (one lookup per cancelled
lead), survivors join it, and survivors of degree below d spawn all their
indeterminate multiples (multilinearized, which is where the Boolean axioms
act).  The query is derivable exactly when it reduces to zero against the
finished basis.  Monomials are ordered degree first, ties broken by the
lexicographically smallest sorted indeterminate list being larger.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InputError
from .formulas import PartialAssignment

PC = "pc"
PCR = "pcr"


@dataclass(frozen=True)
class Indet:
    var: int
    dual: bool = False

    def __post_init__(self):
        if self.var < 1:
            raise InputError(f"variable index must be >= 1, got {self.var}")


Monomial = frozenset  # of Indet

ONE = frozenset()  # the empty monomial


def monomial_key(m: Monomial):
    """Sort key realizing the graded order: higher degree first, then the
    lexicographically smallest id list wins ties."""
    ids = sorted((i.var, i.dual) for i in m)
    return (len(ids), tuple((-v, not d) for v, d in ids))


class Polynomial:
    """Map from multilinear monomials to nonzero rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for m, c in items:
            c = Fraction(c)
            if c == 0:
                continue
            m = frozenset(m)
            data[m] = data.get(m, Fraction(0)) + c
            if data[m] == 0:
                del data[m]
        object.__setattr__(self, "terms", data)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def leading_monomial(self) -> Monomial:
        if self.is_zero:
            raise InputError("the zero polynomial has no leading monomial")
        return max(self.terms, key=monomial_key)

    def coeff(self, m: Monomial) -> Fraction:
        return self.terms.get(frozenset(m), Fraction(0))

    def add(self, other: "Polynomial") -> "Polynomial":
        data = dict(self.terms)
        for m, c in other.terms.items():
            data[m] = data.get(m, Fraction(0)) + c
            if data[m] == 0:
                del data[m]
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "terms", data)
        return out

    def scale(self, factor) -> "Polynomial":
        factor = Fraction(factor)
        if factor == 0:
            return Polynomial()
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "terms", {m: c * factor for m, c in self.terms.items()})
        return out

    def mul_indet(self, indet: Indet) -> "Polynomial":
        """Multiply by one indeterminate, multilinearizing on the fly."""
        return Polynomial((m | {indet}, c) for m, c in self.terms.items())

    def variables(self) -> frozenset:
        return frozenset(i.var for m in self.terms for i in m)

    def has_duals(self) -> bool:
        return any(i.dual for m in self.terms for i in m)

    def evaluate(self, x) -> Fraction:
        """Value at a Boolean point; duals read as negations."""
        total = Fraction(0)
        for m, c in self.terms.items():
            value = 1
            for i in m:
                bit = x[i.var - 1]
                if (not bit) if i.dual else bit:
                    continue
                value = 0
                break
            if value:
                total += c
        return total

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        bits = []
        for m in sorted(self.terms, key=monomial_key, reverse=True):
            names = "".join(
                ("~x" if i.dual else "x") + str(i.var)
                for i in sorted(m, key=lambda i: (i.var, i.dual))
            )
            bits.append(f"{self.terms[m]}{names}")
        return f"Polynomial({' + '.join(bits)})"

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")


def gaussian_reduce(p: Polynomial, basis) -> Polynomial:
    """Reduce `p` against a basis keyed by leading monomial: while the lead of
    `p` is a key, cancel that term with its basis polynomial."""
    while not p.is_zero:
        lead = p.leading_monomial()
        b = basis.get(lead)
        if b is None:
            break
        p = p.add(b.scale(-p.terms[lead] / b.terms[lead]))
    return p


def complementarity(var: int) -> Polynomial:
    """x + x_dual - 1, tying a dual indeterminate to the negation."""
    return Polynomial(
        [
            (frozenset((Indet(var),)), 1),
            (frozenset((Indet(var, True),)), 1),
            (ONE, -1),
        ]
    )


def check_inputs(polys, d: int, mode: str) -> None:
    """Every input has degree at most d, and only PCR inputs use duals."""
    if mode not in (PC, PCR):
        raise InputError(f"mode must be {PC!r} or {PCR!r}, got {mode!r}")
    for p in polys:
        if p.degree > d:
            raise InputError(f"degree {p.degree} input exceeds the bound {d}")
        if mode == PC and p.has_duals():
            raise InputError("dual indeterminates require PCR mode")


def build_basis(hyps, q: Polynomial, d: int, mode: str = PC):
    """Triangular basis of the degree-d derivable space, as a dict from each
    (distinct) leading monomial to its polynomial.  Returns (basis,
    multipliers)."""
    hyps = list(hyps)
    check_inputs(hyps + [q], d, mode)

    variables = sorted(set().union(*(p.variables() for p in hyps + [q])))
    if mode == PCR:
        multipliers = [Indet(v, dual) for v in variables for dual in (False, True)]
    else:
        multipliers = [Indet(v) for v in variables]

    pending = deque(hyps)
    if mode == PCR:
        pending.extend(complementarity(v) for v in variables)

    basis = {}
    while pending:
        p = gaussian_reduce(pending.popleft(), basis)
        if p.is_zero:
            continue
        basis[p.leading_monomial()] = p
        if p.degree <= d - 1:
            for alpha in multipliers:
                pending.append(p.mul_indet(alpha))
    return basis, multipliers


def decide_pc(hyps, q: Polynomial, d: int, mode: str = PC) -> bool:
    """Accept iff [q = 0] has a degree-d derivation from the hypothesis
    equations (linear combination and multiplication; Boolean axioms act
    through multilinearization).  PCR additionally seeds the complementarity
    polynomial of every variable appearing in the instance."""
    basis, _ = build_basis(hyps, q, d, mode)
    return gaussian_reduce(q, basis).is_zero


def restrict_polynomial(p: Polynomial, rho: PartialAssignment) -> Polynomial:
    """Kill monomials with an indeterminate set to 0, delete those set to 1;
    duals read the negated assignment."""
    out = []
    for m, c in p.terms.items():
        kept = []
        dead = False
        for i in m:
            v = rho.value(i.var)
            if v is None:
                kept.append(i)
            else:
                if i.dual:
                    v = 1 - v
                if v == 0:
                    dead = True
                    break
        if not dead:
            out.append((frozenset(kept), c))
    return Polynomial(out)


def encode_clause_pcr(clause) -> Polynomial:
    """A clause as the single-monomial equation: product of the complementary
    indeterminate of each literal; the empty clause encodes to [1 = 0]."""
    from .resolution import TAUTOLOGY

    if clause is TAUTOLOGY:
        raise InputError("the tautology clause has no polynomial encoding")
    monomial = frozenset(Indet(abs(lit), dual=lit > 0) for lit in clause)
    return Polynomial([(monomial, 1)])
