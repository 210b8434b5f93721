"""Multilinear polynomials over exact rationals and degree-bounded proof search.

Lines are polynomial equations [p = 0] over Boolean variables.  Monomials are
sets of indeterminates (multilinearity is structural); in PCR mode each
variable x also has a dual indeterminate behaving like its negation, tied by
the complementarity polynomial x + x_dual - 1.  Monomials are ordered degree
first, ties broken by the lexicographically smallest sorted indeterminate list
being larger (`monomial_key`).

The degree-d decision procedure is row echelon form over Q (Clegg, Edmonds &
Impagliazzo, STOC 1996), run on integers.  A `MonomialCodec` turns each
monomial of the instance into one int whose natural order is the monomial
order, and each input polynomial, denominators cleared, into a row: a dict
from int keys to int coefficients, whose lead is `max(row)`.  The basis is a
dict keyed by leading monomial: every pending row is reduced against it with
fraction-free row operations (Bareiss 1968; one lookup per cancelled lead),
survivors are divided by their content and join it, and survivors of degree
below d spawn all their indeterminate multiples (multilinearized, which is
where the Boolean axioms act).  The query is derivable exactly when its row
reduces to zero against the finished basis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError
from .formulas import PartialAssignment
from .resolution import TAUTOLOGY

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

    @classmethod
    def _trusted(cls, terms: dict) -> "Polynomial":
        """Wraps a dict that already maps frozenset monomials to nonzero
        Fractions, without copying or checking it."""
        out = cls.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def coeff(self, m: Monomial) -> Fraction:
        return self.terms.get(frozenset(m), Fraction(0))

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

    def term_texts(self, sep: str) -> list:
        """Each term as its coefficient, then its indeterminates (x<v>, or
        ~x<v> for a dual, by variable, x<v> first), joined by `sep`; the
        highest monomial first."""
        texts = []
        for m in sorted(self.terms, key=monomial_key, reverse=True):
            indets = sorted(m, key=lambda i: (i.var, i.dual))
            names = [("~x" if i.dual else "x") + str(i.var) for i in indets]
            texts.append(sep.join([str(self.terms[m])] + names))
        return texts

    def __repr__(self):
        return f"Polynomial({' + '.join(self.term_texts('')) or '0'})"

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")


class MonomialCodec:
    """Int keys for the monomials over one instance's variables.

    With the variables ranked in increasing order, indeterminate (var, dual)
    gets index i = 2*rank + dual and bit N-1-i, where N = 2 * #variables, and a
    monomial's key is (degree << N) | mask.  Keys compare as their
    `monomial_key`s do: degree first, then the smallest index at which two
    masks differ is the higher bit, set in the larger monomial.  Multiplying
    key k by an indeterminate whose bit is absent gives k + (1 << N) + bit.
    `multipliers` lists the indeterminates a PC (or PCR) derivation may
    multiply by, in rank order, duals after their variable."""

    def __init__(self, variables, mode: str = PC):
        variables = sorted(variables)
        self.width = width = 2 * len(variables)
        # the bit of x_var; its dual's bit is the next lower one
        self.var_bits = {v: 1 << (width - 1 - 2 * rank) for rank, v in enumerate(variables)}
        duals = (False, True) if mode == PCR else (False,)
        self.multipliers = [Indet(v, dual) for v in variables for dual in duals]

    def bit(self, i: Indet) -> int:
        return self.var_bits[i.var] >> i.dual

    def key(self, m: Monomial) -> int:
        var_bits = self.var_bits
        return (len(m) << self.width) + sum(var_bits[i.var] >> i.dual for i in m)

    def row(self, p: Polynomial) -> dict:
        """p times the lcm of its denominators: an integer row."""
        scale = lcm(*(c.denominator for c in p.terms.values()))
        return {
            self.key(m): c.numerator * (scale // c.denominator) for m, c in p.terms.items()
        }


def gaussian_reduce(p: dict, basis) -> dict:
    """Reduce the integer row `p` against a basis keyed by leading monomial:
    while the lead of `p` is a key, cancel it fraction-free, p <- (cb/g)*p -
    (cp/g)*b with cp, cb the two lead coefficients and g = gcd(cb, cp).  The
    result is a nonzero integer multiple of what exact rational reduction
    leaves; `p` itself is not changed."""
    while p:
        lead = max(p)
        b = basis.get(lead)
        if b is None:
            break
        cp, cb = p[lead], b[lead]
        g = gcd(cp, cb)
        sp, sb = cb // g, cp // g
        p = dict(p) if sp == 1 else {k: sp * c for k, c in p.items()}
        for k, c in b.items():
            c = p.get(k, 0) - sb * c
            if c:
                p[k] = c
            else:
                del p[k]
    return p


def _times(row: dict, bit: int, step: int) -> dict:
    """The row multiplied by the indeterminate `bit`, multilinearized: keys
    without the bit gain it and one degree (`step` = (1 << N) + bit), keys
    with it stay, and two terms landing on one key merge."""
    out = {}
    for k, c in row.items():
        if not k & bit:
            k += step
        if k in out:
            c += out[k]
            if not c:
                del out[k]
                continue
        out[k] = c
    return out


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
    """Row echelon basis of the degree-d derivable space, as a dict from each
    (distinct) leading monomial key to its primitive integer row (content 1).
    Returns (basis, codec), where `codec` keys the instance's monomials.
    Takes inputs that `check_inputs` accepts."""
    hyps = list(hyps)

    variables = set().union(*(p.variables() for p in hyps + [q]))
    codec = MonomialCodec(variables, mode)
    pending = deque(codec.row(p) for p in hyps)
    if mode == PCR:
        pending.extend(codec.row(complementarity(v)) for v in sorted(variables))

    width = codec.width
    one = 1 << width
    steps = [(bit, one + bit) for bit in map(codec.bit, codec.multipliers)]
    basis = {}
    while pending:
        p = gaussian_reduce(pending.popleft(), basis)
        if not p:
            continue
        content = gcd(*p.values())
        if content != 1:
            p = {k: c // content for k, c in p.items()}
        lead = max(p)
        basis[lead] = p
        if lead >> width < d:
            for bit, step in steps:
                pending.append(_times(p, bit, step))
    return basis, codec


def decide_pc(hyps, q: Polynomial, d: int, mode: str = PC) -> bool:
    """Accept iff [q = 0] has a degree-d derivation from the hypothesis
    equations (linear combination and multiplication; Boolean axioms act
    through multilinearization).  PCR additionally seeds the complementarity
    polynomial of every variable appearing in the instance.  Takes inputs
    that `check_inputs` accepts."""
    basis, codec = build_basis(hyps, q, d, mode)
    return not gaussian_reduce(codec.row(q), basis)


def restrict_polynomial(p: Polynomial, rho: PartialAssignment) -> Polynomial:
    """Kill monomials with an indeterminate set to 0, delete those set to 1;
    duals read the negated assignment.  Raises InputError for a variable
    beyond len(rho)."""
    data = {}
    for m, c in p.terms.items():
        kept = []
        for i in m:
            try:
                v = rho[i.var - 1]
            except IndexError:
                raise InputError(
                    f"variable x{i.var} out of range 1..{len(rho)}"
                ) from None
            if v is None:
                kept.append(i)
            elif bool(v) == i.dual:  # the indeterminate reads 0
                break
        else:
            if len(kept) < len(m):
                m = frozenset(kept)
            data[m] = data[m] + c if m in data else c
    return Polynomial._trusted({m: c for m, c in data.items() if c})


def encode_clause_pcr(clause) -> Polynomial:
    """A clause as the single-monomial equation: product of the complementary
    indeterminate of each literal; the empty clause encodes to [1 = 0]."""
    if clause is TAUTOLOGY:
        raise InputError("the tautology clause has no polynomial encoding")
    monomial = frozenset(Indet(abs(lit), dual=lit > 0) for lit in clause)
    return Polynomial([(monomial, 1)])
