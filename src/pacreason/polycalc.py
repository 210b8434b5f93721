"""Multilinear polynomials over exact rationals and degree-bounded proof search.

Lines are polynomial equations [p = 0] over Boolean variables.  An
indeterminate is a literal, the signed int that clauses and k-DNF terms use:
x_v is v, and in PCR mode its dual ~x_v, which behaves like the negation and
is tied to x_v by the complementarity polynomial x_v + ~x_v - 1, is -v.  A
monomial is a frozenset of literals (multilinearity is structural), so it
restricts as a RES(k) term does (`resolution.restrict_term`).  Monomials are
ordered degree first, ties broken by the lexicographically smallest sorted
indeterminate list being larger (`monomial_key`).

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
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError
from .formulas import Record
from .resolution import TAUTOLOGY, literal_bit, literals_text, restrict_term

PC = "pc"
PCR = "pcr"


def Indet(var: int, dual: bool = False) -> int:
    """The literal of the indeterminate x_var, `var`, or of its dual ~x_var,
    `-var`."""
    if type(var) is not int or var < 1:
        raise InputError(f"an indeterminate's variable must be an int >= 1, got {var!r}")
    return -var if dual else var


Monomial = frozenset  # of literals

ONE = frozenset()  # the empty monomial


def monomial_key(m: Monomial):
    """Sort key realizing the graded order: higher degree first, then the
    lexicographically smallest id list wins ties."""
    lits = sorted(m, key=literal_bit)
    return (len(lits), tuple((-abs(lit), lit > 0) for lit in lits))


class Polynomial(Record):
    """Map from multilinear monomials to nonzero rational coefficients.
    Every literal of a monomial is a nonzero int."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for m, c in items:
            m = frozenset(m)
            for lit in m:
                if type(lit) is not int or not lit:
                    raise InputError(f"a monomial's literals are nonzero ints, got {lit!r}")
            c = Fraction(c)
            if c == 0:
                continue
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
        return frozenset(abs(lit) for m in self.terms for lit in m)

    def has_duals(self) -> bool:
        return any(lit < 0 for m in self.terms for lit in m)

    def evaluate(self, x) -> Fraction:
        """Value at a Boolean point; a monomial is 1 when all its literals
        are true, and a dual reads as the negation."""
        true = (c for m, c in self.terms.items()
                if all(bool(x[abs(lit) - 1]) == (lit > 0) for lit in m))
        return sum(true, Fraction(0))

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def term_texts(self, sep: str) -> list:
        """Each term as its coefficient, then its indeterminates (x<v>, or
        ~x<v> for a dual, by `literal_bit`), joined by `sep`; the highest
        monomial first."""
        texts = []
        for m in sorted(self.terms, key=monomial_key, reverse=True):
            text = str(self.terms[m])
            texts.append(f"{text}{sep}{literals_text(m, sep, '~')}" if m else text)
        return texts

    def __repr__(self):
        return f"Polynomial({' + '.join(self.term_texts('')) or '0'})"


class MonomialCodec:
    """Int keys for the monomials over one instance's variables.

    With the variables ranked in increasing order, the indeterminate x_v gets
    index 2*rank and its dual -v index 2*rank + 1, index i is bit N-1-i,
    where N = 2 * #variables (`bits` maps each literal to its bit), and a
    monomial's key is (degree << N) | mask.  Keys compare as their
    `monomial_key`s do: degree first, then the smallest index at which two
    masks differ is the higher bit, set in the larger monomial.  Multiplying
    key k by an indeterminate whose bit is absent gives k + (1 << N) + bit.
    `multipliers` lists the indeterminates a PC (or PCR) derivation may
    multiply by, in rank order, duals after their variable."""

    def __init__(self, variables, mode: str = PC):
        variables = sorted(variables)
        self.width = width = 2 * len(variables)
        lits = [lit for v in variables for lit in (v, -v)]  # in index order
        self.bits = {lit: 1 << (width - 1 - i) for i, lit in enumerate(lits)}
        self.multipliers = lits if mode == PCR else variables

    def key(self, m: Monomial) -> int:
        return (len(m) << self.width) + sum(map(self.bits.__getitem__, m))

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
    """x + ~x - 1, tying a dual indeterminate to the negation."""
    return Polynomial([(frozenset((var,)), 1), (frozenset((-var,)), 1), (ONE, -1)])


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
    steps = [(bit, one + bit) for bit in map(codec.bits.__getitem__, codec.multipliers)]
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


def restrict_polynomial(p: Polynomial, rho: tuple) -> Polynomial:
    """Restrict each monomial by the example rho as the conjunction of its
    literals (`restrict_term`): it dies when rho falsifies a literal and
    loses the literals rho makes true, and like monomials merge."""
    data = {}
    for m, c in p.terms.items():
        kept = restrict_term(m, rho)
        if kept is None:
            continue
        if len(kept) < len(m):
            m = frozenset(kept)
        data[m] = data[m] + c if m in data else c
    return Polynomial._trusted({m: c for m, c in data.items() if c})


def encode_clause_pcr(clause) -> Polynomial:
    """A clause as the single-monomial equation [t = 0], t the negated clause
    as a term (one complementary indeterminate per literal); the empty clause
    encodes to [1 = 0]."""
    if clause is TAUTOLOGY:
        raise InputError("the tautology clause has no polynomial encoding")
    return Polynomial([(frozenset(-lit for lit in clause), 1)])
