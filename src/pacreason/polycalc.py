"""Multilinear polynomials over exact rationals and degree-bounded proof search.

Lines are polynomial equations [p = 0] over Boolean variables.  An
indeterminate is a literal, the signed int that clauses and k-DNF terms use:
x_v is v, and in PCR mode its dual ~x_v, which behaves like the negation and
is tied to x_v by the complementarity polynomial x_v + ~x_v - 1, is -v.  A
`Polynomial`, the value that files parse to and print from, maps monomials,
frozensets of literals (multilinearity is structural), to Fraction
coefficients.  Monomials are ordered degree first, ties broken by the
lexicographically smallest sorted indeterminate list being larger
(`monomial_key`).

The search never sees a `Polynomial`.  `row(p, n)` clears p's denominators
once and writes it as an integer row over x1..xn: a tuple of (key,
coefficient) pairs by decreasing key, with nonzero int coefficients.  The
layout is fixed by n: the indeterminate whose `literal_bit` is b (2v for x_v,
2v+1 for ~x_v) is bit 2n+1-b, so a monomial's mask is its literal mask
reversed, and its key is (degree << 2n) | mask.  Keys compare as their
`monomial_key`s do: degree first, then the highest bit where two masks
differ is the first indeterminate in literal order where they differ, and
it is set in the larger monomial.  A tuple of rows is a hashable value.
`restrict_rows` restricts rows by an example's true-literal mask (reversed
into the layout) with int tests, `row_values` evaluates them at a full
assignment, and rows scaled by positive factors span the same space, so
clearing denominators changes no verdict.

The degree-d decision procedure is row echelon form over Q (Clegg, Edmonds &
Impagliazzo, STOC 1996), run on integers.  The basis is a dict from leading
key (`max(row)`) to row: every pending row is reduced against it with
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
from .resolution import TAUTOLOGY, literal_bit, literals_text, negation

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


def row(p: Polynomial, n: int) -> tuple:
    """p times the lcm of its denominators, as its integer row over x1..xn:
    (key, coefficient) pairs by decreasing key."""
    scale = lcm(*(c.denominator for c in p.terms.values()))
    keys = ((len(m) << 2 * n) | _layout(sum(map(literal_bit, m)), n) for m in p.terms)
    coefficients = (c.numerator * (scale // c.denominator) for c in p.terms.values())
    return tuple(sorted(zip(keys, coefficients), reverse=True))


def _layout(mask: int, n: int) -> int:
    """A literal mask (`literal_bit`) as a monomial mask of the row layout
    over x1..xn: its 2n+2 low bits reversed."""
    return int(f"{mask:0{2 * n + 2}b}"[::-1], 2)


def row_literals(r, n: int) -> int:
    """The literal mask (`literal_bit`) of the indeterminates in the row r."""
    return _layout(sum(1 << j for j in range(2 * n) if any(k >> j & 1 for k, _ in r)), n)


def restrict_rows(rows, rho: int, n: int) -> tuple:
    """Each row restricted by the example rho, its true-literal mask: a
    monomial with a false literal drops, one meeting rho loses those
    indeterminates and as many degrees, and like monomials merge.  A row
    whose terms all drop or cancel restricts to (), the zero row."""
    true = _layout(rho, n)
    false = negation(n)(true)  # x_v and ~x_v are a bit pair in the layout too
    width = 2 * n
    out = []
    for r in rows:
        kept, shrunk = [], False
        for k, c in r:
            if k & false:
                continue
            hit = k & true
            if hit:
                k -= hit + (hit.bit_count() << width)
                shrunk = True
            kept.append((k, c))
        if shrunk:
            merged = {}
            for k, c in kept:
                merged[k] = merged.get(k, 0) + c
            kept = sorted(((k, c) for k, c in merged.items() if c), reverse=True)
        out.append(tuple(kept))
    return tuple(out)


def row_values(rows, x: int, n: int):
    """Each row's value, lazily, at the full assignment whose true-literal
    mask is x: the sum of the coefficients of the monomials x makes true."""
    false = (1 << 2 * n) - 1 ^ _layout(x, n)
    return (sum(c for k, c in r if not k & false) for r in rows)


def gaussian_reduce(p: dict, basis) -> dict:
    """Reduce the integer row `p`, a dict from key to coefficient, against a
    basis keyed by leading key: while the lead of `p` is a key, cancel it
    fraction-free, p <- (cb/g)*p - (cp/g)*b with cp, cb the two lead
    coefficients and g = gcd(cb, cp).  The result is a nonzero integer
    multiple of what exact rational reduction leaves; `p` itself is not
    changed."""
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
    without the bit gain it and one degree (`step` = (1 << 2n) + bit), keys
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


def check_inputs(polys, d: int, mode: str) -> None:
    """Every input has degree at most d, and only PCR inputs use duals."""
    if mode not in (PC, PCR):
        raise InputError(f"mode must be {PC!r} or {PCR!r}, got {mode!r}")
    for p in polys:
        if p.degree > d:
            raise InputError(f"degree {p.degree} input exceeds the bound {d}")
        if mode == PC and p.has_duals():
            raise InputError("dual indeterminates require PCR mode")


def build_basis(hyps, q, d: int, n: int, mode: str = PC):
    """Row echelon basis of the degree-d derivable space from the rows `hyps`
    over x1..xn, as a dict from each (distinct) leading key to its primitive
    integer row (content 1).  A derivation multiplies by the indeterminates
    of the variables that `hyps` and the query row `q` mention, by variable:
    x_v alone in PC, x_v and then ~x_v in PCR, where the complementarity
    row x_v + ~x_v - 1 of each of those variables follows the hypotheses.
    Returns (basis, multipliers), the multipliers as literals.  Takes rows
    of inputs that `check_inputs` accepts."""
    used = 0
    for r in (*hyps, q):
        for k, _ in r:
            used |= k
    variables = [v for v in range(1, n + 1) if used >> 2 * (n - v) & 3]
    width = 2 * n
    one = 1 << width
    pending = deque(map(dict, hyps))
    multipliers, bits = [], []
    for v in variables:
        x, dual = 2 << 2 * (n - v), 1 << 2 * (n - v)  # the layout bits of x_v and ~x_v
        multipliers.append(v)
        bits.append(x)
        if mode == PCR:
            multipliers.append(-v)
            bits.append(dual)
            pending.append({one | x: 1, one | dual: 1, 0: -1})

    steps = [(bit, one + bit) for bit in bits]
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
    return basis, multipliers


def decide_pc(hyps, q, d: int, n: int, mode: str = PC) -> bool:
    """Accept iff [q = 0] has a degree-d derivation from the hypothesis
    equations (linear combination and multiplication; Boolean axioms act
    through multilinearization), all integer rows over x1..xn.  PCR
    additionally seeds the complementarity row of every variable the
    instance mentions.  Takes rows of inputs that `check_inputs` accepts."""
    basis = build_basis(hyps, q, d, n, mode)[0]
    return not gaussian_reduce(dict(q), basis)


def encode_clause_pcr(clause) -> Polynomial:
    """A clause as the single-monomial equation [t = 0], t the negated clause
    as a term (one complementary indeterminate per literal); the empty clause
    encodes to [1 = 0]."""
    if clause is TAUTOLOGY:
        raise InputError("the tautology clause has no polynomial encoding")
    return Polynomial([(frozenset(-lit for lit in clause), 1)])
