"""Shared random generators for the test suite (seeded, deterministic), and
test-only helpers built on the package: a brute-force entailment backend,
polynomial constructions the decision procedures themselves do not need, and
the per-example sampler that `sampling.draw_examples` must match exactly."""

import math
import random
from fractions import Fraction

from pacreason.errors import InputError
from pacreason.formulas import (
    Const,
    FALSE,
    Formula,
    Not,
    PartialAssignment,
    Threshold,
    TRUE,
    Var,
    WitnessStatus,
    conjunction,
    restrict,
    witness_status,
)
from pacreason.oracle import ENUMERATION_CAP, entails
from pacreason.polycalc import ONE, Polynomial, monomial_key
from pacreason.resolution import Cnf, make_clause
from pacreason.sampling import FixedMask, IndependentMask, TableMask


def random_formula(rng, n, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if roll < 0.05:
            return Const(rng.random() < 0.5)
        return Var(rng.randint(1, n))
    if roll < 0.45:
        return Not(random_formula(rng, n, depth - 1))
    width = rng.randint(1, 4)
    children = tuple(random_formula(rng, n, depth - 1) for _ in range(width))
    coeffs = tuple(
        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        for _ in range(width)
    )
    bound = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
    return Threshold(coeffs, children, bound)


def random_partial(rng, n, mask_prob=0.5):
    return PartialAssignment(
        None if rng.random() < mask_prob else rng.randint(0, 1) for _ in range(n)
    )


def random_clause(rng, n, max_width=3):
    width = rng.randint(1, min(max_width, n))
    vars_ = rng.sample(range(1, n + 1), width)
    return make_clause(v if rng.random() < 0.5 else -v for v in vars_)


def random_cnf(rng, n, max_clauses=8, max_width=3):
    m = rng.randint(1, max_clauses)
    return Cnf([random_clause(rng, n, max_width) for _ in range(m)], n)


class EntailmentOracleBackend:
    """Brute-force classical entailment over threshold-basis formulas."""

    def __init__(self, n: int, cap: int = ENUMERATION_CAP):
        self.n = n
        self.cap = cap

    def decide(self, query, hyps) -> bool:
        return entails(list(hyps), query, self.n, cap=self.cap)

    def restrict_query(self, query, rho):
        return restrict(query, rho)

    def restrict_hyps(self, hyps, rho):
        restricted = (restrict(phi, rho) for phi in hyps)
        return tuple(phi for phi in restricted if phi != TRUE)


def multilinearize(raw_terms) -> Polynomial:
    """Collapse exponent vectors: (coeff, indeterminates-with-repeats) pairs
    become multilinear monomials, like terms merge, zeros vanish."""
    return Polynomial((frozenset(indets), c) for c, indets in raw_terms)


def poly_to_formula(p: Polynomial) -> Formula:
    """The equation [p = 0] as a conjunction of two thresholds over the
    monomials' conjunction subformulas."""
    constant = p.coeff(ONE)
    monomials = sorted((m for m in p.terms if m), key=monomial_key, reverse=True)
    if not monomials:
        return TRUE if constant == 0 else FALSE

    def monomial_formula(m):
        return conjunction(
            Not(Var(i.var)) if i.dual else Var(i.var)
            for i in sorted(m, key=lambda i: (i.var, i.dual))
        )

    children = tuple(monomial_formula(m) for m in monomials)
    coeffs = tuple(p.terms[m] for m in monomials)
    at_least = Threshold(coeffs, children, -constant)
    at_most = Threshold(tuple(-c for c in coeffs), children, constant)
    return conjunction([at_least, at_most])


def poly_witness_status(p: Polynomial, rho: PartialAssignment) -> WitnessStatus:
    """Witnessing of [p = 0] through its two-threshold encoding."""
    return witness_status(poly_to_formula(p), rho)


def _rand_below(rng, bound):
    bits = (bound - 1).bit_length() or 1
    while True:
        r = rng.getrandbits(bits)
        if r < bound:
            return r


def _draw_assignment(dist, rng):
    denom = math.lcm(*(w.denominator for _, w in dist.support))
    ticket = _rand_below(rng, denom)
    acc = 0
    for x, w in dist.support:
        acc += w.numerator * (denom // w.denominator)
        if ticket < acc:
            return x
    return dist.support[-1][0]  # unreachable: weights sum to 1


def _hidden_coords(mask, x, rng):
    if isinstance(mask, FixedMask):
        return mask.hidden
    if isinstance(mask, IndependentMask):
        p = mask.hide_prob
        hidden = set()
        for i in range(1, len(x) + 1):
            if p == 1 or (p != 0 and _rand_below(rng, p.denominator) < p.numerator):
                hidden.add(i)
        return frozenset(hidden)
    if isinstance(mask, TableMask):
        if x not in mask.rule:
            raise InputError(f"mask table has no rule for support point {x}")
        return mask.rule[x]
    raise InputError(f"unknown mask spec: {mask!r}")


def reference_draw_examples(dist, mask, m, seed):
    """The per-example sampler: recomputes the weight denominator, rescans the
    weights and rebuilds the masked example on every draw."""
    rng = random.Random(seed)
    out = []
    for _ in range(m):
        x = _draw_assignment(dist, rng)
        hidden = _hidden_coords(mask, x, rng)
        rho = PartialAssignment(
            None if (i + 1) in hidden else x[i] for i in range(dist.n)
        )
        out.append((x, rho))
    return out
