"""Every restriction kernel reads an example as its true-literal mask, and
the clause restrictions its false-literal mask too; each must equal its
per-literal reference loop over the PartialAssignment in helpers, in value
and repr, at odd and even n up to 70, so that the literal masks (bit 2n+1
for -x_n) are wider than 64 bits."""

import random
from collections import Counter
from fractions import Fraction

from pacreason.cutting_planes import LinIneq, always_witnessed_true, residual_ineq, restrict_ineq
from pacreason.formulas import TRUE
from pacreason.polycalc import Polynomial, restrict_rows, row
from pacreason.res_k import KDnf, restrict_kdnf
from pacreason.resolution import (
    TAUTOLOGY,
    Cnf,
    encode_clause,
    make_clause,
    restrict_cnf,
    restrict_mask,
    restrict_term,
)

from helpers import (
    assignment_of,
    decode_row,
    decoded,
    example,
    false_mask,
    random_partial,
    reference_residual_ineq,
    reference_restrict_cnf,
    reference_restrict_kdnf,
    reference_restrict_polynomial,
    reference_restrict_term,
    reference_restricted_row,
    restrict_clause,
)


def random_variables(rng, n, most):
    """Up to `most` distinct variables of 1..n, x_n among them a third of
    the time, so that the top byte of the masks is read."""
    chosen = rng.sample(range(1, n + 1), rng.randint(0, min(most, n)))
    if rng.random() < 1 / 3 and n not in chosen:
        chosen.append(n)
    return chosen


def random_literals(rng, n, most):
    return [v if rng.random() < 0.5 else -v for v in random_variables(rng, n, most)]


def random_kdnf(rng, n, rho):
    """A k-DNF of up to five terms, or one time in five every one-literal
    term over rho's masked variables, with terms that rho falsifies added,
    which restricts to those one-literal terms."""
    if rng.random() < 0.2 and rho.masked_vars():
        terms = [[s * v] for v in rho.masked_vars() for s in (1, -1)]
        for v in random_variables(rng, n, 2):
            if rho.value(v) is not None:
                terms.append([v if rho.value(v) == 0 else -v])
        return KDnf(terms)
    terms = (random_literals(rng, n, 3) for _ in range(rng.randint(0, 5)))
    return KDnf(lits for lits in terms if lits)


def random_polynomial(rng, n):
    """Monomials that may hold x_v and its dual -v, each also widened by
    one literal, often with the opposite coefficient, so that restricted
    monomials merge and cancel."""
    terms = []
    for _ in range(rng.randint(0, 4)):
        lits = random_literals(rng, n, 3)
        if lits and rng.random() < 0.2:
            lits.append(-lits[0])
        c = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
        terms.append((frozenset(lits), c))
        widened = frozenset(lits) | {rng.choice((1, -1)) * rng.randint(1, n)}
        terms.append((widened, -c if rng.random() < 0.6 else c))
    return Polynomial(terms)


def random_ineq(rng, n):
    coeffs = {v: rng.choice([-3, -2, -1, 1, 2, 3]) for v in random_variables(rng, n, 4)}
    return LinIneq(coeffs, rng.randint(-4, 4))


def same(got, want) -> bool:
    return got == want and repr(got) == repr(want)


def test_each_mask_restriction_matches_its_per_literal_loop():
    rng = random.Random(20261019)
    seen = Counter()
    for case in range(600):
        n = 2 * rng.randint(1, 35) - case % 2  # odd and even n in 1..70
        phi = Cnf([rng.choice((TAUTOLOGY, make_clause(random_literals(rng, n, 4))))
                   for _ in range(rng.randint(0, 12))], n)
        masks = phi.masks
        seen["odd n" if n % 2 else "even n"] += 1
        seen["n > 64"] += n > 64
        for _ in range(4):
            rho = random_partial(rng, n, rng.choice((0.0, 0.3, 0.7, 1.0)))
            mask, false = example(rho), false_mask(rho)
            assert assignment_of(mask, n) == rho

            clause = rng.choice((TAUTOLOGY, make_clause(random_literals(rng, n, 4))))
            got, want = restrict_mask(encode_clause(clause), mask, false), restrict_clause(clause, rho)
            assert got == encode_clause(want), (clause, rho)
            seen["clause satisfied"] += want is TAUTOLOGY

            restricted, expected = restrict_cnf(masks, mask, false), reference_restrict_cnf(phi, rho)
            assert type(restricted) is tuple and restricted == expected.masks, (phi, rho)
            assert same(decoded(restricted, n), expected)
            seen["cnf shortened"] += 0 < len(restricted) < len(masks)

            term = random_literals(rng, n, 4)
            kept = reference_restrict_term(term, rho)
            assert restrict_term(term, mask) == kept, (term, rho)
            seen["term falsified"] += kept is None

            kdnf = random_kdnf(rng, n, rho)
            got, want = restrict_kdnf(kdnf, mask), reference_restrict_kdnf(kdnf, rho)
            assert same(got, want) and (got is TRUE) == (want is TRUE), (kdnf, rho)
            seen["kdnf true"] += want is TRUE
            seen["kdnf kept"] += want is not TRUE and len(want) > 0

            p = random_polynomial(rng, n)
            want = reference_restrict_polynomial(p, rho)
            (got,) = restrict_rows((row(p, n),), mask, n)
            assert got == reference_restricted_row(p, rho, n), (p, rho)
            assert decode_row(got, n).terms.keys() == want.terms.keys(), (p, rho)
            seen["polynomial shortened"] += len(want.terms) < len(p.terms)

            q = random_ineq(rng, n)
            residual = reference_residual_ineq(q, rho)
            assert same(residual_ineq(q, mask), residual), (q, rho)
            want = TRUE if always_witnessed_true(residual) else residual
            got = restrict_ineq(q, mask)
            assert same(got, want) and (got is TRUE) == (want is TRUE), (q, rho)
            seen["ineq true"] += want is TRUE
            seen["ineq kept"] += want is not TRUE
    assert min(seen.values()) >= 40, seen
