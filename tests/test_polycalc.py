import random
from fractions import Fraction
from itertools import product

import pytest

from pacreason.errors import InputError
from pacreason.formulas import PartialAssignment, WitnessStatus
from pacreason.polycalc import (
    PC,
    PCR,
    Indet,
    Polynomial,
    decide_pc,
    encode_clause_pcr,
    gaussian_reduce,
    monomial_key,
    restrict_polynomial,
)
from pacreason.resolution import TAUTOLOGY, make_clause

from helpers import multilinearize, poly_witness_status
from pc_span_oracle import span_closure_decides


def x(v):
    return Indet(v)


def xd(v):
    return Indet(v, dual=True)


def poly(*terms):
    return Polynomial([(frozenset(m), c) for c, m in terms])


def pa(text):
    return PartialAssignment.from_string(text)


def test_multilinearize_boolean_axiom_collapses():
    assert multilinearize([(1, [x(1), x(1)]), (-1, [x(1)])]).is_zero


def test_multilinearize_reduces_exponent():
    got = multilinearize([(1, [x(1), x(1), x(2)]), (-1, [x(1)])])
    assert got == poly((1, [x(1), x(2)]), (-1, [x(1)]))


def test_multilinearize_merges_like_terms():
    assert multilinearize([(2, [x(1), x(2)]), (3, [x(2), x(1)])]) == poly(
        (5, [x(1), x(2)])
    )


def test_multilinearize_fixes_multilinear_input():
    p = poly((2, [x(1), x(2)]), (-1, [x(3)]))
    assert multilinearize((c, list(m)) for m, c in p.terms.items()) == p


def test_monomial_order_degree_dominates():
    assert monomial_key(frozenset([x(1), x(2)])) > monomial_key(frozenset([x(3)]))
    # same degree: lexicographically earlier ids are larger
    assert monomial_key(frozenset([x(1), x(2)])) > monomial_key(frozenset([x(1), x(3)]))


def test_gaussian_reduce_examples():
    xy_minus_x = poly((1, [x(1), x(2)]), (-1, [x(1)]))
    assert gaussian_reduce(poly((1, [x(1), x(2)])), [xy_minus_x]) == poly((1, [x(1)]))
    assert gaussian_reduce(poly((1, [x(1)])), [poly((1, [x(1), x(2)]))]) == poly(
        (1, [x(1)])
    )
    assert gaussian_reduce(Polynomial(), [xy_minus_x]).is_zero


def test_gaussian_reduce_is_idempotent():
    basis = [poly((1, [x(1), x(2)]), (-1, [x(1)])), poly((1, [x(2)]))]
    p = poly((2, [x(1), x(2)]), (1, [x(2)]), (3, []))
    once = gaussian_reduce(p, basis)
    assert gaussian_reduce(once, basis) == once


def test_decide_pc_multiplication():
    assert decide_pc([poly((1, [x(1)]))], poly((1, [x(1), x(2)])), 2, PC)


def test_decide_pc_reject_semantically():
    assert not decide_pc([poly((1, [x(1), x(2)]))], poly((1, [x(1)])), 2, PC)


def test_decide_pcr_complementarity_axiom():
    q = poly((1, [x(1)]), (1, [xd(1)]), (-1, []))
    assert decide_pc([], q, 1, PCR)


def test_decide_pc_degree_gate():
    with pytest.raises(InputError):
        decide_pc([poly((1, [x(1), x(2)]))], poly((1, [x(1)])), 1, PC)
    with pytest.raises(InputError):
        decide_pc([poly((1, [xd(1)]))], poly((1, [x(1)])), 1, PC)


def test_restrict_polynomial_examples():
    p = poly((1, [x(1), x(2)]), (1, [x(2)]))
    assert restrict_polynomial(p, pa("1*")) == poly((2, [x(2)]))
    assert restrict_polynomial(p, pa("0*")) == poly((1, [x(2)]))
    assert restrict_polynomial(poly((1, [xd(1), x(2)])), pa("1*")).is_zero


def test_poly_witness_status_examples():
    assert poly_witness_status(poly((1, [x(1)]), (-1, [])), pa("1")) is WitnessStatus.WITNESSED_TRUE
    p = poly((1, [x(1)]), (1, [x(2)]), (-3, []))
    assert poly_witness_status(p, pa("1*")) is WitnessStatus.WITNESSED_FALSE
    q = poly((1, [x(1)]), (1, [x(2)]), (-1, []))
    assert poly_witness_status(q, pa("**")) is WitnessStatus.UNWITNESSED


def test_encode_clause_pcr():
    assert encode_clause_pcr(make_clause([1, -2])) == poly((1, [xd(1), x(2)]))
    assert encode_clause_pcr(make_clause([1])) == poly((1, [xd(1)]))
    assert encode_clause_pcr(frozenset()) == poly((1, []))
    with pytest.raises(InputError):
        encode_clause_pcr(TAUTOLOGY)


def test_encode_clause_pcr_semantics_exhaustive():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        width = rng.randint(1, n)
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width)]
        clause = make_clause(lits)
        encoded = encode_clause_pcr(clause)
        for point in product((0, 1), repeat=n):
            satisfied = any((lit > 0) == bool(point[abs(lit) - 1]) for lit in clause)
            assert (encoded.evaluate(point) == 0) == satisfied


def random_polynomial(rng, n, d, mode):
    terms = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(0, d)
        vars_ = rng.sample(range(1, n + 1), min(size, n))
        if mode == PCR:
            m = [Indet(v, dual=rng.random() < 0.4) for v in vars_]
        else:
            m = [Indet(v) for v in vars_]
        terms.append((frozenset(m), Fraction(rng.randint(-3, 3))))
    return Polynomial(terms)


def test_matches_span_oracle_randomized():
    rng = random.Random(626)
    agreements = 0
    for _ in range(80):
        mode = PC if rng.random() < 0.6 else PCR
        n = rng.randint(1, 5) if mode == PC else rng.randint(1, 3)
        d = rng.randint(1, 3)
        hyps = [random_polynomial(rng, n, d, mode) for _ in range(rng.randint(0, 3))]
        q = random_polynomial(rng, n, d, mode)
        got = decide_pc(hyps, q, d, mode)
        assert got == span_closure_decides(hyps, q, d, mode)
        agreements += 1
    assert agreements == 80


def test_accepts_are_semantically_sound_randomized():
    rng = random.Random(627)
    for _ in range(80):
        mode = PC if rng.random() < 0.6 else PCR
        n = rng.randint(1, 4)
        d = rng.randint(1, 3)
        hyps = [random_polynomial(rng, n, d, mode) for _ in range(rng.randint(0, 3))]
        q = random_polynomial(rng, n, d, mode)
        if not decide_pc(hyps, q, d, mode):
            continue
        for point in product((0, 1), repeat=n):
            if all(h.evaluate(point) == 0 for h in hyps):
                assert q.evaluate(point) == 0


def test_restriction_closure_randomized():
    rng = random.Random(628)
    closed = 0
    while closed < 30:
        mode = PC if rng.random() < 0.6 else PCR
        n = rng.randint(1, 4)
        d = rng.randint(1, 3)
        hyps = [random_polynomial(rng, n, d, mode) for _ in range(rng.randint(1, 3))]
        q = random_polynomial(rng, n, d, mode)
        if not decide_pc(hyps, q, d, mode):
            continue
        closed += 1
        for _ in range(6):
            rho = PartialAssignment(
                None if rng.random() < 0.5 else rng.randint(0, 1) for _ in range(n)
            )
            r_hyps = [restrict_polynomial(h, rho) for h in hyps]
            assert decide_pc(r_hyps, restrict_polynomial(q, rho), d, mode)


def test_basis_property_randomized():
    from pacreason.polycalc import build_basis

    rng = random.Random(629)
    for _ in range(40):
        mode = PC if rng.random() < 0.6 else PCR
        n = rng.randint(1, 4)
        d = rng.randint(1, 3)
        hyps = [random_polynomial(rng, n, d, mode) for _ in range(rng.randint(1, 3))]
        q = random_polynomial(rng, n, d, mode)
        basis, multipliers = build_basis(hyps, q, d, mode)
        leads = [b.leading_monomial() for b in basis]
        assert len(set(leads)) == len(leads)
        keys = [monomial_key(lead) for lead in leads]
        assert keys == sorted(keys, reverse=True)
        for h in hyps:
            assert gaussian_reduce(h, basis).is_zero
        for b in basis:
            if b.degree <= d - 1:
                for alpha in multipliers:
                    assert gaussian_reduce(b.mul_indet(alpha), basis).is_zero
