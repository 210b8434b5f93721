import random
from fractions import Fraction
from itertools import product

import pytest

from pacreason.errors import InputError
from pacreason.formulas import PartialAssignment, WitnessStatus
from pacreason.polycalc import (
    ONE,
    PC,
    PCR,
    Indet,
    Polynomial,
    build_basis,
    decide_pc,
    encode_clause_pcr,
    gaussian_reduce,
    monomial_key,
    restrict_polynomial,
)
from pacreason.resolution import TAUTOLOGY, make_clause

from helpers import (
    multilinearize,
    poly_witness_status,
    random_partial,
    reference_build_basis,
    reference_gaussian_reduce,
)
from pc_span_oracle import span_closure_decides


def x(v):
    return Indet(v)


def xd(v):
    return Indet(v, dual=True)


def poly(*terms):
    return Polynomial([(frozenset(m), c) for c, m in terms])


def pa(text):
    return PartialAssignment.from_string(text)


def keyed(*polys):
    return {p.leading_monomial(): p for p in polys}


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
    assert gaussian_reduce(poly((1, [x(1), x(2)])), keyed(xy_minus_x)) == poly((1, [x(1)]))
    assert gaussian_reduce(poly((1, [x(1)])), keyed(poly((1, [x(1), x(2)])))) == poly(
        (1, [x(1)])
    )
    assert gaussian_reduce(Polynomial(), keyed(xy_minus_x)).is_zero


def test_gaussian_reduce_is_idempotent():
    basis = keyed(poly((1, [x(1), x(2)]), (-1, [x(1)])), poly((1, [x(2)])))
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
    rng = random.Random(629)
    for _ in range(40):
        mode = PC if rng.random() < 0.6 else PCR
        n = rng.randint(1, 4)
        d = rng.randint(1, 3)
        hyps = [random_polynomial(rng, n, d, mode) for _ in range(rng.randint(1, 3))]
        q = random_polynomial(rng, n, d, mode)
        basis, multipliers = build_basis(hyps, q, d, mode)
        leads = [b.leading_monomial() for b in basis.values()]
        assert len(set(leads)) == len(leads)
        assert all(lead == b.leading_monomial() for lead, b in basis.items())
        for h in hyps:
            assert gaussian_reduce(h, basis).is_zero
        for b in basis.values():
            if b.degree <= d - 1:
                for alpha in multipliers:
                    assert gaussian_reduce(b.mul_indet(alpha), basis).is_zero


def random_basis_instance(rng):
    """A pc or pcr instance with n <= 5 and d in 1..3, sometimes carrying zero
    or constant polynomials and duplicate hypotheses, sometimes restricted."""
    mode = PC if rng.random() < 0.6 else PCR
    n = rng.randint(1, 5 if mode == PC else 3)
    d = rng.randint(1, 3)
    hyps = [random_polynomial(rng, n, d, mode) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.2:
        hyps.append(Polynomial())
    if rng.random() < 0.2:
        hyps.append(Polynomial([(ONE, rng.choice([-2, 1, 3]))]))
    if hyps and rng.random() < 0.3:
        hyps.append(rng.choice(hyps))
    rng.shuffle(hyps)
    roll = rng.random()
    if roll < 0.1:
        q = Polynomial()
    elif roll < 0.2:
        q = Polynomial([(ONE, rng.randint(1, 3))])
    else:
        q = random_polynomial(rng, n, d, mode)
    if rng.random() < 0.3:
        rho = random_partial(rng, n)
        hyps = [restrict_polynomial(h, rho) for h in hyps]
        q = restrict_polynomial(q, rho)
    return hyps, q, d, mode


def test_dict_basis_matches_list_reference_randomized():
    rng = random.Random(630)
    instances = [random_basis_instance(rng) for _ in range(2000)]
    references = [reference_build_basis(*instance) for instance in instances]
    # The reducer alone first, on the reference bases: a reducer that stops
    # early fails here instead of letting build_basis grow without end.
    for (hyps, q, _, _), (ref_basis, _) in zip(instances, references):
        basis = keyed(*ref_basis)
        for p in hyps + [q]:
            assert gaussian_reduce(p, basis) == reference_gaussian_reduce(p, ref_basis)
    for (hyps, q, d, mode), (ref_basis, ref_multipliers) in zip(instances, references):
        basis, multipliers = build_basis(hyps, q, d, mode)
        by_lead = sorted(
            basis.values(), key=lambda b: monomial_key(b.leading_monomial()), reverse=True
        )
        assert by_lead == ref_basis, (hyps, q, d, mode)
        assert multipliers == ref_multipliers
        ref_remainder = reference_gaussian_reduce(q, ref_basis)
        assert gaussian_reduce(q, basis) == ref_remainder, (hyps, q, d, mode)
        assert decide_pc(hyps, q, d, mode) == ref_remainder.is_zero
