import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm

import pytest

from pacreason import polycalc
from pacreason.backends import PolynomialCalculusBackend
from pacreason.errors import InputError
from pacreason.formulas import TRUE, PartialAssignment, WitnessStatus
from pacreason.polycalc import (
    ONE,
    PC,
    PCR,
    Indet,
    Polynomial,
    build_basis,
    check_inputs,
    decide_pc,
    encode_clause_pcr,
    gaussian_reduce,
    monomial_key,
    restrict_rows,
    row,
)
from pacreason.resolution import TAUTOLOGY, make_clause

from helpers import (
    prove_exit_code,
    complementarity,
    decide_polynomials,
    decode_row,
    example,
    monic,
    mul_indet,
    multilinearize,
    pc_instance,
    plain_restricted_query,
    poly_witness_status,
    random_partial,
    reference_build_basis,
    reference_gaussian_reduce,
    reference_restrict_polynomial,
    reference_restricted_row,
)
from pc_span_oracle import span_closure_decides


def x(v):
    return Indet(v)


def xd(v):
    return Indet(v, dual=True)


def poly(*terms):
    return Polynomial([(frozenset(m), c) for c, m in terms])


def keyed(n, *polys):
    """A basis of the polynomials' integer rows over x1..xn, keyed by their
    leads."""
    rows = [dict(row(p, n)) for p in polys]
    return {max(r): r for r in rows}


def instance_n(*polys):
    """The largest variable the polynomials mention (1 when none)."""
    return max((v for p in polys for v in p.variables()), default=1)



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


def key(m, n):
    """The row key of the monomial m over x1..xn."""
    return row(Polynomial([(m, 1)]), n)[0][0]


def test_row_keys_sort_like_monomial_key():
    for variables, n in (([], 1), ([1], 1), ([2, 5], 5), ([1, 2, 3], 4), ([3, 4, 7, 11], 11),
                         ([1, 64, 69], 69), ([2, 70], 70)):
        for mode in (PC, PCR):
            indets = [Indet(v, dual) for v in variables for dual in (False, True)]
            if mode == PC:
                indets = [i for i in indets if i > 0]
            monomials = [
                frozenset(c)
                for c in chain.from_iterable(
                    combinations(indets, r) for r in range(len(indets) + 1)
                )
            ]
            rng = random.Random(len(monomials))
            rng.shuffle(monomials)
            assert len({key(m, n) for m in monomials}) == len(monomials)
            for i in indets:
                # x_v is bit 2n+1-2v and ~x_v bit 2n-2v, above them the degree
                bit = 1 << 2 * n + 1 - 2 * abs(i) - (i < 0)
                assert key(frozenset([i]), n) == (1 << 2 * n) + bit
            assert sorted(monomials, key=lambda m: key(m, n)) == sorted(monomials, key=monomial_key)


def test_rows_clear_denominators():
    p = poly((Fraction(1, 2), [x(1), xd(2)]), (Fraction(-2, 3), []))
    assert row(p, 2) == ((key(frozenset([x(1), xd(2)]), 2), 3), (0, -4))
    assert row(Polynomial(), 2) == ()
    q = poly((1, [x(1), x(2)]))
    assert build_basis([], row(q, 2), 1, 2, PCR)[1] == [x(1), xd(1), x(2), xd(2)]
    assert build_basis([], row(q, 2), 1, 2)[1] == [x(1), x(2)]
    # the complementarity rows x_v + ~x_v - 1, with content 1, are the pcr basis
    basis = build_basis([], row(q, 2), 1, 2, PCR)[0]
    assert sorted(sorted(b.items()) for b in basis.values()) == sorted(
        sorted(row(complementarity(v), 2)) for v in (1, 2)
    )
    assert build_basis([], row(poly((1, [x(2)])), 3), 1, 3)[1] == [x(2)]


def test_gaussian_reduce_examples():
    def r(p):
        return dict(row(p, 2))

    xy_minus_x = poly((1, [x(1), x(2)]), (-1, [x(1)]))
    assert gaussian_reduce(r(poly((1, [x(1), x(2)]))), keyed(2, xy_minus_x)) == r(
        poly((1, [x(1)]))
    )
    assert gaussian_reduce(
        r(poly((1, [x(1)]))), keyed(2, poly((1, [x(1), x(2)])))
    ) == r(poly((1, [x(1)])))
    assert gaussian_reduce({}, keyed(2, xy_minus_x)) == {}
    # fraction-free: 2xy + 3y - (1/2)(4xy - y) becomes 2*(2xy + 3y) - (4xy - y),
    # both factors divided by gcd(2, 4)
    p = r(poly((2, [x(1), x(2)]), (3, [x(2)])))
    b = keyed(2, poly((4, [x(1), x(2)]), (-1, [x(2)])))
    assert gaussian_reduce(p, b) == r(poly((7, [x(2)])))
    assert p == r(poly((2, [x(1), x(2)]), (3, [x(2)])))  # the input is not changed


def test_gaussian_reduce_is_idempotent():
    basis = keyed(2, poly((1, [x(1), x(2)]), (-1, [x(1)])), poly((1, [x(2)])))
    p = dict(row(poly((2, [x(1), x(2)]), (1, [x(2)]), (3, [])), 2))
    once = gaussian_reduce(p, basis)
    assert gaussian_reduce(once, basis) == once


def test_decide_pc_multiplication():
    assert decide_polynomials([poly((1, [x(1)]))], poly((1, [x(1), x(2)])), 2, PC)


def test_decide_pc_reject_semantically():
    assert not decide_polynomials([poly((1, [x(1), x(2)]))], poly((1, [x(1)])), 2, PC)


def test_decide_pcr_complementarity_axiom():
    q = poly((1, [x(1)]), (1, [xd(1)]), (-1, []))
    assert decide_polynomials([], q, 1, PCR)
    # without the complementarity rows the same query is out of reach
    assert not decide_polynomials([], q, 1, PC)


def test_decide_pc_degree_gate(tmp_path, capsys):
    # `decide_pc` takes checked inputs; the CLI checks them once per run
    with pytest.raises(InputError):
        check_inputs([poly((1, [x(1), x(2)])), poly((1, [x(1)]))], 1, PC)
    with pytest.raises(InputError):
        check_inputs([poly((1, [xd(1)])), poly((1, [x(1)]))], 1, PC)
    for system, kb, error in [
        ("pc", "1 x1 x2", "degree 2 input exceeds the bound 1"),
        ("pc", "1 ~x1", "dual indeterminates require PCR mode"),
        ("pcr", "1 x1 ~x2", "degree 2 input exceeds the bound 1"),
    ]:
        code = prove_exit_code(tmp_path, system, ["--d", "1"], f"p poly 2 1\n{kb}\n",
                               "p poly 2 1\n1 x1\n")
        assert (code, capsys.readouterr().err) == (2, f"error: {error}\n")


def restricted(p, rho, n):
    """p's row over x1..xn restricted by rho, decoded."""
    return decode_row(restrict_rows((row(p, n),), example(rho), n)[0], n)


def test_restrict_polynomial_examples():
    p = poly((1, [x(1), x(2)]), (1, [x(2)]))
    assert restricted(p, "1*", 2) == poly((2, [x(2)]))
    assert restricted(p, "0*", 2) == poly((1, [x(2)]))
    assert restricted(poly((1, [xd(1), x(2)])), "1*", 2).is_zero
    # denominators are cleared once, at the row: 1/2 x1 x2 - 1/3 ~x2
    p = poly((Fraction(1, 2), [x(1), x(2)]), (Fraction(-1, 3), [xd(2)]))
    assert restricted(p, "10", 2) == poly((-2, []))
    assert restricted(p, "11", 2) == poly((3, []))


def random_restriction_pair(rng):
    """A polynomial with rational coefficients, duals in half the cases, and
    terms built to merge: each base monomial also appears widened by one
    indeterminate, often with the opposite coefficient, so a restriction that
    sets that indeterminate to 1 can cancel both.  rho is sometimes built
    from bool entries, which it stores as 0 and 1; the third value says
    so."""
    n = rng.randint(1, 4)
    duals = rng.random() < 0.5
    terms = []
    for _ in range(rng.randint(1, 4)):
        vars_ = rng.sample(range(1, n + 1), rng.randint(0, n))
        base = [Indet(v, dual=duals and rng.random() < 0.4) for v in vars_]
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        terms.append((frozenset(base), c))
        extra = Indet(rng.randint(1, n), dual=duals and rng.random() < 0.4)
        terms.append((frozenset(base) | {extra}, -c if rng.random() < 0.6 else c))
    entries = [rng.choice((None, 0, 1)) for _ in range(n)]
    from_bools = rng.random() < 0.3 and entries != [None] * n
    if from_bools:
        entries = [e if e is None else bool(e) for e in entries]
    return Polynomial(terms), PartialAssignment(entries), from_bools


def cancels(p, rho):
    """Whether two or more terms of p restrict to one monomial and sum to 0."""
    merged = {}
    for m, c in p.terms.items():
        kept = reference_restrict_polynomial(Polynomial([(m, 1)]), rho)
        for km in kept.terms:
            merged.setdefault(km, []).append(c)
    return any(len(cs) > 1 and sum(cs) == 0 for cs in merged.values())


def scale_of(p):
    """The positive factor `row` multiplies p by: the lcm of its denominators."""
    return lcm(*(c.denominator for c in p.terms.values()))


def test_restrict_polynomial_matches_the_per_term_loop():
    rng = random.Random(632)
    seen = {"bool": 0, "dual": 0, "cancel": 0, "zero": 0}
    for _ in range(3000):
        p, rho, from_bools = random_restriction_pair(rng)
        n = len(rho)
        got = restrict_rows((row(p, n),), example(rho), n)[0]
        want = reference_restrict_polynomial(p, rho)
        assert decode_row(got, n) == Polynomial({m: scale_of(p) * c for m, c in want.terms.items()})
        assert all(type(c) is int and c != 0 for _, c in got)
        assert list(got) == sorted(got, reverse=True)
        seen["bool"] += from_bools
        seen["dual"] += p.has_duals()
        seen["cancel"] += cancels(p, rho)
        seen["zero"] += not got
    assert min(seen.values()) >= 100, seen


def test_poly_witness_status_examples():
    pa = PartialAssignment.from_string
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


@pytest.mark.parametrize("bad", [0, True, False, 1.0, "x1", None])
def test_a_literal_is_a_nonzero_int(bad):
    for c in (1, 0):
        with pytest.raises(InputError, match=f"^a monomial's literals are nonzero ints, got {bad!r}$"):
            Polynomial([(frozenset([2, bad]), c)])
    error = f"^an indeterminate's variable must be an int >= 1, got {bad!r}$"
    with pytest.raises(InputError, match=error):
        Indet(bad)


def test_an_indeterminate_is_its_literal():
    assert (Indet(3), Indet(3, dual=True)) == (3, -3)
    with pytest.raises(InputError):
        Indet(-3)
    p = poly((Fraction(1, 2), [x(1), xd(1), xd(2)]), (-1, []))
    assert p.terms == {frozenset({1, -1, -2}): Fraction(1, 2), ONE: -1}
    assert repr(p) == "Polynomial(1/2x1~x1~x2 + -1)"


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
        got = decide_polynomials(hyps, q, d, mode)
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
        if not decide_polynomials(hyps, q, d, mode):
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
        if not decide_polynomials(hyps, q, d, mode, n):
            continue
        closed += 1
        rows = [row(p, n) for p in (q, *hyps)]
        for _ in range(6):
            rho = PartialAssignment(
                None if rng.random() < 0.5 else rng.randint(0, 1) for _ in range(n)
            )
            r_q, *r_hyps = restrict_rows(rows, example(rho), n)
            assert decide_pc(r_hyps, r_q, d, n, mode)


def test_basis_property_randomized():
    rng = random.Random(629)
    for _ in range(40):
        mode = PC if rng.random() < 0.6 else PCR
        n = rng.randint(1, 4)
        d = rng.randint(1, 3)
        hyps = [random_polynomial(rng, n, d, mode) for _ in range(rng.randint(1, 3))]
        q = random_polynomial(rng, n, d, mode)
        basis, multipliers = build_basis([row(h, n) for h in hyps], row(q, n), d, n,
                                         mode)
        for lead, b in basis.items():
            assert lead == max(b)
            assert gcd(*b.values()) == 1
        for h in hyps:
            assert not gaussian_reduce(dict(row(h, n)), basis)
        for b in basis.values():
            b = decode_row(b, n)
            if b.degree <= d - 1:
                for alpha in multipliers:
                    assert not gaussian_reduce(dict(row(mul_indet(b, alpha), n)), basis)


def test_decide_pc_goes_through_the_module_level_build_basis(monkeypatch):
    sizes = []
    real = polycalc.build_basis

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        sizes.append(len(result[0]))
        return result

    monkeypatch.setattr(polycalc, "build_basis", counting)
    backend = PolynomialCalculusBackend(d=2, n=2)
    assert backend.decide(row(poly((1, [x(1), x(2)])), 2), (row(poly((1, [x(1)])), 2),))
    # x1, then x1*x1 = x1 merges away and x1*x2 joins
    assert sizes == [2]


def with_rational_coefficients(rng, p):
    """p with each coefficient divided by 1, 2, 3 or 4."""
    return Polynomial({m: c / rng.choice((1, 2, 3, 4)) for m, c in p.terms.items()})


def random_basis_instance(rng, kinds):
    """A pc or pcr instance with n <= 5 and d in 1..3, sometimes carrying
    non-integer coefficients, zero or constant polynomials and duplicate
    hypotheses, sometimes restricted; counts each kind in `kinds`."""
    mode = PC if rng.random() < 0.6 else PCR
    n = rng.randint(1, 5 if mode == PC else 3)
    d = rng.randint(1, 3)
    hyps = [random_polynomial(rng, n, d, mode) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.5:
        hyps = [with_rational_coefficients(rng, h) for h in hyps]
    if rng.random() < 0.2:
        hyps.append(Polynomial())
        kinds["zero"] += 1
    if rng.random() < 0.2:
        hyps.append(Polynomial([(ONE, rng.choice([-2, 1, 3]))]))
        kinds["constant"] += 1
    if hyps and rng.random() < 0.3:
        hyps.append(rng.choice(hyps))
        kinds["duplicate"] += 1
    rng.shuffle(hyps)
    roll = rng.random()
    if roll < 0.1:
        q = Polynomial()
    elif roll < 0.2:
        q = Polynomial([(ONE, rng.randint(1, 3))])
    else:
        q = with_rational_coefficients(rng, random_polynomial(rng, n, d, mode))
    if rng.random() < 0.3:
        rho = random_partial(rng, n)
        hyps = [reference_restrict_polynomial(h, rho) for h in hyps]
        q = reference_restrict_polynomial(q, rho)
        kinds["restricted"] += 1
    kinds["non-integer"] += any(
        c.denominator != 1 for p in hyps + [q] for c in p.terms.values()
    )
    kinds[mode] += 1
    return hyps, q, d, mode


def test_dict_basis_matches_list_reference_randomized():
    rng = random.Random(630)
    kinds = Counter()
    instances = [random_basis_instance(rng, kinds) for _ in range(2000)]
    assert min(kinds.values()) >= 100 and len(kinds) == 7, kinds
    references = [reference_build_basis(*instance) for instance in instances]
    # The reducer alone first, on the reference bases: a reducer that stops
    # early fails here instead of letting build_basis grow without end.
    for (hyps, q, _, mode), (ref_basis, _) in zip(instances, references):
        n = instance_n(*hyps, q)
        basis = keyed(n, *ref_basis)
        for p in hyps + [q]:
            got = decode_row(gaussian_reduce(dict(row(p, n)), basis), n)
            assert monic(got) == monic(reference_gaussian_reduce(p, ref_basis))
    for (hyps, q, d, mode), (ref_basis, ref_multipliers) in zip(instances, references):
        n = instance_n(*hyps, q)
        hyp_rows, q_row = [row(h, n) for h in hyps], row(q, n)
        basis, multipliers = build_basis(hyp_rows, q_row, d, n, mode)
        by_lead = [decode_row(basis[lead], n) for lead in sorted(basis, reverse=True)]
        assert list(map(monic, by_lead)) == list(map(monic, ref_basis)), (hyps, q, d, mode)
        assert multipliers == ref_multipliers
        ref_remainder = reference_gaussian_reduce(q, ref_basis)
        remainder = decode_row(gaussian_reduce(dict(q_row), basis), n)
        assert monic(remainder) == monic(ref_remainder), (hyps, q, d, mode)
        assert decide_pc(hyp_rows, q_row, d, n, mode) == ref_remainder.is_zero


def spread_instance(rng):
    """(mode, n, d, hyps, q): a pc or pcr instance at d in 1..3 over at most
    four variables (three in pcr) spread over x1..xn, n odd or even up to
    70, with negative and non-integer coefficients, and each term often
    repeated one indeterminate wider with the opposite coefficient, so that
    restricted terms merge and cancel."""
    n = 2 * rng.randint(1, 35) - rng.randint(0, 1)
    mode = PC if rng.random() < 0.5 else PCR
    variables = rng.sample(range(1, n + 1), min(n, rng.randint(1, 4 if mode == PC else 3)))
    d = rng.randint(1, 3)

    def indet():
        return Indet(rng.choice(variables), dual=mode == PCR and rng.random() < 0.4)

    def polynomial():
        terms = []
        for _ in range(rng.randint(1, 3)):
            m = frozenset(indet() for _ in range(rng.randint(0, d)))
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4]))
            terms.append((m, c))
            if len(m) < d and rng.random() < 0.6:
                terms.append((m | {indet()}, -c if rng.random() < 0.7 else c))
        return Polynomial(terms)

    return mode, n, d, [polynomial() for _ in range(rng.randint(0, 3))], polynomial()


def spread_examples(rng, n, count):
    """`count` random examples over x1..xn, as PartialAssignments."""
    return [random_partial(rng, n, rng.choice((0.0, 0.3, 0.7, 1.0))) for _ in range(count)]


def test_backend_rows_restrict_as_the_fraction_reference():
    # restrict_query and restrict_hyps give, for each polynomial, the row of
    # `reference_restrict_polynomial` times the factor `row` scaled it by,
    # and the query settles exactly when its reference restriction is zero
    rng = random.Random(2810)
    seen = Counter()
    for _ in range(1500):
        mode, n, d, hyps, q = spread_instance(rng)
        backend, query, rows = pc_instance(d, n, mode, q, hyps)
        for rho in spread_examples(rng, n, 3):
            mask = example(rho)
            restricted = backend.restrict_query(query, mask)
            want = reference_restricted_row(q, rho, n)
            assert restricted == (want or TRUE), (q, rho)
            got = backend.restrict_hyps(rows, mask)
            assert got == tuple(reference_restricted_row(h, rho, n) for h in hyps), (hyps, rho)
            for h, r in zip(hyps, got):
                want = reference_restrict_polynomial(h, rho)
                scaled = Polynomial({m: scale_of(h) * c for m, c in want.terms.items()})
                assert decode_row(r, n) == scaled
                seen["cancel"] += cancels(h, rho)
                seen["non-integer"] += scale_of(h) > 1
            seen["settled"] += restricted is TRUE
            seen["odd n" if n % 2 else "even n"] += 1
            seen["n > 64"] += n > 64
    assert min(seen.values()) >= 100, seen


def test_row_basis_matches_the_reference_and_the_span_oracle():
    # on rows, restricted or not, the verdict and the basis size of
    # `build_basis` are those of the Fraction kernel, and the verdict that of
    # the dense span-closure oracle
    rng = random.Random(2811)
    seen = Counter()
    for _ in range(400):
        mode, n, d, hyps, q = spread_instance(rng)
        backend, query, rows = pc_instance(d, n, mode, q, hyps)
        for rho in [None, *spread_examples(rng, n, 2)]:
            if rho is None:
                ref_q, ref_hyps, r_q, r_rows = q, hyps, query, rows
            else:
                mask = example(rho)
                ref_q = reference_restrict_polynomial(q, rho)
                ref_hyps = [reference_restrict_polynomial(h, rho) for h in hyps]
                r_q = plain_restricted_query(backend, query, mask)
                r_rows = backend.restrict_hyps(rows, mask)
            ref_basis, ref_multipliers = reference_build_basis(ref_hyps, ref_q, d, mode)
            basis, multipliers = build_basis(r_rows, r_q, d, n, mode)
            accepted = bool(backend.decide(r_q, r_rows))
            assert (len(basis), multipliers) == (len(ref_basis), ref_multipliers), (ref_hyps, ref_q)
            assert accepted == reference_gaussian_reduce(ref_q, ref_basis).is_zero
            assert accepted == span_closure_decides(ref_hyps, ref_q, d, mode)
            seen[f"{mode} {'accepted' if accepted else 'rejected'}"] += 1
            seen["restricted"] += rho is not None
            seen["n > 64"] += n > 64
    assert min(seen.values()) >= 50, seen


def test_is_countermodel_is_the_brute_force_evaluation():
    # at full assignments, random ones and completions of rho: every
    # restricted hypothesis evaluates to zero and the restricted query not,
    # by `Polynomial.evaluate` on the Fraction reference restrictions
    rng = random.Random(2812)
    seen = Counter()
    for _ in range(600):
        mode, n, d, hyps, q = spread_instance(rng)
        backend, query, rows = pc_instance(d, n, mode, q, hyps)
        for rho in spread_examples(rng, n, 3):
            mask = example(rho)
            restricted = backend.restrict_query(query, mask)
            if restricted is TRUE:
                continue
            r_rows = backend.restrict_hyps(rows, mask)
            ref_q = reference_restrict_polynomial(q, rho)
            ref_hyps = [reference_restrict_polynomial(h, rho) for h in hyps]
            for _ in range(8):
                point = tuple(e if e is not None and rng.random() < 0.8 else rng.randint(0, 1)
                              for e in rho)
                x = example(PartialAssignment(point))
                want = ref_q.evaluate(point) != 0 and all(h.evaluate(point) == 0 for h in ref_hyps)
                assert backend.is_countermodel(restricted, r_rows, x) == want, (q, hyps, rho, point)
                seen[want] += 1
    assert min(seen[True], seen[False]) >= 200, seen


def test_equal_restricted_instances_are_equal_values():
    # a restricted instance is a tuple of rows: two examples give equal
    # values, with equal hashes, exactly when the Fraction references agree
    rng = random.Random(2813)
    seen = Counter()
    for _ in range(300):
        mode, n, d, hyps, q = spread_instance(rng)
        n = min(n, 6)
        hyps = [Polynomial({m: c for m, c in p.terms.items() if all(abs(l) <= n for l in m)})
                for p in hyps]
        q = Polynomial({m: c for m, c in q.terms.items() if all(abs(l) <= n for l in m)})
        backend, query, rows = pc_instance(d, n, mode, q, hyps)
        by_reference = {}
        for rho in spread_examples(rng, n, 12):
            mask = example(rho)
            instance = (plain_restricted_query(backend, query, mask),
                        backend.restrict_hyps(rows, mask))
            reference = tuple(frozenset(reference_restrict_polynomial(p, rho).terms.items())
                              for p in (q, *hyps))
            earlier = by_reference.setdefault(reference, instance)
            assert earlier == instance and hash(earlier) == hash(instance), (q, hyps, rho)
            seen["repeat"] += earlier is not instance
        instances = list(by_reference.values())
        assert len(set(instances)) == len(instances)
        seen["distinct"] += len(instances)
    assert min(seen.values()) >= 200, seen
