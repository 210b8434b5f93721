import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd

import pytest

from pacreason import polycalc
from pacreason.backends import PolynomialCalculusBackend
from pacreason.errors import InputError
from pacreason.formulas import PartialAssignment, WitnessStatus
from pacreason.polycalc import (
    ONE,
    PC,
    PCR,
    Indet,
    MonomialCodec,
    Polynomial,
    build_basis,
    check_inputs,
    decide_pc,
    encode_clause_pcr,
    gaussian_reduce,
    monomial_key,
    restrict_polynomial,
)
from pacreason.resolution import TAUTOLOGY, make_clause

from helpers import (
    prove_exit_code,
    decode_row,
    monic,
    mul_indet,
    multilinearize,
    poly_witness_status,
    random_partial,
    reference_build_basis,
    reference_gaussian_reduce,
    reference_restrict_polynomial,
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


def keyed(codec, *polys):
    """A basis of the polynomials' integer rows, keyed by their leads."""
    rows = [codec.row(p) for p in polys]
    return {max(r): r for r in rows}


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


def test_monomial_codec_keys_sort_like_monomial_key():
    for variables in ([], [1], [2, 5], [1, 2, 3], [3, 4, 7, 11]):
        for mode in (PC, PCR):
            codec = MonomialCodec(variables, mode)
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
            assert len(set(map(codec.key, monomials))) == len(monomials)
            for i in indets:
                assert codec.key(frozenset([i])) == (1 << codec.width) + codec.bits[i]
            assert sorted(monomials, key=codec.key) == sorted(monomials, key=monomial_key)


def test_monomial_codec_rows_clear_denominators():
    codec = MonomialCodec([1, 2], PCR)
    p = poly((Fraction(1, 2), [x(1), xd(2)]), (Fraction(-2, 3), []))
    assert codec.row(p) == {codec.key(frozenset([x(1), xd(2)])): 3, 0: -4}
    assert codec.row(Polynomial()) == {}
    assert codec.multipliers == [x(1), xd(1), x(2), xd(2)]
    assert MonomialCodec([1, 2], PC).multipliers == [x(1), x(2)]


def test_gaussian_reduce_examples():
    codec = MonomialCodec([1, 2], PC)
    row = codec.row
    xy_minus_x = poly((1, [x(1), x(2)]), (-1, [x(1)]))
    assert gaussian_reduce(row(poly((1, [x(1), x(2)]))), keyed(codec, xy_minus_x)) == row(
        poly((1, [x(1)]))
    )
    assert gaussian_reduce(
        row(poly((1, [x(1)]))), keyed(codec, poly((1, [x(1), x(2)])))
    ) == row(poly((1, [x(1)])))
    assert gaussian_reduce({}, keyed(codec, xy_minus_x)) == {}
    # fraction-free: 2xy + 3y - (1/2)(4xy - y) becomes 2*(2xy + 3y) - (4xy - y),
    # both factors divided by gcd(2, 4)
    p = row(poly((2, [x(1), x(2)]), (3, [x(2)])))
    b = keyed(codec, poly((4, [x(1), x(2)]), (-1, [x(2)])))
    assert gaussian_reduce(p, b) == row(poly((7, [x(2)])))
    assert p == row(poly((2, [x(1), x(2)]), (3, [x(2)])))  # the input is not changed


def test_gaussian_reduce_is_idempotent():
    codec = MonomialCodec([1, 2], PC)
    basis = keyed(codec, poly((1, [x(1), x(2)]), (-1, [x(1)])), poly((1, [x(2)])))
    p = codec.row(poly((2, [x(1), x(2)]), (1, [x(2)]), (3, [])))
    once = gaussian_reduce(p, basis)
    assert gaussian_reduce(once, basis) == once


def test_decide_pc_multiplication():
    assert decide_pc([poly((1, [x(1)]))], poly((1, [x(1), x(2)])), 2, PC)


def test_decide_pc_reject_semantically():
    assert not decide_pc([poly((1, [x(1), x(2)]))], poly((1, [x(1)])), 2, PC)


def test_decide_pcr_complementarity_axiom():
    q = poly((1, [x(1)]), (1, [xd(1)]), (-1, []))
    assert decide_pc([], q, 1, PCR)


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


def test_restrict_polynomial_examples():
    p = poly((1, [x(1), x(2)]), (1, [x(2)]))
    assert restrict_polynomial(p, pa("1*")) == poly((2, [x(2)]))
    assert restrict_polynomial(p, pa("0*")) == poly((1, [x(2)]))
    assert restrict_polynomial(poly((1, [xd(1), x(2)])), pa("1*")).is_zero
    with pytest.raises(InputError):
        restrict_polynomial(poly((1, [x(3)])), pa("1*"))


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


def test_restrict_polynomial_matches_the_per_term_loop():
    rng = random.Random(632)
    seen = {"bool": 0, "dual": 0, "cancel": 0, "zero": 0}
    for _ in range(3000):
        p, rho, from_bools = random_restriction_pair(rng)
        got = restrict_polynomial(p, rho)
        assert got == reference_restrict_polynomial(p, rho), (p, rho)
        assert all(type(c) is Fraction and c != 0 for c in got.terms.values())
        seen["bool"] += from_bools
        seen["dual"] += p.has_duals()
        seen["cancel"] += cancels(p, rho)
        seen["zero"] += got.is_zero
    assert min(seen.values()) >= 100, seen


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
        basis, codec = build_basis(hyps, q, d, mode)
        for lead, b in basis.items():
            assert lead == max(b)
            assert gcd(*b.values()) == 1
        for h in hyps:
            assert not gaussian_reduce(codec.row(h), basis)
        for b in basis.values():
            b = decode_row(codec, b)
            if b.degree <= d - 1:
                for alpha in codec.multipliers:
                    assert not gaussian_reduce(codec.row(mul_indet(b, alpha)), basis)


def test_decide_pc_goes_through_the_module_level_build_basis(monkeypatch):
    sizes = []
    real = polycalc.build_basis

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        sizes.append(len(result[0]))
        return result

    monkeypatch.setattr(polycalc, "build_basis", counting)
    backend = PolynomialCalculusBackend(d=2, n=2)
    assert backend.decide(poly((1, [x(1), x(2)])), [poly((1, [x(1)]))])
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
        hyps = [restrict_polynomial(h, rho) for h in hyps]
        q = restrict_polynomial(q, rho)
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
        codec = MonomialCodec(set().union(*(p.variables() for p in hyps + [q])), mode)
        basis = keyed(codec, *ref_basis)
        for p in hyps + [q]:
            got = decode_row(codec, gaussian_reduce(codec.row(p), basis))
            assert monic(got) == monic(reference_gaussian_reduce(p, ref_basis))
    for (hyps, q, d, mode), (ref_basis, ref_multipliers) in zip(instances, references):
        basis, codec = build_basis(hyps, q, d, mode)
        by_lead = [decode_row(codec, basis[lead]) for lead in sorted(basis, reverse=True)]
        assert list(map(monic, by_lead)) == list(map(monic, ref_basis)), (hyps, q, d, mode)
        assert codec.multipliers == ref_multipliers
        ref_remainder = reference_gaussian_reduce(q, ref_basis)
        remainder = decode_row(codec, gaussian_reduce(codec.row(q), basis))
        assert monic(remainder) == monic(ref_remainder), (hyps, q, d, mode)
        assert decide_pc(hyps, q, d, mode) == ref_remainder.is_zero
