import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest

from pacreason.backends import SpaceResolutionBackend
from pacreason.cutting_planes import LinIneq, residual_ineq
from pacreason.decide_pac import PacParams, decide_pac_from_distribution
from pacreason.errors import InputError
from pacreason.formulas import TRUE, PartialAssignment
from pacreason.oracle import sat_solve
from pacreason.polycalc import Polynomial, restrict_polynomial
from pacreason.res_k import KDnf, restrict_kdnf
from pacreason.resolution import (
    TAUTOLOGY,
    Cnf,
    Cut,
    Leaf,
    ProofNode,
    Weaken,
    check_proof,
    clause_space,
    make_clause,
    proof_to_text,
    proof_tree,
    restrict_clause,
    restrict_cnf,
    restrict_term,
    search_space,
)
from pacreason.sampling import ExplicitDistribution, IndependentMask, draw_masked_examples

from helpers import (
    proof_size,
    random_cnf,
    random_partial,
    reference_restrict_cnf,
    reference_restrict_kdnf,
    reference_restrict_polynomial,
    reference_search_space,
    restrict_proof,
    space_bound_for_size,
)


def search_proof(phi, s, target):
    """search_space's proof as Leaf / Weaken / Cut nodes, or None."""
    return proof_tree(search_space(phi, s, target))


def cl(*lits):
    return make_clause(lits)


BOT = frozenset()


def one_cut_refutation():
    return Cut(1, Leaf(cl(1)), Leaf(cl(-1)), BOT)


def test_make_clause_canonicalizes_tautology():
    assert cl(1, -1, 2) is TAUTOLOGY
    assert cl(1, 2) == frozenset({1, 2})


def test_check_proof_one_cut_refutation():
    phi = Cnf([cl(1), cl(-1)], 1)
    assert check_proof(one_cut_refutation(), phi, BOT)


def test_check_proof_root_mismatch():
    phi = Cnf([cl(1), cl(-1)], 2)
    assert not check_proof(one_cut_refutation(), phi, cl(2))


def test_check_proof_weakening():
    phi = Cnf([cl(1)], 2)
    proof = Weaken(cl(1, 2), Leaf(cl(1)))
    assert check_proof(proof, phi, cl(1, 2))


def test_check_proof_rejects_bad_cut():
    phi = Cnf([cl(1), cl(2)], 2)
    bogus = Cut(1, Leaf(cl(1)), Leaf(cl(2)), BOT)
    assert not check_proof(bogus, phi, BOT)


def test_clause_space_examples():
    assert clause_space(Leaf(cl(1))) == 1
    assert clause_space(one_cut_refutation()) == 2
    # left-leaning chain of three cuts over leaves stays at space 2
    chain = Cut(
        3,
        Cut(2, Cut(1, Leaf(cl(1, 2, 3)), Leaf(cl(-1, 2, 3)), cl(2, 3)), Leaf(cl(-2, 3)), cl(3)),
        Leaf(cl(-3)),
        BOT,
    )
    assert clause_space(chain) == 2


def test_space_bound_for_size():
    assert space_bound_for_size(1) == 1
    assert space_bound_for_size(8) == 4
    assert space_bound_for_size(9) == 4
    with pytest.raises(InputError):
        space_bound_for_size(0)


def test_search_space_finds_one_cut_refutation():
    phi = Cnf([cl(1), cl(-1)], 1)
    proof = search_proof(phi, 2, BOT)
    assert proof is not None
    assert check_proof(proof, phi, BOT)
    assert clause_space(proof) <= 2


def test_search_space_fails_below_needed_space():
    phi = Cnf([cl(1), cl(-1)], 1)
    assert search_space(phi, 1, BOT) is None


def test_search_space_superset_base_case():
    phi = Cnf([cl(1, 2)], 3)
    proof = search_proof(phi, 1, cl(1, 2, 3))
    assert isinstance(proof, Weaken)
    assert check_proof(proof, phi, cl(1, 2, 3))


def test_search_space_tautology_target():
    phi = Cnf([cl(1)], 1)
    proof = search_proof(phi, 1, TAUTOLOGY)
    assert check_proof(proof, phi, TAUTOLOGY)


def test_search_space_empty_clause_hypothesis_derives_anything():
    phi = Cnf([BOT], 2)
    proof = search_proof(phi, 1, cl(2))
    assert proof is not None and check_proof(proof, phi, cl(2))


def test_restrict_clause():
    rho = PartialAssignment.from_string("*1*")
    assert restrict_clause(cl(1, -2, 3), rho) == cl(1, 3)
    rho2 = PartialAssignment.from_string("*0*")
    assert restrict_clause(cl(1, -2, 3), rho2) is TAUTOLOGY


def test_restrict_term():
    rho = PartialAssignment.from_string("*1*0")
    assert restrict_term(frozenset({1, 2, -4}), rho) == [1]
    assert restrict_term(frozenset({2, -4}), rho) == []
    assert restrict_term(frozenset({1, 4}), rho) is None
    assert restrict_term(frozenset(), rho) == []


def test_restrictions_name_a_variable_beyond_rho():
    rho = PartialAssignment.from_string("**")
    error = "^variable x3 out of range 1..2$"
    for restrict, value in (
        (restrict_clause, cl(-3)),
        (restrict_term, frozenset({-3})),
        (residual_ineq, LinIneq([(3, 1)], 0)),
    ):
        with pytest.raises(InputError, match=error):
            restrict(value, rho)


def _restriction_outcome(restrict, value, rho):
    try:
        return restrict(value, rho)
    except InputError as exc:
        return f"InputError: {exc}"


def _cancels(p, rho):
    """Whether two terms of p restrict to one monomial whose coefficients
    sum to 0."""
    sums, counts = Counter(), Counter()
    for m, c in p.terms.items():
        values = [rho[abs(lit) - 1] for lit in m]
        if all(v is None or v == (lit > 0) for lit, v in zip(m, values)):
            kept = frozenset(lit for lit, v in zip(m, values) if v is None)
            sums[kept] += c
            counts[kept] += 1
    return any(counts[m] > 1 and not sums[m] for m in counts)


def test_term_restrictions_match_the_references():
    # restrict_kdnf and restrict_polynomial both restrict a term (a monomial
    # is a conjunction of literals, a dual -v) through restrict_term; each
    # must match its per-literal loop through rho.value in value, repr and
    # error text, over duals, monomials holding x and its dual, coefficients
    # that cancel when restricted monomials merge, and a rho shorter than the
    # variables used
    rng = random.Random(1919)
    seen = Counter()
    for _ in range(2000):
        n = rng.randint(1, 5)
        length = n if rng.random() < 0.85 else rng.randint(0, n - 1)
        rho = random_partial(rng, length, 0.4)
        terms = []
        for _ in range(rng.randint(0, 4)):
            variables = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            terms.append([v if rng.random() < 0.5 else -v for v in variables])
        phi = KDnf(terms)
        monomials = []
        for _ in range(rng.randint(1, 4)):
            lits = [rng.choice((v, -v)) for v in rng.sample(range(1, n + 1), rng.randint(0, n))]
            if lits and rng.random() < 0.3:
                lits.append(-lits[0])
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
            monomials.append((frozenset(lits), c))
            widened = frozenset(lits) | {rng.choice((1, -1)) * rng.randint(1, n)}
            monomials.append((widened, -c if rng.random() < 0.6 else c))
        p = Polynomial(monomials)
        outcomes = []
        for restrict, reference, value in (
            (restrict_kdnf, reference_restrict_kdnf, phi),
            (restrict_polynomial, reference_restrict_polynomial, p),
        ):
            got = _restriction_outcome(restrict, value, rho)
            want = _restriction_outcome(reference, value, rho)
            assert got == want and repr(got) == repr(want), (value, rho)
            outcomes.append(got)
        restricted_phi, restricted_p = outcomes
        seen["error"] += isinstance(restricted_p, str)
        seen["true"] += restricted_phi is TRUE
        seen["dual"] += p.has_duals()
        seen["pair"] += any(-lit in m for m in p.terms for lit in m)
        seen["cancel"] += length == n and _cancels(p, rho)
    assert min(seen.values()) >= 100, seen


def test_restrict_proof_assigned_pivot_becomes_weakening():
    phi = Cnf([cl(1), cl(-1)], 1)
    rho = PartialAssignment.from_string("1")
    projected = restrict_proof(one_cut_refutation(), rho)
    assert projected.clause == BOT
    assert check_proof(projected, restrict_cnf(phi, rho), BOT)
    assert proof_size(projected) <= proof_size(one_cut_refutation())


def test_restrict_proof_empty_restriction_is_identity():
    proof = one_cut_refutation()
    assert restrict_proof(proof, PartialAssignment.all_masked(1)) == proof


def test_restrict_proof_weakening_drops_falsified_literal():
    proof = Weaken(cl(1, 2), Leaf(cl(1)))
    rho = PartialAssignment.from_string("*0")
    projected = restrict_proof(proof, rho)
    assert projected == Leaf(cl(1))  # weakened literal vanished, step collapses


def test_restrict_proof_rejects_malformed():
    bogus = Cut(1, Leaf(cl(2)), Leaf(cl(-1)), BOT)
    with pytest.raises(InputError):
        restrict_proof(bogus, PartialAssignment.all_masked(2))


def test_search_space_matches_sat_oracle_randomized():
    rng = random.Random(424242)
    for _ in range(150):
        n = rng.randint(1, 4)
        phi = random_cnf(rng, n)
        s = n + 2
        proof = search_proof(phi, s, BOT)
        unsat = sat_solve(phi) is None
        assert (proof is not None) == unsat
        if proof is not None:
            assert check_proof(proof, phi, BOT)
            assert clause_space(proof) <= s


def test_space_class_restriction_closure_randomized():
    rng = random.Random(515151)
    closed = 0
    while closed < 40:
        n = rng.randint(1, 4)
        phi = random_cnf(rng, n)
        s = n + 2
        proof = search_proof(phi, s, BOT)
        if proof is None:
            continue
        closed += 1
        for _ in range(10):
            rho = random_partial(rng, n)
            projected = restrict_proof(proof, rho)
            assert check_proof(projected, restrict_cnf(phi, rho), restrict_clause(BOT, rho))
            assert clause_space(projected) <= clause_space(proof)
            assert proof_size(projected) <= proof_size(proof)
            again = search_proof(restrict_cnf(phi, rho), s, BOT)
            assert again is not None
            assert clause_space(again) <= s


def test_space_closure_holds_for_arbitrary_targets():
    rng = random.Random(616161)
    closed = 0
    while closed < 25:
        n = rng.randint(2, 4)
        phi = random_cnf(rng, n)
        target = random_clause_local(rng, n)
        s = rng.randint(2, n + 2)
        if search_space(phi, s, target) is None:
            continue
        closed += 1
        for _ in range(8):
            rho = random_partial(rng, n)
            restricted_target = restrict_clause(target, rho)
            assert search_space(restrict_cnf(phi, rho), s, restricted_target) is not None


def random_clause_local(rng, n):
    width = rng.randint(1, n)
    vars_ = rng.sample(range(1, n + 1), width)
    return make_clause(v if rng.random() < 0.5 else -v for v in vars_)


def test_proof_text_golden():
    assert (
        proof_to_text(one_cut_refutation())
        == "(cut x1 (leaf x1) (leaf -x1) ())"
    )


def all_variables_search(phi: Cnf, s: int, target) -> Optional[ProofNode]:
    """The reference search branching on every declared variable 1..n."""
    return reference_search_space(phi, s, target, range(1, phi.n + 1))


def cut_pivots(proof) -> set:
    if isinstance(proof, Leaf):
        return set()
    if isinstance(proof, Weaken):
        return cut_pivots(proof.child)
    return {proof.pivot} | cut_pivots(proof.left) | cut_pivots(proof.right)


def occurring_variables(phi: Cnf) -> set:
    return {abs(lit) for c in phi.clauses if c is not TAUTOLOGY for lit in c}


def random_cnf_with_unused_variables(rng):
    """A CNF over a proper subset of its declared variables 1..n (n <= 7)."""
    n = rng.randint(2, 7)
    occurring = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
    clauses = []
    for _ in range(rng.randint(1, 6)):
        vars_ = rng.sample(occurring, rng.randint(1, min(3, len(occurring))))
        clauses.append(make_clause(v if rng.random() < 0.5 else -v for v in vars_))
    phi = Cnf(clauses, n)
    target = make_clause(
        v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(0, 2))
    )
    return phi, target


def test_search_space_agrees_with_all_variables_search():
    rng = random.Random(717171)
    accepted = same = 0
    for _ in range(2000):
        phi, target = random_cnf_with_unused_variables(rng)
        s = rng.randint(1, 4)
        proof = search_proof(phi, s, target)
        reference = all_variables_search(phi, s, target)
        assert (proof is None) == (reference is None)
        for found in (proof, reference):
            if found is not None:
                assert check_proof(found, phi, target)
                assert clause_space(found) <= s
        if reference is not None and cut_pivots(reference) <= occurring_variables(phi):
            assert proof == reference  # same order of branching where it matters
            same += 1
        accepted += proof is not None
    assert 200 < accepted < 1800  # both verdicts are well represented
    assert accepted // 2 < same < accepted  # some reference proofs cut on unused variables


def test_decide_pac_matches_reference_search_per_example():
    rng = random.Random(818181)
    n, s = 8, 3
    kb = Cnf(
        [
            make_clause(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(12)
        ],
        n,
    )
    models = [
        x
        for x in itertools.product((0, 1), repeat=n)
        if all(any((x[abs(lit) - 1] == 1) == (lit > 0) for lit in c) for c in kb.clauses)
    ]
    points = rng.sample(models, 16)
    dist = ExplicitDistribution(n, [(x, Fraction(1, 16)) for x in points])
    mask = IndependentMask(Fraction(1, 3))
    query = cl(1, 2)
    params = PacParams(Fraction(1, 5), Fraction(1, 10), Fraction(1, 20))
    outcome = decide_pac_from_distribution(
        SpaceResolutionBackend(s=s, n=n), query, kb, params, dist, mask, seed=9, m=300
    )
    expected = tuple(
        all_variables_search(restrict_cnf(kb, rho), s, restrict_clause(query, rho)) is not None
        for rho in draw_masked_examples(dist, mask, 300, 9)
    )
    assert outcome.per_example == expected
    assert 0 < sum(expected) < len(expected)


def random_restriction_case(rng):
    """A CNF (widths 0-3, maybe TAUTOLOGY) over a few of its variables,
    with n <= 8 or, one time in ten, n and the clause count above 64, so
    that the clause and variable masks outgrow a machine word."""
    wide = rng.random() < 0.1
    n = rng.randint(65, 100) if wide else rng.randint(1, 8)
    # few variables: collisions
    pool = rng.sample(range(1, n + 1), rng.randint(16, 24) if wide else rng.randint(1, min(n, 4)))
    clauses = []
    for _ in range(rng.randint(110, 150) if wide else rng.randint(0, 8)):
        if rng.random() < 0.1:
            clauses.append(TAUTOLOGY)
            continue
        vars_ = rng.sample(pool, rng.randint(0, min(3, len(pool))))
        clauses.append(make_clause(v if rng.random() < 0.5 else -v for v in vars_))
    return Cnf(clauses, n)


def random_restriction(rng, n):
    """A rho of one of three kinds, sometimes longer than n."""
    kind = rng.choice(("masked", "set", "mixed"))
    length = n + (rng.randint(1, 2) if rng.random() < 0.2 else 0)
    mask_prob = {"masked": 1.0, "set": 0.0, "mixed": 0.5}[kind]
    return random_partial(rng, length, mask_prob), kind


def test_restrict_cnf_matches_clause_by_clause_restriction():
    # each CNF is restricted under one to four rho, so later ones reuse the
    # clause index the first one built
    rng = random.Random(929292)
    seen = {"masked": 0, "set": 0, "mixed": 0, "tautology": 0, "merged": 0, "empty": 0,
            "long": 0, "wide": 0, "reused": 0}
    for _ in range(2000):
        phi = random_restriction_case(rng)
        fresh = Cnf(phi.clauses, phi.n)
        for count in range(rng.randint(1, 4)):
            rho, kind = random_restriction(rng, phi.n)
            result = restrict_cnf(phi, rho)
            expected = reference_restrict_cnf(phi, rho)
            assert result == expected  # same n, same clauses in the same order
            assert repr(result) == repr(expected)
            seen[kind] += 1
            seen["reused"] += count > 0
            kept = [restrict_clause(c, rho) for c in phi.clauses]
            kept = [r for r in kept if r is not TAUTOLOGY]
            seen["merged"] += len(set(kept)) < len(kept)  # dedup keeps the first
            seen["empty"] += frozenset() in kept
            seen["long"] += len(rho) > phi.n
        seen["tautology"] += TAUTOLOGY in phi.clauses
        seen["wide"] += phi.n > 64 and len(phi.clauses) > 64
        # the index restrict_cnf built takes no part in equality or the repr
        assert phi == fresh and fresh == phi and repr(phi) == repr(fresh)
    assert min(seen.values()) >= 100, seen


def test_restrict_cnf_rejects_a_short_rho():
    phi = Cnf([cl(1, 3)], 3)
    # x1 satisfies the clause, so no literal of it needs the missing x3
    with pytest.raises(InputError):
        restrict_cnf(phi, PartialAssignment.from_string("1*"))
    # x1 is masked, so x3 is out of range
    with pytest.raises(InputError):
        restrict_cnf(phi, PartialAssignment.from_string("**"))


def test_restrict_cnf_accepts_a_longer_rho():
    phi = Cnf([cl(1, -2), cl(2)], 2)
    rho = PartialAssignment.from_string("*1*0")
    assert restrict_cnf(phi, rho) == Cnf([cl(1)], 2)


def random_differential_case(rng):
    """A CNF over n <= 12 variables with the empty clause, TAUTOLOGY and
    repeated clauses among its inputs, and a target clause.  Most CNFs over
    three or more variables are dense over a few of them, so that many
    proofs need cuts and space 3 or 4."""
    n = rng.randint(1, 12)
    dense = n >= 3 and rng.random() < 0.6
    pool = rng.sample(range(1, n + 1), min(n, rng.randint(3, 5))) if dense else range(1, n + 1)
    clauses = []
    for _ in range(rng.randint(8, 20) if dense else rng.randint(0, 14)):
        roll = rng.random()
        if roll < 0.03:
            clauses.append(BOT)
        elif roll < 0.08:
            clauses.append(TAUTOLOGY)
        elif roll < 0.15 and clauses:
            clauses.append(rng.choice(clauses))
        else:
            vars_ = rng.sample(pool, rng.randint(2 if dense else 1, min(3, len(pool))))
            clauses.append(make_clause(v if rng.random() < 0.5 else -v for v in vars_))
    target = make_clause(
        v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(0, min(2, n)))
    )
    return Cnf(clauses, n), target


def test_mask_kernels_match_the_frozenset_reference():
    # the literal-mask restriction and search against the frozenset ones in
    # helpers: same restricted Cnf (==, repr, decoded clauses), same verdict
    # and the same proof, on each CNF and on its restrictions, twice deep
    rng = random.Random(303030)
    seen = {"accepted": 0, "rejected": 0, "cut": 0, "weaken": 0, "empty": 0,
            "tautology": 0, "merged": 0, "twice": 0, "space 3+": 0}
    seen.update({f"s={s}": 0 for s in range(1, 5)})
    for _ in range(800):
        phi, target = random_differential_case(rng)
        instances = [(phi, target)]
        for _ in range(6):
            rho = random_partial(rng, phi.n, rng.choice((0.3, 0.6, 0.9)))
            restricted = restrict_cnf(phi, rho)
            expected = reference_restrict_cnf(phi, rho)
            assert restricted == expected and repr(restricted) == repr(expected)
            assert restricted.clauses == expected.clauses
            seen["merged"] += len(restricted.clauses) < sum(
                restrict_clause(c, rho) is not TAUTOLOGY for c in phi.clauses
            )
            instances.append((restricted, restrict_clause(target, rho)))
            again = random_partial(rng, phi.n, 0.7)
            twice, expected_twice = restrict_cnf(restricted, again), reference_restrict_cnf(expected, again)
            assert repr(twice) == repr(expected_twice) and twice == expected_twice
            seen["twice"] += len(twice.clauses) > 0
        seen["empty"] += BOT in phi.clauses
        seen["tautology"] += TAUTOLOGY in phi.clauses
        for hyps, goal in instances:
            s = rng.randint(1, 4)
            found = search_proof(hyps, s, goal)
            reference = reference_search_space(hyps, s, goal)
            assert (found is None) == (reference is None)
            if reference is None:
                seen["rejected"] += 1
                continue
            assert proof_to_text(found) == proof_to_text(reference)
            assert found == reference
            seen["accepted"] += 1
            seen[f"s={s}"] += 1
            seen["cut"] += isinstance(found, Cut)
            seen["space 3+"] += clause_space(found) >= 3
            seen["weaken"] += isinstance(found, Weaken)
    assert min(seen.values()) >= 100, seen
