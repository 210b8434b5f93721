import itertools
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

import pytest

from pacreason import resolution
from pacreason.backends import SpaceResolutionBackend
from pacreason.decide_pac import PacParams, decide_pac_from_distribution
from pacreason.errors import InputError
from pacreason.formulas import TRUE, PartialAssignment
from pacreason.oracle import sat_solve
from pacreason.polycalc import Polynomial, restrict_rows, row
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
    countermodel,
    decode_clause,
    encode_clause,
    make_clause,
    negation,
    proof_to_text,
    proof_tree,
    restrict_cnf,
    restrict_mask,
    restrict_term,
    search_space,
)
from pacreason.sampling import ExplicitDistribution, IndependentMask, draw_masked_examples

from helpers import (
    assignment_of,
    decoded,
    example,
    false_mask,
    proof_size,
    random_clause,
    random_cnf,
    random_partial,
    reference_restrict_cnf,
    reference_restrict_kdnf,
    reference_restricted_row,
    reference_search_space,
    restrict_clause,
    restrict_kb,
    restrict_proof,
    space_bound_for_size,
)
from rk_oracle import derives_in_space


def search_proof(phi, s, target):
    """search_space's proof from the masks of phi as Leaf / Weaken / Cut
    nodes, or None."""
    return proof_tree(search_space(phi.masks, s, encode_clause(target)))


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


def test_check_proof_refuses_a_tautology_premise_of_a_cut():
    phi = Cnf([cl(1), cl(-1)], 1)
    for cut in (Cut(1, Leaf(TAUTOLOGY), Leaf(cl(-1)), BOT), Cut(1, Leaf(cl(1)), Leaf(TAUTOLOGY), BOT)):
        assert not check_proof(cut, phi, BOT)


def test_check_proof_takes_a_tautological_resolvent_only_as_the_tautology():
    phi = Cnf([cl(1, 2), cl(-1, -2)], 2)
    leaves = Leaf(cl(1, 2)), Leaf(cl(-1, -2))
    assert check_proof(Cut(1, *leaves, TAUTOLOGY), phi, TAUTOLOGY)
    for clause in (frozenset({2, -2}), cl(2), BOT):
        assert not check_proof(Cut(1, *leaves, clause), phi, clause)


def test_check_proof_refuses_a_node_of_another_kind():
    # the node carries a clause, so only its kind is wrong
    phi = Cnf([cl(1)], 2)
    impostor = SimpleNamespace(clause=cl(1))
    assert not check_proof(impostor, phi, cl(1))
    assert not check_proof(Weaken(cl(1, 2), impostor), phi, cl(1, 2))


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
    assert search_space(phi.masks, 1, encode_clause(BOT)) is None


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
    rho, false = example("*1*"), false_mask("*1*")
    assert decode_clause(restrict_mask(encode_clause(cl(1, -2, 3)), rho, false)) == cl(1, 3)
    assert restrict_mask(encode_clause(cl(1, -2, 3)), example("*0*"), false_mask("*0*")) is TAUTOLOGY
    assert restrict_mask(TAUTOLOGY, rho, false) is TAUTOLOGY


def test_restrict_mask_matches_the_frozenset_restriction():
    # the query restriction of res-space, on literal masks, against the
    # frozenset one in helpers: the same clause, and the one TAUTOLOGY
    rng = random.Random(4242)
    seen = Counter()
    for _ in range(2000):
        n = rng.randint(1, 6)
        clause = rng.choice((TAUTOLOGY, BOT, random_clause(rng, n), random_clause(rng, n)))
        rho = random_partial(rng, n + rng.choice((0, 0, 1)), rng.choice((0.2, 0.5, 0.8)))
        got = restrict_mask(encode_clause(clause), example(rho), false_mask(rho))
        want = restrict_clause(clause, rho)
        assert (got is TAUTOLOGY) == (want is TAUTOLOGY), (clause, rho)
        assert decode_clause(got) == want, (clause, rho)
        seen["true" if want is TAUTOLOGY else "kept"] += 1
        seen["shortened"] += want is not TAUTOLOGY and want != clause
    assert min(seen.values()) >= 100, seen


def test_restrict_term():
    rho = example("*1*0")
    assert restrict_term(frozenset({1, 2, -4}), rho) == [1]
    assert restrict_term(frozenset({2, -4}), rho) == []
    assert restrict_term(frozenset({1, 4}), rho) is None
    assert restrict_term(frozenset(), rho) == []


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
    # restrict_kdnf restricts a term through restrict_term, and
    # restrict_rows a monomial (a conjunction of literals, a dual -v) with
    # the same two mask tests; each must match its per-literal loop through
    # rho.value (in value and repr, or as the canonical row), over duals,
    # monomials holding x and its dual, and coefficients that cancel when
    # restricted monomials merge
    rng = random.Random(1919)
    seen = Counter()
    for _ in range(2000):
        n = rng.randint(1, 5)
        rho = random_partial(rng, n, 0.4)
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
        restricted_phi = restrict_kdnf(phi, example(rho))
        (restricted_p,) = restrict_rows((row(p, n),), example(rho), n)
        for got, want in (
            (restricted_phi, reference_restrict_kdnf(phi, rho)),
            (restricted_p, reference_restricted_row(p, rho, n)),
        ):
            assert got == want and repr(got) == repr(want), (phi, p, rho)
        seen["true"] += restricted_phi is TRUE
        seen["dual"] += p.has_duals()
        seen["pair"] += any(-lit in m for m in p.terms for lit in m)
        seen["cancel"] += _cancels(p, rho)
    assert min(seen.values()) >= 100, seen


def test_restrict_proof_assigned_pivot_becomes_weakening():
    phi = Cnf([cl(1), cl(-1)], 1)
    rho = PartialAssignment.from_string("1")
    projected = restrict_proof(one_cut_refutation(), rho)
    assert projected.clause == BOT
    assert check_proof(projected, restrict_kb(phi, rho), BOT)
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
            assert check_proof(projected, restrict_kb(phi, rho), restrict_clause(BOT, rho))
            assert clause_space(projected) <= clause_space(proof)
            assert proof_size(projected) <= proof_size(proof)
            again = search_proof(restrict_kb(phi, rho), s, BOT)
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
        if search_space(phi.masks, s, encode_clause(target)) is None:
            continue
        closed += 1
        for _ in range(8):
            rho = random_partial(rng, n)
            restricted_target = restrict_clause(target, rho)
            goal = encode_clause(restricted_target)
            assert search_space(restrict_kb(phi, rho).masks, s, goal) is not None


def test_an_accept_settles_every_extension_on_its_support():
    # the lemma behind decide_pac's support cache, over all 3^n partial
    # assignments of seeded CNFs: when search_space accepts the instance
    # restricted by rho, it accepts the instance restricted by every sigma
    # that sets what rho sets on the support, the variables of the query and
    # of the original clauses behind the proof's leaves
    rng = random.Random(919191)
    seen = Counter()
    for _ in range(120):
        n, s = rng.randint(2, 5), rng.randint(1, 3)
        kb = random_cnf(rng, n).masks
        query = encode_clause(random_clause(rng, n, max_width=2))
        backend = SpaceResolutionBackend(s, n)
        negate = negation(n)
        rhos = [sum(bits) for bits in itertools.product(*((0, 1 << 2 * v, 2 << 2 * v)
                                                          for v in range(1, n + 1)))]
        found = {
            rho: search_space(restrict_cnf(kb, rho, negate(rho)), s,
                              restrict_mask(query, rho, negate(rho)))
            for rho in rhos
        }
        for rho, proof in found.items():
            if proof is None or proof[0] is TAUTOLOGY:  # rho satisfies the query: no search
                continue
            support = backend.support(query, kb, proof, rho)
            key = rho & support
            for sigma in rhos:
                if sigma & key == key:
                    assert found[sigma] is not None, (
                        kb, query, s, assignment_of(rho, n), assignment_of(sigma, n),
                    )
                    seen["extensions"] += sigma != rho
                    seen["off the support"] += bool((sigma ^ rho) & ~support)
            seen["searched accepts"] += 1
    floors = {"extensions": 120000, "off the support": 120000, "searched accepts": 2500}
    assert all(seen[name] >= floor for name, floor in floors.items()), seen


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
        SpaceResolutionBackend(s=s, n=n), encode_clause(query), kb.masks, params, dist, mask,
        seed=9, m=300,
    )
    expected = tuple(
        all_variables_search(restrict_kb(kb, rho), s, restrict_clause(query, rho)) is not None
        for rho in (assignment_of(true, n) for true in draw_masked_examples(dist, mask, 300, 9))
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
    """A rho over x1..xn of one of three kinds."""
    kind = rng.choice(("masked", "set", "mixed"))
    mask_prob = {"masked": 1.0, "set": 0.0, "mixed": 0.5}[kind]
    return random_partial(rng, n, mask_prob), kind


def test_restrict_cnf_matches_clause_by_clause_restriction():
    # each CNF's masks are restricted under one to four rho in turn
    rng = random.Random(929292)
    seen = {"masked": 0, "set": 0, "mixed": 0, "tautology": 0, "merged": 0, "empty": 0,
            "wide": 0, "reused": 0}
    for _ in range(2000):
        phi = random_restriction_case(rng)
        fresh = Cnf(phi.clauses, phi.n)
        masks = phi.masks
        for count in range(rng.randint(1, 4)):
            rho, kind = random_restriction(rng, phi.n)
            restricted = restrict_cnf(masks, example(rho), false_mask(rho))
            result, expected = decoded(restricted, phi.n), reference_restrict_cnf(phi, rho)
            assert type(restricted) is tuple and restricted == expected.masks
            assert result == expected  # same n, same clauses in the same order
            assert repr(result) == repr(expected)
            seen[kind] += 1
            seen["reused"] += count > 0
            kept = [restrict_clause(c, rho) for c in phi.clauses]
            kept = [r for r in kept if r is not TAUTOLOGY]
            seen["merged"] += len(set(kept)) < len(kept)  # dedup keeps the first
            seen["empty"] += frozenset() in kept
        seen["tautology"] += TAUTOLOGY in phi.clauses
        seen["wide"] += phi.n > 64 and len(phi.clauses) > 64
        # a Cnf rebuilt from its own clauses is the same value
        assert phi == fresh and fresh == phi and repr(phi) == repr(fresh)
        assert hash(phi) == hash(fresh)
    assert min(seen.values()) >= 100, seen


def test_backend_restricts_each_kb_it_is_given():
    # one backend restricts two KBs of the same length and n in turn, A, B,
    # then A again; each restriction must be of the hyps tuple it is given,
    # whatever was restricted before.  Equal restrictions are equal tuples
    # with equal hashes, so a restricted instance can key a memo
    n = 3
    kbs = [Cnf([cl(1, 2), cl(-1, 3), cl(-2, -3)], n), Cnf([cl(-1, 2), cl(1, -3), cl(2, 3)], n)]
    masks = [phi.masks for phi in kbs]
    backend = SpaceResolutionBackend(s=2, n=n)
    rhos = [PartialAssignment(x) for x in itertools.product((0, 1, None), repeat=n)]
    seen = Counter()
    for which in (0, 1, 0):
        phi, hyps = kbs[which], masks[which]
        by_reference = {}
        for rho in rhos:
            restricted = backend.restrict_hyps(hyps, example(rho))
            expected = reference_restrict_cnf(phi, rho)
            assert type(restricted) is tuple and decoded(restricted, n) == expected, (which, rho)
            first = by_reference.setdefault(expected, restricted)
            assert first == restricted and hash(first) == hash(restricted)
            seen["same restriction again"] += first is not restricted
        seen["differs from the other kb"] += sum(
            decoded(backend.restrict_hyps(masks[1 - which], example(rho)), n)
            != reference_restrict_cnf(phi, rho)
            for rho in rhos
        )
    assert min(seen.values()) >= 20, seen


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
            restricted = restrict_kb(phi, rho)
            expected = reference_restrict_cnf(phi, rho)
            assert restricted == expected and repr(restricted) == repr(expected)
            assert restricted.clauses == expected.clauses
            seen["merged"] += len(restricted.clauses) < sum(
                restrict_clause(c, rho) is not TAUTOLOGY for c in phi.clauses
            )
            instances.append((restricted, restrict_clause(target, rho)))
            again = random_partial(rng, phi.n, 0.7)
            twice, expected_twice = restrict_kb(restricted, again), reference_restrict_cnf(expected, again)
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


def random_literals(rng, n, count):
    return make_clause(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), count))


def random_pass_case(rng):
    """A CNF of 2-8 clauses over 3-6 variables and a goal of 0-2 literals,
    the empty clause a third of the time.  About two thirds of the pairs
    have a model of CNF and negated goal."""
    n = rng.randint(3, 6)
    phi = Cnf([random_clause(rng, n) for _ in range(rng.randint(2, 8))], n)
    return phi, random_literals(rng, n, rng.choice((0, 1, 2)))


def test_countermodel_pass_settles_only_rejects():
    # search_space tries the one-pass countermodel before it branches; the
    # frozenset reference search has no such pass, and the two must agree
    # at s = 2..4 on the verdict and the proof text.  Every assignment the
    # pass returns must satisfy each input and falsify the goal
    rng = random.Random(616161)
    seen = Counter()
    for _ in range(1500):
        phi, target = random_pass_case(rng)
        model = countermodel(phi.masks, encode_clause(target))
        if model is not None:
            rho = assignment_of(model, phi.n)
            assert all(restrict_clause(c, rho) is TAUTOLOGY for c in phi.clauses), (phi, rho)
            assert restrict_clause(target, rho) == BOT, (target, rho)
            seen["settled"] += 1
            seen["settled, empty goal"] += not target
        for s in (2, 3, 4):
            found = search_proof(phi, s, target)
            reference = reference_search_space(phi, s, target)
            assert (found is None) == (reference is None), (phi, target, s)
            if reference is None:
                seen["rejected, pass stuck"] += model is None
            else:
                assert proof_to_text(found) == proof_to_text(reference)
                seen["accepted"] += 1
    assert min(seen.values()) >= 100, seen


def wide_samples_kb() -> Cnf:
    """The KB of the wide-samples benchmark workload, built the same way:
    150 distinct random 3-clauses over x1..x60 that 32 random points all
    satisfy."""
    n, rng = 60, random.Random("wide-samples:kb")
    points = sorted({tuple(rng.getrandbits(1) for _ in range(n)) for _ in range(32)})
    clauses = []
    while len(clauses) < 150:
        c = make_clause(v if rng.getrandbits(1) else -v for v in rng.sample(range(1, n + 1), 3))
        if c not in clauses and all(
            any((x[abs(lit) - 1] == 1) == (lit > 0) for lit in c) for x in points
        ):
            clauses.append(c)
    return Cnf(clauses, n)


def test_countermodel_pass_settles_the_wide_samples_query(monkeypatch):
    # x1|x2 does not follow from the wide-samples KB.  Without its
    # countermodel pass, search_space tries every branch order before it
    # rejects: seconds at s=5 and minutes at s=6.  The spy sees the pass
    # return a model at s=2 already, so a search that lost its pass fails
    # here before the s=6 search starts
    kb, goal = wide_samples_kb(), encode_clause(make_clause([1, 2]))
    models = []

    def spy(inputs, goal):
        models.append(countermodel(inputs, goal))
        return models[-1]

    monkeypatch.setattr(resolution, "countermodel", spy)
    for s in (2, 6):
        models.clear()
        assert search_space(kb.masks, s, goal) is None
        assert len(models) == 1 and models[0] is not None, s
    model = models[0]
    assert not goal & model and all(bits & model for bits in kb.masks)


def test_countermodel_skips_satisfied_inputs():
    # x2 satisfies x1|x2, so the pass leaves x1 free and -x1 can be made true
    inputs = tuple(encode_clause(c) for c in (cl(2), cl(1, 2), cl(-1)))
    assert countermodel(inputs, encode_clause(BOT)) == encode_clause(cl(2, -1))
    # the negated goal makes x1 false, and x1|x2 then makes x2 true
    assert countermodel(inputs[1:2], encode_clause(cl(1))) == encode_clause(cl(-1, 2))
    # every literal of -x1|x2 is false once x1 is true and x2 false
    assert countermodel((encode_clause(cl(1)), encode_clause(cl(-1, 2))), encode_clause(cl(2))) is None


def random_space_case(rng):
    """A CNF and a goal of 0-2 literals.  Half the CNFs are random clauses
    over 3-7 variables; the other half hold most full-width clauses over 3
    or 4 of their variables, whose refutations need space 4 or 5, with a
    few random clauses among them."""
    n = rng.randint(3, 7)
    if rng.random() < 0.5:
        clauses = [random_clause(rng, n) for _ in range(rng.randint(2, 12))]
    else:
        pool = rng.sample(range(1, n + 1), rng.randint(3, min(n, 4)))
        clauses = [
            make_clause(v * sign for v, sign in zip(pool, signs))
            for signs in itertools.product((1, -1), repeat=len(pool))
            if rng.random() < 0.9
        ]
        clauses += [random_clause(rng, n) for _ in range(rng.randint(0, 4))]
        rng.shuffle(clauses)
    return Cnf(clauses, n), random_literals(rng, n, rng.randint(0, 2))


def test_search_space_matches_generalized_unit_propagation():
    # the second characterization of tests/rk_oracle.py: search_space(F, s,
    # C) accepts exactly when r_(s-1) refutes F under the assignment that
    # falsifies C.  Goals that need exactly space 2, 3 and 4 are all met,
    # so a search at space s - 1 disagrees
    rng = random.Random(727272)
    seen = Counter()
    for _ in range(1500):
        phi, target = random_space_case(rng)
        s = rng.randint(1, 5)
        accepted = derives_in_space(phi.clauses, s, target)
        assert (search_space(phi.masks, s, encode_clause(target)) is not None) == accepted
        seen["accepted" if accepted else "rejected"] += 1
        if accepted and s > 1 and not derives_in_space(phi.clauses, s - 1, target):
            seen[f"exactly s={s}"] += 1
    assert min(seen[key] for key in ("accepted", "rejected", "exactly s=2", "exactly s=3",
                                     "exactly s=4")) >= 20, seen


def test_decide_pac_stream_matches_generalized_unit_propagation():
    # every example of one seeded stream: decide_pac's verdict is r_(s-1)
    # on the restricted KB under the assignment that falsifies the
    # restricted query, and a settled query is accepted.  The four clauses
    # x1|x2|x5|(+-x3)|(+-x4) prove the query at space 3 when x5 is revealed
    # false and x3, x4 are masked, so a search at space 2 disagrees
    rng = random.Random(838383)
    n, s = 8, 3
    gadget = [cl(1, 2, 5, a, b) for a in (3, -3) for b in (4, -4)]
    others = [
        make_clause(v if rng.random() < 0.5 else -v for v in rng.sample(range(3, n + 1), 3))
        for _ in range(4)
    ]
    kb = Cnf(gadget + others, n)
    models = [
        x
        for x in itertools.product((0, 1), repeat=n)
        if all(any((x[abs(lit) - 1] == 1) == (lit > 0) for lit in c) for c in kb.clauses)
    ]
    dist = ExplicitDistribution(n, [(x, Fraction(1, 16)) for x in rng.sample(models, 16)])
    mask = IndependentMask(Fraction(1, 2))
    query = cl(1, 2)
    params = PacParams(Fraction(1, 5), Fraction(1, 10), Fraction(1, 20))
    outcome = decide_pac_from_distribution(
        SpaceResolutionBackend(s=s, n=n), encode_clause(query), kb.masks, params, dist, mask,
        seed=11, m=400,
    )
    seen = Counter()
    for true, verdict in zip(draw_masked_examples(dist, mask, 400, 11), outcome.per_example):
        rho = assignment_of(true, n)
        hyps, goal = restrict_kb(kb, rho).clauses, restrict_clause(query, rho)
        assert verdict == derives_in_space(hyps, s, goal), rho
        seen["settled" if goal is TAUTOLOGY else "accepted" if verdict else "rejected"] += 1
        seen["exactly s=3"] += verdict and not derives_in_space(hyps, s - 1, goal)
    assert min(seen.values()) >= 5, seen
