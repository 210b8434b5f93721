"""The proof systems checked against one another, not each against its own
earlier implementation: a misreading of a rule shared by a kernel and its
reference passes a differential test, but not a known simulation.

Resolution of width w is simulated by PCR at degree about w + 1 (Clegg,
Edmonds and Impagliazzo 1996; Alekhnovich, Ben-Sasson, Razborov and
Wigderson 2002).  Here RES(1), whose lines are clauses, refutes the knowledge
base together with the negated query, and PCR derives the query's
polynomial from the clauses encoded by `encode_clause_pcr`.  Inputs are
exempt from the RES(k) width bound but not from the PCR degree bound, so the
PCR degree is max(w + 1, the largest input degree).  Queries are one
literal, so the CLI's negation of the query is a single term, a 1-DNF.

A refutation of F in clause space s gives one in width at most
s + w(F) - 1, where w(F) is the width of F's widest clause (Atserias and
Dalmau 2008).  Treelike clause space, which `search_space` bounds, is at
least the general clause space, so every refutation that `search_space`
finds at space s must have a RES(1) counterpart within that width.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

from pacreason.backends import ResKWidthBackend
from pacreason.decide_pac import PacParams, decide_pac
from pacreason.formulas import TRUE
from pacreason.polycalc import PCR, encode_clause_pcr
from pacreason.res_k import BOTTOM, KDnf, decide_resk_width, negate_query
from pacreason.resolution import Cnf, make_clause, search_space
from pacreason.sampling import ExplicitDistribution, IndependentMask, draw_masked_examples

from helpers import pc_instance, random_clause


def random_instance(rng):
    """n in 3..5, 2..7 clauses of at most 3 literals and a one-literal query
    clause, in four cases of five a literal that the clauses entail when
    there is one, so that most instances have a refutation to find."""
    n = rng.randint(3, 5)
    clauses = [random_clause(rng, n) for _ in range(rng.randint(2, 7))]
    models = [x for x in product((0, 1), repeat=n) if all(satisfies(x, c) for c in clauses)]
    literals = [s * v for v in range(1, n + 1) for s in (1, -1)]
    entailed = [lit for lit in literals if all(satisfies(x, {lit}) for x in models)]
    if not entailed or rng.random() < 0.2:
        entailed = literals
    return n, clauses, make_clause([rng.choice(entailed)])


def satisfies(x, clause) -> bool:
    return any((x[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)


def backends(n, clauses, query, w):
    """The RES(1) backend at width w and the PCR backend at the degree that
    simulates it, each with its (query, hyps)."""
    resk_hyps = tuple(KDnf([[lit] for lit in c]) for c in clauses)
    resk = (ResKWidthBackend(1, w, n), (negate_query([query], 1),), resk_hyps)
    degree = max(len(c) for c in [*clauses, query])
    pcr_hyps = [encode_clause_pcr(c) for c in clauses]
    pcr = pc_instance(max(w + 1, degree), n, PCR, encode_clause_pcr(query), pcr_hyps)
    return resk, pcr


def accepts(backend, query, hyps) -> bool:
    return bool(backend.decide(query, hyps))


def test_pcr_simulates_width_bounded_resolution():
    # at the least width up to 3 where RES(1) accepts; both systems are
    # monotone in their budget, so the relation then holds at every larger
    # width too
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(250):
        n, clauses, query = random_instance(rng)
        for w in range(4):
            resk, pcr = backends(n, clauses, query, w)
            if accepts(*resk):
                assert accepts(*pcr), (n, clauses, query, w)
                seen[w] += 1
                break
        else:
            seen["rejected"] += 1
    assert seen[1] >= 20 and seen[2] >= 10 and seen["rejected"] >= 20, seen


def test_pcr_simulates_width_bounded_resolution_per_example():
    # the same relation for every example of one seeded stream, through the
    # reduction's own per-example path: restriction, query settling and both
    # kernels together.  Restriction commutes with `encode_clause_pcr`: a
    # satisfied clause becomes the zero polynomial
    rng = random.Random(77)
    params = PacParams(Fraction(1, 5), Fraction(1, 10), Fraction(1, 10))
    seen = Counter()
    for _ in range(12):
        n, clauses, query = random_instance(rng)
        points = {tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(6)}
        dist = ExplicitDistribution.uniform(sorted(points))
        mask = IndependentMask(Fraction(1, 2))
        examples = draw_masked_examples(dist, mask, 60, rng.getrandbits(64))
        for w in (1, 2):
            (resk, *resk_instance), (pcr, *pcr_instance) = backends(n, clauses, query, w)
            by_resk = decide_pac(resk, *resk_instance, params, examples).per_example
            by_pcr = decide_pac(pcr, *pcr_instance, params, examples).per_example
            for rho, resk_ok, pcr_ok in zip(examples, by_resk, by_pcr):
                assert pcr_ok or not resk_ok, (n, clauses, query, w, rho)
                settled = resk.restrict_query(resk_instance[0], rho) is TRUE
                seen["settled" if settled else ("accepted" if resk_ok else "rejected")] += 1
    assert min(seen.values()) >= 20, seen


def random_refutable_cnf(rng) -> Cnf:
    """n in 3..6.  Half the CNFs are 2..9 random clauses of at most 3
    literals; the other half hold most full-width clauses over 2..4 of the
    variables, whose refutations need more space, with a few random clauses
    among them."""
    n = rng.randint(3, 6)
    if rng.random() < 0.5:
        return Cnf([random_clause(rng, n) for _ in range(rng.randint(2, 9))], n)
    pool = rng.sample(range(1, n + 1), rng.randint(2, min(n, 4)))
    clauses = [
        make_clause(v * sign for v, sign in zip(pool, signs))
        for signs in product((1, -1), repeat=len(pool))
        if rng.random() < 0.9
    ]
    clauses += [random_clause(rng, n) for _ in range(rng.randint(0, 3))]
    rng.shuffle(clauses)
    return Cnf(clauses, n)


def test_clause_space_bounds_resolution_width():
    # at the least space up to 5 where search_space refutes F (derives the
    # empty clause, whose literal mask is 0), RES(1) refutes F at width
    # s + w(F) - 1.  RES(1) is monotone in w, so the least width it refutes
    # at is found from below, where runs are cheap, and must be at most that
    # bound
    rng = random.Random(20080101)
    seen = Counter()
    for _ in range(800):
        kb = random_refutable_cnf(rng)
        s = next((s for s in range(1, 6) if search_space(kb.masks, s, 0) is not None), None)
        if s is None:
            seen["not refuted"] += 1
            continue
        bound = s + max(map(len, kb.clauses)) - 1
        hyps = [KDnf([[lit] for lit in c]) for c in kb.clauses]
        refuted = (w for w in range(bound + 1) if decide_resk_width(hyps, BOTTOM, 1, w)[0])
        assert next(refuted, None) is not None, (kb, s)
        seen[s] += 1
    assert min(seen[s] for s in (2, 3, 4)) >= 20 and seen["not refuted"] >= 100, seen
