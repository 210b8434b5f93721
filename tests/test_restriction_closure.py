"""Restriction closure of every backend, checked through `decide_pac` on one
example (`helpers.decide_one`), the reduction's own per-example loop over the
backend's `restrict_query`/`restrict_hyps`: whatever a backend accepts it
also accepts at every restriction, at the same budget, which is what makes
`decide_pac` sound.  Cutting-planes hypotheses beyond the budget may feed
addition steps, so a restriction that makes one witnessed true must not drop
it.  A restricted instance also passes the budget check its unrestricted
instance passed, which is why the CLI checks the budget only once per run."""

import random
from collections import Counter
from fractions import Fraction

from pacreason.backends import (
    CuttingPlanesBackend,
    ResKWidthBackend,
    SpaceResolutionBackend,
)
from pacreason.cutting_planes import LinIneq, always_witnessed_true
from pacreason.decide_pac import ACCEPT, PacParams, decide_pac
from pacreason.formulas import PartialAssignment, TRUE
from pacreason.polycalc import PC, PCR, Indet, Polynomial, encode_clause_pcr
from pacreason.res_k import BOTTOM, KDnf, check_budget, negate_query
from pacreason.resolution import TAUTOLOGY, Cnf, check_space_bound, encode_clause

from helpers import (
    decide_one,
    example,
    mul_indet,
    pc_instance,
    plain_restricted_query,
    random_clause,
)
from test_res_k import random_kdnf
from test_polycalc import random_polynomial, with_rational_coefficients

COEFFS = (-3, -2, -1, 1, 2, 3)


def random_kb_ineq(rng, n):
    """Coefficients up to 3 in magnitude on 1..n variables; a third of them
    witnessed true under full masking, most of those tightly, and many
    beyond the budget."""
    vars_ = rng.sample(range(1, n + 1), rng.randint(1, n))
    coeffs = {v: rng.choice(COEFFS) for v in vars_}
    if rng.random() < 1 / 3:
        return LinIneq(coeffs, sum(min(0, c) for c in coeffs.values()) - rng.choice((0, 0, 1)))
    return LinIneq(coeffs, rng.randint(-3, 3))


def random_target(rng, n, w, L):
    """An in-budget inequality that is not witnessed true unrestricted."""
    while True:
        vars_ = rng.sample(range(1, n + 1), rng.randint(0, min(w, n)))
        target = LinIneq({v: rng.choice(COEFFS) for v in vars_}, rng.randint(-L, L))
        if target.l1_norm <= L and not always_witnessed_true(target):
            return target


def random_partial(rng, n):
    return PartialAssignment(rng.choice((None, None, 0, 1)) for _ in range(n))


def refine(rng, rho):
    """Sets some of rho's masked variables; keeps every set one."""
    return PartialAssignment(
        rng.randint(0, 1) if v is None and rng.random() < 0.5 else v for v in rho
    )


def test_cp_accepts_every_restriction_of_what_it_accepts():
    rng = random.Random(8001)
    kinds = Counter()
    for _ in range(2000):
        n = rng.randint(2, 4)
        w, L = rng.randint(1, 2), rng.randint(2, 3)
        hyps = tuple(random_kb_ineq(rng, n) for _ in range(rng.randint(1, 3)))
        query = random_target(rng, n, w, L)
        backend = CuttingPlanesBackend(w, L, n)
        if backend.decide(query, hyps):
            kinds["accepted"] += 1
            kinds["accepted, witnessed-true hypothesis"] += any(
                always_witnessed_true(h) for h in hyps
            )
            kinds["accepted, over-budget hypothesis"] += any(
                h.sparsity > w or h.l1_norm > L for h in hyps
            )
            assert decide_one(backend, query, hyps, example("*" * n))
        rho = random_partial(rng, n)
        if decide_one(backend, query, hyps, example(rho)):
            kinds["accepted at rho"] += 1
            sigma = refine(rng, rho)
            assert decide_one(backend, query, hyps, example(sigma)), (hyps, query, rho, sigma)
    assert min(kinds.values()) >= 100, kinds


def test_cp_keeps_an_over_budget_hypothesis_that_restriction_makes_true():
    # the accepting trace adds H3 (sparsity 3, l1-norm 5), which holds at
    # every point and is witnessed true once every variable is masked
    hyps = (
        LinIneq({1: -2, 2: -1, 3: 1}, 3),
        LinIneq({2: 3}, 3),
        LinIneq({1: 2, 2: 1, 3: -2}, -2),
    )
    query = LinIneq({1: -3}, 0)
    backend = CuttingPlanesBackend(w=2, L=3, n=3)
    assert backend.decide(query, hyps)
    params = PacParams(Fraction(1, 5), Fraction(1, 10), Fraction(1, 10))
    outcome = decide_pac(backend, query, hyps, params, [example("***")] * 10)
    assert (outcome.verdict, outcome.failed_count) == (ACCEPT, 0)


def random_pc_instance(rng):
    """A pc or pcr instance over n <= 4 variables at d in 1..3 with
    non-integer coefficients (duals and encoded clauses in pcr).  Half the
    queries are derivable: a rational combination of hypotheses, each
    multiplied by an indeterminate when its degree allows."""
    mode = PC if rng.random() < 0.5 else PCR
    n = rng.randint(1, 4 if mode == PC else 3)
    d = rng.randint(1, 3)
    hyps = [
        with_rational_coefficients(rng, random_polynomial(rng, n, d, mode))
        for _ in range(rng.randint(1, 3))
    ]
    if mode == PCR and rng.random() < 0.5:
        clause = random_clause(rng, n, max_width=d)
        if clause is not TAUTOLOGY:
            hyps.append(encode_clause_pcr(clause))
    if rng.random() < 0.5:
        return mode, n, d, hyps, with_rational_coefficients(rng, random_polynomial(rng, n, d, mode))
    q = Polynomial()
    for h in rng.sample(hyps, rng.randint(1, len(hyps))):
        if h.degree < d and rng.random() < 0.7:
            h = mul_indet(h, Indet(rng.randint(1, n), dual=mode == PCR and rng.random() < 0.4))
        c = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
        q = Polynomial(list(q.terms.items()) + [(m, c * a) for m, a in h.terms.items()])
    return mode, n, d, hyps, q


def test_pc_and_pcr_accept_every_restriction_of_what_they_accept():
    rng = random.Random(8002)
    kinds = Counter()
    for _ in range(2000):
        mode, n, d, polys, poly_query = random_pc_instance(rng)
        backend, query, hyps = pc_instance(d, n, mode, poly_query, polys)
        kinds["non-integer"] += any(
            c.denominator != 1 for p in polys + [poly_query] for c in p.terms.values()
        )
        if backend.decide(query, hyps):
            kinds[f"accepted {mode}"] += 1
            kinds["accepted with duals"] += any(p.has_duals() for p in polys + [poly_query])
            assert decide_one(backend, query, hyps, example("*" * n))
        rho = random_partial(rng, n)
        if decide_one(backend, query, hyps, example(rho)):
            kinds[f"accepted at rho {mode}"] += 1
            sigma = refine(rng, rho)
            assert decide_one(backend, query, hyps, example(sigma)), (
                mode, d, polys, poly_query, rho, sigma,
            )
    assert min(kinds.values()) >= 100 and len(kinds) == 6, kinds


def assert_closed(rng, backend, query, hyps, n, check, kinds):
    """For a random rho and a random refinement sigma of it: accept
    unrestricted implies accept at the all-masked rho, and accept at rho
    implies accept at sigma; every restricted instance, its query in the
    form the search reads (`plain_restricted_query`, also when the
    restriction settles it), passes `check(query, hyps)`.  Counts the
    accepts in `kinds` and returns the unrestricted verdict."""
    rho = random_partial(rng, n)
    sigma = refine(rng, rho)
    accepts = {}
    for name, at in (("all-masked", PartialAssignment.all_masked(n)), ("rho", rho), ("sigma", sigma)):
        at = example(at)
        check(plain_restricted_query(backend, query, at), backend.restrict_hyps(hyps, at))
        accepts[name] = decide_one(backend, query, hyps, at)
    accepted = bool(backend.decide(query, hyps))
    if accepted:
        kinds["accepted"] += 1
        assert accepts["all-masked"], (query, hyps)
    if accepts["rho"]:
        kinds["accepted at rho"] += 1
        assert accepts["sigma"], (query, hyps, rho, sigma)
    return accepted


def random_space_instance(rng):
    """A clause-space instance over n <= 4 variables: the masks of a KB
    with tautological clauses, which they leave out, and query masks that
    are sometimes empty or the tautology."""
    n = rng.randint(2, 4)
    clauses = [random_clause(rng, n) for _ in range(rng.randint(1, 5))]
    tautological = rng.random() < 0.5
    if tautological:
        clauses.append(TAUTOLOGY)
    query = rng.choice((random_clause(rng, n, max_width=2), frozenset(), TAUTOLOGY))
    return n, rng.randint(1, 3), encode_clause(query), Cnf(clauses, n).masks, tautological


def test_res_space_accepts_every_restriction_of_what_it_accepts():
    rng = random.Random(8003)
    kinds = Counter()
    for _ in range(2000):
        n, s, query, hyps, tautological = random_space_instance(rng)
        backend = SpaceResolutionBackend(s, n)
        accepted = assert_closed(
            rng, backend, query, hyps, n, lambda *_: check_space_bound(s), kinds
        )
        kinds["accepted, tautological hypothesis"] += accepted and tautological
        kinds["accepted at s = 1"] += accepted and s == 1
    assert min(kinds.values()) >= 100, kinds


def random_resk_instance(rng):
    """A RES(k) refutation instance as the CLI builds it: KB k-DNFs, some
    wider than w, half the time a tautological x | -x, and a cnf query
    clause negated into k-DNFs.  n = 3 only below k = w = 2, where the
    search is slowest."""
    k, w = rng.randint(1, 2), rng.randint(1, 2)
    n = rng.randint(2, 2 if k == w == 2 else 3)
    hyps = [random_kdnf(rng, n, k, w + 2) for _ in range(rng.randint(1, 3))]
    tautological = rng.random() < 0.5
    if tautological:
        v = rng.randint(1, n)
        hyps.append(KDnf([(v,), (-v,)]))
    clause = random_clause(rng, n, max_width=k)
    negated = negate_query([clause], k)
    query = () if negated == TRUE else (negated,)
    return n, k, w, query, tuple(hyps), tautological


def test_res_k_width_accepts_every_restriction_of_what_it_accepts():
    rng = random.Random(8004)
    kinds = Counter()
    for _ in range(1000):
        n, k, w, query, hyps, tautological = random_resk_instance(rng)
        backend = ResKWidthBackend(k, w, n)
        check_budget(hyps + query, BOTTOM, k, w)
        accepted = assert_closed(
            rng, backend, query, hyps, n, lambda q, h: check_budget(h + q, BOTTOM, k, w), kinds
        )
        kinds["accepted, over-width hypothesis"] += accepted and any(h.width > w for h in hyps)
        kinds["accepted, tautological hypothesis"] += accepted and tautological
    assert min(kinds.values()) >= 100, kinds
