"""Restriction closure of every backend, checked through `decide_pac` on one
example (`helpers.decide_one`), the reduction's own per-example loop over the
backend's `restrict_query`/`restrict_hyps`: whatever a backend accepts it
also accepts at every restriction, at the same budget, which is what makes
`decide_pac` sound.  Cutting-planes hypotheses beyond the budget may feed
addition steps, so a restriction that makes one witnessed true must not drop
it.  A restricted instance also passes the budget check its unrestricted
instance passed, which is why the CLI checks the budget only once per run.
For cp, pc and pcr, closure's consequence behind `decide_pac`'s accept keys
is checked over every example of small instances: an accept settles every
example that extends it on its proof's support.  So is what that rests on,
that adding a hypothesis never turns an accept into a reject, and, for all
five systems, the reject-side twin behind the countermodel cache: a
countermodel's support settles every example consistent with it there."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

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
from pacreason.resolution import TAUTOLOGY, Cnf, check_space_bound, encode_clause, negation

from helpers import (
    CountingBackend,
    assignment_of,
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


def random_support_instance(system, rng):
    """(backend, query, hyps, n) of an instance over n 2..4 variables (2..3
    for pcr and res-k-width), drawn as the closure tests above draw them."""
    if system == "res-space":
        n, s, query, hyps, _ = random_space_instance(rng)
        return SpaceResolutionBackend(s, n), query, hyps, n
    if system == "res-k-width":
        n, k, w, query, hyps, _ = random_resk_instance(rng)
        return ResKWidthBackend(k, w, n), query, hyps, n
    if system == "cp":
        n, w, L = rng.randint(2, 4), rng.randint(1, 2), rng.randint(2, 3)
        hyps = tuple(random_kb_ineq(rng, n) for _ in range(rng.randint(1, 3)))
        return CuttingPlanesBackend(w, L, n), random_target(rng, n, w, L), hyps, n
    while True:
        mode, n, d, polys, poly_query = random_pc_instance(rng)
        if mode == system and n >= 2:
            return (*pc_instance(d, n, mode, poly_query, polys), n)


def every_example(n):
    """The true-literal masks of all 3^n partial assignments over x1..xn."""
    choices = ((0, 1 << 2 * v, 2 << 2 * v) for v in range(1, n + 1))
    return [sum(bits) for bits in product(*choices)]


def assert_supports_settle_extensions(backend, query, hyps, n, seen):
    """The lemma behind decide_pac's accept keys, over every example: when
    decide accepts the instance that rho restricts, every sigma that sets
    what rho sets on the proof's support is accepted, by its query or by
    decide.  Counts into `seen`."""
    examples = every_example(n)
    settled = {rho for rho in examples if backend.restrict_query(query, rho) is TRUE}
    found = {
        rho: rho in settled or backend.decide(
            backend.restrict_query(query, rho), backend.restrict_hyps(hyps, rho)
        )
        for rho in examples
    }
    every = (1 << 2 * n + 2) - 4
    for rho in examples:
        if rho in settled or not found[rho]:
            continue
        support = backend.support(query, hyps, found[rho], rho)
        assert not support & ~every and support == negation(n)(support), support  # both literals
        key = rho & support
        for sigma in examples:
            if sigma & key == key:
                assert found[sigma], (query, hyps, assignment_of(rho, n), assignment_of(sigma, n))
                seen["extensions"] += sigma != rho
                seen["off the support"] += bool((sigma ^ rho) & ~support)
        seen["searched accepts"] += 1
        seen["supports short of every variable"] += support != every


def assert_countermodel_supports_reject(backend, query, hyps, n, seen):
    """The lemma behind decide_pac's countermodel cache, over every example:
    when decide rejects the instance that rho restricts and the search
    caches a countermodel x of it, every sigma consistent with x on its
    `countermodel_support` (`not sigma & negation(x & support)`) leaves the
    query unsettled and is rejected by decide.  Counts into `seen`."""
    examples = every_example(n)
    settled = {rho for rho in examples if backend.restrict_query(query, rho) is TRUE}
    found = {
        rho: rho in settled or bool(backend.decide(
            backend.restrict_query(query, rho), backend.restrict_hyps(hyps, rho)
        ))
        for rho in examples
    }
    negate, every = negation(n), (1 << 2 * n + 2) - 4
    for rho in examples:
        if found[rho]:
            continue
        counting = CountingBackend(backend)
        assert not decide_one(counting, query, hyps, rho)
        ((_, _, _, x),) = counting.searched  # the countermodel that decide_pac caches
        if x is None:
            continue
        support = backend.countermodel_support(query, hyps, x)
        assert not support & ~every and support == negate(support), support  # both literals
        false = negate(x & support)
        for sigma in examples:
            if not sigma & false:
                assert sigma not in settled and not found[sigma], (
                    query, hyps, assignment_of(x, n), assignment_of(sigma, n),
                )
                seen["off the full countermodel"] += bool(sigma & negate(x))
        seen["searched rejects with a countermodel"] += 1
        seen["supports short of every variable"] += support != every


@pytest.mark.parametrize("system", ["res-space", "res-k-width", PC, PCR, "cp"])
def test_a_countermodel_rejects_every_example_consistent_with_its_support(system):
    # exhaustively over all 3^n examples of seeded instances: res-space's
    # support (the query's variables and one true literal's variable per
    # clause that none chosen before makes true) and RES(k)'s (one true
    # term's variables per k-DNF and negated-query k-DNF that none chosen
    # before makes true) settle examples that disagree with the full
    # countermodel elsewhere; pc, pcr and cp keep every variable
    rng = random.Random(f"countermodel lemma:{system}")
    seen = Counter()
    for _ in range(200):
        backend, query, hyps, n = random_support_instance(system, rng)
        assert_countermodel_supports_reject(backend, query, hyps, n, seen)
    names = ("searched rejects with a countermodel", "supports short of every variable",
             "off the full countermodel")
    floors = {
        "res-space": (1800, 1700, 30000),
        "res-k-width": (850, 380, 1700),
        PC: (580, 0, 0),
        PCR: (170, 0, 0),
        "cp": (2800, 0, 0),
    }[system]
    assert all(seen[name] >= floor for name, floor in zip(names, floors)), seen
    if system in (PC, PCR, "cp"):
        assert seen["supports short of every variable"] == 0, seen


@pytest.mark.parametrize("system", [PC, PCR, "cp"])
def test_an_accept_settles_every_extension_on_its_support(system):
    # exhaustively over all 3^n examples of seeded instances: the support of
    # a pc or pcr proof (the query's variables and those of the hypotheses
    # in its mask) or of a cp trace (and those of its hypothesis steps)
    # settles every example that extends the accepted one on it
    rng = random.Random(f"support lemma:{system}")
    seen = Counter()
    for _ in range(200):
        backend, query, hyps, n = random_support_instance(system, rng)
        assert_supports_settle_extensions(backend, query, hyps, n, seen)
    names = ("extensions", "off the support", "searched accepts",
             "supports short of every variable")
    floors = {
        PC: (95000, 78000, 5600, 3900),
        PCR: (16000, 11000, 2400, 1300),
        "cp": (34000, 32000, 2300, 1800),
    }[system]
    assert all(seen[name] >= floor for name, floor in zip(names, floors)), seen


@pytest.mark.parametrize("system", ["res-space", "res-k-width", PC, PCR, "cp"])
def test_adding_a_hypothesis_never_turns_an_accept_into_a_reject(system):
    # the supports rest on it: an instance restricted by an accepted
    # example's projection onto a support holds the hypotheses its proof
    # used and more.  So does RES(k)'s restriction, which keeps a tautology
    # such as x | -x that random_resk_instance adds half the time.  On
    # seeded instances, unrestricted and under a few examples, dropping any
    # one hypothesis never turns a reject into an accept
    rng = random.Random(f"monotone:{system}")
    seen = Counter()
    for _ in range(300):
        backend, query, hyps, n = random_support_instance(system, rng)
        if len(hyps) < 2:
            continue
        for rho in [0, *rng.sample(every_example(n), 4)]:
            restricted = plain_restricted_query(backend, query, rho)
            kb = backend.restrict_hyps(hyps, rho)
            accepted = bool(backend.decide(restricted, kb))
            for i in range(len(kb)):
                if backend.decide(restricted, kb[:i] + kb[i + 1:]):
                    assert accepted, (query, hyps, assignment_of(rho, n), i)
                    seen["accepted without one hypothesis"] += 1
                elif accepted:
                    seen["accepted only with it"] += 1
    without, only_with = {
        "res-space": (1080, 330), "res-k-width": (820, 330),
        PC: (1800, 340), PCR: (2600, 450), "cp": (700, 290),
    }[system]
    assert seen["accepted without one hypothesis"] >= without, seen
    assert seen["accepted only with it"] >= only_with, seen


def test_a_pcr_accept_from_complementarity_rows_alone_has_an_empty_mask():
    # x1 + ~x1 - 1 is a complementarity row, derived from no hypothesis:
    # the proof is the one-tuple of the empty mask, still truthy, and the
    # support is x1's literals; every example that leaves x1 masked is then
    # accepted after one search
    def p(*terms):
        return Polynomial([(frozenset(m), c) for c, m in terms])

    x1, nx1, x2 = Indet(1), Indet(1, dual=True), Indet(2)
    query, hyps = p((1, [x1]), (1, [nx1]), (-1, [])), [p((1, [x2]))]
    backend, query, hyps = pc_instance(1, 2, PCR, query, hyps)
    proof = backend.decide(query, hyps)
    assert proof == (0,) and proof
    assert backend.support(query, hyps, proof, example("**")) == 0b1100
    counting = CountingBackend(backend)
    examples = list(map(example, ("**", "*1", "*0", "**", "*1")))
    params = PacParams(Fraction(1, 5), Fraction(1, 10), Fraction(1, 10))
    assert decide_pac(counting, query, hyps, params, examples).per_example == (True,) * 5
    assert counting.calls["decide"] == 1
    seen = Counter()
    assert_supports_settle_extensions(backend, query, hyps, 2, seen)
    assert seen["searched accepts"] == 3


def test_cp_support_names_the_first_of_two_coinciding_residuals():
    # under x2 = x3 = 0 both hypotheses restrict to x1 >= 1, the query; the
    # trace's hypothesis step names index 0, the first, so the support is
    # x1 and x2, and an example that also sets x3 = 1, which makes the
    # second hypothesis witnessed true, is accepted without a search
    hyps = (LinIneq({1: 1, 2: 1}, 1), LinIneq({1: 1, 3: 1}, 1))
    query = LinIneq({1: 1}, 1)
    backend = CuttingPlanesBackend(w=1, L=2, n=3)
    rho = example("*00")
    proof = backend.decide(backend.restrict_query(query, rho), backend.restrict_hyps(hyps, rho))
    assert [step.premises for step in proof if step.rule == "HypothesisStep"] == [(0,)]
    assert backend.support(query, hyps, proof, rho) == 0b111100
    counting = CountingBackend(backend)
    params = PacParams(Fraction(1, 5), Fraction(1, 10), Fraction(1, 10))
    examples = [rho, example("*01"), example("*00")]
    assert decide_pac(counting, query, hyps, params, examples).per_example == (True,) * 3
    assert counting.calls["decide"] == 1
    assert_supports_settle_extensions(backend, query, hyps, 3, Counter())


def test_cp_support_names_an_over_budget_hypothesis():
    # the accepting trace adds H3 (sparsity 3, l1-norm 5), an input outside
    # the w=2, L=3 table: its hypothesis step still names index 2, so the
    # support holds all three variables
    hyps = (
        LinIneq({1: -2, 2: -1, 3: 1}, 3),
        LinIneq({2: 3}, 3),
        LinIneq({1: 2, 2: 1, 3: -2}, -2),
    )
    query = LinIneq({1: -3}, 0)
    backend = CuttingPlanesBackend(w=2, L=3, n=3)
    proof = backend.decide(query, hyps)
    assert 2 in {step.premises[-1] for step in proof if step.rule == "HypothesisStep"}
    assert hyps[2].sparsity > backend.w
    assert backend.support(query, hyps, proof, 0) == 0b11111100
    seen = Counter()
    assert_supports_settle_extensions(backend, query, hyps, 3, seen)
    assert seen["searched accepts"] >= 1
