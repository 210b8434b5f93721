import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from pacreason.backends import (
    SYSTEMS,
    CuttingPlanesBackend,
    PolynomialCalculusBackend,
    ResKWidthBackend,
    SpaceResolutionBackend,
)
from pacreason.cutting_planes import LinIneq, residual_ineq, restrict_ineq
from pacreason.decide_pac import (
    ACCEPT,
    CACHED_MODELS,
    ENUMERATED_FREE,
    REJECT,
    PacParams,
    decide_pac,
    decide_pac_from_distribution,
    failure_budget,
    required_sample_size,
)
from pacreason.errors import InputError
from pacreason.formulas import PartialAssignment, TRUE, Var
from pacreason.polycalc import PC, PCR, Indet, Polynomial, encode_clause_pcr, row
from pacreason.res_k import BOTTOM, KDnf, negate_query
from pacreason.resolution import (
    TAUTOLOGY, Cnf, check_examples, decode_clause, encode_clause, literal_bit, make_clause,
    negation,
)
from pacreason.sampling import (
    ExplicitDistribution,
    FixedMask,
    IndependentMask,
    TableMask,
    draw_masked_examples,
)

from helpers import (
    CountingBackend,
    EntailmentOracleBackend,
    assignment_of,
    completions,
    decode_row,
    example,
    holds_at,
    pc_instance,
    random_clause,
    reference_decide_pac,
)
from test_restriction_closure import (
    every_example,
    random_kb_ineq,
    random_pc_instance,
    random_resk_instance,
    random_space_instance,
    random_target,
)


class ScriptedBackend:
    """Answers each example by a fixed script, for counting tests.

    Example i is `distinct_examples(...)[i]`; `restrict_query` hands the
    example itself to `decide`, which looks its verdict up, so the answer is
    a pure function of the restricted instance, as decide_pac requires.  It
    reads the whole example, so its query scope is every literal bit.
    """

    n = 4

    def __init__(self, script):
        self.verdicts = dict(zip(distinct_examples(len(script)), script))

    def decide(self, query, hyps):
        return self.verdicts[query]

    def query_scope(self, query):
        return (1 << 2 * self.n + 2) - 4

    def restrict_query(self, query, rho):
        return rho

    def restrict_hyps(self, hyps, rho):
        return hyps

    def is_countermodel(self, query, hyps, x):
        return False  # keeps the script the verdict of every example

    def support(self, query, hyps, proof, rho):
        return None  # no accept settles another example


def distinct_examples(count):
    """`count` different full assignments over ScriptedBackend.n variables."""
    n = ScriptedBackend.n
    return [example(PartialAssignment((i >> b) & 1 for b in range(n))) for i in range(count)]


def params(eps="1/10", gamma="1/20", delta="1/20"):
    return PacParams(Fraction(eps), Fraction(gamma), Fraction(delta))


def test_required_sample_size_worked_values():
    assert required_sample_size(Fraction(1, 10), Fraction(1, 100)) == 231
    assert required_sample_size(Fraction(1, 2), 1 / 2.718281828459045) == 2
    assert required_sample_size(Fraction(1, 10), Fraction(1, 2)) == 35


def test_required_sample_size_of_values_too_small_for_a_float():
    # float(1e-400) and float(1e-200) ** 2 are 0.0, and 1 / 5e-324 is inf;
    # the count comes from the exact rationals, and one above sys.maxsize is
    # an input error
    assert required_sample_size(Fraction(1, 2), Fraction(1, 10**400)) == 1843
    assert required_sample_size(Fraction(1, 10), Fraction(1, 10**400)) == 46052
    assert required_sample_size(Fraction(1, 2), 5e-324) == 1489
    with pytest.raises(InputError, match=r"sample size m exceeds .*--m"):
        required_sample_size(Fraction(1, 10**200), Fraction(1, 20))


def test_required_sample_size_validation():
    with pytest.raises(InputError):
        required_sample_size(Fraction(0), Fraction(1, 2))
    with pytest.raises(InputError):
        required_sample_size(Fraction(1, 2), Fraction(2))


def test_failure_budget_exact():
    assert failure_budget(Fraction(1, 10), 10) == 1
    assert failure_budget(Fraction(1, 10), 19) == 1
    assert failure_budget(Fraction(1, 3), 10) == 3


def test_reject_when_failures_exceed_budget():
    backend = ScriptedBackend([True] * 8 + [False] * 2)
    outcome = decide_pac(backend, None, None, params(), distinct_examples(10))
    assert outcome.verdict == REJECT
    assert outcome.failed_count == 2
    assert outcome.budget == 1


def test_accept_with_no_failures():
    backend = ScriptedBackend([True] * 10)
    outcome = decide_pac(backend, None, None, params(), distinct_examples(10))
    assert outcome.verdict == ACCEPT
    assert outcome.failed_count == 0


def test_boundary_accepts_at_exact_budget():
    # failed == floor(eps*m) accepts: the test is strictly greater-than
    backend = ScriptedBackend([False] + [True] * 9)
    outcome = decide_pac(backend, None, None, params(), distinct_examples(10))
    assert outcome.budget == 1
    assert outcome.verdict == ACCEPT


def test_verdict_is_order_independent():
    backend = ScriptedBackend([True] * 7 + [False] * 3)
    examples = distinct_examples(10)
    rng = random.Random(2)
    base = decide_pac(backend, None, None, params("1/5"), examples)
    for _ in range(5):
        rng.shuffle(examples)
        again = decide_pac(backend, None, None, params("1/5"), examples)
        assert again.verdict == base.verdict
        assert again.failed_count == base.failed_count


def test_example_length_is_validated():
    # an example that sets x5 is not an example over ScriptedBackend.n = 4
    backend = ScriptedBackend([True])
    with pytest.raises(InputError):
        decide_pac(backend, None, None, params(), [example("****1")])


def test_a_malformed_example_is_an_input_error():
    # over n = 4 an example is the int true-literal mask of what it sets;
    # each value below breaks one condition, and any position in the stream
    # raises before a backend call.  A (true, false) pair is not an
    # example, even with false its true swapped, and False, 0 as a bool,
    # is not the all-masked example 0
    backend = CountingBackend(ScriptedBackend([True]))
    good = distinct_examples(1)[0]  # 0000
    malformed = [
        good | 1 << 10,  # a bit above x4's
        good | 1,  # bit 0
        good | 2,  # bit 1
        good | 1 << 4,  # both literals of x2
        -4,
        (good, negation(4)(good)),
        (good, negation(4)(good) ^ 1 << 9),
        (good, 0),
        (good,),
        PartialAssignment.from_string("0000"),
        False,
        True,
        float(good),
        str(good),
        None,
    ]
    assert decide_pac(ScriptedBackend([True]), None, None, params(), [good]).verdict == ACCEPT
    check_examples([good, 0], 4)  # 0 masks every variable
    for rho in malformed:
        for examples in ([rho], [good, good, rho], [rho, good]):
            with pytest.raises(InputError) as caught:
                decide_pac(backend, None, None, params(), examples)
            assert str(caught.value) == f"example {rho!r} is not a true-literal mask over x1..x4"
            assert backend.calls == dict.fromkeys(backend.calls, 0), (rho, backend.calls)


def test_resolution_backend_accepts_revealed_antecedent():
    kb = Cnf([make_clause([-1, 2])], 2).masks
    backend = SpaceResolutionBackend(s=1, n=2)
    examples = [example("1*")] * 8
    outcome = decide_pac(backend, encode_clause(make_clause([2])), kb, params(), examples)
    assert outcome.verdict == ACCEPT
    assert outcome.failed_count == 0


def test_sampled_path_matches_direct_path():
    kb = Cnf([make_clause([-1, 2])], 2).masks
    backend = SpaceResolutionBackend(s=1, n=2)
    query = encode_clause(make_clause([2]))
    dist = ExplicitDistribution.uniform([(1, 1)])
    mask = FixedMask({2})
    sampled = decide_pac_from_distribution(
        backend, query, kb, params(), dist, mask, seed=5, m=8
    )
    from pacreason.sampling import draw_masked_examples

    direct = decide_pac(backend, query, kb, params(), draw_masked_examples(dist, mask, 8, 5))
    assert sampled == direct == decide_pac_from_distribution(
        backend, query, kb, params(), dist, mask, seed=5, m=8
    )


def test_sampled_path_draws_the_hoeffding_count_without_m():
    kb = Cnf([make_clause([-1, 2])], 2).masks
    backend = SpaceResolutionBackend(s=1, n=2)
    p = params(eps="1/2", gamma="1/4", delta="1/2")
    outcome = decide_pac_from_distribution(
        backend, encode_clause(make_clause([2])), kb, p, ExplicitDistribution.uniform([(1, 1)]),
        FixedMask({2}), seed=5,
    )
    assert outcome.sample_count == required_sample_size(p.gamma, p.delta) == 6
    assert len(outcome.per_example) == 6


def test_oracle_backend_accept_implies_empirical_validity():
    rng = random.Random(404)
    n = 3
    backend = EntailmentOracleBackend(n)
    for _ in range(20):
        examples = [
            PartialAssignment(tuple(rng.randint(0, 1) for _ in range(n)))
            for _ in range(12)
        ]
        query = Var(rng.randint(1, n))
        p = params("1/4", "1/8")
        outcome = decide_pac(backend, query, (), p, list(map(example, examples)))
        satisfied = sum(1 for rho in examples if rho.value(query.index) == 1)
        if outcome.verdict == ACCEPT:
            assert Fraction(satisfied, len(examples)) >= 1 - p.epsilon


def test_res_k_backend_roundtrip():
    kb = (negate_query([frozenset({-1, 2})], k=2),)  # KB k-DNF for clause
    backend = ResKWidthBackend(k=2, w=2, n=2)
    query = (negate_query([frozenset({2})], k=2),)
    examples = [example("1*")] * 6
    # hypothesis here is the clause (not-x1 or x2) as a 1-DNF
    from pacreason.res_k import KDnf

    hyps = (KDnf([(-1,), (2,)]),)
    outcome = decide_pac(backend, query, hyps, params(), examples)
    assert outcome.verdict == ACCEPT


def test_polynomial_backend_under_masking():
    backend, query, hyps = pc_instance(
        2, 2, PCR, encode_clause_pcr(make_clause([2])), [encode_clause_pcr(make_clause([-1, 2]))]
    )
    examples = [example("1*")] * 6
    outcome = decide_pac(backend, query, hyps, params(), examples)
    assert outcome.verdict == ACCEPT


def test_cutting_planes_backend_under_masking():
    from pacreason.cutting_planes import encode_clause_cp

    backend = CuttingPlanesBackend(w=2, L=4, n=2)
    hyps = (encode_clause_cp(make_clause([-1, 2])),)
    query = encode_clause_cp(make_clause([2]))
    examples = [example("1*")] * 6
    outcome = decide_pac(backend, query, hyps, params(), examples)
    assert outcome.verdict == ACCEPT


def test_table_mask_scenario_statistics():
    # per-example accept probability 9/10; rejections stay within budget whp
    dist = ExplicitDistribution(
        2, [((1, 1), Fraction(9, 10)), ((0, 0), Fraction(1, 10))]
    )
    mask = TableMask({(1, 1): {2}, (0, 0): {2}})
    kb = Cnf([make_clause([-1, 2])], 2).masks
    backend = SpaceResolutionBackend(s=2, n=2)
    p = PacParams(Fraction(1, 5), Fraction(1, 10), Fraction(1, 20))
    wrong = 0
    for seed in range(30):
        outcome = decide_pac_from_distribution(
            backend, encode_clause(make_clause([2])), kb, p, dist, mask, seed=seed, m=100
        )
        if outcome.verdict != ACCEPT:
            wrong += 1
    assert wrong <= 3


def random_instance(system, rng):
    """(backend, query, hyps, n) for `system`, drawn as the restriction
    closure tests draw them: n <= 4, small budgets."""
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
        mode, n, d, hyps, query = random_pc_instance(rng)
        if mode == system:
            return (*pc_instance(d, n, mode, query, hyps), n)


@pytest.mark.parametrize("system", ["res-space", "res-k-width", PC, PCR, "cp"])
def test_query_first_decide_pac_matches_the_plain_loop(system):
    # iid streams hiding half the coordinates, until at least 50 examples
    # settle the query, 50 do not, 50 are rejected and 50 unsettled ones
    # skip the search; an example that settles the query must cost no
    # restrict_hyps and no decide call, and one consistent with a cached
    # countermodel neither, and the query is restricted at most once per
    # projection of the examples onto its scope
    rng = random.Random(f"query-first:{system}")
    seen = {"settled": 0, "unsettled": 0, "rejected": 0, "skipped": 0}
    for seed in range(500):
        backend, query, hyps, n = random_instance(system, rng)
        dist = ExplicitDistribution.uniform(product((0, 1), repeat=n))
        examples = draw_masked_examples(dist, IndependentMask(Fraction(1, 2)), 12, seed)
        counting = CountingBackend(backend)
        outcome = decide_pac(counting, query, hyps, params(), examples)
        assert outcome == reference_decide_pac(backend, query, hyps, params(), examples)
        scope = backend.query_scope(query)
        scope |= negation(n)(scope)  # decide_pac's key: both literals of each scope variable
        assert counting.calls["restrict_query"] <= len({rho & scope for rho in examples})
        settled = sum(backend.restrict_query(query, rho) is TRUE for rho in examples)
        unsettled = len(examples) - settled
        searched = counting.calls["decide"]
        assert counting.calls["restrict_hyps"] == searched <= unsettled
        seen["settled"] += settled
        seen["unsettled"] += unsettled
        seen["rejected"] += outcome.failed_count
        seen["skipped"] += unsettled - searched
        if min(seen.values()) >= 50:
            break
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("system", ["res-space", "res-k-width", PC, PCR, "cp"])
def test_query_scope_holds_every_bit_that_restrict_query_reads(system):
    # the scope holds literal bits only, and restricting the query by an
    # example's projection onto both literals of the scope's variables gives
    # what the whole example gives, on 3600 examples of seeded instances
    # under iid:1/2.  Every other RES(k) query negates several clauses, and
    # so often holds a variable in both signs; either way the scope is the
    # query's literals
    rng = random.Random(f"scope:{system}")
    checked, kinds = 0, Counter()
    for seed in range(300):
        backend, query, hyps, n = random_instance(system, rng)
        if system == "res-k-width":
            if seed % 2:
                clauses = [random_clause(rng, n, backend.k) for _ in range(rng.randint(2, 4))]
                negated = negate_query(clauses, backend.k)
                query = () if negated is TRUE else (negated,)
            literals = {lit for phi in query for term in phi for lit in term}
            both = any(-lit in literals for lit in literals)
            kinds["both signs" if both else "one sign"] += 1
            assert backend.query_scope(query) == sum(map(literal_bit, literals)), query
        scope = backend.query_scope(query)
        assert not scope & ~((1 << 2 * n + 2) - 4), (query, scope)
        scope |= negation(n)(scope)
        dist = ExplicitDistribution.uniform(product((0, 1), repeat=n))
        for rho in draw_masked_examples(dist, IndependentMask(Fraction(1, 2)), 12, seed):
            whole = backend.restrict_query(query, rho)
            assert backend.restrict_query(query, rho & scope) == whole, (
                query, assignment_of(rho, n),
            )
            checked += 1
    assert checked == 3600
    assert system != "res-k-width" or min(kinds["both signs"], kinds["one sign"]) >= 50, kinds


def test_res_k_query_scope_of_a_both_signs_query_is_its_literals():
    # the negated query of (x1) and (-x1) holds x1 in both signs; it stays
    # whole at *1, where only x2 is set, as at *1's projection onto x1's
    # literals, which are its scope
    backend = ResKWidthBackend(k=1, w=1, n=2)
    query = (negate_query([frozenset({1}), frozenset({-1})], k=1),)
    scope = backend.query_scope(query)
    assert scope == literal_bit(1) | literal_bit(-1) == 0b1100
    for rho in map(example, ("*1", "*0", "**")):
        assert backend.restrict_query(query, rho) == (KDnf([(-1,), (1,)]),)
        assert backend.restrict_query(query, rho & scope) == (KDnf([(-1,), (1,)]),)
    for rho in map(example, ("1*", "01")):
        assert backend.restrict_query(query, rho) == backend.restrict_query(query, rho & scope)


def test_res_k_query_scope_of_one_clause_is_its_literals():
    # the negated query of the one clause (x1 | -x2) is the k-DNF of one
    # term, so restrict_query reads x1's and x2's literals only
    backend = ResKWidthBackend(k=2, w=2, n=3)
    query = (negate_query([frozenset({1, -2})], k=2),)
    assert backend.query_scope(query) == literal_bit(-1) | literal_bit(2)
    for rho in map(example, ("1**", "0**", "*1*", "*01", "11*", "001")):
        assert backend.restrict_query(query, rho & 0b111100) == backend.restrict_query(query, rho)


def own_literals(backend, formula, n) -> int:
    """Both literal bits of every variable of one hypothesis or of the
    query, read off the formula's own form; a RES(k) formula is a tuple of
    k-DNFs."""
    if isinstance(backend, SpaceResolutionBackend):
        clause = () if formula is TAUTOLOGY else decode_clause(formula)
        variables = {abs(lit) for lit in clause}
    elif isinstance(backend, ResKWidthBackend):
        variables = {abs(lit) for phi in formula for term in phi for lit in term}
    elif isinstance(backend, CuttingPlanesBackend):
        variables = formula.variables()
    else:
        variables = {abs(lit) for m in decode_row(formula, n).terms for lit in m}
    return sum(3 << 2 * v for v in variables)


@pytest.mark.parametrize("system", ["res-space", "res-k-width", PC, PCR, "cp"])
def test_every_restriction_reads_its_own_variables_only(system):
    # the paper's restriction substitutes into each formula on its own: on
    # every example of 150 seeded instances, each hypothesis and the query
    # restrict by an example as by its projection onto both literals of the
    # formula's own variables, also where the example sets others
    rng = random.Random(f"local:{system}")
    seen = Counter()
    for _ in range(150):
        backend, query, hyps, n = random_instance(system, rng)
        resk = system == "res-k-width"
        query_key = own_literals(backend, query, n)
        keys = [own_literals(backend, (h,) if resk else h, n) for h in hyps]
        for rho in every_example(n):
            assert backend.restrict_query(query, rho) == backend.restrict_query(
                query, rho & query_key
            ), (query, assignment_of(rho, n))
            for h, key in zip(hyps, keys):
                assert backend.restrict_hyps((h,), rho) == backend.restrict_hyps(
                    (h,), rho & key
                ), (h, assignment_of(rho, n))
                seen["set elsewhere"] += bool(rho & ~key)
    assert seen["set elsewhere"] >= 2400, seen


def test_plain_decide_accepts_what_a_settled_query_stands_for():
    # each form that restrict_query now collapses to TRUE is accepted by the
    # system's own search from no hypotheses
    assert SpaceResolutionBackend(s=1, n=2).decide(TAUTOLOGY, ())
    resk = ResKWidthBackend(k=1, w=1, n=2)
    assert resk.decide((KDnf([(1,)]), BOTTOM), ())
    assert not resk.decide((KDnf([(1,)]),), ())
    assert resk.restrict_query((KDnf([(-1,)]),), example("1*")) is TRUE
    x1 = row(Polynomial([(frozenset({Indet(1)}), 1)]), 2)
    for mode in (PC, PCR):
        pc = PolynomialCalculusBackend(d=1, n=2, mode=mode)
        assert pc.decide((), ())  # the zero row
        assert not pc.decide(x1, ())
        assert pc.restrict_query(x1, example("0*")) is TRUE
    cp = CuttingPlanesBackend(w=1, L=2, n=2)
    query, rho = LinIneq({1: 1, 2: -1}, -1), example("*1")
    assert restrict_ineq(query, rho) is TRUE
    assert cp.decide(residual_ineq(query, rho), ())  # x1 >= 0
    assert not cp.decide(LinIneq({1: 1}, 1), ())


def refutes_at(system, query, hyps, x) -> bool:
    """Whether the full assignment x satisfies every hypothesis and falsifies
    the query, each in the form its backend searches on: for RES(k), every
    hypothesis and every negated-query k-DNF true."""

    def true(lit):
        return bool(x[abs(lit) - 1]) == (lit > 0)

    def clause(c):
        return c is TAUTOLOGY or any(map(true, c))

    if system == "res-space":
        return all(clause(decode_clause(bits)) for bits in hyps) and not clause(decode_clause(query))
    if system == "res-k-width":
        return all(any(all(map(true, term)) for term in phi) for phi in (*hyps, *query))
    if system == "cp":
        return all(holds_at(h, x) for h in hyps) and not holds_at(query, x)
    hyps, query = [decode_row(r, len(x)) for r in hyps], decode_row(query, len(x))
    return all(p.evaluate(x) == 0 for p in hyps) and query.evaluate(x) != 0


@pytest.mark.parametrize("system", ["res-space", "res-k-width", PC, PCR, "cp"])
def test_no_accepted_example_has_a_countermodel(system):
    # soundness on seeded decide_pac streams: no completion of an accepted
    # example satisfies the knowledge base and falsifies the query, checked
    # by brute force.  The countermodel passes reject on exactly such a
    # completion, so an unsound pass or kernel would show here
    rng = random.Random(f"soundness:{system}")
    seen = dict.fromkeys(("rejected", "accepted after a search", "masked, accepted after a search"), 0)
    for seed in range(500):
        backend, query, hyps, n = random_instance(system, rng)
        dist = ExplicitDistribution.uniform(product((0, 1), repeat=n))
        examples = draw_masked_examples(dist, IndependentMask(Fraction(1, 2)), 12, seed)
        outcome = decide_pac(backend, query, hyps, params(), examples)
        for rho, accepted in zip(examples, outcome.per_example):
            if not accepted:
                seen["rejected"] += 1
                continue
            sigma = assignment_of(rho, n)
            assert not any(refutes_at(system, query, hyps, x) for x in completions(sigma)), (
                query, hyps, sigma,
            )
            if backend.restrict_query(query, rho) is not TRUE:
                seen["accepted after a search"] += 1
                seen["masked, accepted after a search"] += None in sigma
        if min(seen.values()) >= 100:
            break
    assert min(seen.values()) >= 100, seen


def cache_streams(system):
    """(label, backend, query, hyps, n, examples) of the seeded streams that
    the countermodel cache is checked on: small-n instances under iid:1/2
    and iid:3/4 masks and, for clause-space resolution, two streams at n=12
    under iid:3/4 and iid:1/8, and two at n=24 over a knowledge base of
    twelve two-literal clauses on disjoint variables, whose examples are
    drawn from its models: one under iid:3/4, whose examples all leave more
    free coordinates than a reject enumerates, and one under iid:1/8 that
    finds more models than the cache keeps: the clauses share no variable,
    so each countermodel's support fixes a variable of nearly every one."""
    rng = random.Random(f"cache:{system}")
    for seed in range(60):
        for hidden in (Fraction(1, 2), Fraction(3, 4)):
            backend, query, hyps, n = random_instance(system, rng)
            dist = ExplicitDistribution.uniform(product((0, 1), repeat=n))
            examples = draw_masked_examples(dist, IndependentMask(hidden), 24, seed)
            yield f"iid:{hidden}", backend, query, hyps, n, examples
    if system == "res-space":
        n = 12
        clauses = [make_clause(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3))
                   for _ in range(10)]
        kb = Cnf(clauses, n).masks
        query = encode_clause(make_clause([rng.choice((1, -1)) * rng.randint(1, n)]))
        dist = ExplicitDistribution.uniform(product((0, 1), repeat=n))
        for hidden, m in ((Fraction(3, 4), 400), (Fraction(1, 8), 600)):
            examples = draw_masked_examples(dist, IndependentMask(hidden), m, 12)
            yield f"n=12 iid:{hidden}", SpaceResolutionBackend(2, n), query, kb, n, examples
        n = 24
        signs = [(rng.choice((1, -1)), rng.choice((1, -1))) for _ in range(n // 2)]
        kb = Cnf([make_clause((a * (2 * i + 1), b * (2 * i + 2))) for i, (a, b) in enumerate(signs)],
                 n).masks
        query = encode_clause(make_clause([rng.choice((1, -1)) * rng.randint(1, n)]))
        pairs = list(product((0, 1), repeat=2))
        points = {  # each pair of variables off the one value its clause rules out
            sum((rng.choice([p for p in pairs if p != (a < 0, b < 0)]) for a, b in signs), ())
            for _ in range(2000)
        }
        dist = ExplicitDistribution.uniform(points)
        for hidden, m in ((Fraction(3, 4), 100), (Fraction(1, 8), 600)):
            examples = draw_masked_examples(dist, IndependentMask(hidden), m, 24)
            yield f"n=24 iid:{hidden}", SpaceResolutionBackend(2, n), query, kb, n, examples


@pytest.mark.parametrize("system", ["res-space", "res-k-width", PC, PCR, "cp"])
def test_countermodel_cache_matches_the_plain_loop(system):
    # decide_pac with its caches gives the plain loop's outcome.  An
    # unsettled example that reaches no restrict_hyps call was settled by a
    # cache: a reject must have a completion that satisfies the knowledge
    # base and falsifies the query, checked by brute force, and an accept
    # must extend an earlier searched accept on that accept's support.  A
    # searched reject tries its completions exactly when at most
    # ENUMERATED_FREE coordinates are free, a searched accept tries none,
    # and each countermodel found is cached through one countermodel_support
    # call.  Res-space and RES(k) cache a countermodel on its support, so
    # some of their rejects are consistent with no full countermodel found
    # before them
    seen = Counter()
    for label, backend, query, hyps, n, examples in cache_streams(system):
        counting = CountingBackend(backend)
        outcome = decide_pac(counting, query, hyps, params(), examples)
        assert outcome == reference_decide_pac(backend, query, hyps, params(), examples), label
        assert counting.calls["countermodel_support"] == len(counting.models), label
        negate = negation(n)
        searched = iter(counting.searched)
        step = next(searched, None)
        keys = []  # rho & support of each searched accept so far
        full = []  # false-literal masks of the countermodels found so far
        for rho, accepted in zip(examples, outcome.per_example):
            if backend.restrict_query(query, rho) is TRUE:
                continue
            sigma = assignment_of(rho, n)
            if step is None or step[0] != rho:
                if accepted:
                    assert any(key & rho == key for key in keys), (label, query, hyps, sigma)
                    seen[f"{label} support hits"] += 1
                    continue
                assert any(refutes_at(system, query, hyps, x) for x in completions(sigma)), (
                    label, query, hyps, sigma,
                )
                seen[f"{label} hits"] += 1
                seen[f"{label} hits off every full countermodel"] += all(rho & f for f in full)
                continue
            free = sigma.count(None)
            if accepted:
                assert step[1] == 0 and step[3] is None, (label, sigma)
                if step[2] is not None:
                    keys.append(rho & step[2])
            else:
                assert step[2] is None, (label, sigma)
                if step[3] is not None:
                    full.append(negate(step[3]))
                if free > ENUMERATED_FREE:
                    assert step[1] == 0, (label, sigma)
                    seen["searched rejects over the cap"] += 1
                else:
                    assert step[1] >= 1, (label, sigma)
            step = next(searched, None)
        assert step is None
        models = len(set(counting.models))
        seen["most models found in a run"] = max(seen["most models found in a run"], models)
    floors = {"iid:1/2 hits": 30, "iid:3/4 hits": 30}
    if system == "res-space":
        floors["n=12 iid:3/4 hits"], floors["n=12 iid:1/8 hits"] = 200, 20
        floors["searched rejects over the cap"] = 10
        floors["most models found in a run"] = CACHED_MODELS + 1
        floors["iid:1/2 support hits"] = floors["iid:3/4 support hits"] = 30
        floors["n=12 iid:1/8 support hits"] = 100
        floors["iid:1/2 hits off every full countermodel"] = 80
        floors["n=12 iid:3/4 hits off every full countermodel"] = 50
        floors["n=24 iid:1/8 hits off every full countermodel"] = 160
    elif system == "res-k-width":
        floors["iid:1/2 hits off every full countermodel"] = 30
        floors["iid:3/4 hits off every full countermodel"] = 14
        assert not any(name.endswith(" support hits") for name in seen), seen  # no accept support
    else:  # the hypotheses behind each pc, pcr or cp proof; a countermodel's support is x
        assert not any(seen[name] for name in seen if name.endswith("full countermodel")), seen
        floors["iid:1/2 support hits"], floors["iid:3/4 support hits"] = {
            PC: (800, 850), PCR: (900, 1000), "cp": (250, 150),
        }[system]
    assert all(seen[name] >= floor for name, floor in floors.items()), seen


def support_streams(system, cases):
    """(label, backend, query, hyps, examples) of 2 * `cases` seeded streams
    of 40 examples, with many repeats and many extensions of accepted
    examples: each instance drawn under a table mask over at most four
    points, whose examples repeat, and under iid:1/4 over all 2^n points,
    whose examples often set what an accepted one sets and more.
    Clause-space instances have n 2..6 and s 1..3, the others are drawn as
    `random_instance` draws them."""
    rng = random.Random("supports" if system == "res-space" else f"supports:{system}")
    for case in range(cases):
        if system == "res-space":
            n, s = rng.randint(2, 6), rng.randint(1, 3)
            kb = Cnf([random_clause(rng, n) for _ in range(rng.randint(1, 8))], n).masks
            query = encode_clause(random_clause(rng, n, max_width=2))
            backend = SpaceResolutionBackend(s, n)
        else:
            backend, query, kb, n = random_instance(system, rng)
        points = {tuple(rng.getrandbits(1) for _ in range(n)) for _ in range(4)}
        table = TableMask({x: {v for v in range(1, n + 1) if rng.random() < 0.4} for x in points})
        every = ExplicitDistribution.uniform(product((0, 1), repeat=n))
        for label, dist, mask in (
            ("table", ExplicitDistribution.uniform(points), table),
            ("iid:1/4", every, IndependentMask(Fraction(1, 4))),
        ):
            yield label, backend, query, kb, draw_masked_examples(dist, mask, 40, case)


def check_support_cache(system, cases, floors):
    """decide_pac gives the plain loop's outcome on every stream of
    `support_streams(system, cases)`, and the hit counts reach `floors`.  A
    support hit is an unsettled accept without a search, and an extension
    hit is one whose example was never searched at all, so it is not a
    repeat of a searched one."""
    seen = Counter()
    for label, backend, query, hyps, examples in support_streams(system, cases):
        counting = CountingBackend(backend)
        outcome = decide_pac(counting, query, hyps, params(), examples)
        assert outcome == reference_decide_pac(backend, query, hyps, params(), examples), (
            label, query, hyps, examples,
        )
        searched = {rho for rho, *_ in counting.searched}
        unsettled = [
            rho for rho, accepted in zip(examples, outcome.per_example)
            if accepted and backend.restrict_query(query, rho) is not TRUE
        ]
        seen[f"{label} support hits"] += len(unsettled) - counting.calls["support"]
        seen[f"{label} extension hits"] += sum(rho not in searched for rho in unsettled)
    assert all(seen[name] >= floor for name, floor in floors.items()), seen


def test_support_cache_matches_the_plain_loop():
    # an accepting res-space search caches the example's projection onto its
    # proof's support, and a later unsettled example that extends it is
    # accepted without a search; decide_pac must still give the plain
    # loop's outcome on 1200 streams
    check_support_cache("res-space", 600, {
        "table support hits": 6000, "iid:1/4 support hits": 4500,
        "table extension hits": 1200, "iid:1/4 extension hits": 3500,
    })


@pytest.mark.parametrize("system", [PC, PCR, "cp"])
def test_pc_pcr_and_cp_supports_match_the_plain_loop(system):
    # the same for the supports that pc and pcr read off their hypothesis
    # masks and cp off its trace, on 600 streams for pc and pcr and 400 for
    # cp, whose plain loop searches slowest
    cases, *floors = {
        PC: (300, 7000, 6500, 1300, 4000),
        PCR: (300, 7500, 7000, 1300, 3800),
        "cp": (200, 1700, 1800, 350, 1200),
    }[system]
    names = ("table support hits", "iid:1/4 support hits",
             "table extension hits", "iid:1/4 extension hits")
    check_support_cache(system, cases, dict(zip(names, floors)))


STATELESS_CASES = {
    # system: (budgets, kb text, query text), each over x1..x3 with the
    # chain x1 -> x2 -> x3 and the query x3
    "res-space": ({"s": 3}, "p cnf 3 2\n-1 2 0\n-2 3 0\n", "p cnf 3 1\n3 0\n"),
    "res-k-width": ({"k": 1, "w": 2}, "p kdnf 3 1 2\n-x1|x2\n-x2|x3\n", "p cnf 3 1\n3 0\n"),
    PC: ({"d": 2}, "p poly 3 2\n1 x1; -1 x1 x2\n1 x2; -1 x2 x3\n", "p poly 3 1\n1 x3; -1\n"),
    PCR: ({"d": 2}, "p poly 3 2\n1 x1 ~x2\n1 x2 ~x3\n", "p poly 3 1\n1 ~x3\n"),
    "cp": ({"w": 2, "L": 3}, "p cp 3 2\nx1:-1 x2:1 >= 0\nx2:-1 x3:1 >= 0\n", "p cp 3 1\nx3:1 >= 1\n"),
}


@pytest.mark.parametrize("system", sorted(STATELESS_CASES))
def test_backends_keep_no_state_over_a_run(system):
    # a backend is a plain value of its budgets and n: a decide_pac run over
    # a seeded stream, with accepts and rejects after a search, leaves every
    # attribute of the loaded backend as load made it
    budgets, kb_text, query_text = STATELESS_CASES[system]
    backend, query, hyps = SYSTEMS[system].load(system, kb_text, query_text, **budgets)
    before = dict(vars(backend))
    dist = ExplicitDistribution.uniform(product((0, 1), repeat=3))
    examples = draw_masked_examples(dist, IndependentMask(Fraction(1, 2)), 200, 29)
    counting = CountingBackend(backend)
    outcome = decide_pac(counting, query, hyps, params(), examples)
    assert vars(backend) == before, system
    searched = {rho for rho, *_ in counting.searched}
    verdicts = Counter(ok for rho, ok in zip(examples, outcome.per_example) if rho in searched)
    assert verdicts[True] >= 5 and verdicts[False] >= 5, (system, verdicts)
