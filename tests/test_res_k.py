import random
from collections import Counter
from itertools import combinations, product

import pytest

from pacreason.errors import InputError
from pacreason.formulas import PartialAssignment, TRUE, evaluate
from pacreason.oracle import entails
from pacreason.res_k import (
    BOTTOM,
    KDnf,
    _term_universe,
    check_budget,
    check_trace,
    decide_resk_width,
    negate_query,
    restrict_kdnf,
)
from pacreason.saturation import TraceStep

from helpers import (
    example,
    kdnf_to_formula,
    prove_exit_code,
    random_partial,
    reference_restrict_kdnf,
    reference_term_universe,
)


def kd(*terms):
    return KDnf(terms)


def test_term_validation():
    with pytest.raises(InputError):
        kd((1, -1))
    with pytest.raises(InputError):
        kd(())


def test_restrict_drops_falsified_term():
    phi = kd((1, 2), (3,))
    assert restrict_kdnf(phi, example("0**")) == kd((3,))


def test_restrict_strips_satisfied_literal():
    assert restrict_kdnf(kd((1, 2)), example("1*")) == kd((2,))


def test_restrict_satisfied_term_gives_true():
    assert restrict_kdnf(kd((1,), (2,)), example("1*")) == TRUE


def test_restrict_all_literals_keeps_the_literals_of_its_masked_variables():
    # a k-DNF restricts on its own variables only: every literal over the
    # masked variables stays a one-literal term, however many variables rho
    # sets elsewhere
    one = kd((1,), (-1,), (2,), (-2,))
    assert restrict_kdnf(one, example("**")) == one
    assert restrict_kdnf(kd((1,), (-1,), (-2,)), example("*1")) == kd((1,), (-1,))
    assert restrict_kdnf(kd((1,), (-1,)), example("*1*")) == kd((1,), (-1,))


def test_restrict_kdnf_matches_the_reference_on_one_literal_terms():
    # the result is built without re-checking its terms: on every set of
    # one-literal terms over x1..x3, with and without a longer term, under
    # every rho over n = 3 and 4 (x4 in no term), value, repr and term order
    # match the reference
    literals = (1, -1, 2, -2, 3, -3)
    seen = Counter()
    for length in (3, 4):
        for entries in product((0, 1, None), repeat=length):
            rho = PartialAssignment(entries)
            for bits in range(64):
                terms = [[lit] for i, lit in enumerate(literals) if bits >> i & 1]
                for extra in ([], [[1, -2]]):
                    phi = KDnf(terms + extra)
                    got = restrict_kdnf(phi, example(rho))
                    want = reference_restrict_kdnf(phi, rho)
                    assert repr(got) == repr(want), (phi, rho)
                    if want is TRUE:
                        assert got is TRUE
                        seen["true"] += all(len(t) == 1 for t in phi) and None in entries
                    else:
                        assert type(got) is KDnf and list(got) == list(want), (phi, rho)
                        seen["kdnf"] += 1
    assert seen["true"] >= 100 and seen["kdnf"] >= 1000, seen


def test_decide_single_cut():
    accepted, trace = decide_resk_width([kd((1,)), kd((-1,), (2,))], kd((2,)), k=1, w=1)
    assert accepted
    assert check_trace(trace, [kd((1,)), kd((-1,), (2,))], kd((2,)), 1, 1)


def test_decide_and_introduction():
    hyps = [kd((1,)), kd((2,))]
    accepted, trace = decide_resk_width(hyps, kd((1, 2)), k=2, w=1)
    assert accepted
    assert check_trace(trace, hyps, kd((1, 2)), 2, 1)


def test_decide_reject_on_countermodel():
    accepted, trace = decide_resk_width([kd((1,))], kd((2,)), k=1, w=1)
    assert not accepted and trace is None


def test_decide_needs_intermediate_weakening():
    # (x1 and x3) or x2 requires weakening x1 to x1 or x2 before introduction
    hyps = [kd((1,)), kd((3,), (2,))]
    target = kd((1, 3), (2,))
    accepted, trace = decide_resk_width(hyps, target, k=2, w=2)
    assert accepted
    assert check_trace(trace, hyps, target, 2, 2)


def test_decide_width_gate(tmp_path, capsys):
    # `decide_resk_width` takes checked inputs; the CLI checks them once per run
    with pytest.raises(InputError):
        check_budget([kd((1,))], kd((1,), (2,), (3,)), k=1, w=2)
    with pytest.raises(InputError):
        check_budget([kd((1, 2, 3))], kd((1,)), k=2, w=1)
    with pytest.raises(InputError):
        check_budget([], BOTTOM, k=1, w=-1)
    query = "p cnf 2 1\n2 0\n"
    for flags, kb, error in [
        (["--k", "1", "--w", "-1"], "p kdnf 2 1 1\nx1\n", "target width 0 exceeds the bound -1"),
        (["--k", "1", "--w", "1"], "p kdnf 2 2 1\nx1\n", "kb file holds 2-DNFs but --k is 1"),
    ]:
        code = prove_exit_code(tmp_path, "res-k-width", flags, kb, query)
        assert (code, capsys.readouterr().err) == (2, f"error: {error}\n")
    code = prove_exit_code(tmp_path, "res-k-width", ["--k", "1", "--w", "1"], "p kdnf 2 1 0\n",
                           "p cnf 2 1\n1 2 0\n")
    assert (code, capsys.readouterr().err) == (
        2, "error: clause with 2 literals cannot be negated into a 1-DNF\n"
    )


def test_bottom_hypothesis_derives_anything():
    accepted, trace = decide_resk_width([BOTTOM], kd((2,)), k=1, w=1)
    assert accepted
    assert check_trace(trace, [BOTTOM], kd((2,)), 1, 1)


def test_term_universe_lists_terms_in_literal_order():
    # weakening offers terms in this order, so it fixes which of two
    # derivations of a k-DNF the table records
    universe = _term_universe((1, 3), 2)
    terms = ([1], [-1], [3], [-3], [1, 3], [1, -3], [-1, 3], [-1, -3])
    assert universe == tuple(frozenset(t) for t in terms)


def test_term_universe_matches_a_fresh_build_per_variable_set():
    # one shared universe per k, filtered by the variable set, as the
    # stream's maximum variable grows and shrinks: the same terms, in the
    # same order, each iterating its literals as a fresh frozenset does
    rng = random.Random(2814)
    for _ in range(300):
        k = rng.randint(1, 3)
        n = rng.randint(1, 12)
        variables = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 6)))))
        got, want = _term_universe(variables, k), reference_term_universe(variables, k)
        assert got == want and [list(t) for t in got] == [list(t) for t in want], (variables, k)


def test_negate_query():
    assert negate_query([frozenset({1})], k=1) == kd((-1,))
    assert negate_query([frozenset({1, 2})], k=2) == kd((-1, -2))
    assert negate_query([frozenset()], k=1) == TRUE
    with pytest.raises(InputError):
        negate_query([frozenset({1, 2})], k=1)


def test_negate_query_skips_tautological_clause():
    from pacreason.resolution import TAUTOLOGY

    assert negate_query([TAUTOLOGY, frozenset({1})], k=1) == kd((-1,))


def test_negate_query_refutation_pipeline():
    # KB (not-x1 or x2) with query clause (x2) and x1 known: refute together
    kb = [kd((-1,), (2,))]
    negated = negate_query([frozenset({2})], k=1)
    accepted, trace = decide_resk_width(kb + [kd((1,)), negated], BOTTOM, k=1, w=1)
    assert accepted


def test_trace_checker_rejects_tampering():
    hyps = [kd((1,)), kd((-1,), (2,))]
    accepted, trace = decide_resk_width(hyps, kd((2,)), k=1, w=1)
    assert accepted
    broken = list(trace)
    broken[-1] = type(trace[-1])(kd((3,)), trace[-1].rule, trace[-1].premises)
    assert not check_trace(tuple(broken), hyps, kd((3,)), 1, 1)


@pytest.mark.parametrize(
    "index, rule, premises",
    [
        (0, "hypothesis", (0, 1)),
        (0, "hypothesis", ()),
        (0, "hypothesis", ("a",)),
        (0, "weakening", ()),
        (2, "cut", (kd((1,)),)),
    ],
)
def test_trace_checker_rejects_premises_of_the_wrong_count_or_type(index, rule, premises):
    # each step once raised ValueError or TypeError from unpacking or
    # comparing its premises; a malformed step fails the replay instead
    hyps = [kd((1,)), kd((-1,), (2,))]
    accepted, trace = decide_resk_width(hyps, kd((2,)), k=1, w=1)
    assert accepted and check_trace(trace, hyps, kd((2,)), 1, 1)
    broken = list(trace)
    broken[index] = type(trace[index])(trace[index].formula, rule, premises)
    assert not check_trace(tuple(broken), hyps, kd((2,)), 1, 1)


def test_trace_checker_rejects_each_malformed_step():
    hyps = [kd((1,)), kd((2,))]
    target = kd((1, 2))
    accepted, trace = decide_resk_width(hyps, target, k=2, w=2)
    assert accepted
    first, second, intro = trace
    assert [step.rule for step in trace] == ["hypothesis", "hypothesis", "and_intro"]
    assert check_trace(trace, hyps, target, k=2, w=2)

    def step(formula, rule, *premises):
        return TraceStep(formula, rule, premises)

    def replaced(i, new):
        return trace[:i] + (new,) + trace[i + 1:]

    def inserted(i, new):
        return trace[:i] + (new,) + trace[i:]

    # a weakening of x1 that is sound but over a bound: w=3 or k=3 admits it
    wide = inserted(2, step(kd((1,), (3,), (4,)), "weakening", first.formula))
    long_term = inserted(2, step(kd((1,), (2, 3, 4)), "weakening", first.formula))
    assert check_trace(wide, hyps, target, k=2, w=3)
    assert check_trace(long_term, hyps, target, k=3, w=2)
    cases = {
        "hypothesis index out of range": replaced(1, step(second.formula, "hypothesis", 2)),
        # hyps[-1] is x2, so only the range check refuses it
        "negative hypothesis index": replaced(1, step(second.formula, "hypothesis", -1)),
        "index names another hypothesis": replaced(1, step(second.formula, "hypothesis", 0)),
        "a derived line wider than w": wide,
        "a term longer than k": long_term,
        "unknown rule": replaced(2, step(intro.formula, "and_introduction", *intro.premises)),
    }
    for name, broken in cases.items():
        assert not check_trace(broken, hyps, target, k=2, w=2), name


def test_trace_checker_refuses_a_plain_frozenset_step_or_premise():
    # a plain frozenset equals the KDnf with the same terms; the replay
    # refuses it as a step's formula or premise instead of raising
    assert not check_trace([TraceStep(frozenset(), "hypothesis", (0,))], [BOTTOM], BOTTOM, 1, 1)
    hyps = [kd((1,)), kd((-1,), (2,))]
    accepted, trace = decide_resk_width(hyps, kd((2,)), k=1, w=1)
    cut = trace[-1]
    assert accepted and cut.rule == "cut" and check_trace(trace, hyps, kd((2,)), 1, 1)
    for broken in (
        TraceStep(frozenset(cut.formula), cut.rule, cut.premises),
        TraceStep(cut.formula, cut.rule, tuple(map(frozenset, cut.premises))),
    ):
        assert not check_trace(trace[:-1] + (broken,), hyps, kd((2,)), 1, 1)


def random_kdnf(rng, n, k, max_width):
    terms = []
    for _ in range(rng.randint(1, max_width)):
        size = rng.randint(1, k)
        vars_ = rng.sample(range(1, n + 1), min(size, n))
        terms.append(tuple(v if rng.random() < 0.5 else -v for v in vars_))
    return KDnf(terms)


def test_soundness_against_oracle_randomized():
    rng = random.Random(909)
    for _ in range(60):
        n = rng.randint(2, 4)
        k, w = 2, 2
        hyps = [random_kdnf(rng, n, k, w) for _ in range(rng.randint(1, 3))]
        target = random_kdnf(rng, n, k, w)
        accepted, trace = decide_resk_width(hyps, target, k, w)
        if accepted:
            assert entails([kdnf_to_formula(h) for h in hyps], kdnf_to_formula(target), n)
            assert check_trace(trace, hyps, target, k, w)


def test_refutation_restriction_closure_randomized():
    rng = random.Random(910)
    closed = 0
    while closed < 25:
        n = rng.randint(2, 3)
        k, w = 2, 2
        hyps = [random_kdnf(rng, n, k, w) for _ in range(rng.randint(2, 4))]
        accepted, _ = decide_resk_width(hyps, BOTTOM, k, w)
        if not accepted:
            continue
        closed += 1
        for _ in range(8):
            rho = random_partial(rng, n)
            restricted = []
            for h in hyps:
                r = restrict_kdnf(h, example(rho))
                if r != TRUE:
                    restricted.append(r)
            again, _ = decide_resk_width(restricted, BOTTOM, k, w)
            assert again


def test_table_growth_is_monotone():
    rng = random.Random(911)
    for _ in range(10):
        n = 3
        k, w = 2, 2
        hyps = [random_kdnf(rng, n, k, w) for _ in range(2)]
        target = random_kdnf(rng, n, k, w)
        stats = {}
        decide_resk_width(hyps, target, k, w, stats=stats)
        sizes = stats["table_sizes"]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert len(sizes) <= count_width_w_kdnfs(n, k, w) + 1


def count_width_w_kdnfs(n, k, w):
    literals = [s * v for v in range(1, n + 1) for s in (1, -1)]
    terms = []
    for size in range(1, k + 1):
        for combo in combinations(literals, size):
            if not any(-l in combo for l in combo):
                terms.append(frozenset(combo))
    total = 0
    for width in range(0, w + 1):
        total += len(list(combinations(terms, width)))
    return total


def test_kdnf_to_formula_semantics():
    phi = kd((1, -2), (3,))
    f = kdnf_to_formula(phi)
    for x in [(1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0)]:
        expected = (x[0] == 1 and x[1] == 0) or x[2] == 1
        assert evaluate(f, x) == expected
