"""The derivation-table engine: the RES(k) and cutting-planes deciders built on
it against the reference deciders with their own round loops, the engine's
`stats` contract, and the cutting-planes backend, whose countermodel pass
settles rejects before the engine runs, against both deciders."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from pacreason import res_k
from pacreason.backends import CuttingPlanesBackend, ResKWidthBackend
from pacreason.cutting_planes import (
    LinIneq,
    TRUTH_AXIOM,
    countermodel,
    decide_cp,
    encode_clause_cp,
    is_axiom,
    var_at_most_one,
    var_nonneg,
)
from pacreason.formulas import PartialAssignment, TRUE
from pacreason.res_k import BOTTOM, KDnf, decide_resk_width, negate_query
from pacreason.resolution import make_clause
from pacreason.sampling import (
    ExplicitDistribution,
    IndependentMask,
    TableMask,
    draw_masked_examples,
)
from pacreason.saturation import TraceStep

from helpers import (
    completions,
    holds_at,
    reference_cut_results,
    reference_decide_cp,
    reference_decide_resk_width,
    reference_elim_results,
    reference_weaken_results,
)


def random_resk_instance(rng):
    """n <= 3, k <= 2, w <= 3; up to four hypotheses, some wider than w, some
    repeated, in some instances all clauses; the target is bottom, an
    in-budget hypothesis or random."""
    n = rng.randint(1, 3)
    k = rng.randint(1, 2)
    w = rng.randint(0, 3 if n * k <= 4 else 2)
    clausal = rng.random() < 0.3  # unit terms only: wide clauses that cut to narrow ones

    def kdnf(min_width, max_width):
        terms = []
        for _ in range(rng.randint(min_width, max_width)):
            size = 1 if clausal else rng.randint(1, min(k, n))
            vars_ = rng.sample(range(1, n + 1), size)
            terms.append([v if rng.random() < 0.5 else -v for v in vars_])
        return KDnf(terms)

    hyps = []
    for _ in range(rng.randint(2 if clausal else 0, 5 if clausal else 4)):
        hyps.append(rng.choice(hyps) if hyps and rng.random() < 0.2 else kdnf(1, w + 2))
    in_budget = [h for h in hyps if h.width <= w]
    roll = rng.random()
    if roll < 0.4 or clausal:
        target = BOTTOM
    elif roll < 0.55 and in_budget:
        target = rng.choice(in_budget)
    else:
        target = kdnf(0, w)
    return hyps, target, k, w


def random_cp_instance(rng):
    """n <= 3, w <= 2, L <= 3, coefficients up to 3 in magnitude; up to four
    hypotheses, many over budget, some repeated; the target is an axiom, an
    in-budget hypothesis, 0 >= 1 or a random in-budget inequality."""
    n = rng.randint(1, 3)
    w = rng.randint(0, 2)
    L = rng.randint(1, 3)

    def ineq():
        vars_ = rng.sample(range(1, n + 1), rng.randint(0, n))
        return LinIneq({v: rng.choice([-3, -2, -1, 1, 2, 3]) for v in vars_}, rng.randint(-3, 3))

    def fits(phi):
        return phi.sparsity <= w and phi.l1_norm <= L

    hyps = []
    for _ in range(rng.randint(0, 4)):
        hyps.append(rng.choice(hyps) if hyps and rng.random() < 0.2 else ineq())
    in_budget = [h for h in hyps if fits(h)]
    v = rng.randint(1, n)
    roll = rng.random()
    if roll < 0.1:
        target = rng.choice([a for a in (TRUTH_AXIOM, var_nonneg(v), var_at_most_one(v)) if fits(a)])
    elif roll < 0.25 and in_budget:
        target = rng.choice(in_budget)
    elif roll < 0.4:
        target = LinIneq({}, 1)
    else:
        target = ineq()
        while not fits(target):
            target = ineq()
    return hyps, target, w, L


def test_resk_matches_the_reference_decider():
    rng = random.Random(6001)
    kinds = Counter()
    for _ in range(2000):
        hyps, target, k, w = random_resk_instance(rng)
        stats, reference_stats = {}, {}
        accepted, trace = decide_resk_width(hyps, target, k, w, stats=stats)
        assert (accepted, trace) == reference_decide_resk_width(
            hyps, target, k, w, stats=reference_stats
        )
        assert stats == reference_stats
        kinds["wide"] += any(h.width > w for h in hyps)
        kinds["duplicate"] += len(set(hyps)) < len(hyps)
        kinds["input target"] += target in hyps and target.width <= w
        kinds["fixpoint reject"] += not accepted
        kinds["wide premise"] += accepted and any(
            step.rule == "hypothesis" and step.formula.width > w for step in trace
        )
    assert min(kinds.values()) >= 50, kinds


def test_cp_matches_the_reference_decider():
    rng = random.Random(6002)
    kinds = Counter()
    for _ in range(2000):
        hyps, target, w, L = random_cp_instance(rng)
        stats, reference_stats = {}, {}
        accepted, trace = decide_cp(hyps, target, w, L, stats=stats)
        assert (accepted, trace) == reference_decide_cp(hyps, target, w, L, stats=reference_stats)
        if reference_stats:
            assert stats == reference_stats
        else:  # the reference records nothing when it accepts before the first round
            assert accepted and len(stats["table_sizes"]) == 1
        kinds["over budget"] += any(h.sparsity > w or h.l1_norm > L for h in hyps)
        kinds["duplicate"] += len(set(hyps)) < len(hyps)
        kinds["axiom target"] += is_axiom(target)
        kinds["input target"] += target in hyps
        kinds["fixpoint reject"] += not accepted
        kinds["over-budget premise"] += accepted and any(
            step.rule == "HypothesisStep"
            and (step.formula.sparsity > w or step.formula.l1_norm > L)
            for step in trace
        )
        for rule in ("MultiplyStep", "DivideStep"):
            kinds[f"accepted trace with a {rule}"] += accepted and any(
                step.rule == rule for step in trace
            )
    assert min(kinds.values()) >= 50, kinds


# table-birds' scenario: BIRD=1, FLIES=2, WINGS=3, FEATHERS=4, EGGS=5,
# PENGUIN=6, SWIMS=7, NEST=8; each point with its weight and hidden roles
BIRD_RULES = ((-1, 3), (-1, 4), (-1, 5), (-3, 2), (-6, 1), (-6, 7), (-6, -2), (-8, 5))
BIRD_POINTS = (
    ("3/20", {1, 2, 3, 4, 5}, {2, 3}),
    ("3/20", {1, 2, 3, 4, 5, 7}, {2}),
    ("3/20", {1, 2, 3, 4, 5, 8}, {2, 4}),
    ("3/20", {1, 2, 3, 4, 5, 7, 8}, {2, 3, 5}),
    ("1/20", {1, 3, 4, 5, 6, 7}, {2, 6}),
    ("1/20", {1, 3, 4, 5, 6, 7, 8}, {2, 7}),
    ("1/10", {2, 3}, {2}),
    ("1/20", set(), {2}),
    ("1/20", {5}, {2, 3}),
    ("1/20", {7}, {2, 1}),
    ("1/20", {5, 7}, {2, 5}),
)


def birds_stream():
    """The birds KB under its table mask, at k=2, w=2, with query FLIES."""
    points = {
        tuple(int(v in on) for v in range(1, 9)): (w, hidden) for w, on, hidden in BIRD_POINTS
    }
    dist = ExplicitDistribution(8, [(x, Fraction(w)) for x, (w, _) in points.items()])
    mask = TableMask({x: hidden for x, (_, hidden) in points.items()})
    clauses = [make_clause(rule) for rule in BIRD_RULES]
    return 8, 2, 2, clauses, make_clause([2]), draw_masked_examples(dist, mask, 400, 11)


def random_3cnf_stream():
    """n=10, 14 random 3-clauses, up to 40 support points that satisfy them,
    iid:1/3, at k=2, w=1, with query x1 | x2."""
    rng = random.Random(6003)
    clauses = [
        make_clause(v if rng.getrandbits(1) else -v for v in rng.sample(range(1, 11), 3))
        for _ in range(14)
    ]
    points = set()
    for _ in range(4000):
        x = tuple(rng.getrandbits(1) for _ in range(10))
        if all(any((x[abs(lit) - 1] == 1) == (lit > 0) for lit in c) for c in clauses):
            points.add(x)
        if len(points) == 40:
            break
    dist = ExplicitDistribution.uniform(sorted(points))
    examples = draw_masked_examples(dist, IndependentMask(Fraction(1, 3)), 3000, 12)
    return 10, 2, 1, clauses, make_clause([1, 2]), examples


def in_term_order(results) -> list:
    return [list(result) for result in results]


def assert_rules_keep_the_term_order(lines, k, w):
    """Each rule's results on `lines`, as the kernel builds them without
    `make_term`, iterate their terms as the `KDnf`-built ones do."""
    variables = tuple(sorted(set().union(*(phi.variables() for phi in lines))))
    universe = res_k._term_universe(variables, k)
    for psi1 in lines:
        assert in_term_order(res_k._elim_results(psi1)) == in_term_order(reference_elim_results(psi1))
        assert in_term_order(res_k._weaken_results(psi1, universe, w)) == in_term_order(
            reference_weaken_results(psi1, universe, w)
        )
        for psi2 in lines:
            assert in_term_order(res_k._cut_results(psi1, psi2, w)) == in_term_order(
                reference_cut_results(psi1, psi2, w)
            )


def cuts_a_later_term(psi1, psi2) -> bool:
    """Only a term of psi1 after its first (in iteration order) cuts into psi2."""
    fits = [all(frozenset((-lit,)) in psi2 for lit in term) for term in psi1]
    return not fits[0] and any(fits[1:])


@pytest.mark.parametrize(
    "stream, required",
    [
        (birds_stream, ("accepted", "rejected", "later term cut")),
        (random_3cnf_stream, ("accepted", "rejected", "later term cut", "wide cut premise")),
    ],
)
def test_resk_matches_the_reference_on_the_instances_of_a_stream(stream, required):
    # every distinct restricted instance of a seeded stream, as the backend
    # hands it to the kernel, that the plain loop would search.  The rules'
    # results must also iterate their terms in the reference's order: that
    # order decides the order of later offers, and so the provenance that a
    # trace records
    n, k, w, clauses, query, examples = stream()
    backend = ResKWidthBackend(k, w, n)
    hyps = tuple(KDnf([[lit] for lit in c]) for c in clauses)
    query = (negate_query([query], k),)
    instances = {}
    for rho in examples:
        restricted = backend.restrict_query(query, rho)
        if restricted is not TRUE:
            instances.setdefault(backend.restrict_hyps(hyps, rho) + restricted, None)

    kinds = Counter()
    for hyps in instances:
        stats, reference_stats = {}, {}
        accepted, trace = decide_resk_width(hyps, BOTTOM, k, w, stats=stats)
        assert (accepted, trace) == reference_decide_resk_width(
            hyps, BOTTOM, k, w, stats=reference_stats
        )
        assert stats == reference_stats
        lines = [*dict.fromkeys([*hyps, *(step.formula for step in trace or ())])]
        assert_rules_keep_the_term_order(lines, k, w)
        kinds["accepted" if accepted else "rejected"] += 1
        if accepted:
            cuts = [step.premises for step in trace if step.rule == "cut"]
            kinds["wide cut premise"] += any(p.width > w for pair in cuts for p in pair)
            kinds["later term cut"] += any(cuts_a_later_term(*pair) for pair in cuts)
    assert all(kinds[kind] for kind in required), kinds


def cp_stream_instances(stream, m):
    """The distinct cutting-planes instances (n, w, L, target, hyps), at w=2
    and L=3, that the first m examples of a stream restrict its clauses and
    query to, encoded as inequalities; a query the example settles gives
    none.  These are every instance the plain loop would search."""
    n, _, _, clauses, query, examples = stream()
    backend = CuttingPlanesBackend(2, 3, n)
    hyps = tuple(encode_clause_cp(c) for c in clauses)
    query = encode_clause_cp(query)
    instances = {}
    for rho in examples[:m]:
        target = backend.restrict_query(query, rho)
        if target is not TRUE:
            instances.setdefault((target, backend.restrict_hyps(hyps, rho)), None)
    return [(n, 2, 3, target, hyps) for target, hyps in instances]


def cp_fuzz_instances():
    rng = random.Random(6004)
    for _ in range(1500):
        hyps, target, w, L = random_cp_instance(rng)
        yield 3, w, L, target, tuple(hyps)


def assert_countermodel(model, hyps, target, n):
    """Every completion of `model` over the instance's variables satisfies
    each hypothesis and falsifies the target."""
    variables = set(model).union(*(h.variables() for h in hyps), target.variables())
    rho = PartialAssignment(
        model.get(v, None if v in variables else 0) for v in range(1, n + 1)
    )
    for x in completions(rho):
        assert all(holds_at(h, x) for h in hyps), (hyps, target, model, x)
        assert not holds_at(target, x), (hyps, target, model, x)


@pytest.mark.parametrize(
    "cases, floors",
    [
        (lambda: cp_stream_instances(birds_stream, 400), {"settled": 4, "accepted": 5}),
        (lambda: cp_stream_instances(random_3cnf_stream, 120), {"settled": 51, "accepted": 5}),
        (cp_fuzz_instances, {"settled": 432, "accepted": 700, "rejected, pass stuck": 130}),
    ],
    ids=["birds", "random-3cnf", "fuzz"],
)
def test_cp_countermodel_pass_keeps_the_verdicts_of_both_deciders(cases, floors):
    # the backend's decide tries the pass before decide_cp; it must reject
    # exactly what decide_cp and the reference decider reject, and give
    # decide_cp's trace on an accept.  Every model the pass returns is
    # checked at each of its completions
    kinds = Counter()
    for n, w, L, target, hyps in cases():
        found = CuttingPlanesBackend(w, L, n).decide(target, hyps)
        accepted, trace = decide_cp(list(hyps), target, w, L)
        assert found == trace, (hyps, target)
        assert reference_decide_cp(list(hyps), target, w, L)[0] == accepted, (hyps, target)
        model = countermodel(hyps, target)
        if model is not None:
            assert_countermodel(model, hyps, target, n)
            kinds["settled"] += 1
        elif not accepted:
            kinds["rejected, pass stuck"] += 1
        kinds["accepted"] += accepted
    assert all(kinds[kind] >= floor for kind, floor in floors.items()), kinds


def test_resk_records_the_initial_table_when_the_target_is_an_input():
    hyps = [KDnf([[1]]), KDnf([[-1], [2]]), KDnf([[1], [2], [3]])]
    stats = {}
    accepted, trace = decide_resk_width(hyps, KDnf([[-1], [2]]), k=1, w=2, stats=stats)
    assert accepted and len(trace) == 1
    assert stats == {"table_sizes": [2]}


def test_cp_records_the_initial_table_when_the_target_is_an_axiom_or_an_input():
    stats = {}
    assert decide_cp([], LinIneq({1: 1}, 0), 2, 3, stats=stats)[0]
    assert stats == {"table_sizes": [3]}  # 0 >= -1, x1 >= 0, -x1 >= -1

    hyps = [LinIneq({2: 1}, 1), LinIneq({1: 3, 2: 1}, 1)]
    stats = {}
    accepted, trace = decide_cp(hyps, hyps[0], 2, 3, stats=stats)
    assert accepted and trace == (TraceStep(hyps[0], "HypothesisStep", (0,)),)
    assert stats == {"table_sizes": [6]}  # five axioms and the in-budget hypothesis
