"""The derivation-table engine: the RES(k) and cutting-planes deciders built on
it against the reference deciders with their own round loops, and the
engine's `stats` contract."""

import random
from collections import Counter

from pacreason.cutting_planes import (
    LinIneq,
    TRUTH_AXIOM,
    decide_cp,
    is_axiom,
    var_at_most_one,
    var_nonneg,
)
from pacreason.res_k import BOTTOM, KDnf, decide_resk_width
from pacreason.saturation import TraceStep

from helpers import reference_decide_cp, reference_decide_resk_width


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
