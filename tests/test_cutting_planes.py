import random
from itertools import product

import pytest

from pacreason import backends
from pacreason.backends import CuttingPlanesBackend
from pacreason.errors import InputError, RuleError
from pacreason.formulas import PartialAssignment, TRUE
from pacreason.cutting_planes import (
    LinIneq,
    TRUTH_AXIOM,
    add_ineqs,
    check_target,
    check_trace,
    countermodel,
    decide_cp,
    divide_ineq,
    encode_clause_cp,
    multiply_ineq,
    restrict_ineq,
)
from pacreason.resolution import TAUTOLOGY, make_clause
from pacreason.saturation import TraceStep

from helpers import completions, decide_one, example, holds_at, prove_exit_code


def ineq(coeffs, bound):
    return LinIneq(coeffs, bound)


def test_norms():
    phi = ineq({1: 2, 2: -1}, 1)
    assert phi.sparsity == 2
    assert phi.l1_norm == 4


def test_divide_uses_ceiling():
    assert divide_ineq(ineq({1: 2, 2: 2}, 1), 2) == ineq({1: 1, 2: 1}, 1)
    assert divide_ineq(ineq({1: 2}, -3), 2) == ineq({1: 1}, -1)


def test_divide_rejects_nondivisor():
    with pytest.raises(RuleError):
        divide_ineq(ineq({1: 2, 2: 3}, 1), 2)
    with pytest.raises(RuleError):
        divide_ineq(ineq({1: 2}, 1), 0)


def test_addition_cancels_coefficients():
    assert add_ineqs(ineq({1: 1}, 1), ineq({1: -1}, 0)) == ineq({}, 1)


def test_multiply_scales():
    assert multiply_ineq(ineq({1: 1}, 0), 3) == ineq({1: 3}, 0)
    with pytest.raises(RuleError):
        multiply_ineq(ineq({1: 1}, 0), -2)
    with pytest.raises(RuleError):  # 1.5 * (x1 + x2 + x3 >= 3) would truncate to >= 4
        multiply_ineq(ineq({1: 1, 2: 1, 3: 1}, 3), 1.5)


def test_decide_accepts_contradiction_by_addition():
    hyps = [ineq({1: 1}, 1), ineq({1: -1}, 0)]
    accepted, trace = decide_cp(hyps, ineq({}, 1), w=1, L=2)
    assert accepted
    assert check_trace(trace, hyps, ineq({}, 1), w=1, L=2)


def test_decide_accepts_truth_axiom():
    accepted, trace = decide_cp([], TRUTH_AXIOM, w=0, L=1)
    assert accepted
    assert trace == (TraceStep(TRUTH_AXIOM, "AxiomStep", ()),)


def test_decide_rejects_semantically():
    accepted, trace = decide_cp([ineq({1: 1}, 0)], ineq({1: 1}, 1), w=1, L=2)
    assert not accepted and trace is None


def test_decide_validates_target_budget(tmp_path, capsys):
    # `decide_cp` takes a checked target; the CLI checks it once per run
    with pytest.raises(InputError):
        check_target(ineq({1: 1, 2: 1}, 1), w=1, L=4)
    with pytest.raises(InputError):
        check_target(ineq({1: 3}, 1), w=1, L=2)
    for flags, query, error in [
        (["--w", "1", "--L", "4"], "x1:1 x2:1 >= 1", "target sparsity 2 exceeds the bound 1"),
        (["--w", "1", "--L", "2"], "x1:3 >= 1", "target l1-norm 4 exceeds the bound 2"),
    ]:
        code = prove_exit_code(tmp_path, "cp", flags, "p cp 2 0\n", f"p cp 2 1\n{query}\n")
        assert (code, capsys.readouterr().err) == (2, f"error: {error}\n")


def test_unit_propagation_chain():
    # clauses x1, (x1 -> x2), (x2 -> x3) encoded as inequalities
    hyps = [
        encode_clause_cp(make_clause([1])),
        encode_clause_cp(make_clause([-1, 2])),
        encode_clause_cp(make_clause([-2, 3])),
    ]
    target = encode_clause_cp(make_clause([3]))
    accepted, trace = decide_cp(hyps, target, w=1, L=2)
    assert accepted
    assert check_trace(trace, hyps, target, w=1, L=2)


def test_division_needed_for_some_targets():
    # the hypothesis line itself has l1-norm 5, so the proof needs L >= 5
    hyps = [ineq({1: 2, 2: 2}, 1)]
    accepted, trace = decide_cp(hyps, ineq({1: 1, 2: 1}, 1), w=2, L=5)
    assert accepted
    assert check_trace(trace, hyps, ineq({1: 1, 2: 1}, 1), w=2, L=5)


def test_restrict_ineq_examples():
    phi = ineq({1: 2, 2: -1}, 1)
    assert restrict_ineq(phi, example("1*")) == TRUE
    assert restrict_ineq(phi, example("*1")) == ineq({1: 2}, 2)
    assert restrict_ineq(ineq({1: 1, 2: 1}, 1), example("0*")) == ineq({2: 1}, 1)


def test_restrict_never_grows_norms():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 4)
        phi = random_ineq(rng, n)
        rho = PartialAssignment(
            None if rng.random() < 0.5 else rng.randint(0, 1) for _ in range(n)
        )
        r = restrict_ineq(phi, example(rho))
        if r != TRUE:
            assert r.l1_norm <= phi.l1_norm
            assert r.sparsity <= phi.sparsity


def test_encode_clause_cp():
    assert encode_clause_cp(make_clause([1, -2])) == ineq({1: 1, 2: -1}, 0)
    assert encode_clause_cp(make_clause([1])) == ineq({1: 1}, 1)
    assert encode_clause_cp(make_clause([-1])) == ineq({1: -1}, 0)
    assert encode_clause_cp(frozenset()) == ineq({}, 1)
    with pytest.raises(InputError):
        encode_clause_cp(TAUTOLOGY)


def test_encode_clause_cp_violation_matches_falsification():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 4)
        width = rng.randint(1, n)
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width)]
        clause = make_clause(lits)
        encoded = encode_clause_cp(clause)
        for x in product((0, 1), repeat=n):
            satisfied = any((lit > 0) == bool(x[abs(lit) - 1]) for lit in clause)
            assert holds_at(encoded, x) == satisfied


def random_ineq(rng, n, max_coeff=2):
    width = rng.randint(1, n)
    vars_ = rng.sample(range(1, n + 1), width)
    coeffs = {v: rng.choice([-2, -1, 1, 2]) for v in vars_}
    return LinIneq(coeffs, rng.randint(-2, 2))


def test_accepts_are_semantically_sound_randomized():
    rng = random.Random(717)
    for _ in range(60):
        n = rng.randint(1, 4)
        hyps = [random_ineq(rng, n) for _ in range(rng.randint(0, 3))]
        w, L = 2, 4
        target = random_ineq(rng, n)
        if target.sparsity > w or target.l1_norm > L:
            continue
        accepted, trace = decide_cp(hyps, target, w, L)
        if not accepted:
            continue
        assert check_trace(trace, hyps, target, w, L)
        for x in product((0, 1), repeat=n):
            if all(holds_at(h, x) for h in hyps):
                assert holds_at(target, x)


def test_restriction_closure_randomized():
    rng = random.Random(718)
    closed = 0
    while closed < 25:
        n = rng.randint(1, 3)
        hyps = [random_ineq(rng, n) for _ in range(rng.randint(1, 3))]
        w, L = 2, 4
        target = random_ineq(rng, n)
        if target.sparsity > w or target.l1_norm > L:
            continue
        backend = CuttingPlanesBackend(w, L, n)
        if not backend.decide(target, hyps):
            continue
        closed += 1
        for _ in range(6):
            rho = PartialAssignment(
                None if rng.random() < 0.5 else rng.randint(0, 1) for _ in range(n)
            )
            assert decide_one(backend, target, hyps, example(rho))


def test_trace_checker_rejects_tampering():
    hyps = [ineq({1: 1}, 1), ineq({1: -1}, 0)]
    accepted, trace = decide_cp(hyps, ineq({}, 1), w=1, L=2)
    assert accepted
    broken = trace[:-1] + (TraceStep(ineq({}, 1), "HypothesisStep", (0,)),)
    assert not check_trace(broken, hyps, ineq({}, 1), w=1, L=2)


def test_trace_checker_rejects_each_malformed_step():
    hyps = [ineq({1: -2, 2: -2}, -1)]
    target = ineq({1: -1, 2: 2}, 0)
    accepted, trace = decide_cp(hyps, target, w=2, L=5)
    assert accepted
    axiom, product, hyp, quotient, total = trace
    assert [step.rule for step in trace] == [
        "AxiomStep", "MultiplyStep", "HypothesisStep", "DivideStep", "AddStep"
    ]
    assert check_trace(trace, hyps, target, w=2, L=3)  # the hypothesis (l1-norm 5) is exempt
    other = hyps + [ineq({1: 1}, 0)]
    assert check_trace(trace, other, target, w=2, L=5)

    def step(formula, rule, *premises):
        return TraceStep(formula, rule, premises)

    def replaced(i, new):
        return trace[:i] + (new,) + trace[i + 1:]

    x2 = axiom.formula
    cases = {
        "premise not derived": replaced(1, step(ineq({1: 3}, 0), "MultiplyStep", ineq({1: 1}, 0), 3)),
        "premise given as an index": replaced(4, step(target, "AddStep", 1, 3)),
        "step before its premise": (axiom, product, quotient, hyp, total),
        "unknown rule": replaced(0, step(x2, "WeakenStep")),
        "one premise to an addition": replaced(4, step(target, "AddStep", product.formula)),
        "no factor": replaced(1, step(product.formula, "MultiplyStep", x2)),
        "an extra premise": replaced(1, step(product.formula, "MultiplyStep", x2, 3, 1)),
        "a premise to an axiom": replaced(0, step(x2, "AxiomStep", 0)),
        "a second hypothesis index": replaced(2, step(hyp.formula, "HypothesisStep", 0, 0)),
        "factor 0": replaced(1, step(ineq({}, 0), "MultiplyStep", x2, 0)),
        "factor -1": replaced(1, step(ineq({2: -1}, 0), "MultiplyStep", x2, -1)),
        # LinIneq truncates 3.5 * x2 >= 0 to 3*x2 >= 0, so the factor's type must be checked
        "factor 3.5": replaced(1, step(product.formula, "MultiplyStep", x2, 3.5)),
        "divisor 3 of -2": replaced(3, step(quotient.formula, "DivideStep", hyp.formula, 3)),
        "divisor 0": replaced(3, step(quotient.formula, "DivideStep", hyp.formula, 0)),
        "divisor -2": replaced(3, step(ineq({1: 1, 2: 1}, 1), "DivideStep", hyp.formula, -2)),
        "hypothesis index out of range": replaced(2, step(hyp.formula, "HypothesisStep", 1)),
        "negative hypothesis index": replaced(2, step(hyp.formula, "HypothesisStep", -1)),
        "non-axiom labelled AxiomStep": replaced(2, step(hyp.formula, "AxiomStep")),
        # a plain tuple equals the LinIneq with the same fields
        "a plain tuple as a formula": replaced(0, step(tuple(x2), "AxiomStep")),
        "plain tuples as addends": replaced(4, step(target, "AddStep", *map(tuple, total.premises))),
        "a plain tuple multiplied": replaced(1, step(product.formula, "MultiplyStep", tuple(x2), product.premises[1])),
        "last step not the target": trace[:-1],
        "empty trace": (),
    }
    for name, broken in cases.items():
        assert not check_trace(broken, hyps, target, w=2, L=5), name
    tampered_hyp = replaced(2, step(hyp.formula, "HypothesisStep", 1))
    assert not check_trace(tampered_hyp, other, target, w=2, L=5)  # index 1 names x1 >= 0
    assert not check_trace(trace, hyps, target, w=1, L=5)  # a derived line over w
    assert not check_trace(trace, hyps, target, w=2, L=2)  # a derived line over L


def test_countermodel_falsifies_the_target_then_meets_each_hypothesis():
    # x1 - x2 >= 1 fails at x1 = 0, x2 = 1; x2 + x3 >= 1 is then witnessed
    # true, and 2*x3 - x4 >= 1 is met by x3 = 1 alone, so x4 stays free
    hyps = (ineq({2: 1, 3: 1}, 1), ineq({3: 2, 4: -1}, 1))
    assert countermodel(hyps, ineq({1: 1, 2: -1}, 1)) == {1: 0, 2: 1, 3: 1}
    # a constant line that holds is skipped, one that fails gets the pass stuck
    assert countermodel((ineq({}, -2),), ineq({1: 1}, 1)) == {1: 0}
    assert countermodel((ineq({}, 1),), ineq({1: 1}, 1)) is None
    # x1 >= 1 cannot hold once the target has made x1 false
    assert countermodel((ineq({1: 1}, 1),), ineq({1: 1, 2: 1}, 1)) is None
    # a target witnessed true has no countermodel
    assert countermodel((), ineq({1: -1}, -1)) is None


def test_countermodel_first_fixes_what_one_variable_hypotheses_force():
    # x3 >= 1 forces x3 = 1 before x2 + x3 >= 1 is reached in order, so the
    # pass leaves x2 free; -x4 >= 0 forces x4 = 0, and 2*x5 >= -1 holds at
    # both values and forces nothing
    hyps = (ineq({2: 1, 3: 1}, 1), ineq({3: 1}, 1), ineq({4: -1}, 0), ineq({5: 2}, -1))
    assert countermodel(hyps, ineq({1: 1}, 1)) == {1: 0, 3: 1, 4: 0}
    # a forced value that clashes with the target's, or with another forced
    # value, and a one-variable hypothesis that holds at neither value get
    # the pass stuck
    assert countermodel((ineq({1: -1}, 0),), ineq({1: -1}, 0)) is None
    assert countermodel((ineq({2: 1}, 1), ineq({2: -1}, 0)), ineq({1: 1}, 1)) is None
    assert countermodel((ineq({2: 2}, 3),), ineq({1: 1}, 1)) is None


def test_countermodel_settles_the_iid_probe_instance_that_the_in_order_pass_missed(monkeypatch):
    # a restricted instance of the seed-1 benchmark stream (cp, example 43):
    # in hypothesis order, x6 + x10 >= 1 would make x6 true before x10 >= 1
    # is reached, and x1 - x6 >= 0 then fails with x1 false.  x10 >= 1 forces
    # x10 first, and every completion of the model refutes the instance
    target = ineq({1: 1}, 1)
    hyps = tuple(ineq(dict(coeffs), bound) for coeffs, bound in [
        ({1: 1, 7: 1}, 1), ({6: 1, 10: 1}, 1), ({1: 1}, 0), ({7: 1}, -1), ({7: 1}, 0),
        ({4: 1, 7: 1, 10: 1}, 1), ({1: -1}, -2), ({6: 1, 7: -1}, -1), ({10: 1}, 1),
        ({6: -1}, -2), ({1: 1, 6: -1}, 0), ({4: -1, 6: 1, 7: 1}, 0), ({10: 1}, -1),
        ({4: -1}, -2),
    ])
    model = countermodel(hyps, target)
    assert model == {1: 0, 10: 1, 7: 1, 6: 0}
    rho = PartialAssignment(model.get(v) for v in range(1, 11))
    for x in completions(rho):
        assert all(holds_at(h, x) for h in hyps) and not holds_at(target, x), x
    # the backend's pass rejects it without decide_cp, which keeps cp rejects
    # cheap: without the pass, iid-probe's cp `decide` runs several times
    # longer.  decide_cp raises here, so a backend that lost its pass fails
    def refuse(*args):
        raise AssertionError("decide_cp ran on an instance the pass settles")

    monkeypatch.setattr(backends, "decide_cp", refuse)
    assert CuttingPlanesBackend(w=2, L=3, n=10).decide(target, hyps) is None
