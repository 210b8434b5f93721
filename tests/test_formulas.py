import copy
import pickle
import random
import re
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

from pacreason.cutting_planes import LinIneq, restrict_ineq
from pacreason.decide_pac import PacOutcome, PacParams
from pacreason.errors import InputError
from pacreason.formulas import (
    Const,
    FALSE,
    Not,
    PartialAssignment,
    TRUE,
    Threshold,
    Var,
    WitnessStatus,
    conjunction,
    disjunction,
    evaluate,
    literal,
    refine,
    restrict,
    witness_status,
)
from pacreason.polycalc import Polynomial
from pacreason.res_k import KDnf, restrict_kdnf
from pacreason.resolution import (
    TAUTOLOGY, Cnf, Cut, Leaf, Weaken, encode_clause, make_clause, restrict_mask,
)
from pacreason.sampling import ExplicitDistribution, FixedMask, IndependentMask, TableMask
from pacreason.saturation import TraceStep

from helpers import (
    completions,
    example,
    false_mask,
    random_formula,
    random_partial,
    reference_restrict,
    reference_witness_status,
)


def pa(text):
    return PartialAssignment.from_string(text)


def clause_x1_notx2_x3():
    return disjunction([Var(1), Not(Var(2)), Var(3)])


def test_evaluate_threshold_negative_coefficient():
    phi = Threshold((2, -3), (Var(1), Var(2)), 0)
    assert evaluate(phi, (1, 1)) is False


def test_evaluate_and_via_threshold():
    phi = conjunction([Var(1), Var(2)])
    assert evaluate(phi, (1, 1)) is True
    assert evaluate(phi, (1, 0)) is False


def test_evaluate_negation():
    assert evaluate(Not(Var(1)), (0,)) is True


def test_evaluate_out_of_range():
    with pytest.raises(InputError):
        evaluate(Var(3), (0, 1))


def test_witness_and_needs_both_children():
    phi = conjunction([Var(1), Var(2)])
    # oracle: over completions of (1,*), x2=0 falsifies and x2=1 satisfies
    rho = pa("1*")
    outcomes = {evaluate(phi, x) for x in completions(rho)}
    assert outcomes == {True, False}
    assert witness_status(phi, rho) is WitnessStatus.UNWITNESSED


def test_witness_clause_satisfied_literal():
    assert witness_status(clause_x1_notx2_x3(), pa("*0*")) is WitnessStatus.WITNESSED_TRUE


def test_witness_unset_variable():
    phi = Threshold((1,), (Var(1),), 1)
    assert witness_status(phi, pa("*")) is WitnessStatus.UNWITNESSED


def test_restrict_clause_drops_falsified_literal():
    got = restrict(clause_x1_notx2_x3(), pa("*1*"))
    assert got == Threshold((1, 1), (Var(1), Var(3)), 1)


def test_restrict_witnessed_clause_is_const_true():
    assert restrict(clause_x1_notx2_x3(), pa("*0*")) == Const(True)


def test_restrict_threshold_updates_bound():
    got = restrict(conjunction([Var(1), Var(2)]), pa("1*"))
    assert got == Threshold((1,), (Var(2),), 1)


def test_refine_merges_coordinates():
    assert refine(pa("1**"), {2: 0}) == pa("10*")
    assert refine(pa("**"), {}) == pa("**")
    assert refine(pa("0*"), {2: 1}) == pa("01")


def test_refine_rejects_set_coordinate():
    with pytest.raises(InputError):
        refine(pa("1*"), {1: 0})


def test_threshold_requires_children():
    with pytest.raises(InputError):
        Threshold((), (), 0)


def test_literal_helper():
    assert literal(2, True) == Var(2)
    assert literal(2, False) == Not(Var(2))


def test_restriction_and_witnessing_soundness_randomized():
    rng = random.Random(20240901)
    for _ in range(400):
        n = rng.randint(1, 6)
        phi = random_formula(rng, n)
        rho = random_partial(rng, n)
        status = witness_status(phi, rho)
        simplified = restrict(phi, rho)
        values = set()
        for x in completions(rho):
            v = evaluate(phi, x)
            assert evaluate(simplified, x) == v
            values.add(v)
        if status is WitnessStatus.WITNESSED_TRUE:
            assert values == {True}
            assert simplified == Const(True)
        elif status is WitnessStatus.WITNESSED_FALSE:
            assert values == {False}
            assert simplified == Const(False)
        else:
            assert simplified != Const(True)


def test_staged_restriction_randomized():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 6)
        phi = random_formula(rng, n)
        rho = random_partial(rng, n)
        # split rho into a coarser sigma plus the refinement tau back to rho
        sigma_entries = []
        tau = {}
        for i, e in enumerate(rho, start=1):
            if e is not None and rng.random() < 0.5:
                sigma_entries.append(None)
                tau[i] = e
            else:
                sigma_entries.append(e)
        sigma = PartialAssignment(sigma_entries)
        assert refine(sigma, tau) == rho
        assert restrict(phi, rho) == restrict(restrict(phi, sigma), sigma_to_tau(sigma, tau, n))


def sigma_to_tau(sigma, tau, n):
    # tau as a partial assignment over all n coordinates (masked elsewhere)
    return PartialAssignment(
        tau.get(i) if sigma[i - 1] is None else None for i in range(1, n + 1)
    )


def test_restrict_idempotent_under_empty_refinement():
    rng = random.Random(5)
    empty = {}
    for _ in range(100):
        n = rng.randint(1, 5)
        phi = random_formula(rng, n)
        rho = random_partial(rng, n)
        once = restrict(phi, rho)
        assert restrict(once, PartialAssignment.all_masked(n)) == once
        assert refine(rho, empty) == rho


def test_partial_assignment_parsing_roundtrip():
    rho = pa("1*0")
    assert rho.value(1) == 1 and rho.value(2) is None and rho.value(3) == 0
    assert str(rho) == "1*0"
    with pytest.raises(InputError):
        pa("10x")


@pytest.mark.parametrize("bad", [2, -1, "1", [], 1.0, 0.0, Fraction(1)])
def test_partial_assignment_rejects_bad_entries(bad):
    with pytest.raises(InputError, match=rf"must be 0, 1 or \*, got {re.escape(repr(bad))}$"):
        PartialAssignment((1, None, bad, 0))


def test_partial_assignment_stores_bools_as_ints():
    rho = PartialAssignment((True, None, False))
    assert [type(e) for e in rho] == [int, type(None), int]
    assert rho == pa("1*0") and str(rho) == "1*0"
    assert [type(e) for e in refine(pa("**"), {1: True, 2: False})] == [int, int]


@pytest.mark.parametrize("bad", [2, 1.0, 0.0, Fraction(1), None, "1"])
def test_refine_rejects_a_value_other_than_0_or_1(bad):
    with pytest.raises(InputError, match=rf"must be 0 or 1, got {re.escape(repr(bad))}$"):
        refine(pa("1*"), {2: bad})


def test_fraction_coefficients_are_exact():
    phi = Threshold((Fraction(1, 3), Fraction(2, 3)), (Var(1), Var(2)), 1)
    assert evaluate(phi, (1, 1)) is True
    assert evaluate(phi, (0, 1)) is False


def test_one_pass_restriction_matches_the_two_recursion_reference():
    rng = random.Random(1101)
    statuses = set()
    for depth in range(5):
        for _ in range(1000):
            n = rng.randint(1, 5)
            phi = random_formula(rng, n, depth)
            rho = random_partial(rng, n)
            assert repr(restrict(phi, rho)) == repr(reference_restrict(phi, rho))
            status = witness_status(phi, rho)
            assert status is reference_witness_status(phi, rho)
            statuses.add((depth, status))
    # every depth meets every status, so no branch goes unexercised
    assert len(statuses) == 15


def test_witnessed_items_restrict_to_the_one_true():
    rho = pa("10*")
    assert TAUTOLOGY is TRUE
    assert restrict(clause_x1_notx2_x3(), rho) is TRUE
    assert restrict_mask(encode_clause(make_clause([-1, -2, 3])), example(rho), false_mask(rho)) is TRUE
    assert restrict_kdnf(KDnf([[1, -2], [3]]), example(rho)) is TRUE
    assert restrict_ineq(LinIneq([(1, 1), (3, -1)], 0), example(rho)) is TRUE
    assert Cnf([TAUTOLOGY, TAUTOLOGY], 3).clauses == (TAUTOLOGY,)
    assert Cnf([make_clause([1, -1]), [2], TAUTOLOGY], 3).clauses == (TAUTOLOGY, frozenset({2}))


# every Record class with normalized field values, which construction keeps
RECORDS = [
    (Const, (True,)),
    (Var, (3,)),
    (Not, (Var(1),)),
    (Threshold, ((Fraction(1), Fraction(-2)), (Var(1), Not(Var(2))), Fraction(1, 2))),
    (Leaf, (frozenset({1}),)),
    (Weaken, (frozenset({1, 2}), Leaf(frozenset({1})))),
    (Cut, (1, Leaf(frozenset({1})), Leaf(frozenset({-1})), frozenset())),
    (FixedMask, (frozenset({2}),)),
    (IndependentMask, (Fraction(1, 3),)),
    (TraceStep, (KDnf([[1]]), "cut", (KDnf([[1], [2]]), 0))),
    (PacParams, (Fraction(1, 5), Fraction(1, 10), Fraction(1, 20))),
    (PacOutcome, ("Accept", 0, 1, 2, (True, True))),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_behaves_as_the_frozen_dataclass_it_replaced(cls, values):
    # the field-tuple hash fixes set and dict order, and with it traces and
    # reports, so it must stay exactly the dataclass hash; the repr is the
    # dataclass repr
    frozen = make_dataclass(cls.__name__, cls.__slots__, frozen=True)(*values)
    record = cls(*values)
    assert repr(record) == repr(frozen)
    assert hash(record) == hash(frozen) == hash(values)
    assert record == cls(**dict(zip(cls.__slots__, values)))
    assert record != frozen
    assert copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        setattr(record, cls.__slots__[0], values[0])
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        delattr(record, cls.__slots__[0])


def test_record_equality_needs_the_same_class():
    assert repr(Var(1)) == "Var(index=1)"
    assert Var(1) == Var(index=1) and Var(1) != Var(2)
    assert Var(1) != Const(True)  # equal field tuples, (1,) == (True,)
    assert hash(Var(3)) == hash((3,))


def test_record_construction():
    assert Threshold(coeffs=[1], children=[Var(1)], bound=1) == Threshold((1,), (Var(1),), 1)
    left, right = Leaf(frozenset({1})), Leaf(frozenset({-1}))
    assert Cut(1, left, right=right, clause=frozenset()) == Cut(1, left, right, frozenset())
    with pytest.raises(InputError):
        Var(index=0)  # the check runs on keyword construction too
    for bad in ((), (1, 2)):
        with pytest.raises(TypeError):
            Var(*bad)
    with pytest.raises(TypeError):
        Var(1, index=1)
    with pytest.raises(TypeError):
        Not(child=Var(1), parent=None)


@pytest.mark.parametrize("value", [
    Cnf([[1]], 1),
    Polynomial([([1], 1)]),
    ExplicitDistribution.uniform([(0,)]),
    TableMask({(0,): {1}}),
], ids=lambda value: type(value).__name__)
def test_hand_written_values_inherit_record_immutability(value):
    # these keep their own repr; Cnf takes the Record equality and hash, and
    # the others keep their own equality and stay unhashable
    name = type(value).__name__
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        delattr(value, field)
    if isinstance(value, Cnf):
        same = Cnf([frozenset({1}), [1]], 1)
        assert same == value and hash(same) == hash(value) == hash(((frozenset({1}),), 1))
        assert Cnf([[1]], 2) != value and Cnf([[-1]], 1) != value
    else:
        with pytest.raises(TypeError):
            hash(value)


# one instance of every value class of the package: each Record subclass and
# the three container values (tests/test_source_rules.py keeps the list whole)
VALUES = [
    Cnf([[1, -2], TAUTOLOGY, []], 2),
    Polynomial([([1, -2], Fraction(1, 2)), ([], 3)]),
    ExplicitDistribution.uniform([(0, 1), (1, 1)]),
    TableMask({(0,): {1}, (1,): set()}),
    FixedMask(frozenset({2})),
    IndependentMask(Fraction(1, 3)),
    PacParams(Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)),
    PacOutcome("Accept", 0, 1, 2, (True, True)),
    KDnf([[1, -2], [3]]),
    LinIneq([(1, 2), (3, -1)], 1),
    PartialAssignment.from_string("1*0"),
    TraceStep(LinIneq([(1, 1)], 1), "add", (LinIneq([(1, 1), (2, 1)], 1), 0)),
    Leaf(TAUTOLOGY),
    Weaken(frozenset({1, 2}), Leaf(frozenset({1}))),
    Cut(1, Leaf(frozenset({1})), Leaf(frozenset({-1})), frozenset()),
    TRUE,
    Var(3),
    Not(Var(1)),
    Threshold((1, -2), (Var(1), Not(Var(2))), Fraction(1, 2)),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_values_survive_copy_deepcopy_and_pickle(value):
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value


def test_copies_of_true_and_false_are_themselves():
    # the `is` checks on TRUE and FALSE keep working in copied clauses and
    # formulas, and a copied Cnf rebuilds its tautology clause
    for const in (TRUE, FALSE, Const(True)):
        for copied in (copy.copy(const), copy.deepcopy(const), pickle.loads(pickle.dumps(const))):
            assert copied is (TRUE if const.value else FALSE)
    assert copy.deepcopy(Leaf(TAUTOLOGY)).clause is TAUTOLOGY
    assert pickle.loads(pickle.dumps(Cnf([TAUTOLOGY], 1))).clauses[0] is TAUTOLOGY
