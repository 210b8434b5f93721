import random
from fractions import Fraction

import pytest

from pacreason.backends import (
    CuttingPlanesBackend,
    PolynomialCalculusBackend,
    ResKWidthBackend,
    SpaceResolutionBackend,
)
from pacreason.decide_pac import (
    ACCEPT,
    REJECT,
    PacParams,
    decide_pac,
    decide_pac_from_distribution,
    failure_budget,
    required_sample_size,
)
from pacreason.errors import InputError
from pacreason.formulas import PartialAssignment, Var
from pacreason.res_k import negate_query
from pacreason.resolution import Cnf, make_clause
from pacreason.sampling import ExplicitDistribution, FixedMask, TableMask

from helpers import EntailmentOracleBackend


class ScriptedBackend:
    """Answers each example by a fixed script, for counting tests.

    Example i is `distinct_examples(...)[i]`; `restrict_query` hands the
    example itself to `decide`, which looks its verdict up, so the answer is
    a pure function of the restricted instance, as decide_pac requires.
    """

    n = 4

    def __init__(self, script):
        self.verdicts = dict(zip(distinct_examples(len(script)), script))

    def decide(self, query, hyps):
        return self.verdicts[query]

    def restrict_query(self, query, rho):
        return rho

    def restrict_hyps(self, hyps, rho):
        return hyps


def distinct_examples(count):
    """`count` different full assignments over ScriptedBackend.n variables."""
    n = ScriptedBackend.n
    return [PartialAssignment(tuple((i >> b) & 1 for b in range(n))) for i in range(count)]


def params(eps="1/10", gamma="1/20", delta="1/20"):
    return PacParams(Fraction(eps), Fraction(gamma), Fraction(delta))


def test_required_sample_size_worked_values():
    assert required_sample_size(Fraction(1, 10), Fraction(1, 100)) == 231
    assert required_sample_size(Fraction(1, 2), 1 / 2.718281828459045) == 2
    assert required_sample_size(Fraction(1, 10), Fraction(1, 2)) == 35


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
    backend = ScriptedBackend([True])
    with pytest.raises(InputError):
        decide_pac(backend, None, None, params(), [PartialAssignment.all_masked(3)])


def test_resolution_backend_accepts_revealed_antecedent():
    kb = Cnf([make_clause([-1, 2])], 2)
    backend = SpaceResolutionBackend(s=1, n=2)
    examples = [PartialAssignment.from_string("1*")] * 8
    outcome = decide_pac(backend, make_clause([2]), kb, params(), examples)
    assert outcome.verdict == ACCEPT
    assert outcome.failed_count == 0


def test_sampled_path_matches_direct_path():
    kb = Cnf([make_clause([-1, 2])], 2)
    backend = SpaceResolutionBackend(s=1, n=2)
    dist = ExplicitDistribution.uniform([(1, 1)])
    mask = FixedMask({2})
    sampled = decide_pac_from_distribution(
        backend, make_clause([2]), kb, params(), dist, mask, seed=5, m=8
    )
    from pacreason.sampling import draw_masked_examples

    direct = decide_pac(
        backend, make_clause([2]), kb, params(), draw_masked_examples(dist, mask, 8, 5)
    )
    assert sampled == direct == decide_pac_from_distribution(
        backend, make_clause([2]), kb, params(), dist, mask, seed=5, m=8
    )


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
        outcome = decide_pac(backend, query, (), p, examples)
        satisfied = sum(1 for rho in examples if rho.value(query.index) == 1)
        if outcome.verdict == ACCEPT:
            assert Fraction(satisfied, len(examples)) >= 1 - p.epsilon


def test_res_k_backend_roundtrip():
    kb = (negate_query([[frozenset({-1, 2})]], k=2)[0],)  # KB k-DNF for clause
    backend = ResKWidthBackend(k=2, w=2, n=2)
    query = tuple(negate_query([[frozenset({2})]], k=2))
    examples = [PartialAssignment.from_string("1*")] * 6
    # hypothesis here is the clause (not-x1 or x2) as a 1-DNF
    from pacreason.res_k import KDnf

    hyps = (KDnf([(-1,), (2,)]),)
    outcome = decide_pac(backend, query, hyps, params(), examples)
    assert outcome.verdict == ACCEPT


def test_polynomial_backend_under_masking():
    from pacreason.polycalc import encode_clause_pcr
    from pacreason.polycalc import PCR

    backend = PolynomialCalculusBackend(d=2, n=2, mode=PCR)
    hyps = (encode_clause_pcr(make_clause([-1, 2])),)
    query = encode_clause_pcr(make_clause([2]))
    examples = [PartialAssignment.from_string("1*")] * 6
    outcome = decide_pac(backend, query, hyps, params(), examples)
    assert outcome.verdict == ACCEPT


def test_cutting_planes_backend_under_masking():
    from pacreason.cutting_planes import encode_clause_cp

    backend = CuttingPlanesBackend(w=2, L=4, n=2)
    hyps = (encode_clause_cp(make_clause([-1, 2])),)
    query = encode_clause_cp(make_clause([2]))
    examples = [PartialAssignment.from_string("1*")] * 6
    outcome = decide_pac(backend, query, hyps, params(), examples)
    assert outcome.verdict == ACCEPT


def test_table_mask_scenario_statistics():
    # per-example accept probability 9/10; rejections stay within budget whp
    dist = ExplicitDistribution(
        2, [((1, 1), Fraction(9, 10)), ((0, 0), Fraction(1, 10))]
    )
    mask = TableMask({(1, 1): {2}, (0, 0): {2}})
    kb = Cnf([make_clause([-1, 2])], 2)
    backend = SpaceResolutionBackend(s=2, n=2)
    p = PacParams(Fraction(1, 5), Fraction(1, 10), Fraction(1, 20))
    wrong = 0
    for seed in range(30):
        outcome = decide_pac_from_distribution(
            backend, make_clause([2]), kb, p, dist, mask, seed=seed, m=100
        )
        if outcome.verdict != ACCEPT:
            wrong += 1
    assert wrong <= 3
