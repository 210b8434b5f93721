import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from pacreason.errors import InputError, PreconditionError
from pacreason.formulas import Const, Not, Var, conjunction, disjunction
from pacreason.oracle import entails
from pacreason.sampling import (
    ExplicitDistribution,
    FixedMask,
    IndependentMask,
    TableMask,
    draw_masked_examples,
    tight_union_bound_distribution,
    validity,
)

from helpers import (
    assignment_of,
    consistent_with,
    example,
    random_formula,
    reference_draw_examples,
)


def test_point_mass_fixed_mask():
    d = ExplicitDistribution.uniform([(1, 1)])
    got = draw_masked_examples(d, FixedMask({2}), 3, seed=0)
    assert got == [example("1*")] * 3


def test_independent_mask_zero_probability():
    d = ExplicitDistribution.uniform([(0,)])
    got = draw_masked_examples(d, IndependentMask(0), 1, seed=42)
    assert got == [example("0")]


def test_fixed_mask_hides_everything():
    d = ExplicitDistribution.uniform([(0, 0), (1, 1)])
    got = draw_masked_examples(d, FixedMask({1, 2}), 2, seed=7)
    assert got == [example("**")] * 2


def test_table_mask_depends_on_assignment():
    d = ExplicitDistribution.uniform([(0, 0), (1, 1)])
    mask = TableMask({(0, 0): {1}, (1, 1): {2}})
    sources = reference_draw_examples(d, mask, 50, seed=3)
    for (x, _), rho in zip(sources, draw_masked_examples(d, mask, 50, seed=3)):
        assert rho == example("*0" if x == (0, 0) else "1*")


def test_table_mask_must_cover_the_support_at_every_seed():
    d = ExplicitDistribution(
        2, [((0, 0), Fraction(999, 1000)), ((1, 1), Fraction(1, 1000))]
    )
    mask = TableMask({(0, 0): {1}})
    for seed in range(20):
        with pytest.raises(InputError, match=r"no rule for support point \(1, 1\)"):
            draw_masked_examples(d, mask, 10, seed)


@pytest.mark.parametrize("mask", [
    FixedMask({-1}), FixedMask({0}), FixedMask({3}), FixedMask({5}), FixedMask({1, "2"}),
    TableMask({(0, 0): {1}, (1, 1): {-2}}), TableMask({(0, 0): {3}, (1, 1): set()}),
    TableMask({(0, 0): set(), (1, 1): set(), (1, 0): {7}}),
])
def test_a_hidden_coordinate_outside_the_variables_is_an_input_error(mask):
    # every coordinate a fixed or table mask hides, the rules of points
    # outside the support included, is one of x1..xn, checked before the
    # first draw, so every seed raises the same error
    d = ExplicitDistribution(
        2, [((0, 0), Fraction(999, 1000)), ((1, 1), Fraction(1, 1000))]
    )
    for seed in range(20):
        with pytest.raises(InputError, match=r"^hidden coordinate .* is not one of 1\.\.2$"):
            draw_masked_examples(d, mask, 10, seed)


def _random_distribution(rng):
    n = rng.randint(1, 6)
    size = 1 if rng.random() < 0.1 else rng.randint(2, min(2**n, 8))
    points = rng.sample(sorted(product((0, 1), repeat=n)), size)
    weights, left = [], Fraction(1)
    for _ in points[1:]:  # each weight a random share of what is left
        w = left * Fraction(rng.randint(1, 9), rng.randint(10, 19))
        weights.append(w)
        left -= w
    return ExplicitDistribution(n, zip(points, weights + [left]))


def _random_mask(rng, dist):
    kind = rng.choice(["iid0", "iid1", "iid", "fixed", "table"])
    coords = range(1, dist.n + 1)
    if kind == "iid0":
        return kind, IndependentMask(0)
    if kind == "iid1":
        return kind, IndependentMask(1)
    if kind == "iid":
        d = rng.randint(2, 12)
        return kind, IndependentMask(Fraction(rng.randint(1, d - 1), d))
    if kind == "fixed":
        return kind, FixedMask(c for c in coords if rng.random() < 0.5)
    rule = {x: {c for c in coords if rng.random() < 0.5} for x, _ in dist.support}
    return kind, TableMask(rule)


def test_draw_examples_matches_the_per_example_sampler():
    rng = random.Random(20261018)
    kinds = Counter()
    for _ in range(2000):
        dist = _random_distribution(rng)
        kind, mask = _random_mask(rng, dist)
        m = rng.randint(1, 200)
        seed = rng.getrandbits(64)
        got = draw_masked_examples(dist, mask, m, seed)
        want = [rho for _, rho in reference_draw_examples(dist, mask, m, seed)]
        assert got == want, (dist, mask, m, seed)
        kinds[kind] += 1
        if len(dist.support) == 1:
            kinds["single-point"] += 1
        elif len({w.denominator for _, w in dist.support}) > 1:
            kinds["mixed-denominators"] += 1
    assert min(kinds.values()) >= 100 and len(kinds) == 7, kinds


def test_golden_stream_iid_one_third():
    d = ExplicitDistribution(
        4,
        [
            ((0, 1, 1, 0), Fraction(1, 2)),
            ((1, 1, 0, 1), Fraction(1, 3)),
            ((0, 0, 0, 1), Fraction(1, 6)),
        ],
    )
    got = draw_masked_examples(d, IndependentMask(Fraction(1, 3)), 30, seed=2024)
    assert got == list(map(example, [
        "*101", "0110", "*101", "0110", "0110", "*1*1", "000*", "*1*1", "00*1", "*001",
        "*110", "0*1*", "*1**", "0110", "1*01", "**01", "*110", "*001", "0110", "01*0",
        "01**", "**10", "0***", "*110", "0110", "**01", "*110", "0*1*", "0*1*", "01*0",
    ]))


def test_examples_consistent_with_sources():
    rng = random.Random(11)
    d = ExplicitDistribution.uniform([(0, 1, 0), (1, 1, 1), (0, 0, 0), (1, 0, 1)])
    for seed in range(20):
        p = Fraction(rng.randint(0, 4), 4)
        mask = IndependentMask(p)
        sources = reference_draw_examples(d, mask, 10, seed)
        for (x, _), rho in zip(sources, draw_masked_examples(d, mask, 10, seed)):
            assert consistent_with(assignment_of(rho, len(x)), x)


def test_streams_are_deterministic():
    d = ExplicitDistribution.uniform([(0, 0), (0, 1), (1, 0), (1, 1)])
    mask = IndependentMask(Fraction(1, 3))
    a = draw_masked_examples(d, mask, 200, seed=99)
    b = draw_masked_examples(d, mask, 200, seed=99)
    assert a == b
    c = draw_masked_examples(d, mask, 200, seed=100)
    assert a != c


def test_distribution_validation():
    with pytest.raises(InputError):
        ExplicitDistribution(2, [])
    with pytest.raises(InputError):
        ExplicitDistribution(2, [((0, 0), Fraction(1, 2))])
    with pytest.raises(InputError):
        ExplicitDistribution(2, [((0, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 2))])
    with pytest.raises(InputError):
        draw_masked_examples(ExplicitDistribution.uniform([(1,)]), FixedMask(set()), 0, 0)
    for bad in (1.0, Fraction(1)):
        # rejected at construction, not when an iid draw first keeps it
        with pytest.raises(InputError, match="is not a 2-bit vector"):
            ExplicitDistribution.uniform([(0, 0), (bad, 0)])


def test_validity_examples():
    both = ExplicitDistribution.uniform([(0, 0), (1, 1)])
    clause = disjunction([Var(1), Not(Var(2))])
    assert validity(both, clause) == 1
    square = ExplicitDistribution.uniform([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert validity(square, conjunction([Var(1), Var(2)])) == Fraction(1, 4)
    assert validity(square, Const(True)) == 1


def test_tight_union_bound_two_variables():
    eps = [Fraction(1, 4), Fraction(1, 4)]
    d = tight_union_bound_distribution([Var(1), Var(2)], eps, n=2)
    weights = dict(d.support)
    assert weights == {
        (0, 1): Fraction(1, 4),
        (1, 0): Fraction(1, 4),
        (1, 1): Fraction(1, 2),
    }
    assert validity(d, Var(1)) == Fraction(3, 4)
    assert validity(d, Var(2)) == Fraction(3, 4)
    assert validity(d, conjunction([Var(1), Var(2)])) == Fraction(1, 2)


def test_tight_union_bound_single_formula():
    d = tight_union_bound_distribution([Var(1)], [Fraction(1, 3)], n=1)
    assert dict(d.support) == {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}


def test_tight_union_bound_rejects_entailed_formula():
    # x1 and x1 entail each other, so no separating point exists
    with pytest.raises(PreconditionError):
        tight_union_bound_distribution(
            [Var(1), Var(1)], [Fraction(1, 4), Fraction(1, 4)], n=1
        )
    with pytest.raises(PreconditionError):
        tight_union_bound_distribution(
            [Var(1), Var(2)], [Fraction(1, 2), Fraction(1, 2)], n=2
        )


def test_union_bound_soundness_randomized():
    rng = random.Random(321)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        psis = [random_formula(rng, n, depth=2) for _ in range(k)]
        phi = random_formula(rng, n, depth=2)
        if not entails(psis, phi, n):
            continue
        checked += 1
        points = [
            tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 4))
        ]
        points = sorted(set(points))
        weights = [rng.randint(1, 5) for _ in points]
        total = sum(weights)
        d = ExplicitDistribution(n, [(x, Fraction(w, total)) for x, w in zip(points, weights)])
        slack = sum((1 - validity(d, psi) for psi in psis), Fraction(0))
        assert validity(d, phi) >= 1 - slack
