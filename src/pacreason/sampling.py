"""Explicit distributions over {0,1}^n, masking processes and example streams.

Masking follows a fixed, documented stream layout so that identical
(distribution, mask, count, seed) inputs always produce bit-identical example
streams: for each example we first draw the underlying assignment, then draw
any mask randomness coordinate by coordinate in index order.  The generator is
Python's Mersenne Twister seeded with the 64-bit seed; uniform integers are
drawn by rejection sampling over getrandbits, whose output is stable across
Python versions.

`draw_examples` computes its per-run tables once, before the first draw: the
common denominator of the weights with its bit length and cumulative integer
weights (an assignment is picked by bisection on them), the hide probability's
numerator, denominator and bit length, and one shared masked example per
support point for masks that need no draws (fixed, table, and iid with
probability 0 or 1; partial assignments are immutable).  The tables change
only the cost of a draw, not the stream layout above.  Because of them a table
mask must have a rule for every support point, whatever the seed draws.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping

from .errors import InputError, PreconditionError
from .formulas import Formula, PartialAssignment, evaluate, is_bit
from .oracle import assignments


class ExplicitDistribution:
    """A finitely supported distribution with exact rational weights summing to 1."""

    __slots__ = ("n", "support")

    def __init__(self, n: int, support: Iterable):
        support = tuple((tuple(x), Fraction(w)) for x, w in support)
        if not support:
            raise InputError("distribution needs a nonempty support")
        seen = set()
        for x, w in support:
            if len(x) != n or not all(map(is_bit, x)):
                raise InputError(f"support point {x} is not a {n}-bit vector")
            if w <= 0:
                raise InputError(f"weight {w} of {x} is not positive")
            if x in seen:
                raise InputError(f"support point {x} repeated")
            seen.add(x)
        total = sum(w for _, w in support)
        if total != 1:
            raise InputError(f"weights sum to {total}, expected exactly 1")
        object.__setattr__(self, "n", n)
        # bools become 0 and 1, as in the partial assignments drawn from it
        object.__setattr__(self, "support", tuple((tuple(map(int, x)), w) for x, w in support))

    @classmethod
    def uniform(cls, points) -> "ExplicitDistribution":
        points = [tuple(x) for x in points]
        w = Fraction(1, len(points))
        return cls(len(points[0]), [(x, w) for x in points])

    def __eq__(self, other):
        return (
            isinstance(other, ExplicitDistribution)
            and self.n == other.n
            and sorted(self.support) == sorted(other.support)
        )

    def __repr__(self):
        return f"ExplicitDistribution(n={self.n}, support={list(self.support)!r})"

    def __setattr__(self, name, value):
        raise AttributeError("ExplicitDistribution is immutable")


@dataclass(frozen=True)
class FixedMask:
    """Always hide the same set of coordinates."""

    hidden: frozenset

    def __init__(self, hidden):
        object.__setattr__(self, "hidden", frozenset(hidden))


@dataclass(frozen=True)
class IndependentMask:
    """Hide each coordinate independently with the same probability."""

    hide_prob: Fraction

    def __init__(self, hide_prob):
        p = Fraction(hide_prob)
        if not 0 <= p <= 1:
            raise InputError(f"hide probability must lie in [0,1], got {p}")
        object.__setattr__(self, "hide_prob", p)


class TableMask:
    """Deterministic mask that may depend on the underlying assignment."""

    __slots__ = ("rule",)

    def __init__(self, rule: Mapping):
        object.__setattr__(
            self, "rule", {tuple(x): frozenset(hidden) for x, hidden in rule.items()}
        )

    def __eq__(self, other):
        return isinstance(other, TableMask) and self.rule == other.rule

    def __repr__(self):
        return f"TableMask({self.rule!r})"

    def __setattr__(self, name, value):
        raise AttributeError("TableMask is immutable")


def _masked_point(x, hidden) -> PartialAssignment:
    return PartialAssignment(None if (i + 1) in hidden else b for i, b in enumerate(x))


def draw_examples(dist: ExplicitDistribution, mask, m: int, seed: int):
    """Draw `m` (assignment, masked example) pairs; deterministic given `seed`.

    The per-run tables (see the module docstring) are built before the first
    draw, so a table mask without a rule for some support point raises
    `InputError` at every seed.
    """
    if m < 1:
        raise InputError(f"example count must be at least 1, got {m}")
    if not 0 <= seed < 2**64:
        raise InputError("seed must be a 64-bit unsigned integer")
    points = [x for x, _ in dist.support]
    denom = math.lcm(*(w.denominator for _, w in dist.support))
    denom_bits = (denom - 1).bit_length() or 1  # a point mass still draws one bit
    cumulative = list(
        accumulate(w.numerator * (denom // w.denominator) for _, w in dist.support)
    )
    masked = None
    if isinstance(mask, IndependentMask):
        p = mask.hide_prob
        if p.denominator == 1:  # p is 0 or 1: no mask draws
            hidden = range(1, dist.n + 1) if p else ()
            masked = [_masked_point(x, hidden) for x in points]
        else:
            hide_num, hide_den = p.numerator, p.denominator
            hide_bits = (hide_den - 1).bit_length()
    elif isinstance(mask, FixedMask):
        masked = [_masked_point(x, mask.hidden) for x in points]
    elif isinstance(mask, TableMask):
        for x in points:
            if x not in mask.rule:
                raise InputError(f"mask table has no rule for support point {x}")
        masked = [_masked_point(x, mask.rule[x]) for x in points]
    else:
        raise InputError(f"unknown mask spec: {mask!r}")

    getrandbits = random.Random(seed).getrandbits
    out = []
    for _ in range(m):
        ticket = getrandbits(denom_bits)
        while ticket >= denom:
            ticket = getrandbits(denom_bits)
        j = bisect_right(cumulative, ticket)
        x = points[j]
        if masked is not None:
            out.append((x, masked[j]))
            continue
        entries = []
        for b in x:  # index order, one draw per coordinate
            r = getrandbits(hide_bits)
            while r >= hide_den:
                r = getrandbits(hide_bits)
            entries.append(None if r < hide_num else b)
        out.append((x, PartialAssignment(entries)))
    return out


def draw_masked_examples(dist: ExplicitDistribution, mask, m: int, seed: int):
    """Masked example stream only (sources discarded)."""
    return [rho for _, rho in draw_examples(dist, mask, m, seed)]


def validity(dist: ExplicitDistribution, phi: Formula) -> Fraction:
    """Exact probability that `phi` holds under `dist`."""
    return sum(
        (w for x, w in dist.support if evaluate(phi, x)),
        Fraction(0),
    )


def tight_union_bound_distribution(psis, epsilons, n: int) -> ExplicitDistribution:
    """A distribution on which each formula is exactly (1-eps_i)-valid and their
    conjunction exactly (1-sum eps_i)-valid.

    Puts weight eps_i on a point satisfying every formula but the i-th, and the
    remaining weight on a point satisfying all of them.  Points are found by
    lexicographic enumeration, so the result is deterministic.
    """
    psis = list(psis)
    epsilons = [Fraction(e) for e in epsilons]
    if len(psis) != len(epsilons) or not psis:
        raise InputError("need one epsilon per formula, at least one formula")
    if any(e <= 0 for e in epsilons):
        raise InputError("epsilons must be positive")
    total = sum(epsilons)
    if total >= 1:
        raise PreconditionError(f"epsilons sum to {total}, need strictly less than 1")

    points = list(assignments(n))
    values = [[evaluate(psi, x) for psi in psis] for x in points]

    common = next(
        (x for x, vals in zip(points, values) if all(vals)),
        None,
    )
    if common is None:
        raise PreconditionError("no assignment satisfies all formulas")

    support = []
    for i in range(len(psis)):
        xi = next(
            (
                x
                for x, vals in zip(points, values)
                if not vals[i] and all(v for j, v in enumerate(vals) if j != i)
            ),
            None,
        )
        if xi is None:
            raise PreconditionError(
                f"formula {i + 1} is entailed by the others; no separating point exists"
            )
        support.append((xi, epsilons[i]))
    support.append((common, 1 - total))
    return ExplicitDistribution(n, support)
