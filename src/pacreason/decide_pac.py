"""The reduction from reasoning with masked examples to limited proof search.

Given a backend solving a limited decision problem for a restriction-closed
proof class, decide a query's (1-eps)-validity from a sample of masked
examples: restrict the query and hypotheses by each example, run the backend,
and accept exactly when the number of rejections stays within the budget
floor(eps * m).

A backend, given each example rho as its literal-mask pair, is any object with

    n                              -- variable count of its instances
    decide(query, hyps)            -- pure, deterministic; the proof found,
                                      whose truthiness is the verdict
    restrict_query(query, rho)     -- `formulas.TRUE` when rho settles the
                                      query: it is witnessed true, and
                                      decide would accept it from any
                                      hypotheses
    restrict_hyps(hyps, rho)

Each example is decided query-first (`decide_example`): an example that
settles the query is accepted without restricting the hypotheses or calling
`decide`.  Examples are decided one after another in sample order.  The
verdict depends only on the multiset of per-example answers, so it does not
depend on that order; every example is always evaluated (no early exit) to
keep the reported failure count canonical.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import ceil, log

from .errors import InputError
from .formulas import TRUE, Record
from .resolution import negation
from .sampling import draw_masked_examples

ACCEPT = "Accept"
REJECT = "Reject"


class PacParams(Record):
    __slots__ = ("epsilon", "gamma", "delta")  # Fractions

    def __post_init__(self):
        eps = Fraction(self.epsilon)
        gamma = Fraction(self.gamma)
        delta = Fraction(self.delta)
        for name, value in (("epsilon", eps), ("gamma", gamma), ("delta", delta)):
            if not 0 < value < 1:
                raise InputError(f"{name} must lie strictly between 0 and 1, got {value}")
        if eps + gamma > 1 or eps - gamma < 0:
            raise InputError(
                f"promise needs epsilon+gamma <= 1 and epsilon-gamma >= 0, "
                f"got epsilon={eps}, gamma={gamma}"
            )
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)


class PacOutcome(Record):
    # per_example is True where the backend accepted
    __slots__ = ("verdict", "failed_count", "budget", "sample_count", "per_example")

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPT


def required_sample_size(gamma, delta) -> int:
    """ceil(ln(1/delta) / (2 gamma^2)), the Hoeffding sample count, exact but
    for the logarithm, which comes from delta's integer numerator and
    denominator, so a gamma or delta too small for a float keeps its count."""
    gamma, delta = Fraction(gamma), Fraction(delta)
    if not 0 < gamma < 1 or not 0 < delta < 1:
        raise InputError("gamma and delta must lie strictly between 0 and 1")
    m = ceil(Fraction(log(delta.denominator) - log(delta.numerator)) / (2 * gamma**2))
    if m > sys.maxsize:
        raise InputError(
            f"the Hoeffding sample size m exceeds {sys.maxsize}; give the example count with --m"
        )
    return m


def failure_budget(epsilon, m: int) -> int:
    """floor(epsilon * m), computed exactly over the rationals."""
    product = Fraction(epsilon) * m
    return product.numerator // product.denominator


def decide_example(backend, query, hyps, rho) -> bool:
    """The backend's verdict on one example: True at once when rho settles
    the query, otherwise `decide` on the restricted instance."""
    restricted = backend.restrict_query(query, rho)
    if restricted is TRUE:
        return True
    return bool(backend.decide(restricted, backend.restrict_hyps(hyps, rho)))


def decide_pac(backend, query, hyps, params: PacParams, examples) -> PacOutcome:
    """Decide every example with `decide_example` and tally rejections.

    Rejects exactly when strictly more than floor(epsilon * m) examples fail.
    An example that is not a literal-mask pair over x1..xn is an InputError.
    """
    examples = list(examples)
    m = len(examples)
    if m < 1:
        raise InputError("need at least one example")
    n = backend.n
    negate = negation(n)
    for rho in examples:
        try:
            true, false = rho
            # false is true swapped, so true & false marks both literals in true
            ok = not (true >> 2 * n + 2 or true & 3 or true & false) and false == negate(true)
        except (TypeError, ValueError):  # not a pair of ints
            ok = False
        if not ok:
            raise InputError(f"example {rho!r} is not a literal-mask pair over x1..x{n}")

    verdicts = tuple(decide_example(backend, query, hyps, rho) for rho in examples)

    failed = sum(1 for ok in verdicts if not ok)
    budget = failure_budget(params.epsilon, m)
    verdict = REJECT if failed > budget else ACCEPT
    return PacOutcome(verdict, failed, budget, m, verdicts)


def decide_pac_from_distribution(
    backend,
    query,
    hyps,
    params: PacParams,
    dist,
    mask,
    seed: int,
    m: int = None,
) -> PacOutcome:
    """Draw exactly m examples (the Hoeffding count when m is omitted), then
    aggregate as decide_pac does."""
    if m is None:
        m = required_sample_size(params.gamma, params.delta)
    examples = draw_masked_examples(dist, mask, m, seed)
    return decide_pac(backend, query, hyps, params, examples)
