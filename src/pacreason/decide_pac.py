"""The reduction from reasoning with masked examples to limited proof search.

Given a backend solving a limited decision problem for a restriction-closed
proof class, decide a query's (1-eps)-validity from a sample of masked
examples: restrict the query and hypotheses by each example, run the backend,
and accept exactly when the number of rejections stays within the budget
floor(eps * m).

A backend, given each example rho as one int, its true-literal mask (bit 2v
for x_v = 1, bit 2v+1 for x_v = 0), is any object with

    n                               -- variable count of its instances
    decide(query, hyps)             -- pure, deterministic; the proof found,
                                       whose truthiness is the verdict
    query_scope(query)              -- the literals whose variables
                                       restrict_query reads
    restrict_query(query, rho)      -- `formulas.TRUE` when rho settles the
                                       query: it is witnessed true, and
                                       decide would accept it from any
                                       hypotheses
    restrict_hyps(hyps, rho)
    is_countermodel(query, hyps, x) -- whether the full assignment whose
                                       true-literal mask is x satisfies every
                                       restricted hypothesis and falsifies the
                                       restricted query
    countermodel_support(query, hyps, x)
                                    -- both literals of every variable whose
                                       value in the countermodel x alone keeps
                                       every original hypothesis true and the
                                       query false at every completion, as
                                       one mask
    support(query, hyps, proof, rho) -- both literals of every variable that
                                       the proof decide found for rho depends
                                       on, as one mask, or None where the
                                       system gives no support

Each example is decided query-first, the query restricted once per projection
onto its scope's variables: an example that settles it is accepted without
restricting the hypotheses or calling `decide`.  A run keeps up to
CACHED_MODELS partial countermodels.  A searched reject with at most
ENUMERATED_FREE free coordinates tries its completions, and the first full
assignment x that `is_countermodel` passes, which satisfies the knowledge
base and falsifies the query, is kept as x & countermodel_support(query,
hyps, x), its projection onto that support, held as the projection's
false-literal mask; an unsettled example that shares no bit with one is
rejected without a search.  That is exact.  Every completion of the
projection keeps every original hypothesis true and the query false, so an
example consistent with it has a completion that satisfies the knowledge
base and falsifies the query restricted by it, and every proof system here
is sound over 0/1 points: no search accepts such an example at any budget.

A run also keeps up to CACHED_MODELS keys of accepts: after a search accepts
rho, rho & support, its projection onto the support of the proof found; an
unsettled example sigma that no countermodel rejects and that holds every
bit of a key (`key & sigma == key`) is accepted without restricting the
hypotheses or a search.  That is exact.  The support holds the goal's
variables and every variable that the original hypotheses behind the
proof's inputs mention, so restricting by rho's projection onto it gives the
same goal and keeps every one of those inputs: the proof is a proof there.
sigma sets what that projection sets, so its instance is a restriction of
that one, and restriction closure, with a search that is exact and
monotone in its hypotheses, accepts it.  Both caches drop their least
recently hit entry first, and the verdicts are those of a search on every
example.  Examples are decided one after
another in sample order.  The verdict depends only on the multiset of
per-example answers, so it does not depend on that order; every example is
always evaluated (no early exit) to keep the reported failure count
canonical.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product
from math import ceil, log

from .errors import InputError
from .formulas import TRUE, Record
from .resolution import check_examples, negation
from .sampling import draw_masked_examples

ACCEPT = "Accept"
REJECT = "Reject"
CACHED_MODELS = 64  # countermodels, and accept keys, a run keeps; least recently hit dropped first
ENUMERATED_FREE = 8  # most free coordinates whose completions a searched reject tries


class PacParams(Record):
    __slots__ = ("epsilon", "gamma", "delta")  # Fractions

    def __post_init__(self):
        values = [Fraction(getattr(self, name)) for name in self.__slots__]
        for name, value in zip(self.__slots__, values):
            if not 0 < value < 1:
                raise InputError(f"{name} must lie strictly between 0 and 1, got {value}")
            object.__setattr__(self, name, value)
        eps, gamma, _ = values
        if eps + gamma > 1 or eps - gamma < 0:
            raise InputError(
                f"promise needs epsilon+gamma <= 1 and epsilon-gamma >= 0, "
                f"got epsilon={eps}, gamma={gamma}"
            )


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


def _search(backend, query, restricted, hyps, rho, models: list, keys: list) -> bool:
    """The search's verdict on the unsettled example rho.  An accept caches
    rho's projection onto its proof's support, where the backend gives one;
    a reject with at most ENUMERATED_FREE free coordinates caches its first
    completion that is a countermodel, projected onto that countermodel's
    support."""
    restricted_hyps = backend.restrict_hyps(hyps, rho)
    proof = backend.decide(restricted, restricted_hyps)
    if proof:
        support = backend.support(query, hyps, proof, rho)
        if support is not None:
            keys.insert(0, rho & support)
            del keys[CACHED_MODELS:]
        return True
    n = backend.n
    if n - rho.bit_count() <= ENUMERATED_FREE:  # one bit per set variable
        free = [v for v in range(1, n + 1) if not rho >> 2 * v & 3]
        for choice in product(*((2 << 2 * v, 1 << 2 * v) for v in free)):
            x = rho | sum(choice)
            if backend.is_countermodel(restricted, restricted_hyps, x):
                support = backend.countermodel_support(query, hyps, x)
                models.insert(0, negation(n)(x & support))  # the literals x & support makes false
                del models[CACHED_MODELS:]
                break
    return False


def decide_pac(backend, query, hyps, params: PacParams, examples) -> PacOutcome:
    """Decide every example, sharing one query restriction per projection
    onto the query's scope, one list of countermodels and one of accept
    keys; tally rejections.

    An unsettled example meets the countermodels first, then the keys, each
    list most recently hit first.  That scan order decides which examples
    reach a search, never a verdict: every cached entry is exact.  The
    plain two-list loop `cached_search_order` in tests/helpers.py pins it.

    Rejects exactly when strictly more than floor(epsilon * m) examples fail.
    An example that is not a true-literal mask over x1..xn is an InputError.
    """
    examples = list(examples)
    m = len(examples)
    if m < 1:
        raise InputError("need at least one example")
    check_examples(examples, backend.n)

    scope = backend.query_scope(query)
    scope |= negation(backend.n)(scope)  # both literals of each scope variable
    restricted_by, verdicts = {}, []  # restricted_by: rho & scope -> restricted query
    models, keys = [], []  # false-literal masks of partial countermodels; keys of accepts
    append = verdicts.append
    for rho in examples:
        restricted = restricted_by.get(rho & scope)
        if restricted is None:
            projection = rho & scope
            restricted = restricted_by[projection] = backend.restrict_query(query, projection)
        if restricted is TRUE:
            append(True)
            continue
        for false in models:
            if not rho & false:  # rho is consistent with a cached countermodel
                if false is not models[0]:
                    models.remove(false)  # the first entry equal to it is the hit
                    models.insert(0, false)
                append(False)
                break
        else:
            for key in keys:
                if key & rho == key:  # rho extends an accepted example on its support
                    if key is not keys[0]:
                        keys.remove(key)
                        keys.insert(0, key)
                    append(True)
                    break
            else:
                append(_search(backend, query, restricted, hyps, rho, models, keys))

    failed = verdicts.count(False)
    budget = failure_budget(params.epsilon, m)
    verdict = REJECT if failed > budget else ACCEPT
    return PacOutcome(verdict, failed, budget, m, tuple(verdicts))


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
