"""k-DNF formulas and width-bounded RES(k) proof search.

A k-DNF is a frozenset of terms, each a conjunction of at most k literals
stored as a frozenset of signed integers; its width is the number of terms,
and the empty k-DNF is the unsatisfiable bottom formula.  The proof system
derives k-DNFs by weakening, cut, and-introduction and and-elimination.

decide_resk_width runs the width-w dynamic program on the `saturation`
engine (see its contract): a table over canonical width-at-most-w k-DNFs
grows monotonically, one derivation round at a time, until the target
appears or no rule yields anything new.  Hypotheses wider than w never enter
the table but may feed cut steps.  Accepted runs return a derivation trace
that an independent checker can replay rule by rule.

A cut of the term T from psi1 into psi2 needs -l to be a one-literal term
of psi2 for every literal l of T.  So each line gets, once per call, the
`literal_bit` mask of its one-literal terms and, per term, the mask of its
negated literals (`_cut_masks`).  The cut loop walks the ordered pairs in
source order, as the plain loop over all pairs does; it skips receivers with
no one-literal term and calls `_cut_results` only when some term mask of
psi1 lies inside psi2's unit mask.  Every skipped pair would have yielded
nothing, so offers, provenance, `table_sizes` and traces are those of the
plain loop.  Rule results skip `make_term` (`_checked`): their terms are
subsets or copies of checked terms, or an and-introduction's conjunction of
one-literal terms, which that rule checks for a complementary pair itself.
And-introduction's premises are the table's own lines.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import InputError
from .formulas import Const, TRUE
from .resolution import TAUTOLOGY, literal_bit, restrict_term
from .saturation import derivation, saturate, seed_inputs


def make_term(literals) -> frozenset:
    lits = frozenset(literals)
    if not lits:
        raise InputError("terms need at least one literal")
    for lit in lits:
        if lit == 0:
            raise InputError("0 is not a literal")
        if -lit in lits:
            raise InputError(f"term contains the complementary pair x{abs(lit)}")
    return lits


class KDnf(frozenset):
    """Canonical disjunction of conjunctions of literals: the frozenset of
    its terms, each checked by `make_term`.  It equals and hashes as that
    plain frozenset."""

    __slots__ = ()

    def __new__(cls, terms):
        return frozenset.__new__(cls, map(make_term, terms))

    @property
    def width(self) -> int:
        return len(self)

    @property
    def max_term_size(self) -> int:
        return max(map(len, self), default=0)

    def variables(self) -> frozenset:
        return frozenset(abs(lit) for t in self for lit in t)

    def __repr__(self):
        return f"KDnf({sorted(sorted(t, key=literal_bit) for t in self)!r})"


BOTTOM = KDnf(())


def _checked(terms) -> KDnf:
    """The `KDnf` of terms that are already valid, such as copies or subsets
    of checked terms.  They skip `make_term` but are added one by one, in the
    order `KDnf` would add them, which keeps the set's layout and with it
    the term order that later rules iterate."""
    return frozenset.__new__(KDnf, iter(terms))


def restrict_kdnf(phi: KDnf, rho: int) -> KDnf | Const:
    """Drop the terms rho (an example's true-literal mask) falsifies, strip
    satisfied literals; a fully satisfied term makes the whole disjunction
    TRUE."""
    new_terms = set()
    for term in phi:
        kept = restrict_term(term, rho)
        if kept is None:
            continue
        if not kept:
            return TRUE
        new_terms.add(frozenset(kept))
    return _checked(new_terms)


def negate_query(kcnf, k: int) -> KDnf | Const:
    """De Morgan dual of a k-CNF, given as its clauses: one k-DNF.

    Each clause negates to a term, so every clause must have at most k
    literals.  A k-CNF containing the empty clause negates to TRUE.
    """
    terms = []
    for clause in kcnf:
        if clause is TAUTOLOGY:
            continue  # negates to a falsified term, which drops
        clause = frozenset(clause)
        if not clause:
            return TRUE
        if len(clause) > k:
            raise InputError(
                f"clause with {len(clause)} literals cannot be negated into a {k}-DNF"
            )
        terms.append(frozenset(-lit for lit in clause))
    return KDnf(terms)


def _cut_results(psi1: KDnf, psi2: KDnf, w: int):
    """All width-w cuts with psi1 supplying the conjunction."""
    for term in psi1:
        negs = frozenset(frozenset((-lit,)) for lit in term)
        if negs <= psi2:
            rest = (psi1 - {term}) | (psi2 - negs)
            if len(rest) <= w:
                yield _checked(rest)


def _elim_results(psi: KDnf):
    for term in psi:
        if len(term) < 2:
            continue
        for lit in term:
            yield _checked((psi - {term}) | {frozenset((lit,))})


def _weaken_results(psi: KDnf, universe_terms, w: int):
    extra = [t for t in universe_terms if t not in psi]
    for count in range(1, w - psi.width + 1):
        for combo in combinations(extra, count):
            yield _checked(psi | set(combo))


def _cut_masks(psi: KDnf) -> tuple:
    """The `literal_bit` mask of psi's one-literal terms, and per term the
    mask of its negated literals."""
    units, negated = 0, []
    for term in psi:
        bits = 0
        for lit in term:
            bits |= literal_bit(-lit)
        negated.append(bits)
        if len(term) == 1:
            units |= literal_bit(lit)
    return units, negated


_universes = {}  # k -> (m, each term of at most k literals over x1..xm with its variable mask)


@lru_cache(maxsize=64)
def _term_universe(variables: tuple, k: int) -> tuple:
    """Every term of at most k literals over the ascending `variables`, by
    size, then in `literal_bit` order: the terms of one universe per k, over
    x1..xm for the largest m asked for yet, whose variables all occur in
    `variables`.  Filtering keeps that order, and the terms are built once,
    so a variable set missing from the cache costs one pass over the shared
    universe, however many sets a stream of restricted instances brings."""
    m, universe = _universes.get(k, (0, ()))
    if variables and variables[-1] > m:
        m = variables[-1]
        literals = sorted((s * v for v in range(1, m + 1) for s in (1, -1)), key=literal_bit)
        universe = tuple(
            (sum(1 << abs(lit) for lit in combo), frozenset(combo))
            for size in range(1, k + 1)
            for combo in combinations(literals, size)
            if not any(-lit in combo for lit in combo)
        )
        _universes[k] = m, universe
    allowed = sum(1 << v for v in variables)
    return tuple(term for bits, term in universe if bits | allowed == allowed)


def check_budget(hyps, target: KDnf, k: int, w: int) -> None:
    """The target has width at most w (so w >= 0), and the hypotheses and
    the target are all k-DNFs."""
    if target.width > w:
        raise InputError(f"target width {target.width} exceeds the bound {w}")
    for phi in (*hyps, target):
        if phi.max_term_size > k:
            raise InputError(f"formula {phi!r} is not a {k}-DNF")


def decide_resk_width(hyps, target: KDnf, k: int, w: int, stats: dict | None = None):
    """Accept iff a width-w RES(k) proof of `target` from `hyps` exists.

    Returns (accepted, trace).  Takes inputs that `check_budget` accepts.
    The table holds every derived k-DNF of width at most w.  Each
    `saturation` round offers the weakenings and and-eliminations of the
    previous round's k-DNFs, then cuts (wider hypotheses included) and
    and-introductions.  An accepting run is unwound into `TraceStep`s
    ending at the target; a step's rule is hypothesis, weakening, cut,
    and_elim or and_intro, and a hypothesis step's premises are its index.
    """
    hyps = list(hyps)
    variables = tuple(sorted(set().union(*(phi.variables() for phi in hyps + [target]))))
    universe_terms = _term_universe(variables, k)

    table = {}
    wide = seed_inputs(table, hyps, lambda phi: phi.width <= w, "hypothesis")
    masks = {}  # each line's `_cut_masks`

    def derive(delta, first_round):
        for psi in delta:
            provenance = ("weakening", (psi,))
            for result in _weaken_results(psi, universe_terms, w):
                yield result, provenance
            for result in _elim_results(psi):
                yield result, ("and_elim", (psi,))

        # cuts on ordered pairs in source order, filtered by their masks (see
        # the module docstring); after the first round a pair with no member
        # in `delta` was tried in an earlier round
        sources = [*table, *wide]
        for psi in sources:
            if psi not in masks:
                masks[psi] = _cut_masks(psi)
        receivers = [(psi, masks[psi][0]) for psi in sources if masks[psi][0]]
        new_receivers = [r for r in receivers if r[0] in delta]
        for psi1 in sources:
            negated = masks[psi1][1]
            for psi2, units in receivers if first_round or psi1 in delta else new_receivers:
                for bits in negated:
                    if bits & units == bits:
                        for result in _cut_results(psi1, psi2, w):
                            yield result, ("cut", (psi1, psi2))
                        break

        # and-introduction: group table lines psi = A or literal by shared A;
        # each literal maps to its line, the rule's premise
        groups = {}
        for psi in table:
            for term in psi:
                if len(term) == 1:
                    groups.setdefault(psi - {term}, {})[next(iter(term))] = psi
        for rest, lines in groups.items():
            available = sorted(lines, key=literal_bit)
            for j in range(2, k + 1):
                for combo in combinations(available, j):
                    if any(-lit in combo for lit in combo):
                        continue
                    premises = tuple(map(lines.__getitem__, combo))
                    if first_round or any(p in delta for p in premises):
                        yield _checked(rest | {frozenset(combo)}), ("and_intro", premises)

    if not saturate(table, target, derive, stats):
        return False, None
    return True, derivation(target, table, wide)


def check_trace(trace, hyps, target: KDnf, k: int, w: int) -> bool:
    """Replay a derivation trace rule by rule, independently of the search.
    A malformed step, such as an unknown rule, a formula or premise that is
    not a `KDnf`, a premise that no earlier step derived or premises of the
    wrong count, fails the replay."""
    hyps = list(hyps)
    derived = set()
    for step in trace:
        f = step.formula
        if not isinstance(f, KDnf) or f.max_term_size > k:
            return False
        try:
            if step.rule == "hypothesis":
                (index,) = step.premises
                if not (0 <= index < len(hyps)) or hyps[index] != f:
                    return False
                derived.add(f)
                continue
            if f.width > w:
                return False
            if not all(isinstance(p, KDnf) and p in derived for p in step.premises):
                return False
            if step.rule == "weakening":
                (p,) = step.premises
                ok = p <= f
            elif step.rule == "and_elim":
                (p,) = step.premises
                ok = any(
                    f == KDnf((p - {term}) | {frozenset((lit,))})
                    for term in p
                    for lit in term
                )
            elif step.rule == "cut":
                p1, p2 = step.premises
                ok = any(f == r for r in _cut_results(p1, p2, f.width)) or any(
                    f == r for r in _cut_results(p2, p1, f.width)
                )
            elif step.rule == "and_intro":
                ok = False
                for term in f:
                    if not 1 <= len(term) <= k:
                        continue
                    rest = f - {term}
                    expected = frozenset(
                        KDnf(rest | {frozenset((lit,))}) for lit in term
                    )
                    if expected == frozenset(step.premises):
                        ok = True
                        break
            else:
                return False
        except (ValueError, TypeError):  # premises of the wrong count or type
            return False
        if not ok:
            return False
        derived.add(f)
    return bool(trace) and trace[-1].formula == target
