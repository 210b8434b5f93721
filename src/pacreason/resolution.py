"""Clauses, treelike resolution proofs and bounded clause-space proof search.

Literals are signed integers (+v / -v), clauses are frozensets of literals.
A clause holding a complementary pair canonicalizes to TAUTOLOGY, which is
`formulas.TRUE`: the always-true axiom clause, without materializing all 2n
literals, and the same object that restricting a satisfied clause, k-DNF or
inequality returns.

Restriction and proof search run on an int form instead: the literal mask
of a clause has bit 2v for x_v and bit 2v+1 for -x_v, and a `Cnf` keeps the
masks of its clauses.

Treelike proofs are trees of Leaf / Weaken / Cut nodes, each annotated with
the clause it derives.  `search_space` returns its proof as mask steps, and
`proof_tree` builds the tree from them.  Clause space follows the pebbling
recurrence: a leaf costs 1; a cut over subtrees of equal space s costs s+1,
over unequal spaces the maximum; unary weakening steps are free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import InputError
from .formulas import (
    FALSE,
    Const,
    Formula,
    PartialAssignment,
    TRUE,
    conjunction,
    disjunction,
    literal as literal_formula,
    out_of_range,
)

TAUTOLOGY = TRUE

Clause = Union[frozenset, Const]


def make_clause(literals) -> Clause:
    """Canonical clause: dedup literals; complementary pairs give TAUTOLOGY."""
    lits = frozenset(literals)
    for lit in lits:
        if lit == 0:
            raise InputError("0 is not a literal")
        if -lit in lits:
            return TAUTOLOGY
    return lits


def clause_superset(big: Clause, small: Clause) -> bool:
    if big is TAUTOLOGY:
        return True
    if small is TAUTOLOGY:
        return False
    return small <= big


def clause_to_formula(clause: Clause) -> Formula:
    if clause is TAUTOLOGY:
        return TRUE
    if not clause:
        return FALSE
    return disjunction(
        literal_formula(abs(lit), lit > 0) for lit in sorted(clause, key=literal_bit)
    )


def literal_bit(lit: int) -> int:
    """Bit 2v for x_v, bit 2v+1 for -x_v.  Also the one literal sort key:
    by variable, x_v before -x_v."""
    return 1 << (2 * lit if lit > 0 else 1 - 2 * lit)


def literals_text(literals, sep: str, neg: str = "-") -> str:
    """The literals as x<v> for x_v and <neg>x<v> for -x_v, in `literal_bit`
    order, joined by `sep`."""
    ordered = sorted(literals, key=literal_bit)
    return sep.join(f"x{lit}" if lit > 0 else f"{neg}x{-lit}" for lit in ordered)


def encode_clause(clause: frozenset) -> int:
    """The literal mask of a non-tautology clause."""
    bits = 0
    for lit in clause:
        bits |= literal_bit(lit)
    return bits


def decode_clause(bits: int) -> frozenset:
    """The clause whose literal mask is `bits`."""
    lits = []
    while bits:
        low = bits & -bits
        index = low.bit_length() - 1
        lits.append(-(index >> 1) if index & 1 else index >> 1)
        bits ^= low
    return frozenset(lits)


class Cnf:
    """A deduplicated list of clauses over variables 1..n.

    A Cnf also has an int form, `masks`: the literal masks (`encode_clause`)
    of its non-tautology clauses, in clause order, which `restrict_cnf` and
    `search_space` run on.  A Cnf built from clauses encodes them at
    construction.  A Cnf that `restrict_cnf` returns holds only n and masks,
    and decodes `clauses` on first read.  Equality and the repr depend only
    on the clauses as sets of literals; the restriction index takes no part
    in them."""

    __slots__ = ("n", "masks", "_clauses", "_index")

    def __init__(self, clauses, n: int):
        out = []
        for c in clauses:
            c = c if c is TAUTOLOGY else make_clause(c)
            if c is not TAUTOLOGY:
                for lit in c:
                    if abs(lit) > n:
                        raise InputError(f"literal {lit} out of range for n={n}")
            out.append(c)
        clauses = tuple(dict.fromkeys(out))
        object.__setattr__(self, "_clauses", clauses)
        object.__setattr__(self, "n", n)
        masks = tuple(encode_clause(c) for c in clauses if c is not TAUTOLOGY)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def _of_masks(cls, n: int, masks: tuple) -> "Cnf":
        """The Cnf over n whose masks are `masks`, which are distinct."""
        out = cls.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "masks", masks)
        return out

    @property
    def clauses(self) -> tuple:
        try:
            return self._clauses
        except AttributeError:
            pass
        clauses = tuple(decode_clause(bits) for bits in self.masks)
        object.__setattr__(self, "_clauses", clauses)
        return clauses

    def _restriction_index(self) -> tuple:
        """For each variable v, `[v - 1][value]` is the pair (the clauses
        that x_v = value satisfies, as a bitmask where bit i stands for mask
        i; the bit of the literal that x_v = value falsifies)."""
        try:
            return self._index
        except AttributeError:
            pass
        by_literal = {}
        for i, bits in enumerate(self.masks):
            while bits:
                low = bits & -bits
                by_literal[low] = by_literal.get(low, 0) | 1 << i
                bits ^= low
        index = tuple(
            (
                (by_literal.get(2 << 2 * v, 0), 1 << 2 * v),
                (by_literal.get(1 << 2 * v, 0), 2 << 2 * v),
            )
            for v in range(1, self.n + 1)
        )
        object.__setattr__(self, "_index", index)
        return index

    def __eq__(self, other):
        return isinstance(other, Cnf) and self.n == other.n and self.clauses == other.clauses

    def __repr__(self):
        return f"Cnf(n={self.n}, clauses=[{', '.join(map(clause_to_text, self.clauses))}])"

    def __setattr__(self, name, value):
        raise AttributeError("Cnf is immutable")

    def to_formula(self) -> Formula:
        return conjunction(clause_to_formula(c) for c in self.clauses)


@dataclass(frozen=True)
class Leaf:
    clause: Clause


@dataclass(frozen=True)
class Weaken:
    clause: Clause
    child: "ProofNode"


@dataclass(frozen=True)
class Cut:
    pivot: int  # positive literal in left child, negative in right
    left: "ProofNode"
    right: "ProofNode"
    clause: Clause


ProofNode = Union[Leaf, Weaken, Cut]


def check_proof(proof: ProofNode, phi: Cnf, target: Clause) -> bool:
    """Validate every step and that the root derives `target`.

    Leaves must come from `phi` or be the tautology axiom.  Cuts require both
    premises to carry the pivot with opposite signs; the tautology clause may
    not feed a cut.  Malformed proofs return False rather than raising.
    """
    inputs = set(c for c in phi.clauses if c is not TAUTOLOGY)

    def valid(node) -> bool:
        if isinstance(node, Leaf):
            return node.clause is TAUTOLOGY or node.clause in inputs
        if isinstance(node, Weaken):
            return valid(node.child) and clause_superset(node.clause, node.child.clause)
        if isinstance(node, Cut):
            lc, rc = node.left.clause, node.right.clause
            if lc is TAUTOLOGY or rc is TAUTOLOGY:
                return False
            if node.pivot not in lc or -node.pivot not in rc:
                return False
            resolvent = make_clause((lc - {node.pivot}) | (rc - {-node.pivot}))
            if resolvent is TAUTOLOGY:
                same = node.clause is TAUTOLOGY
            else:
                same = node.clause == resolvent
            return same and valid(node.left) and valid(node.right)
        return False

    root_ok = (
        proof.clause is TAUTOLOGY and target is TAUTOLOGY
    ) or proof.clause == target
    return root_ok and valid(proof)


def clause_space(proof: ProofNode) -> int:
    """Optimal blackboard size via the pebbling recurrence."""
    if isinstance(proof, Leaf):
        return 1
    if isinstance(proof, Weaken):
        return clause_space(proof.child)
    left = clause_space(proof.left)
    right = clause_space(proof.right)
    return left + 1 if left == right else max(left, right)


def check_space_bound(s: int) -> None:
    if s < 1:
        raise InputError(f"space bound must be at least 1, got {s}")


def search_space(phi: Cnf, s: int, target: Clause) -> Optional[tuple]:
    """Find a clause-space-at-most-s treelike proof of `target` from `phi`.

    Runs `search_masks` on the literal masks and returns what it found as
    the pair (target mask, step), `(TAUTOLOGY, None)` for the tautology
    target, or None when no such proof exists; `proof_tree` turns the pair
    into Leaf / Weaken / Cut nodes.  Takes an `s` that `check_space_bound`
    accepts.
    """
    if target is TAUTOLOGY:
        return TAUTOLOGY, None
    goal = encode_clause(target)
    step = search_masks(phi.masks, goal, s)
    return None if step is None else (goal, step)


def search_masks(inputs: tuple, goal: int, s: int):
    """The proof search of `search_space` on literal masks.

    A clause that contains an input follows from the first such input, in
    input order, by weakening.  Otherwise branch on a literal: prove
    clause-or-literal in space s-1 and clause-or-negation in space s,
    committing to the first literal whose first proof exists.  Only
    variables that occur in the inputs are branched on, ascending, positive
    literal first, so results are reproducible.  A cut on any other variable
    never helps: restricting it away leaves a proof of the same clause in no
    more space.  More space than one plus the number of those variables
    finds the same proofs, so s is capped there.

    Each node computes `base & ~clause` once per input.  A single bit marks
    the first input that proves clause-or-that-literal at space 1, which is
    also the base case of that child, so a space-2 node is one pass.  No
    remainder in `search` is zero: it starts at the goal only after the top
    scan found no input inside it, and at clause-or-literal only when no
    remainder was exactly that literal.  Results are kept per (clause,
    space) for the call, since at s >= 3 different branch orders reach the
    same clause.  A step is the mask of the base input, or (bit of x_v, step
    for clause | x_v, step for clause | -x_v) for a cut on x_v; None means
    no proof.
    """
    union, keep = 0, ~goal
    for base in inputs:
        if not base & keep:
            return base
        union |= base
    if s == 1:
        return None
    branches = []  # (bits of x_v and -x_v, bit of x_v, both literal orders)
    for bit in range(2, union.bit_length(), 2):
        if union >> bit & 3:
            pos, neg = 1 << bit, 2 << bit
            branches.append((pos | neg, pos, ((pos, neg), (neg, pos))))
    s = min(s, len(branches) + 1)
    memos = [{} for _ in range(s + 1)]

    def search(clause: int, space: int):
        memo = memos[space]
        if clause in memo:
            return memo[clause]
        keep = ~clause
        firsts = {}
        for base in inputs:
            rest = base & keep
            if not rest & (rest - 1) and rest not in firsts:
                firsts[rest] = base
        found = None  # space is 1 here only when the cap found no branches
        for used, pos, orders in branches:
            if clause & used:
                continue
            for lit, other in orders:
                first = firsts.get(lit)
                if first is None and space > 2:
                    first = search(clause | lit, space - 1)
                if first is not None:
                    break
            else:
                continue
            second = firsts.get(other)
            if second is None:
                second = search(clause | other, space)
            if second is not None:
                found = (pos, first, second) if lit == pos else (pos, second, first)
            break
        memo[clause] = found
        return found

    return search(goal, s)


def proof_tree(found: Optional[tuple]) -> Optional[ProofNode]:
    """The Leaf / Weaken / Cut tree of what `search_space` found (None for
    None), each node annotated with the clause it derives."""
    if found is None:
        return None
    goal, step = found
    if goal is TAUTOLOGY:
        return Leaf(TAUTOLOGY)

    def build(clause: int, step) -> ProofNode:
        if isinstance(step, int):
            leaf = Leaf(decode_clause(step))
            return leaf if step == clause else Weaken(decode_clause(clause), leaf)
        pos, left, right = step
        return Cut(
            pos.bit_length() >> 1,
            build(clause | pos, left),
            build(clause | pos << 1, right),
            decode_clause(clause),
        )

    return build(goal, step)


def restrict_clause(clause: Clause, rho: PartialAssignment) -> Clause:
    """Drop falsified literals; a satisfied literal collapses to TAUTOLOGY.
    Raises InputError for a variable beyond len(rho)."""
    if clause is TAUTOLOGY:
        return TAUTOLOGY
    out = []
    for lit in clause:
        try:
            v = rho[abs(lit) - 1]
        except IndexError:
            raise out_of_range(abs(lit), rho) from None
        if v is None:
            out.append(lit)
        elif (v == 1) == (lit > 0):
            return TAUTOLOGY
    return frozenset(out)


def restrict_term(term, rho: PartialAssignment) -> Optional[list]:
    """The literals of a conjunction that rho leaves masked, in term order,
    or None when rho falsifies one of them.  Raises InputError for a
    variable beyond len(rho)."""
    kept = []
    for lit in term:
        try:
            v = rho[abs(lit) - 1]
        except IndexError:
            raise out_of_range(abs(lit), rho) from None
        if v is None:
            kept.append(lit)
        elif (v == 1) != (lit > 0):
            return None
    return kept


def restrict_cnf(phi: Cnf, rho: PartialAssignment) -> Cnf:
    """Restrict every clause, dropping the satisfied ones, in clause order.

    Runs on `Cnf._restriction_index`, built once per Cnf: the clauses that
    rho satisfies are the OR of the clause bitmasks of its set coordinates,
    and each clause left, read off the other bits in ascending order, which
    is clause order, loses the literals rho falsifies by an AND with the
    complement of their OR.  Equal results keep the first.  The result
    equals restricting clause by clause with `restrict_clause`, and is a Cnf
    of masks (see `Cnf`).  Coordinates of rho beyond phi.n are ignored;
    raises InputError when rho is shorter than phi.n.
    """
    if len(rho) < phi.n:
        raise InputError(
            f"partial assignment has length {len(rho)}, CNF needs at least {phi.n}"
        )
    masks = phi.masks
    satisfied = false_lits = 0
    for value, pairs in zip(rho, phi._restriction_index()):
        if value is not None:
            clause_bits, lit_bit = pairs[value]
            satisfied |= clause_bits
            false_lits |= lit_bit
    keep = ~false_lits
    left = ~satisfied & ((1 << len(masks)) - 1)
    kept = {}
    while left:
        low = left & -left
        kept[masks[low.bit_length() - 1] & keep] = None
        left ^= low
    return Cnf._of_masks(phi.n, tuple(kept))


def clause_to_text(clause: Clause) -> str:
    if clause is TAUTOLOGY:
        return "T"
    if not clause:
        return "()"
    return literals_text(clause, "|")


def proof_to_text(proof: ProofNode) -> str:
    """Nested-parenthesis trace of a proof, usable for golden tests."""
    if isinstance(proof, Leaf):
        return f"(leaf {clause_to_text(proof.clause)})"
    if isinstance(proof, Weaken):
        return f"(weaken {clause_to_text(proof.clause)} {proof_to_text(proof.child)})"
    return (
        f"(cut x{proof.pivot} {proof_to_text(proof.left)} "
        f"{proof_to_text(proof.right)} {clause_to_text(proof.clause)})"
    )
