"""Clauses, treelike resolution proofs and bounded clause-space proof search.

Literals are signed integers (+v / -v), clauses are frozensets of literals.
A clause holding a complementary pair canonicalizes to TAUTOLOGY, which is
`formulas.TRUE`: the always-true axiom clause, without materializing all 2n
literals, and the same object that restricting a satisfied clause, k-DNF or
inequality returns.

Restriction and proof search run on an int form instead: the literal mask
of a clause has bit 2v for x_v and bit 2v+1 for -x_v.  A `Cnf` is a plain
value of clauses, and its `masks` are the tuple of literal masks that
`restrict_cnf` restricts, in one pass, into another such tuple, which
`search_space` searches.

An example rho is the literal mask of what it makes true, read with int
tests by every restriction; the clause ones also take rho swapped by
`negation`, the mask of what it makes false.

Treelike proofs are trees of Leaf / Weaken / Cut nodes, each annotated with
the clause it derives.  `search_space` returns its proof as mask steps, and
`proof_tree` builds the tree from them.  Clause space follows the pebbling
recurrence: a leaf costs 1; a cut over subtrees of equal space s costs s+1,
over unequal spaces the maximum; unary weakening steps are free.
"""

from __future__ import annotations


from .errors import InputError
from .formulas import (
    FALSE,
    Const,
    Formula,
    Record,
    TRUE,
    conjunction,
    disjunction,
    literal as literal_formula,
)

TAUTOLOGY = TRUE

Clause = frozenset | Const


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


def negation(n: int):
    """The map from a literal mask over x1..xn to the mask of the negated
    literals, which swaps each variable's two bits."""
    even = (1 << 2 * n + 2) // 3  # bits 0, 2, ..., 2n
    return lambda bits: (bits & even) << 1 | bits >> 1 & even


def check_examples(examples, n: int) -> None:
    """InputError unless every example is a true-literal mask over x1..xn: an
    int, not a bool, with no bit outside their literals nor both of one."""
    even = (1 << 2 * n + 2) // 3  # bits 0, 2, ..., 2n
    outside = ~((1 << 2 * n + 2) - 4)  # bits 0, 1 and those above x_n's
    for rho in examples:
        if type(rho) is not int or rho & outside or rho & rho >> 1 & even:
            raise InputError(f"example {rho!r} is not a true-literal mask over x1..x{n}")


def literals_text(literals, sep: str, neg: str = "-") -> str:
    """The literals as x<v> for x_v and <neg>x<v> for -x_v, in `literal_bit`
    order, joined by `sep`."""
    ordered = sorted(literals, key=literal_bit)
    return sep.join(f"x{lit}" if lit > 0 else f"{neg}x{-lit}" for lit in ordered)


def encode_clause(clause: Clause) -> int | Const:
    """The literal mask of a clause; TAUTOLOGY stays TAUTOLOGY."""
    if clause is TAUTOLOGY:
        return TAUTOLOGY
    bits = 0
    for lit in clause:
        bits |= literal_bit(lit)
    return bits


def decode_clause(bits: int | Const) -> Clause:
    """The clause whose literal mask is `bits`; TAUTOLOGY stays TAUTOLOGY."""
    if bits is TAUTOLOGY:
        return TAUTOLOGY
    lits = []
    while bits:
        low = bits & -bits
        index = low.bit_length() - 1
        lits.append(-(index >> 1) if index & 1 else index >> 1)
        bits ^= low
    return frozenset(lits)


class Cnf(Record):
    """A deduplicated tuple of clauses over variables 1..n, in the order
    given, each canonicalized by `make_clause` and range-checked.

    `masks` is its int form: the literal masks (`encode_clause`) of its
    non-tautology clauses, in clause order, which `restrict_cnf` and
    `search_space` run on."""

    __slots__ = ("clauses", "n")

    def __post_init__(self):
        out = []
        for c in self.clauses:
            c = c if c is TAUTOLOGY else make_clause(c)
            if c is not TAUTOLOGY:
                for lit in c:
                    if abs(lit) > self.n:
                        raise InputError(f"literal {lit} out of range for n={self.n}")
            out.append(c)
        object.__setattr__(self, "clauses", tuple(dict.fromkeys(out)))

    @property
    def masks(self) -> tuple:
        return tuple(encode_clause(c) for c in self.clauses if c is not TAUTOLOGY)

    def __repr__(self):
        return f"Cnf(n={self.n}, clauses=[{', '.join(map(clause_to_text, self.clauses))}])"

    def to_formula(self) -> Formula:
        return conjunction(clause_to_formula(c) for c in self.clauses)


class Leaf(Record):
    __slots__ = ("clause",)


class Weaken(Record):
    __slots__ = ("clause", "child")


class Cut(Record):
    # the pivot is a positive literal in the left child, negative in the right
    __slots__ = ("pivot", "left", "right", "clause")


ProofNode = Leaf | Weaken | Cut


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


def search_space(inputs: tuple, s: int, goal: int | Const) -> tuple | None:
    """Find a clause-space-at-most-s treelike proof from the clauses whose
    literal masks are `inputs` of the clause whose literal mask is `goal`
    (`encode_clause`).

    Returns what it found as the pair (goal, step), `(TAUTOLOGY, None)` for
    the tautology goal, or None when no such proof exists; `proof_tree`
    turns the pair into Leaf / Weaken / Cut nodes.  Takes an `s` that
    `check_space_bound` accepts.

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

    Before it branches, the search tries `countermodel`, one pass over the
    inputs, and returns None when the pass finds an assignment that
    satisfies every input and falsifies the goal.  That is exact by
    soundness alone: every clause a proof derives is true wherever its
    inputs are, so no proof of the goal exists at any space.  The pass only
    settles rejects, and every proof is the one the search finds without it.
    """
    if goal is TAUTOLOGY:
        return TAUTOLOGY, None
    union, keep = 0, ~goal
    for base in inputs:
        if not base & keep:
            return goal, base
        union |= base
    if s == 1 or countermodel(inputs, goal) is not None:
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

    step = search(goal, s)
    return None if step is None else (goal, step)


def _negation(lit: int) -> int:
    """The literal bit of the negation of the literal bit `lit`."""
    return lit << 1 if lit.bit_length() & 1 else lit >> 1


def countermodel(inputs: tuple, goal: int) -> int | None:
    """The true-literal mask of an assignment that satisfies every input and
    falsifies the goal, found in one pass, or None where the pass gets stuck.

    The pass makes the negations of the goal's literals true, then takes the
    inputs in input order.  An input with a true literal is satisfied; for
    any other it makes the lowest of its literals that is not already false
    true, and it gets stuck at an input whose literals are all false.  A
    literal once true stays true, so every input is satisfied at the end.
    """
    true, false, bits = 0, goal, goal
    while bits:
        lit = bits & -bits
        true |= _negation(lit)
        bits ^= lit
    for base in inputs:
        if not base & true:
            free = base & ~false
            if not free:
                return None
            lit = free & -free
            true |= lit
            false |= _negation(lit)
    return true


def proof_tree(found: tuple | None) -> ProofNode | None:
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


def restrict_mask(bits: int | Const, rho: int, false: int) -> int | Const:
    """The literal mask of a clause restricted by the example rho, which
    makes the literals of `false` false: TAUTOLOGY when rho makes one of its
    literals true, otherwise the mask without `false`.  TAUTOLOGY stays."""
    if bits is TAUTOLOGY or bits & rho:
        return TAUTOLOGY
    return bits & ~false


def restrict_term(term, rho: int) -> list | None:
    """The literals of a conjunction that the example rho leaves masked, in
    term order, or None when rho makes one of them false."""
    kept = []
    for lit in term:
        bit = 1 << (2 * lit if lit > 0 else 1 - 2 * lit)  # literal_bit(lit)
        if (bit << 1 if lit > 0 else bit >> 1) & rho:  # rho makes lit false
            return None
        if not bit & rho:
            kept.append(lit)
    return kept


def restrict_cnf(masks: tuple, rho: int, false: int) -> tuple:
    """Restrict every literal mask by the example rho, in mask order: a mask
    that meets rho is satisfied and dropped, every other loses the literals
    of `false` (rho's false literals), and equal results keep the first.  The
    result equals `restrict_mask` on each mask, with TAUTOLOGY dropped."""
    return tuple(dict.fromkeys([bits & ~false for bits in masks if not bits & rho]))


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
