"""Clauses, treelike resolution proofs and bounded clause-space proof search.

Literals are signed integers (+v / -v), clauses are frozensets of literals.
A clause holding a complementary pair canonicalizes to TAUTOLOGY, which is
`formulas.TRUE`: the always-true axiom clause, without materializing all 2n
literals, and the same object that restricting a satisfied clause, k-DNF or
inequality returns.

Treelike proofs are trees of Leaf / Weaken / Cut nodes, each annotated with
the clause it derives.  Clause space follows the pebbling recurrence: a leaf
costs 1; a cut over subtrees of equal space s costs s+1, over unequal spaces
the maximum; unary weakening steps are free.
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
        literal_formula(abs(lit), lit > 0) for lit in sorted(clause, key=abs)
    )


class Cnf:
    """A deduplicated list of clauses over variables 1..n.

    `_restriction_index()` builds the clause bitmasks that `restrict_cnf`
    reads on first use and keeps them; they take no part in equality or
    the repr."""

    __slots__ = ("clauses", "n", "_index")

    def __init__(self, clauses, n: int):
        out = []
        for c in clauses:
            c = c if c is TAUTOLOGY else make_clause(c)
            if c is not TAUTOLOGY:
                for lit in c:
                    if abs(lit) > n:
                        raise InputError(f"literal {lit} out of range for n={n}")
            out.append(c)
        object.__setattr__(self, "clauses", tuple(dict.fromkeys(out)))
        object.__setattr__(self, "n", n)

    @classmethod
    def _trusted(cls, clauses, n: int) -> "Cnf":
        """A Cnf of canonical, non-tautological clauses over 1..n, only
        deduplicated: no `make_clause`, no range check."""
        out = cls.__new__(cls)
        object.__setattr__(out, "clauses", tuple(dict.fromkeys(clauses)))
        object.__setattr__(out, "n", n)
        return out

    def _restriction_index(self):
        """(tautologies, masks): bit i of an int stands for clause i.
        `tautologies` marks the TAUTOLOGY clauses; `masks[v - 1]` is the pair
        (clauses that x_v = 0 satisfies, clauses that x_v = 1 satisfies)."""
        try:
            return self._index
        except AttributeError:
            pass
        tautologies, by_literal = 0, {}
        for i, c in enumerate(self.clauses):
            if c is TAUTOLOGY:
                tautologies |= 1 << i
                continue
            for lit in c:
                by_literal[lit] = by_literal.get(lit, 0) | 1 << i
        masks = tuple(
            (by_literal.get(-v, 0), by_literal.get(v, 0)) for v in range(1, self.n + 1)
        )
        object.__setattr__(self, "_index", (tautologies, masks))
        return self._index

    def __eq__(self, other):
        return isinstance(other, Cnf) and self.n == other.n and self.clauses == other.clauses

    def __repr__(self):
        return f"Cnf(n={self.n}, clauses={list(self.clauses)!r})"

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


def search_space(phi: Cnf, s: int, target: Clause) -> Optional[ProofNode]:
    """Find a clause-space-at-most-s treelike proof of `target` from `phi`.

    Base case: a target that is a superset of an input clause follows by
    weakening.  Otherwise branch on a literal, proving target-or-literal in
    space s-1 and target-or-negation in space s.  Only variables that occur
    in the inputs are branched on, in ascending order, positive literal
    first, so results are reproducible.  A cut on any other variable never
    helps: restricting it away leaves a proof of the same clause in no more
    space.  Returns None when no such proof exists.  Takes an `s` that
    `check_space_bound` accepts.
    """
    if target is TAUTOLOGY:
        return Leaf(TAUTOLOGY)

    inputs = [c for c in phi.clauses if c is not TAUTOLOGY]
    variables = sorted({abs(lit) for c in inputs for lit in c})

    def search(clause: frozenset, space: int) -> Optional[ProofNode]:
        for base in inputs:
            if base <= clause:
                leaf = Leaf(base)
                return leaf if base == clause else Weaken(clause, leaf)
        if space > 1:
            used = {abs(lit) for lit in clause}
            for var in variables:
                if var in used:
                    continue
                for lit in (var, -var):
                    first = search(clause | {lit}, space - 1)
                    if first is None:
                        continue
                    second = search(clause | {-lit}, space)
                    if second is None:
                        return None
                    if lit > 0:
                        return Cut(var, first, second, clause)
                    return Cut(var, second, first, clause)
        return None

    return search(frozenset(target), s)


def restrict_clause(clause: Clause, rho: PartialAssignment) -> Clause:
    """Drop falsified literals; a satisfied literal collapses to TAUTOLOGY."""
    if clause is TAUTOLOGY:
        return TAUTOLOGY
    out = []
    for lit in clause:
        v = rho.value(abs(lit))
        if v is None:
            out.append(lit)
        elif (v == 1) == (lit > 0):
            return TAUTOLOGY
    return frozenset(out)


def restrict_cnf(phi: Cnf, rho: PartialAssignment) -> Cnf:
    """Restrict every clause, dropping the satisfied ones, in clause order.

    Runs on the clause bitmasks of `Cnf._restriction_index`, built once per
    Cnf: the clauses that rho satisfies are the OR of the masks of its set
    coordinates (with the TAUTOLOGY clauses), and the clauses left are read
    off the other bits in ascending order, which is clause order, each
    losing the literals rho falsifies.  The result equals restricting clause
    by clause with `restrict_clause`.  Each restricted clause is a subset of
    a valid clause of phi, so it skips `Cnf`'s checks.  Coordinates of rho
    beyond phi.n are ignored; raises InputError when rho is shorter than
    phi.n.
    """
    if len(rho) < phi.n:
        raise InputError(
            f"partial assignment has length {len(rho)}, CNF needs at least {phi.n}"
        )
    satisfied, masks = phi._restriction_index()
    entries = rho.entries
    for value, pair in zip(entries, masks):
        if value is not None:
            satisfied |= pair[value]
    false_lits = {
        -var if value else var for var, value in enumerate(entries, 1) if value is not None
    }
    left = ~satisfied & ((1 << len(phi.clauses)) - 1)
    restricted = []
    while left:
        low = left & -left
        restricted.append(phi.clauses[low.bit_length() - 1] - false_lits)
        left ^= low
    return Cnf._trusted(restricted, phi.n)


def clause_to_text(clause: Clause) -> str:
    if clause is TAUTOLOGY:
        return "T"
    if not clause:
        return "()"
    return "|".join(
        f"x{lit}" if lit > 0 else f"-x{-lit}" for lit in sorted(clause, key=lambda l: (abs(l), l < 0))
    )


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
