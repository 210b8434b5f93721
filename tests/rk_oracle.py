"""Independent oracle for clause-space treelike resolution: Kullmann's
generalized unit propagation r_k.

r_0 refutes a CNF exactly when it holds the empty clause.  r_k makes a
literal true whenever r_{k-1} refutes the CNF with that literal false, and
repeats until the empty clause appears or no literal qualifies; it refutes
the CNF when the empty clause appears.  r_k refutes F exactly when F has a
treelike resolution refutation of Horton-Strahler number at most k
(Kullmann 1999, "Investigating a general hierarchy of polynomially decidable
classes of CNF's based on short tree-like resolution proofs"), and the
clause space of `resolution.clause_space`'s pebbling recurrence is that
number plus one.  A derivation of a subclause of C from F restricts to a
refutation of F under the assignment that falsifies C, and a refutation of
that restriction lifts back by adding C's literals.  So `search_space(F, s,
C)` accepts exactly when `refutes(F restricted by not-C, s - 1)`.

Works on frozensets of signed-int literals and shares nothing with the
production search beyond the clause type.
"""

from pacreason.resolution import TAUTOLOGY

EMPTY = frozenset()


def assign(clauses: frozenset, lit: int) -> frozenset:
    """The clauses with `lit` made true: satisfied clauses go, and the
    negation of `lit` leaves the others."""
    return frozenset(c - {-lit} for c in clauses if lit not in c)


def falsify(clauses, target) -> frozenset:
    """The non-tautology clauses restricted by the assignment that makes
    every literal of `target` false."""
    out = frozenset(c for c in clauses if c is not TAUTOLOGY)
    for lit in target:
        out = assign(out, -lit)
    return out


def refutes(clauses: frozenset, k: int, memo=None) -> bool:
    """Whether r_k derives the empty clause from `clauses`."""
    if EMPTY in clauses:
        return True
    if k == 0:
        return False
    memo = {} if memo is None else memo
    key = (clauses, k)
    if key in memo:
        return memo[key]
    changed = True
    while changed and EMPTY not in clauses:
        changed = False
        for lit in sorted({lit for c in clauses for lit in c}):
            if refutes(assign(clauses, -lit), k - 1, memo):
                clauses = assign(clauses, lit)
                changed = True
                break
    memo[key] = EMPTY in clauses
    return memo[key]


def derives_in_space(clauses, s: int, target) -> bool:
    """Whether `target` has a treelike resolution derivation from `clauses`
    in clause space at most s, as `resolution.search_space` decides it."""
    if target is TAUTOLOGY:
        return True
    return refutes(falsify(clauses, target), s - 1)
