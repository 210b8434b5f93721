"""Brute-force ground truth for desk-scale verification.

Everything here enumerates {0,1}^n, so a cap of ENUMERATION_CAP variables
protects runtimes.  Used by property tests and exposed through the
command line for spot checks.
"""

from __future__ import annotations

from itertools import product

from .errors import InputError
from .formulas import Formula, evaluate
from .resolution import TAUTOLOGY

ENUMERATION_CAP = 20


def assignments(n: int):
    """Every point of {0,1}^n in lexicographic order; InputError when n
    exceeds ENUMERATION_CAP."""
    if n > ENUMERATION_CAP:
        raise InputError(f"{n} variables exceed the enumeration cap {ENUMERATION_CAP}")
    return product((0, 1), repeat=n)


def entails(hypotheses, phi: Formula, n: int) -> bool:
    """True iff every assignment satisfying all hypotheses satisfies `phi`."""
    hypotheses = list(hypotheses)
    for x in assignments(n):
        if all(evaluate(h, x) for h in hypotheses) and not evaluate(phi, x):
            return False
    return True


def sat_solve(cnf):
    """First satisfying assignment of a CNF in lexicographic order, or None.

    Accepts the resolution module's Cnf objects (clauses are frozensets of
    signed literals).
    """
    clauses = [c for c in cnf.clauses if c is not TAUTOLOGY]
    for x in assignments(cnf.n):
        if all(
            any(x[lit - 1] if lit > 0 else not x[-lit - 1] for lit in clause)
            for clause in clauses
        ):
            return x
    return None
