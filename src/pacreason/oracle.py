"""Brute-force ground truth for desk-scale verification.

Everything here enumerates {0,1}^n, so a configurable cap (default 20
variables) protects runtimes.  Used by property tests and exposed through the
command line for spot checks.
"""

from __future__ import annotations

from itertools import product

from .errors import InputError
from .formulas import Formula, evaluate
from .resolution import TAUTOLOGY

ENUMERATION_CAP = 20


def entails(hypotheses, phi: Formula, n: int, cap: int = ENUMERATION_CAP) -> bool:
    """True iff every assignment satisfying all hypotheses satisfies `phi`."""
    if n > cap:
        raise InputError(f"{n} variables exceed the enumeration cap {cap}")
    hypotheses = list(hypotheses)
    for x in product((0, 1), repeat=n):
        if all(evaluate(h, x) for h in hypotheses) and not evaluate(phi, x):
            return False
    return True


def sat_solve(cnf, cap: int = ENUMERATION_CAP):
    """First satisfying assignment of a CNF in lexicographic order, or None.

    Accepts the resolution module's Cnf objects (clauses are frozensets of
    signed literals).
    """
    if cnf.n > cap:
        raise InputError(f"{cnf.n} variables exceed the enumeration cap {cap}")
    clauses = [c for c in cnf.clauses if c is not TAUTOLOGY]
    for x in product((0, 1), repeat=cnf.n):
        if all(
            any(x[lit - 1] if lit > 0 else not x[-lit - 1] for lit in clause)
            for clause in clauses
        ):
            return x
    return None
