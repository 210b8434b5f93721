"""Limited-decision backends adapting each proof system to the reduction.

Every backend is restriction-closed: whenever it accepts an instance it also
accepts any restriction of that instance at the same budget, which is what
makes the per-example aggregation sound.  Cutting planes keeps every
restricted hypothesis as its residual inequality, even one witnessed true,
because the search may use an over-budget hypothesis as an addition input.
Restriction also keeps an instance inside its system's budget check, so the
caller checks the unrestricted instance once and no decider checks again.

`restrict_query` returns `formulas.TRUE` for a query that the restriction
settles (witnessed true), and the reduction accepts such an example without
restricting the hypotheses.  The clause and inequality restrictions collapse
to TRUE themselves; RES(k) returns TRUE when a negated-query k-DNF restricts
to BOTTOM, its refutation target, and PC/PCR when the query polynomial
restricts to zero.  Each system's search accepts those forms too.
`decide(query, hyps)` is the plain yes/no search the reduction calls on every
other example.  `certificate(query, hyps)` runs the same search once, replays
the proof it found with that system's independent checker, budget included
(s for clause-space resolution, k and w for RES(k), w and L for cutting
planes), and returns the proof's text lines (None on reject, () where the
system prints no proof); a proof that fails its replay raises RuleError.
Clause-space resolution prints its proof tree on one line; RES(k) prints
`rule: formula` per trace step and cutting planes `index: rule inequality`,
both from `saturation.TraceStep`s; PC and PCR print nothing.
"""

from __future__ import annotations

from .errors import RuleError
from .formulas import TRUE
from .polycalc import PC, decide_pc, restrict_polynomial
from .cutting_planes import check_trace as check_cp_trace, decide_cp, residual_ineq, restrict_ineq
from .res_k import BOTTOM, check_trace as check_resk_trace, decide_resk_width, restrict_kdnf
from .resolution import (
    check_proof,
    clause_space,
    proof_to_text,
    proof_tree,
    restrict_clause,
    restrict_cnf,
    search_space,
)


def _restrict_each(restrict_one, formulas, rho) -> tuple:
    """Restricts every formula by rho and drops those that became TRUE."""
    restricted = (restrict_one(phi, rho) for phi in formulas)
    return tuple(phi for phi in restricted if phi is not TRUE)


def _replayed(ok: bool, system: str) -> None:
    if not ok:
        raise RuleError(f"{system} certificate failed its replay check")


class SpaceResolutionBackend:
    """Clause-space-bounded treelike resolution; query is a single clause."""

    def __init__(self, s: int, n: int):
        self.s = s
        self.n = n

    def decide(self, query, hyps) -> bool:
        return search_space(hyps, self.s, query) is not None

    def certificate(self, query, hyps):
        proof = proof_tree(search_space(hyps, self.s, query))
        if proof is None:
            return None
        _replayed(check_proof(proof, hyps, query) and clause_space(proof) <= self.s, "res-space")
        return (proof_to_text(proof),)

    def restrict_query(self, query, rho):
        return restrict_clause(query, rho)

    def restrict_hyps(self, hyps, rho):
        return restrict_cnf(hyps, rho)


class ResKWidthBackend:
    """Width-bounded RES(k) refutation; the query arrives pre-negated as a
    list of k-DNFs that join the hypotheses for a bottom-target run."""

    def __init__(self, k: int, w: int, n: int):
        self.k = k
        self.w = w
        self.n = n

    def decide(self, query, hyps) -> bool:
        accepted, _ = decide_resk_width(list(hyps) + list(query), BOTTOM, self.k, self.w)
        return accepted

    def certificate(self, query, hyps):
        inputs = list(hyps) + list(query)
        accepted, trace = decide_resk_width(inputs, BOTTOM, self.k, self.w)
        if not accepted:
            return None
        _replayed(check_resk_trace(trace, inputs, BOTTOM, self.k, self.w), "res-k-width")
        return tuple(f"{step.rule}: {step.formula!r}" for step in trace)

    def restrict_query(self, query, rho):
        restricted = _restrict_each(restrict_kdnf, query, rho)
        return TRUE if BOTTOM in restricted else restricted

    def restrict_hyps(self, hyps, rho):
        return _restrict_each(restrict_kdnf, hyps, rho)


class PolynomialCalculusBackend:
    """Degree-bounded polynomial calculus (or PCR); query is a polynomial."""

    def __init__(self, d: int, n: int, mode: str = PC):
        self.d = d
        self.n = n
        self.mode = mode

    def decide(self, query, hyps) -> bool:
        return decide_pc(list(hyps), query, self.d, self.mode)

    def certificate(self, query, hyps):
        return () if self.decide(query, hyps) else None

    def restrict_query(self, query, rho):
        restricted = restrict_polynomial(query, rho)
        return TRUE if restricted.is_zero else restricted

    def restrict_hyps(self, hyps, rho):
        return tuple(restrict_polynomial(p, rho) for p in hyps)


class CuttingPlanesBackend:
    """Sparse, l1-bounded cutting planes; query is a linear inequality."""

    def __init__(self, w: int, L: int, n: int):
        self.w = w
        self.L = L
        self.n = n

    def decide(self, query, hyps) -> bool:
        accepted, _ = decide_cp(list(hyps), query, self.w, self.L)
        return accepted

    def certificate(self, query, hyps):
        accepted, trace = decide_cp(list(hyps), query, self.w, self.L)
        if not accepted:
            return None
        _replayed(check_cp_trace(trace, hyps, query, self.w, self.L), "cp")
        return tuple(f"{i}: {step.rule} {step.formula!r}" for i, step in enumerate(trace))

    def restrict_query(self, query, rho):
        return restrict_ineq(query, rho)

    def restrict_hyps(self, hyps, rho):
        return tuple(residual_ineq(h, rho) for h in hyps)
