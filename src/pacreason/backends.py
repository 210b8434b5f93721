"""Limited-decision backends adapting each proof system to the reduction.

`SYSTEMS` maps each `--system` name to its backend class.  The class names
its budget flags in `budgets`; `load(system, kb_text, query_text, **budgets)`
parses an instance, checks it against them and returns `(backend, query,
hyps)`.  Restriction keeps an instance inside its system's budget check, so
the unrestricted instance is checked there, once, and no decider checks.
Clause-space resolution holds its hyps, restricted or not, as a plain tuple
of literal masks, and PC/PCR its query and hyps as integer rows
(`polycalc.row`, denominators cleared at load), so a restricted instance of
either is a hashable value.

Every backend is restriction-closed: whenever it accepts an instance it also
accepts any restriction of that instance at the same budget, which is what
makes the per-example aggregation sound.  Cutting planes keeps every
restricted hypothesis as its residual inequality, even one witnessed true,
because the search may use an over-budget hypothesis as an addition input.

`restrict_query` returns `formulas.TRUE` for a query that the restriction
settles (witnessed true), and the reduction accepts such an example without
restricting the hypotheses.  The clause and inequality restrictions collapse
to TRUE themselves; RES(k) returns TRUE when a negated-query k-DNF restricts
to BOTTOM, its refutation target, and PC/PCR when the query row restricts
to the zero row ().  Each system's search accepts those forms too.
`query_scope(query)`, the literals whose variables `restrict_query` reads,
is the query's literals: each restriction reads an example's bits on its
formula's own variables only.
`decide(query, hyps)` runs the system's one search and returns what it
found, a falsy value on reject: the `search_space` steps for clause-space
resolution, the `saturation.TraceStep` trace for RES(k) and cutting planes,
and for PC and PCR the one-tuple of the mask of the hypothesis indices
behind the basis rows that reduce the query (`polycalc.decide_pc`).
`replay(proof, query, hyps)` checks that proof with the system's
independent checker, budget included, and returns its text lines; a proof
that fails its replay raises RuleError.  Clause-space resolution prints its
proof tree on one line, RES(k) `rule: formula` per trace step, cutting
planes `index: rule inequality`, and PC and PCR nothing.

Cutting planes' `decide` first tries a countermodel pass
(`cutting_planes.countermodel`): a 0/1 point that satisfies every restricted
hypothesis and falsifies the restricted query.  Every rule is sound over 0/1
points, so such a point rules out a derivation at any budget, and `decide`
rejects without running `decide_cp`; where the pass finds none, `decide_cp`
runs as it would without it.

`is_countermodel(query, hyps, x)` says whether the full assignment whose
true-literal mask is x satisfies every restricted hypothesis and falsifies
the restricted query: whether the system's restriction kernel, called
directly and not through `restrict_query` or `restrict_hyps` (which a trace
times), restricts by x every hypothesis to TRUE and the query not
(`restrict_mask`'s test `bits & x`, `restrict_ineq`; for RES(k), every
negated-query k-DNF to TRUE too, `restrict_kdnf`), or for PC and PCR every
hypothesis row to zero and the query row to a nonzero constant
(`restrict_rows`, `polycalc.countermodel_rows`).  So the check is sound
exactly when the restrictions are, and every system is sound over 0/1
points, so such an x rules out a proof at any budget.

`countermodel_support(query, hyps, x)` gives, for such an x on the instance
that an example restricts, the mask of both literals of every variable whose
value in x alone keeps each original hypothesis true and the original query
false at every completion; `decide_pac` keeps x's projection onto it and
rejects without a search every later example consistent with that
projection.  Such an example has a completion that agrees with x there, a
countermodel of the instance it restricts, so soundness alone makes the
reject exact, and no such example settles the query.  Clause-space
resolution takes the query's variables, which x makes false, then, in
hypothesis order, the variable of the lowest true literal of each clause
that no literal taken so far makes true.  RES(k) takes, in the same way,
for each k-DNF of the hypotheses and the negated query that the literals
taken so far do not restrict to TRUE, the variables of its true term with
the smallest `literal_bit` mask: a true term makes its k-DNF true, and every
negated-query k-DNF true is the query false.  PC/PCR start from every
variable and drop each in turn, x1 first, keeping a drop while
`countermodel_rows` passes the rows restricted by x's projection onto the
variables left: a zero row is zero, and a constant row that value, at every
completion.  Cutting planes gives every literal, so x itself: no one literal
makes an inequality true the way it makes a clause true, and a smaller
support would take a restriction of every inequality per variable tried
(`residual_ineq`).

`support(query, hyps, proof, rho)` gives, for a proof that `decide` found on
the instance that the example rho restricts, the mask of both literals of
every variable the proof depends on, and `decide_pac` accepts without a
search every later example that sets what rho sets there.  Each support is
the query's variables and those of every original hypothesis the proof
uses.  Clause-space resolution walks the `search_space` steps: each leaf's
original hypothesis is a clause c of `hyps` with `not c & rho` whose
restriction is the leaf.  It must be the original clause, not the leaf,
which lacks the literals rho makes false: an example that makes one of them
true satisfies c and removes the leaf.  Cutting planes reads the index that
ends each `HypothesisStep`'s premises, and PC and PCR the hypothesis mask
that `decide` returns (`polycalc.build_basis` ORs it along the one
elimination); the restrictions keep one residual or row per hypothesis, in
order, so an index names an original hypothesis.  RES(k) returns None: its
trace names hypotheses by index too, but a support settles repeats as an
accept memo does, and the benchmark's memory metric grows with the rounds
that a faster run fits in (ROADMAP item 1).
"""

from __future__ import annotations

from . import formats
from .errors import InputError, RuleError
from .formulas import TRUE
from .polycalc import PC, PCR, check_inputs, countermodel_rows, decide_pc, restrict_rows, row
from .polycalc import row_literals
from .cutting_planes import check_target, countermodel, decide_cp, residual_ineq, restrict_ineq
from .cutting_planes import check_trace as check_cp_trace
from .res_k import BOTTOM, check_budget, decide_resk_width, negate_query, restrict_kdnf
from .res_k import check_trace as check_resk_trace
from .resolution import Cnf, check_proof, check_space_bound, clause_space, decode_clause
from .resolution import encode_clause, literal_bit, proof_to_text, proof_tree, restrict_cnf
from .resolution import TAUTOLOGY, negation, restrict_mask, search_space


def _same_n(query_n: int, kb_n: int) -> None:
    if query_n != kb_n:
        raise InputError(f"query n={query_n} does not match kb n={kb_n}")


def _replayed(ok: bool, system: str) -> None:
    if not ok:
        raise RuleError(f"{system} certificate failed its replay check")


class SpaceResolutionBackend:
    """Clause-space-bounded treelike resolution; query is a single clause
    and hyps a tuple of clauses, each held as its literal mask
    (`resolution.encode_clause`), which `resolution.restrict_cnf`
    restricts in one pass over the masks, each restriction with the example's
    false-literal mask from a `resolution.negation` built once."""

    budgets = ("s",)

    def __init__(self, s: int, n: int):
        self.s = s
        self.n = n
        self._negate = negation(n)

    @classmethod
    def load(cls, system, kb_text, query_text, s):
        kb = formats.parse_cnf(kb_text)
        query = formats.parse_cnf(query_text)
        if len(query.clauses) != 1:
            raise InputError("res-space queries are a single clause (one-clause cnf file)")
        _same_n(query.n, kb.n)
        check_space_bound(s)
        return cls(s, kb.n), encode_clause(query.clauses[0]), kb.masks

    def decide(self, query, hyps):
        return search_space(hyps, self.s, query)

    def replay(self, proof, query, hyps):
        tree = proof_tree(proof)
        kb = Cnf(map(decode_clause, hyps), self.n)
        ok = check_proof(tree, kb, decode_clause(query)) and clause_space(tree) <= self.s
        _replayed(ok, "res-space")
        return (proof_to_text(tree),)

    def query_scope(self, query):
        return 0 if query is TAUTOLOGY else query

    def restrict_query(self, query, rho):
        return restrict_mask(query, rho, self._negate(rho))

    def restrict_hyps(self, hyps, rho):
        return restrict_cnf(hyps, rho, self._negate(rho))

    def is_countermodel(self, query, hyps, x):
        return not query & x and all(bits & x for bits in hyps)

    def countermodel_support(self, query, hyps, x):
        used = self._negate(self.query_scope(query))  # x makes the query's literals false
        for bits in hyps:
            if not bits & used:  # no chosen literal makes the clause true yet
                true = bits & x
                used |= true & -true  # its lowest true literal
        return used | self._negate(used)

    def support(self, query, hyps, proof, rho):
        false = self._negate(rho)
        original = {bits & ~false: bits for bits in hyps if not bits & rho}  # leaf -> a clause
        used, steps = self.query_scope(query), [proof[1]]
        while steps:
            step = steps.pop()
            if isinstance(step, int):
                used |= original[step]
            else:
                steps += step[1:]  # a cut (pivot bit, step, step)
        return used | self._negate(used)


class ResKWidthBackend:
    """Width-bounded RES(k) refutation; the query arrives pre-negated as a
    tuple of k-DNFs that join the hypotheses for a bottom-target run."""

    budgets = ("k", "w")

    def __init__(self, k: int, w: int, n: int):
        self.k = k
        self.w = w
        self.n = n

    @classmethod
    def load(cls, system, kb_text, query_text, k, w):
        n, k_file, hyps = formats.parse_kdnf_file(kb_text)
        if k_file > k:
            raise InputError(f"kb file holds {k_file}-DNFs but --k is {k}")
        query = formats.parse_cnf(query_text)
        _same_n(query.n, n)
        negated = negate_query(query.clauses, k)
        negated = () if negated is TRUE else (negated,)
        check_budget(hyps + list(negated), BOTTOM, k, w)
        return cls(k, w, n), negated, tuple(hyps)

    def decide(self, query, hyps):
        return decide_resk_width(list(hyps) + list(query), BOTTOM, self.k, self.w)[1]

    def replay(self, proof, query, hyps):
        inputs = list(hyps) + list(query)
        _replayed(check_resk_trace(proof, inputs, BOTTOM, self.k, self.w), "res-k-width")
        return tuple(f"{step.rule}: {step.formula!r}" for step in proof)

    def query_scope(self, query):
        return sum({literal_bit(lit) for phi in query for term in phi for lit in term})

    def restrict_query(self, query, rho):
        restricted = self.restrict_hyps(query, rho)  # the negated query's k-DNFs
        return TRUE if BOTTOM in restricted else restricted

    def restrict_hyps(self, hyps, rho):
        restricted = (restrict_kdnf(phi, rho) for phi in hyps)
        return tuple(phi for phi in restricted if phi is not TRUE)

    def is_countermodel(self, query, hyps, x):
        return all(restrict_kdnf(phi, x) is TRUE for phi in hyps + query)

    def countermodel_support(self, query, hyps, x):
        used = 0  # the chosen literals, each true in x
        for phi in hyps + query:
            if restrict_kdnf(phi, used) is not TRUE:  # no chosen term makes phi true yet
                used |= min(m for m in (sum(map(literal_bit, term)) for term in phi) if m & x == m)
        return used | negation(self.n)(used)

    def support(self, query, hyps, proof, rho):
        return None


class PolynomialCalculusBackend:
    """Degree-bounded polynomial calculus (or PCR); the query and every
    hypothesis are integer rows over x1..xn (`polycalc.row`)."""

    budgets = ("d",)

    def __init__(self, d: int, n: int, mode: str = PC):
        self.d = d
        self.n = n
        self.mode = mode

    @classmethod
    def load(cls, system, kb_text, query_text, d):
        n, hyps = formats.parse_poly_file(kb_text)
        query_n, queries = formats.parse_poly_file(query_text)
        if len(queries) != 1:
            raise InputError("pc/pcr queries are a single polynomial")
        _same_n(query_n, n)
        check_inputs(hyps + queries, d, system)
        return cls(d, n, mode=system), row(queries[0], n), tuple(row(p, n) for p in hyps)

    def decide(self, query, hyps):
        accepted, used = decide_pc(hyps, query, self.d, self.n, self.mode)
        return (used,) if accepted else None

    def replay(self, proof, query, hyps):
        return ()

    def query_scope(self, query):
        return row_literals(query, self.n)

    def restrict_query(self, query, rho):
        (restricted,) = restrict_rows((query,), rho, self.n)
        return restricted or TRUE

    def restrict_hyps(self, hyps, rho):
        return restrict_rows(hyps, rho, self.n)

    def is_countermodel(self, query, hyps, x):
        return countermodel_rows(restrict_rows((query, *hyps), x, self.n))

    def countermodel_support(self, query, hyps, x):
        keep, rows = (1 << 2 * self.n + 2) - 4, (query, *hyps)
        for v in range(1, self.n + 1):
            trial = keep & ~(3 << 2 * v)  # keep without x_v
            if countermodel_rows(restrict_rows(rows, x & trial, self.n)):
                keep = trial
        return keep

    def support(self, query, hyps, proof, rho):
        (used,) = proof  # restrict_rows keeps one row per hypothesis, in order
        literals = row_literals(query, self.n)
        for i, r in enumerate(hyps):
            if used >> i & 1:
                literals |= row_literals(r, self.n)
        return literals | negation(self.n)(literals)


class CuttingPlanesBackend:
    """Sparse, l1-bounded cutting planes; query is a linear inequality."""

    budgets = ("w", "L")

    def __init__(self, w: int, L: int, n: int):
        self.w = w
        self.L = L
        self.n = n

    @classmethod
    def load(cls, system, kb_text, query_text, w, L):
        n, hyps = formats.parse_cp_file(kb_text)
        query_n, queries = formats.parse_cp_file(query_text)
        if len(queries) != 1:
            raise InputError("cp queries are a single inequality")
        _same_n(query_n, n)
        check_target(queries[0], w, L)
        return cls(w, L, n), queries[0], tuple(hyps)

    def decide(self, query, hyps):
        if countermodel(hyps, query) is not None:
            return None
        return decide_cp(list(hyps), query, self.w, self.L)[1]

    def replay(self, proof, query, hyps):
        _replayed(check_cp_trace(proof, hyps, query, self.w, self.L), "cp")
        return tuple(f"{i}: {step.rule} {step.formula!r}" for i, step in enumerate(proof))

    def query_scope(self, query):
        return sum(1 << 2 * v for v, _ in query.coeffs)  # residual_ineq reads x_v alone

    def restrict_query(self, query, rho):
        return restrict_ineq(query, rho)

    def restrict_hyps(self, hyps, rho):
        return tuple(residual_ineq(h, rho) for h in hyps)

    def is_countermodel(self, query, hyps, x):
        return restrict_ineq(query, x) is not TRUE and all(restrict_ineq(h, x) is TRUE for h in hyps)

    def countermodel_support(self, query, hyps, x):
        return (1 << 2 * self.n + 2) - 4  # every literal: x itself

    def support(self, query, hyps, proof, rho):
        # a hypothesis step's premises end in its input's index, and
        # restrict_hyps keeps one residual per hypothesis, in order
        used = {step.premises[-1] for step in proof if step.rule == "HypothesisStep"}
        variables = query.variables().union(*(hyps[i].variables() for i in used))
        return sum(3 << 2 * v for v in variables)


SYSTEMS = {
    "res-space": SpaceResolutionBackend,
    "res-k-width": ResKWidthBackend,
    PC: PolynomialCalculusBackend,
    PCR: PolynomialCalculusBackend,
    "cp": CuttingPlanesBackend,
}
