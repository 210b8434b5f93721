"""Shared random generators for the test suite (seeded, deterministic), and
test-only helpers built on the package: `example`, the true-literal mask
that the restriction kernels and `decide_pac` take, of a PartialAssignment
or its string, `false_mask`, its swap that the clause restrictions also
take, and `assignment_of`, the PartialAssignment of a true mask;
the per-literal restriction loops through `rho.value` (terms, residual
inequalities, k-DNFs, polynomials) that the mask kernels must match; the
two-recursion witnessing and restriction that `formulas.restrict` must match
exactly, small semantic
helpers (completions of a partial assignment, proof size, k-DNFs as
formulas, inequalities at a point), a brute-force entailment backend,
`CountingBackend`, which counts and records the backend calls that
`decide_pac` makes,
polynomial constructions the decision procedures themselves do not need, the
per-example sampler, which also gives the assignment each example was drawn
from and whose examples `sampling.draw_masked_examples` must match exactly, the
RES(k) and cutting-planes deciders with their own round loops and the term
universe built from an instance's own literals, which the deciders built on
`saturation` must match exactly, and the PC kernel on `Fraction`
coefficients and frozenset monomials (a list basis sorted by leading
monomial, scanned on every reduction, and the per-term restriction), which
the integer rows of `polycalc` must match up to the scale of each row, with
`decode_row` reading a row back into its polynomial, `pc_instance` building
a PC/PCR backend's (backend, query, hyps) from polynomials and
`decide_polynomials` giving `decide_pc`'s verdict on them, the
projection of a treelike resolution proof under a restriction (the closure
argument for clause space, run), the clause-space search and the clause and
CNF restrictions on frozenset clauses, which the literal-mask kernels in
`resolution` must match exactly, with the CNF restriction run on a Cnf's
masks and decoded back, a `pacreason prove` runner on file texts, the
plain per-example loop, a search without a countermodel pass on every
restricted instance, that `decide_pac` with its settled-query shortcut,
its query restriction per query-scope projection and its countermodel cache
must match exactly, and `decide_one`, the verdict of a `decide_pac` run on
one example."""

import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from pacreason.backends import (
    CuttingPlanesBackend,
    PolynomialCalculusBackend,
    ResKWidthBackend,
    SpaceResolutionBackend,
)
from pacreason.cutting_planes import (
    TRUTH_AXIOM,
    LinIneq,
    add_ineqs,
    decide_cp,
    divide_ineq,
    is_axiom,
    multiply_ineq,
    residual_ineq,
    var_at_most_one,
    var_nonneg,
)
from pacreason.cli import main
from pacreason.decide_pac import ACCEPT, REJECT, PacOutcome, PacParams, decide_pac, failure_budget
from pacreason.errors import InputError
from pacreason.formulas import (
    Const,
    FALSE,
    Formula,
    Not,
    PartialAssignment,
    Threshold,
    TRUE,
    Var,
    WitnessStatus,
    conjunction,
    disjunction,
    evaluate,
    literal,
    out_of_range,
    restrict,
    witness_status,
)
from pacreason.oracle import entails
from pacreason.polycalc import (
    ONE,
    PC,
    PCR,
    Indet,
    Polynomial,
    check_inputs,
    decide_pc,
    monomial_key,
    restrict_rows,
    row,
)
from pacreason.res_k import KDnf, restrict_kdnf
from pacreason.resolution import (
    TAUTOLOGY,
    Clause,
    Cnf,
    Cut,
    Leaf,
    ProofNode,
    Weaken,
    clause_superset,
    decode_clause,
    literal_bit,
    make_clause,
    negation,
    restrict_cnf,
)
from pacreason.sampling import FixedMask, IndependentMask, TableMask
from pacreason.saturation import TraceStep


def plain_restricted_query(backend, query, rho):
    """The restricted query in the form the search itself reads, before a
    settled query collapses to TRUE: RES(k) keeps a k-DNF restricted to
    BOTTOM, PC/PCR a polynomial restricted to zero, and cutting planes the
    residual inequality, even when it is witnessed true.  A clause restricts
    to TAUTOLOGY, which the clause-space search takes as an axiom.  rho is
    an example's true-literal mask."""
    if isinstance(backend, ResKWidthBackend):
        restricted = (restrict_kdnf(phi, rho) for phi in query)
        return tuple(phi for phi in restricted if phi is not TRUE)
    if isinstance(backend, PolynomialCalculusBackend):
        return restrict_rows((query,), rho, backend.n)[0]
    if isinstance(backend, CuttingPlanesBackend):
        return residual_ineq(query, rho)
    return backend.restrict_query(query, rho)


def plain_decide(backend, query, hyps):
    """What the backend's search finds without a countermodel pass:
    clause-space resolution runs `reference_search_space` on the decoded
    clauses, cutting planes runs `decide_cp` alone, and every other backend
    runs its `decide`."""
    if isinstance(backend, SpaceResolutionBackend):
        kb = Cnf(map(decode_clause, hyps), backend.n)
        return reference_search_space(kb, backend.s, decode_clause(query))
    if isinstance(backend, CuttingPlanesBackend):
        return decide_cp(list(hyps), query, backend.w, backend.L)[1]
    return backend.decide(query, hyps)


def reference_decide_pac(backend, query, hyps, params, examples) -> PacOutcome:
    """The plain per-example loop: the search (`plain_decide`) on every
    restricted instance, settled queries included, tallied as `decide_pac`
    tallies."""
    examples = list(examples)
    verdicts = tuple(
        bool(plain_decide(
            backend, plain_restricted_query(backend, query, rho), backend.restrict_hyps(hyps, rho)
        ))
        for rho in examples
    )
    failed = verdicts.count(False)
    budget = failure_budget(params.epsilon, len(examples))
    verdict = REJECT if failed > budget else ACCEPT
    return PacOutcome(verdict, failed, budget, len(examples), verdicts)


ONE_EXAMPLE_PARAMS = PacParams(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def decide_one(backend, query, hyps, rho) -> bool:
    """The backend's verdict on the example rho alone, through the
    production loop: `decide_pac` on the one-example stream [rho], which
    starts with no cached countermodel."""
    return decide_pac(backend, query, hyps, ONE_EXAMPLE_PARAMS, [rho]).per_example[0]


def example(rho) -> int:
    """The true-literal mask that the restriction kernels and `decide_pac`
    take, of a PartialAssignment or of its {0, 1, *} string."""
    if isinstance(rho, str):
        rho = PartialAssignment.from_string(rho)
    return rho.mask


def false_mask(rho) -> int:
    """The false-literal mask, `example(rho)` swapped, that the clause
    restrictions also take, of a PartialAssignment or of its string."""
    return negation(len(rho))(example(rho))


def assignment_of(true: int, n: int) -> PartialAssignment:
    """The partial assignment over x1..xn whose true literals are the
    literal bits of the mask `true`, such as an example's true mask; both
    literals of one variable true, bit 0 or 1, or a bit beyond x_n is an
    error."""
    entries = []
    for v in range(1, n + 1):
        pos, neg = true >> 2 * v & 1, true >> 2 * v + 1 & 1
        assert not (pos and neg), f"x{v} and -x{v} both true"
        entries.append(1 if pos else 0 if neg else None)
    assert true >> 2 * n + 2 == 0 and true & 3 == 0
    return PartialAssignment(entries)


def restrict_clause(clause: Clause, rho: PartialAssignment) -> Clause:
    """The clause restriction on frozensets, which `resolution.restrict_mask`
    runs on literal masks: drop falsified literals; a satisfied literal
    collapses to TAUTOLOGY.  Raises InputError for a variable beyond
    len(rho)."""
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


def reference_search_space(phi: Cnf, s: int, target, variables=None) -> Optional[ProofNode]:
    """The clause-space search on frozensets: the first input, in input
    order, that is a subset of the clause is the base case; otherwise branch
    on `variables` (by default those that occur in the inputs), ascending,
    positive literal first, committing to the first literal whose
    space-(s-1) proof exists."""
    if target is TAUTOLOGY:
        return Leaf(TAUTOLOGY)
    inputs = [c for c in phi.clauses if c is not TAUTOLOGY]
    if variables is None:
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


def restrict_kb(phi: Cnf, rho: PartialAssignment) -> Cnf:
    """`resolution.restrict_cnf` on the masks of phi and of rho, with rho's
    false-literal mask, decoded back into a Cnf over phi.n."""
    return decoded(restrict_cnf(phi.masks, example(rho), false_mask(rho)), phi.n)


def decoded(masks: tuple, n: int) -> Cnf:
    """The Cnf over n whose clauses have the literal masks `masks`."""
    return Cnf(map(decode_clause, masks), n)


def reference_restrict_cnf(phi: Cnf, rho: PartialAssignment) -> Cnf:
    """The clause-by-clause restriction that restrict_cnf must reproduce."""
    restricted = []
    for c in phi.clauses:
        r = restrict_clause(c, rho)
        if r is not TAUTOLOGY:
            restricted.append(r)
    return Cnf(restricted, phi.n)


def prove_exit_code(tmp_path, system, flags, kb_text, query_text):
    """Exit code of `pacreason prove` on a kb and a query given as file texts."""
    kb, query = tmp_path / "kb.txt", tmp_path / "query.txt"
    kb.write_text(kb_text)
    query.write_text(query_text)
    return main(["prove", "--system", system, *flags, "--kb", str(kb), "--query", str(query)])


def _validate_structure(node: ProofNode) -> None:
    if isinstance(node, Leaf):
        return
    if isinstance(node, Weaken):
        if not clause_superset(node.clause, node.child.clause):
            raise InputError("weakening step does not derive a superset")
        _validate_structure(node.child)
        return
    if isinstance(node, Cut):
        lc, rc = node.left.clause, node.right.clause
        if lc is TAUTOLOGY or rc is TAUTOLOGY:
            raise InputError("cut step uses the tautology clause")
        if node.pivot not in lc or -node.pivot not in rc:
            raise InputError("cut premises do not carry the pivot")
        _validate_structure(node.left)
        _validate_structure(node.right)
        return
    raise InputError(f"not a proof node: {node!r}")


def restrict_proof(proof: ProofNode, rho: PartialAssignment) -> ProofNode:
    """Project a treelike proof under a partial assignment.

    Satisfied clauses become tautology leaves; a cut on an assigned pivot
    becomes (at most) a weakening of the branch whose pivot literal was
    falsified.  The result proves the restricted root from the restricted
    inputs, is no longer than the input, and its clause space does not grow.
    """
    _validate_structure(proof)

    def walk(node: ProofNode) -> ProofNode:
        derived = restrict_clause(node.clause, rho)
        if derived is TAUTOLOGY:
            return Leaf(TAUTOLOGY)
        if isinstance(node, Leaf):
            return Leaf(derived)
        if isinstance(node, Weaken):
            sub = walk(node.child)
            return sub if sub.clause == derived else Weaken(derived, sub)
        v = rho.value(node.pivot)
        if v is None:
            return Cut(node.pivot, walk(node.left), walk(node.right), derived)
        # assigned pivot: keep the branch whose pivot literal is falsified
        sub = walk(node.right if v == 1 else node.left)
        return sub if sub.clause == derived else Weaken(derived, sub)

    return walk(proof)


def random_formula(rng, n, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if roll < 0.05:
            return Const(rng.random() < 0.5)
        return Var(rng.randint(1, n))
    if roll < 0.45:
        return Not(random_formula(rng, n, depth - 1))
    width = rng.randint(1, 4)
    children = tuple(random_formula(rng, n, depth - 1) for _ in range(width))
    coeffs = tuple(
        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        for _ in range(width)
    )
    bound = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
    return Threshold(coeffs, children, bound)


def random_partial(rng, n, mask_prob=0.5):
    return PartialAssignment(
        None if rng.random() < mask_prob else rng.randint(0, 1) for _ in range(n)
    )


def reference_witness_status(phi: Formula, rho: PartialAssignment) -> WitnessStatus:
    """Witnessing by its own recursion, judged per connective: a threshold is
    witnessed true when the witnessed-true coefficients plus the minimal
    contribution of unwitnessed children meet the bound, and witnessed false
    when even the maximal contribution falls short."""
    if isinstance(phi, Const):
        return WitnessStatus.WITNESSED_TRUE if phi.value else WitnessStatus.WITNESSED_FALSE
    if isinstance(phi, Var):
        v = rho.value(phi.index)
        if v is None:
            return WitnessStatus.UNWITNESSED
        return WitnessStatus.WITNESSED_TRUE if v else WitnessStatus.WITNESSED_FALSE
    if isinstance(phi, Not):
        inner = reference_witness_status(phi.child, rho)
        if inner is WitnessStatus.WITNESSED_TRUE:
            return WitnessStatus.WITNESSED_FALSE
        if inner is WitnessStatus.WITNESSED_FALSE:
            return WitnessStatus.WITNESSED_TRUE
        return WitnessStatus.UNWITNESSED
    base = lo = hi = Fraction(0)
    for c, child in zip(phi.coeffs, phi.children):
        status = reference_witness_status(child, rho)
        if status is WitnessStatus.WITNESSED_TRUE:
            base += c
        elif status is WitnessStatus.UNWITNESSED:
            lo += min(Fraction(0), c)
            hi += max(Fraction(0), c)
    if base + lo >= phi.bound:
        return WitnessStatus.WITNESSED_TRUE
    if base + hi < phi.bound:
        return WitnessStatus.WITNESSED_FALSE
    return WitnessStatus.UNWITNESSED


def reference_restrict(phi: Formula, rho: PartialAssignment) -> Formula:
    """Restriction that re-runs `reference_witness_status` at every node."""
    status = reference_witness_status(phi, rho)
    if status is WitnessStatus.WITNESSED_TRUE:
        return TRUE
    if status is WitnessStatus.WITNESSED_FALSE:
        return FALSE
    if isinstance(phi, Var):
        return phi
    if isinstance(phi, Not):
        return Not(reference_restrict(phi.child, rho))
    coeffs = []
    children = []
    d = phi.bound
    for c, child in zip(phi.coeffs, phi.children):
        st = reference_witness_status(child, rho)
        if st is WitnessStatus.WITNESSED_TRUE:
            d -= c
        elif st is WitnessStatus.UNWITNESSED:
            coeffs.append(c)
            children.append(reference_restrict(child, rho))
    if not children:
        return Const(d <= 0)
    return Threshold(tuple(coeffs), tuple(children), d)


def completions(rho: PartialAssignment):
    """All full assignments consistent with the partial assignment `rho`."""
    masked = [i for i, e in enumerate(rho) if e is None]
    base = list(rho)
    for bits in product((0, 1), repeat=len(masked)):
        for i, b in zip(masked, bits):
            base[i] = b
        yield tuple(base)


def consistent_with(rho: PartialAssignment, x) -> bool:
    x = tuple(x)
    return len(x) == len(rho) and all(
        e is None or e == xi for e, xi in zip(rho, x)
    )


def holds_at(ineq, x) -> bool:
    """Whether the linear inequality `ineq` holds at the full assignment `x`."""
    return sum(c * x[v - 1] for v, c in ineq.coeffs) >= ineq.bound


def proof_size(proof: ProofNode) -> int:
    if isinstance(proof, Leaf):
        return 1
    if isinstance(proof, Weaken):
        return 1 + proof_size(proof.child)
    return 1 + proof_size(proof.left) + proof_size(proof.right)


def space_bound_for_size(length: int) -> int:
    """Clause space sufficient for any treelike proof of the given length."""
    if length < 1:
        raise InputError(f"proof length must be at least 1, got {length}")
    return length.bit_length()  # floor(log2 L) + 1


def kdnf_to_formula(phi: KDnf) -> Formula:
    if not phi:
        return FALSE
    return disjunction(
        conjunction(literal(abs(lit), lit > 0) for lit in sorted(t, key=abs))
        for t in sorted(phi, key=lambda t: sorted(t, key=abs))
    )


def random_clause(rng, n, max_width=3):
    width = rng.randint(1, min(max_width, n))
    vars_ = rng.sample(range(1, n + 1), width)
    return make_clause(v if rng.random() < 0.5 else -v for v in vars_)


def random_cnf(rng, n, max_clauses=8, max_width=3):
    m = rng.randint(1, max_clauses)
    return Cnf([random_clause(rng, n, max_width) for _ in range(m)], n)


class CountingBackend:
    """Delegates to a backend and counts its `restrict_query`,
    `restrict_hyps`, `decide`, `is_countermodel`, `countermodel_support` and
    `support` calls.  `searched` holds, per `restrict_hyps` call in call
    order, the example, the number of `is_countermodel` calls that followed
    it, the support that a `support` call returned for it and the
    countermodel x that a `countermodel_support` call was given for it (each
    None without one); `models` each x that `is_countermodel` passed."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        names = ("restrict_query", "restrict_hyps", "decide", "is_countermodel",
                 "countermodel_support", "support")
        self.calls = dict.fromkeys(names, 0)
        self.searched = []
        self.models = []

    def decide(self, query, hyps):
        self.calls["decide"] += 1
        return self.inner.decide(query, hyps)

    def query_scope(self, query):
        return self.inner.query_scope(query)

    def restrict_query(self, query, rho):
        self.calls["restrict_query"] += 1
        return self.inner.restrict_query(query, rho)

    def restrict_hyps(self, hyps, rho):
        self.calls["restrict_hyps"] += 1
        self.searched.append([rho, 0, None, None])
        return self.inner.restrict_hyps(hyps, rho)

    def is_countermodel(self, query, hyps, x):
        self.calls["is_countermodel"] += 1
        self.searched[-1][1] += 1
        found = self.inner.is_countermodel(query, hyps, x)
        if found:
            self.models.append(x)
        return found

    def countermodel_support(self, query, hyps, x):
        self.calls["countermodel_support"] += 1
        self.searched[-1][3] = x
        return self.inner.countermodel_support(query, hyps, x)

    def support(self, query, hyps, proof, rho):
        self.calls["support"] += 1
        self.searched[-1][2] = found = self.inner.support(query, hyps, proof, rho)
        return found


class EntailmentOracleBackend:
    """Brute-force classical entailment over threshold-basis formulas, which
    restrict by the partial assignment of an example's true mask, so the
    query scope is every literal bit."""

    def __init__(self, n: int):
        self.n = n

    def query_scope(self, query):
        return (1 << 2 * self.n + 2) - 4

    def decide(self, query, hyps) -> bool:
        return entails(list(hyps), query, self.n)

    def restrict_query(self, query, rho):
        return restrict(query, assignment_of(rho, self.n))

    def restrict_hyps(self, hyps, rho):
        restricted = (restrict(phi, assignment_of(rho, self.n)) for phi in hyps)
        return tuple(phi for phi in restricted if phi != TRUE)

    def is_countermodel(self, query, hyps, x):
        point = [x >> 2 * v & 1 for v in range(1, self.n + 1)]
        return all(evaluate(phi, point) for phi in hyps) and not evaluate(query, point)

    def countermodel_support(self, query, hyps, x):
        return (1 << 2 * self.n + 2) - 4  # every literal: x itself

    def support(self, query, hyps, proof, rho):
        return None


def multilinearize(raw_terms) -> Polynomial:
    """Collapse exponent vectors: (coeff, indeterminates-with-repeats) pairs
    become multilinear monomials, like terms merge, zeros vanish."""
    return Polynomial((frozenset(indets), c) for c, indets in raw_terms)


def poly_to_formula(p: Polynomial) -> Formula:
    """The equation [p = 0] as a conjunction of two thresholds over the
    monomials' conjunction subformulas."""
    constant = p.coeff(ONE)
    monomials = sorted((m for m in p.terms if m), key=monomial_key, reverse=True)
    if not monomials:
        return TRUE if constant == 0 else FALSE

    def monomial_formula(m):
        return conjunction(
            Not(Var(-lit)) if lit < 0 else Var(lit)
            for lit in sorted(m, key=literal_bit)
        )

    children = tuple(monomial_formula(m) for m in monomials)
    coeffs = tuple(p.terms[m] for m in monomials)
    at_least = Threshold(coeffs, children, -constant)
    at_most = Threshold(tuple(-c for c in coeffs), children, constant)
    return conjunction([at_least, at_most])


def poly_witness_status(p: Polynomial, rho: PartialAssignment) -> WitnessStatus:
    """Witnessing of [p = 0] through its two-threshold encoding."""
    return witness_status(poly_to_formula(p), rho)


def _rand_below(rng, bound):
    bits = (bound - 1).bit_length() or 1
    while True:
        r = rng.getrandbits(bits)
        if r < bound:
            return r


def _draw_assignment(dist, rng):
    denom = math.lcm(*(w.denominator for _, w in dist.support))
    ticket = _rand_below(rng, denom)
    acc = 0
    for x, w in dist.support:
        acc += w.numerator * (denom // w.denominator)
        if ticket < acc:
            return x
    return dist.support[-1][0]  # unreachable: weights sum to 1


def _hidden_coords(mask, x, rng):
    if isinstance(mask, FixedMask):
        return mask.hidden
    if isinstance(mask, IndependentMask):
        p = mask.hide_prob
        hidden = set()
        for i in range(1, len(x) + 1):
            if p == 1 or (p != 0 and _rand_below(rng, p.denominator) < p.numerator):
                hidden.add(i)
        return frozenset(hidden)
    if isinstance(mask, TableMask):
        if x not in mask.rule:
            raise InputError(f"mask table has no rule for support point {x}")
        return mask.rule[x]
    raise InputError(f"unknown mask spec: {mask!r}")


def reference_draw_examples(dist, mask, m, seed):
    """The per-example sampler: (assignment, masked example) pairs, whose
    examples `sampling.draw_masked_examples` must match exactly.  It
    recomputes the weight denominator, rescans the weights and rebuilds the
    masked example, a PartialAssignment turned into its literal-mask pair,
    on every draw."""
    rng = random.Random(seed)
    out = []
    for _ in range(m):
        x = _draw_assignment(dist, rng)
        hidden = _hidden_coords(mask, x, rng)
        rho = PartialAssignment(
            None if (i + 1) in hidden else x[i] for i in range(dist.n)
        )
        out.append((x, example(rho)))
    return out


# the RES(k) rules with every result built through `KDnf`, which checks
# each term: the kernel builds its results without that check and must get
# the same k-DNFs, with the same term order
def reference_cut_results(psi1: KDnf, psi2: KDnf, w: int):
    """All width-w cuts with psi1 supplying the conjunction."""
    for term in psi1:
        negs = frozenset(frozenset((-lit,)) for lit in term)
        if negs <= psi2:
            rest = (psi1 - {term}) | (psi2 - negs)
            if len(rest) <= w:
                yield KDnf(rest)


def reference_elim_results(psi: KDnf):
    for term in psi:
        if len(term) < 2:
            continue
        for lit in term:
            yield KDnf((psi - {term}) | {frozenset((lit,))})


def reference_weaken_results(psi: KDnf, universe_terms, w: int):
    extra = [t for t in universe_terms if t not in psi]
    for count in range(1, w - psi.width + 1):
        for combo in combinations(extra, count):
            yield KDnf(psi | set(combo))


def reference_term_universe(variables: tuple, k: int) -> tuple:
    """Every term of at most k literals over `variables`, by size, then in
    `literal_bit` order, built from the instance's own literals."""
    literals = sorted((s * v for v in variables for s in (1, -1)), key=literal_bit)
    universe = []
    for size in range(1, k + 1):
        for combo in combinations(literals, size):
            if any(-lit in combo for lit in combo):
                continue
            universe.append(frozenset(combo))
    return tuple(universe)


def reference_decide_resk_width(hyps, target, k, w, stats=None):
    """RES(k) width-w decision with its own rules, round loop and trace
    unwinding; it tries a cut on every ordered pair of lines."""
    hyps = list(hyps)
    if target.width > w:
        raise InputError(f"target width {target.width} exceeds the bound {w}")
    for phi in hyps + [target]:
        if phi.max_term_size > k:
            raise InputError(f"formula {phi!r} is not a {k}-DNF")

    variables = tuple(sorted(set().union(*(phi.variables() for phi in hyps + [target]))))
    universe_terms = reference_term_universe(variables, k)

    table = {}
    for i, phi in enumerate(hyps):
        if phi.width <= w and phi not in table:
            table[phi] = ("hypothesis", i)

    def build_trace() -> tuple:
        steps = []
        emitted = set()

        def visit(f):
            if f in emitted:
                return
            emitted.add(f)
            prov = table.get(f)
            if prov is None:  # wide hypothesis used as a cut input
                steps.append(TraceStep(f, "hypothesis", (hyps.index(f),)))
                return
            rule = prov[0]
            if rule == "hypothesis":
                steps.append(TraceStep(f, "hypothesis", (prov[1],)))
                return
            for premise in prov[1:]:
                visit(premise)
            steps.append(TraceStep(f, rule, tuple(prov[1:])))

        visit(target)
        return tuple(steps)

    if stats is not None:
        stats["table_sizes"] = [len(table)]
    if target in table:
        return True, build_trace()

    delta = set(table)
    first_round = True
    while True:
        new = {}

        def offer(formula, prov):
            if formula not in table and formula not in new:
                new[formula] = prov

        for psi in delta:
            for result in reference_weaken_results(psi, universe_terms, w):
                offer(result, ("weakening", psi))
            for result in reference_elim_results(psi):
                offer(result, ("and_elim", psi))

        cut_sources = list(table) + [h for h in hyps if h not in table]
        for psi1 in cut_sources:
            for psi2 in cut_sources:
                if not first_round and psi1 not in delta and psi2 not in delta:
                    continue
                for result in reference_cut_results(psi1, psi2, w):
                    offer(result, ("cut", psi1, psi2))

        groups = {}
        for psi in table:
            for term in psi:
                if len(term) == 1:
                    rest = psi - {term}
                    groups.setdefault(rest, set()).add(next(iter(term)))
        for rest, lits in groups.items():
            if len(rest) + 1 > w:
                continue
            available = sorted(lits, key=lambda l: (abs(l), l < 0))
            for j in range(2, k + 1):
                for combo in combinations(available, j):
                    if any(-lit in combo for lit in combo):
                        continue
                    premises = tuple(KDnf(rest | {frozenset((lit,))}) for lit in combo)
                    if not first_round and all(p not in delta for p in premises):
                        continue
                    offer(KDnf(rest | {frozenset(combo)}), ("and_intro",) + premises)

        if not new:
            return False, None
        table.update(new)
        if stats is not None:
            stats["table_sizes"].append(len(table))
        if target in table:
            return True, build_trace()
        delta = set(new)
        first_round = False


def reference_decide_cp(hyps, target, w, L, stats=None):
    """Cutting-planes w-sparse L-bounded decision with its own round loop
    and trace unwinding; records no `stats` when it accepts before the
    first round."""
    hyps = list(hyps)
    if target.sparsity > w:
        raise InputError(f"target sparsity {target.sparsity} exceeds the bound {w}")
    if target.l1_norm > L:
        raise InputError(f"target l1-norm {target.l1_norm} exceeds the bound {L}")

    variables = sorted(
        set().union(target.variables(), *(h.variables() for h in hyps))
    )

    table = {}

    def in_budget(ineq):
        return ineq.sparsity <= w and ineq.l1_norm <= L

    axioms = [TRUTH_AXIOM]
    for v in variables:
        axioms.extend((var_nonneg(v), var_at_most_one(v)))
    for ax in axioms:
        if in_budget(ax) and ax not in table:
            table[ax] = ("axiom",)
    if is_axiom(target):
        return True, (TraceStep(target, "AxiomStep", ()),)

    for i, h in enumerate(hyps):
        if in_budget(h) and h not in table:
            table[h] = ("hypothesis", i)

    def build_trace():
        steps = []
        emitted = set()

        def visit(ineq):
            if ineq in emitted:
                return ineq
            prov = table.get(ineq)
            if prov is None:  # out-of-budget hypothesis used as an addition input
                step = TraceStep(ineq, "HypothesisStep", (hyps.index(ineq),))
            elif prov[0] == "axiom":
                step = TraceStep(ineq, "AxiomStep", ())
            elif prov[0] == "hypothesis":
                step = TraceStep(ineq, "HypothesisStep", (prov[1],))
            elif prov[0] == "add":
                step = TraceStep(ineq, "AddStep", (visit(prov[1]), visit(prov[2])))
            elif prov[0] == "mul":
                step = TraceStep(ineq, "MultiplyStep", (visit(prov[1]), prov[2]))
            else:
                step = TraceStep(ineq, "DivideStep", (visit(prov[1]), prov[2]))
            emitted.add(ineq)
            steps.append(step)
            return ineq

        visit(target)
        return tuple(steps)

    if target in table:
        return True, build_trace()

    if stats is not None:
        stats["table_sizes"] = [len(table)]

    delta = set(table)
    first_round = True
    while True:
        new = {}

        def offer(ineq, prov):
            if in_budget(ineq) and ineq not in table and ineq not in new:
                new[ineq] = prov

        add_sources = list(table) + [h for h in hyps if h not in table]
        for a in add_sources:
            for b in add_sources:
                if not first_round and a not in delta and b not in delta:
                    continue
                offer(add_ineqs(a, b), ("add", a, b))

        for ineq in table:
            if not first_round and ineq not in delta:
                continue
            for factor in range(2, L + 1):
                offer(multiply_ineq(ineq, factor), ("mul", ineq, factor))
            for divisor in range(2, L + 1):
                if all(c % divisor == 0 for _, c in ineq.coeffs):
                    offer(divide_ineq(ineq, divisor), ("div", ineq, divisor))

        if not new:
            return False, None
        table.update(new)
        if stats is not None:
            stats["table_sizes"].append(len(table))
        if target in table:
            return True, build_trace()
        delta = set(new)
        first_round = False


def leading_monomial(p: Polynomial):
    if p.is_zero:
        raise InputError("the zero polynomial has no leading monomial")
    return max(p.terms, key=monomial_key)


def _add_scaled(p: Polynomial, b: Polynomial, factor: Fraction) -> Polynomial:
    """p + factor * b."""
    data = dict(p.terms)
    for m, c in b.terms.items():
        data[m] = data.get(m, Fraction(0)) + factor * c
        if data[m] == 0:
            del data[m]
    return Polynomial(data)


def mul_indet(p: Polynomial, indet: int) -> Polynomial:
    """p times one indeterminate, multilinearized."""
    return Polynomial((m | {indet}, c) for m, c in p.terms.items())


def monic(p: Polynomial) -> Polynomial:
    """p scaled to leading coefficient 1 (the zero polynomial stays zero)."""
    if p.is_zero:
        return p
    lead = p.terms[leading_monomial(p)]
    return Polynomial({m: c / lead for m, c in p.terms.items()})


def decode_row(r, n: int) -> Polynomial:
    """The polynomial that an integer row over x1..xn (a dict or a tuple of
    (key, coefficient) pairs) stands for, read off the documented layout:
    x_v is bit 2n+1-2v, ~x_v bit 2n-2v, and the degree sits above bit 2n."""
    bits = [(lit, 1 << 2 * n + 1 - 2 * v - (lit < 0)) for v in range(1, n + 1) for lit in (v, -v)]
    out = {}
    for k, c in r.items() if isinstance(r, dict) else r:
        m = frozenset(lit for lit, bit in bits if k & bit)
        if k >> 2 * n != len(m):
            raise ValueError(f"key {k} does not hold the degree of its monomial over x1..x{n}")
        out[m] = c
    return Polynomial(out)


def pc_instance(d: int, n: int, mode: str, query: Polynomial, hyps) -> tuple:
    """(backend, query, hyps) as `PolynomialCalculusBackend.load` gives them
    for these polynomials: the query and hypotheses as integer rows."""
    return PolynomialCalculusBackend(d, n, mode), row(query, n), tuple(row(h, n) for h in hyps)


def decide_polynomials(hyps, q: Polynomial, d: int, mode: str = PC, n: int = None) -> bool:
    """`polycalc.decide_pc`'s verdict on the rows of the polynomials over
    x1..xn, n the largest variable they mention when not given."""
    if n is None:
        n = max((v for p in [*hyps, q] for v in p.variables()), default=1)
    return decide_pc([row(h, n) for h in hyps], row(q, n), d, n, mode)[0]


def complementarity(var: int) -> Polynomial:
    """x + ~x - 1, tying a dual indeterminate to the negation."""
    return Polynomial([(frozenset((var,)), 1), (frozenset((-var,)), 1), (ONE, -1)])


def reference_restrict_polynomial(p: Polynomial, rho: PartialAssignment) -> Polynomial:
    """Restriction term by term through `rho.value`, rebuilt by the checking
    `Polynomial` constructor."""
    out = []
    for m, c in p.terms.items():
        kept = []
        dead = False
        for lit in m:
            v = rho.value(abs(lit))
            if v is None:
                kept.append(lit)
            else:
                if lit < 0:
                    v = 1 - v
                if v == 0:
                    dead = True
                    break
        if not dead:
            out.append((frozenset(kept), c))
    return Polynomial(out)


def reference_restricted_row(p: Polynomial, rho: PartialAssignment, n: int) -> tuple:
    """The row that restricting p's row over x1..xn by rho must give:
    `reference_restrict_polynomial` times the factor `row` scales p by, the
    lcm of its denominators."""
    scale = math.lcm(*(c.denominator for c in p.terms.values()))
    want = reference_restrict_polynomial(p, rho)
    return row(Polynomial({m: scale * c for m, c in want.terms.items()}), n)


def reference_restrict_term(term, rho: PartialAssignment):
    """The literals of a conjunction that rho leaves masked, in term order,
    or None when rho falsifies one of them, through `rho.value`."""
    kept = []
    for lit in term:
        v = rho.value(abs(lit))
        if v is None:
            kept.append(lit)
        elif (v == 1) != (lit > 0):
            return None
    return kept


def reference_residual_ineq(ineq, rho: PartialAssignment):
    """The residual inequality through `rho.value`, rebuilt by the checking
    `LinIneq` constructor: a variable set to 1 moves its coefficient into
    the bound, one set to 0 vanishes."""
    kept, bound = {}, ineq.bound
    for v, c in ineq.coeffs:
        value = rho.value(v)
        if value is None:
            kept[v] = c
        elif value == 1:
            bound -= c
    return LinIneq(kept, bound)


def reference_restrict_kdnf(phi: KDnf, rho: PartialAssignment):
    """Restriction term by term through `rho.value`: falsified terms drop,
    satisfied literals go, and a satisfied term collapses to TRUE."""
    new_terms = set()
    for term in phi:
        kept = reference_restrict_term(term, rho)
        if kept is None:
            continue
        if not kept:
            return TRUE
        new_terms.add(frozenset(kept))
    return KDnf(new_terms)


def reference_gaussian_reduce(p: Polynomial, basis) -> Polynomial:
    """Reduce `p` against basis polynomials sorted by decreasing leading
    monomial with distinct leading monomials; cancels matching leads only."""
    for b in basis:
        if p.is_zero:
            break
        lead = leading_monomial(p)
        b_lead = leading_monomial(b)
        if b_lead == lead:
            p = _add_scaled(p, b, -p.coeff(lead) / b.coeff(b_lead))
    return p


def _reference_insert_sorted(basis, p: Polynomial) -> None:
    key = monomial_key(leading_monomial(p))
    lo = 0
    hi = len(basis)
    while lo < hi:
        mid = (lo + hi) // 2
        if monomial_key(leading_monomial(basis[mid])) > key:
            lo = mid + 1
        else:
            hi = mid
    basis.insert(lo, p)


def reference_build_basis(hyps, q: Polynomial, d: int, mode: str = PC):
    """Triangular basis of the degree-d derivable space over `Fraction`s, as a
    list (decreasing leading monomials, all distinct).  Returns (basis,
    multipliers)."""
    hyps = list(hyps)
    check_inputs(hyps + [q], d, mode)

    variables = sorted(set().union(*(p.variables() for p in hyps + [q])))
    if mode == PCR:
        multipliers = [Indet(v, dual) for v in variables for dual in (False, True)]
    else:
        multipliers = [Indet(v) for v in variables]

    pending = deque(hyps)
    if mode == PCR:
        pending.extend(complementarity(v) for v in variables)

    basis = []
    while pending:
        p = reference_gaussian_reduce(pending.popleft(), basis)
        if p.is_zero:
            continue
        _reference_insert_sorted(basis, p)
        if p.degree <= d - 1:
            for alpha in multipliers:
                pending.append(mul_indet(p, alpha))
    return basis, multipliers
