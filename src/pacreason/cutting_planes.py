"""Integer linear inequalities over Boolean variables and bounded
cutting-planes proof search.

An inequality says sum(c_i * x_i) >= b with nonzero integer coefficients.
Sparsity counts the variables; the l1-norm is |b| plus the coefficient
magnitudes.  The proof rules are addition, multiplication by a positive
integer, ceiling division by a common divisor of the coefficients, plus the
Boolean axioms x >= 0, -x >= -1 and the truth axiom 0 >= -1.  There is no
weakening rule: repeated axiom additions simulate one.

decide_cp runs the w-sparse L-bounded dynamic program on the `saturation`
engine (see its contract): the table of in-budget inequalities grows one
derivation round at a time; hypotheses beyond the budget still feed addition
steps.  The search runs on `(coeffs, bound)` lines: a `LinIneq` is one, so
the axioms and hypotheses seed the table, and the target is sought in it, as
they are; derived lines are plain tuples.  It adds each unordered pair once,
drops an over-budget sum before building it, and multiplies by positive
factors up to L // l1 only (negative factors would flip the inequality
unsoundly).

An accepted run returns its trace as `saturation.TraceStep`s that
`check_trace` replays.  A step's formula is its `LinIneq` and its rule one of
AxiomStep, HypothesisStep, AddStep, MultiplyStep and DivideStep; its premises
are the earlier steps' inequalities followed by the factor or divisor, and a
hypothesis step's premises are its index.

`countermodel` looks, by unit propagation and one pass, for a 0/1 point
that satisfies the hypotheses and falsifies a target.  Every rule and axiom
holds at every 0/1 point where its premises hold, so such a point rules out
a derivation at any budget; the backend tries it before `decide_cp`.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

from .errors import InputError, RuleError
from .formulas import Const, TRUE
from .resolution import TAUTOLOGY
from .saturation import derivation, saturate, seed_inputs


def _l1(line) -> int:
    coeffs, bound = line
    return abs(bound) + sum(abs(c) for _, c in coeffs)


class LinIneq(tuple):
    """Canonical inequality sum(c_i x_i) >= bound: the pair (coeffs, bound),
    coeffs the nonzero (var, c) pairs sorted by var.  It equals and hashes as
    that plain pair, the raw line that `decide_cp` searches on."""

    __slots__ = ()

    def __new__(cls, coeffs, bound: int):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        data = {}
        for var, c in items:
            var = int(var)
            c = int(c)
            if var < 1:
                raise InputError(f"variable index must be >= 1, got {var}")
            if c == 0:
                continue
            data[var] = data.get(var, 0) + c
        coeffs = tuple(sorted((v, c) for v, c in data.items() if c != 0))
        return tuple.__new__(cls, (coeffs, int(bound)))

    def __getnewargs__(self):
        # copy and pickle rebuild it through __new__(coeffs, bound)
        return tuple(self)

    coeffs = property(itemgetter(0))
    bound = property(itemgetter(1))

    @property
    def sparsity(self) -> int:
        return len(self.coeffs)

    @property
    def l1_norm(self) -> int:
        return _l1(self)

    def variables(self) -> frozenset:
        return frozenset(v for v, _ in self.coeffs)

    def __repr__(self):
        lhs = " + ".join(f"{c}*x{v}" for v, c in self.coeffs) or "0"
        return f"LinIneq({lhs} >= {self.bound})"


TRUTH_AXIOM = LinIneq((), -1)  # 0 >= -1


def var_nonneg(var: int) -> LinIneq:
    return LinIneq(((var, 1),), 0)


def var_at_most_one(var: int) -> LinIneq:
    return LinIneq(((var, -1),), -1)


def is_axiom(ineq: LinIneq) -> bool:
    if ineq == TRUTH_AXIOM:
        return True
    if len(ineq.coeffs) != 1:
        return False
    (var, c), = ineq.coeffs
    return (c == 1 and ineq.bound == 0) or (c == -1 and ineq.bound == -1)


def add_ineqs(a: LinIneq, b: LinIneq) -> LinIneq:
    return LinIneq(a.coeffs + b.coeffs, a.bound + b.bound)


def multiply_ineq(a: LinIneq, factor: int) -> LinIneq:
    if not isinstance(factor, int) or factor < 1:
        raise RuleError(f"multiplication factor must be a positive integer, got {factor}")
    return LinIneq(((v, c * factor) for v, c in a.coeffs), a.bound * factor)


def divide_ineq(a: LinIneq, divisor: int) -> LinIneq:
    if not isinstance(divisor, int) or divisor < 1:
        raise RuleError(f"divisor must be a positive integer, got {divisor}")
    if any(c % divisor for _, c in a.coeffs):
        raise RuleError(f"{divisor} does not divide every coefficient of {a!r}")
    return LinIneq(((v, c // divisor) for v, c in a.coeffs), -((-a.bound) // divisor))


def always_witnessed_true(ineq: LinIneq) -> bool:
    """Witnessed true even under the fully masked assignment."""
    return sum(min(0, c) for _, c in ineq.coeffs) >= ineq.bound


def countermodel(hyps, target: LinIneq) -> dict | None:
    """A partial 0/1 assignment {var: value}, found by unit propagation and
    one pass, every completion of which satisfies each hypothesis and
    falsifies the target; None where the target is witnessed true or the
    pass gets stuck.

    The pass fixes each variable of the target to the value that lowers its
    left-hand side (1 for a negative coefficient, 0 for a positive one).  It
    then fixes each variable still free that a one-variable hypothesis
    forces: c*x_v >= b holds at one value of x_v only.  Then it takes the
    hypotheses in order.  A hypothesis whose lowest reachable left-hand side
    meets its bound is witnessed true; the pass is stuck at one whose
    highest reachable value falls short, which is where a forced value that
    clashes with a fixed one, or a one-variable hypothesis that holds at
    neither value, gets it stuck.  Otherwise it fixes the hypothesis's free
    variables, in `coeffs` order, to the value that raises the left-hand
    side until it is witnessed true.  Fixing a variable never lowers the
    lowest reachable value, so a witnessed-true hypothesis stays true.
    """
    if always_witnessed_true(target):
        return None
    value = {v: int(c < 0) for v, c in target.coeffs}
    for coeffs, bound in hyps:
        if len(coeffs) == 1:
            (v, c), = coeffs
            if (c >= bound) != (0 >= bound):
                value.setdefault(v, int(c >= bound))
    for coeffs, bound in hyps:
        low = high = 0
        for v, c in coeffs:
            x = value.get(v)
            if x is None:
                if c < 0:
                    low += c
                else:
                    high += c
            elif x:
                low += c
                high += c
        if low >= bound:
            continue
        if high < bound:
            return None
        for v, c in coeffs:
            if v not in value:
                value[v] = int(c > 0)
                low += abs(c)
                if low >= bound:
                    break
    return value


def check_trace(trace, hyps, target: LinIneq, w: int, L: int) -> bool:
    """Replay every step; derived inequalities must be w-sparse and
    L-bounded (hypothesis steps are inputs and are exempt).  A malformed
    step, such as an unknown rule, a formula or premise that is not a
    `LinIneq`, a premise that no earlier step derived or a factor that is not
    a positive integer, fails the replay."""
    hyps = list(hyps)
    derived = set()

    def known(premise) -> bool:
        return isinstance(premise, LinIneq) and premise in derived

    for step in trace:
        ineq, rule, premises = step.formula, step.rule, step.premises
        if not isinstance(ineq, LinIneq):
            return False
        if rule == "HypothesisStep":
            ok = any(premises == (i,) for i, h in enumerate(hyps) if h == ineq)
        else:
            try:
                if rule == "AxiomStep":
                    ok = premises == () and is_axiom(ineq)
                elif rule == "AddStep":
                    a, b = premises
                    ok = known(a) and known(b) and add_ineqs(a, b) == ineq
                elif rule in ("MultiplyStep", "DivideStep"):
                    a, k = premises
                    apply = multiply_ineq if rule == "MultiplyStep" else divide_ineq
                    ok = known(a) and apply(a, k) == ineq
                else:
                    ok = False
            except (ValueError, TypeError):  # a RuleError, or premises of the wrong count or type
                return False
            ok = ok and ineq.sparsity <= w and ineq.l1_norm <= L
        if not ok:
            return False
        derived.add(ineq)
    return bool(trace) and trace[-1].formula == target


def check_target(target: LinIneq, w: int, L: int) -> None:
    """A target must itself be w-sparse and L-bounded."""
    if target.sparsity > w:
        raise InputError(f"target sparsity {target.sparsity} exceeds the bound {w}")
    if target.l1_norm > L:
        raise InputError(f"target l1-norm {target.l1_norm} exceeds the bound {L}")


def decide_cp(hyps, target: LinIneq, w: int, L: int, stats: dict | None = None):
    """Accept iff `target` has a w-sparse L-bounded derivation from `hyps`
    and the axioms.  Returns (accepted, trace).  Takes a target that
    `check_target` accepts.

    Derived lines stay plain `(coeffs, bound)` tuples; only those of an
    accepting trace become `LinIneq`s.  Each `saturation` round offers sums
    (over-budget hypotheses included), then the multiples and quotients of
    the previous round's lines:

    - sums of unordered pairs only (a before b in source order, a = b
      included): (b, a) offers the same line after (a, b) in the same round,
      so under first-offer-wins it never wins; a sum is dropped as soon as
      it is known to be over budget;
    - factors up to L // l1, since a factor scales the l1-norm and keeps the
      sparsity;
    - divisors of every coefficient up to L, whose quotients never grow
      either norm.
    """
    hyps = list(hyps)

    def in_budget(line) -> bool:
        return len(line[0]) <= w and _l1(line) <= L

    def add(a, b):
        coeffs = dict(a[0])
        for v, c in b[0]:
            c += coeffs.get(v, 0)
            if c:
                coeffs[v] = c
            else:
                del coeffs[v]
        bound = a[1] + b[1]
        if len(coeffs) > w or abs(bound) + sum(map(abs, coeffs.values())) > L:
            return None
        return tuple(sorted(coeffs.items())), bound

    variables = sorted(
        set().union(target.variables(), *(h.variables() for h in hyps))
    )
    axioms = [TRUTH_AXIOM]
    for v in variables:
        axioms.extend((var_nonneg(v), var_at_most_one(v)))
    table = {ax: ("AxiomStep", ()) for ax in axioms if in_budget(ax)}
    outside = seed_inputs(table, hyps, in_budget, "HypothesisStep")

    def rules(delta, first_round):
        sources = [*table, *outside]
        fresh = [first_round or line in delta for line in sources]
        for i, (a, a_fresh) in enumerate(zip(sources, fresh)):
            for b, b_fresh in zip(sources[i:], fresh[i:]):
                if a_fresh or b_fresh:
                    line = add(a, b)
                    if line is not None:
                        yield line, ("AddStep", (a, b))
        for line in table:
            if first_round or line in delta:
                coeffs, bound = line
                for factor in range(2, L // max(_l1(line), 1) + 1):
                    product = tuple((v, c * factor) for v, c in coeffs), bound * factor
                    yield product, ("MultiplyStep", (line,), factor)
                common = gcd(*(c for _, c in coeffs))
                for divisor in range(2, L + 1):
                    if common % divisor == 0:
                        quotient = tuple((v, c // divisor) for v, c in coeffs), -(-bound // divisor)
                        yield quotient, ("DivideStep", (line,), divisor)

    if not saturate(table, target, rules, stats):
        return False, None
    return True, derivation(target, table, outside, lambda line: LinIneq(*line))


def residual_ineq(ineq: LinIneq, rho: int) -> LinIneq:
    """Variables the example rho sets to 1 move into the bound, those set to
    0 vanish.  Neither norm grows, and addition, multiplication and division
    commute with it, so keeping every residual hypothesis keeps a derivation."""
    fixed = 0
    kept = []
    for v, c in ineq.coeffs:
        bit = 1 << 2 * v  # the literal x_v
        if bit & rho:
            fixed += c
        elif not bit << 1 & rho:  # -x_v is not true either
            kept.append((v, c))
    return LinIneq(kept, ineq.bound - fixed)


def restrict_ineq(ineq: LinIneq, rho: int) -> LinIneq | Const:
    """The residual inequality, collapsed to TRUE when witnessed true."""
    residual = residual_ineq(ineq, rho)
    return TRUE if always_witnessed_true(residual) else residual


def encode_clause_cp(clause) -> LinIneq:
    """A clause as the inequality: +1 per positive literal, -1 per negative,
    bound 1 minus the number of negative literals."""
    if clause is TAUTOLOGY:
        raise InputError("the tautology clause has no inequality encoding")
    negatives = sum(1 for lit in clause if lit < 0)
    return LinIneq(((abs(lit), 1 if lit > 0 else -1) for lit in clause), 1 - negatives)
