"""Integer linear inequalities over Boolean variables and bounded
cutting-planes proof search.

An inequality says sum(c_i * x_i) >= b with nonzero integer coefficients.
Sparsity counts the variables; the l1-norm is |b| plus the coefficient
magnitudes.  The proof rules are addition, multiplication by a positive
integer, ceiling division by a common divisor of the coefficients, plus the
Boolean axioms x >= 0, -x >= -1 and the truth axiom 0 >= -1.  A weakening
step (adding an inequality that holds under the fully masked assignment)
exists for trace checking but is never needed by the search, where repeated
axiom additions simulate it.

decide_cp runs the w-sparse L-bounded dynamic program on the `saturation`
engine (see its contract): the table of in-budget inequalities grows one
derivation round at a time; hypotheses beyond the budget still feed addition
steps.  The search runs on raw `(coeffs, bound)` tuples: it adds each
unordered pair once, drops an over-budget sum before building it, and
multiplies by positive factors up to L // l1 only (negative factors would
flip the inequality unsoundly).  Accepted runs return a replayable trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Union

from .errors import InputError, RuleError
from .formulas import Const, PartialAssignment, TRUE
from .resolution import TAUTOLOGY
from .saturation import derivation, saturate, seed_inputs


class LinIneq:
    """Canonical inequality sum(c_i x_i) >= bound; coefficients sorted by var."""

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs, bound: int):
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
        object.__setattr__(
            self, "coeffs", tuple(sorted((v, c) for v, c in data.items() if c != 0))
        )
        object.__setattr__(self, "bound", int(bound))

    @property
    def sparsity(self) -> int:
        return len(self.coeffs)

    @property
    def l1_norm(self) -> int:
        return abs(self.bound) + sum(abs(c) for _, c in self.coeffs)

    def variables(self) -> frozenset:
        return frozenset(v for v, _ in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, LinIneq)
            and self.coeffs == other.coeffs
            and self.bound == other.bound
        )

    def __hash__(self):
        return hash((self.coeffs, self.bound))

    def __repr__(self):
        lhs = " + ".join(f"{c}*x{v}" for v, c in self.coeffs) or "0"
        return f"LinIneq({lhs} >= {self.bound})"

    def __setattr__(self, name, value):
        raise AttributeError("LinIneq is immutable")


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
    return LinIneq(tuple(a.coeffs) + tuple(b.coeffs), a.bound + b.bound)


def multiply_ineq(a: LinIneq, factor: int) -> LinIneq:
    if factor < 1:
        raise RuleError(f"multiplication factor must be a positive integer, got {factor}")
    return LinIneq(((v, c * factor) for v, c in a.coeffs), a.bound * factor)


def divide_ineq(a: LinIneq, divisor: int) -> LinIneq:
    if divisor < 1:
        raise RuleError(f"divisor must be a positive integer, got {divisor}")
    if any(c % divisor for _, c in a.coeffs):
        raise RuleError(f"{divisor} does not divide every coefficient of {a!r}")
    return LinIneq(((v, c // divisor) for v, c in a.coeffs), -((-a.bound) // divisor))


def always_witnessed_true(ineq: LinIneq) -> bool:
    """Witnessed true even under the fully masked assignment."""
    return sum(min(0, c) for _, c in ineq.coeffs) >= ineq.bound


def weaken_ineq(base: LinIneq, addend: LinIneq) -> LinIneq:
    if not always_witnessed_true(addend):
        raise RuleError(f"{addend!r} is not witnessed true under full masking")
    return add_ineqs(base, addend)


@dataclass(frozen=True)
class AxiomStep:
    conclusion: LinIneq


@dataclass(frozen=True)
class HypothesisStep:
    index: int
    conclusion: LinIneq


@dataclass(frozen=True)
class AddStep:
    left: int  # indices of earlier steps
    right: int
    conclusion: LinIneq


@dataclass(frozen=True)
class MultiplyStep:
    source: int
    factor: int
    conclusion: LinIneq


@dataclass(frozen=True)
class DivideStep:
    source: int
    divisor: int
    conclusion: LinIneq


@dataclass(frozen=True)
class WeakenStep:
    source: int
    addend: LinIneq
    conclusion: LinIneq


CpStep = Union[AxiomStep, HypothesisStep, AddStep, MultiplyStep, DivideStep, WeakenStep]


def apply_rule(step: CpStep, premises) -> LinIneq:
    """Recompute a step's conclusion from its resolved premise inequalities."""
    if isinstance(step, AxiomStep):
        if not is_axiom(step.conclusion):
            raise RuleError(f"{step.conclusion!r} is not an axiom")
        return step.conclusion
    if isinstance(step, HypothesisStep):
        return step.conclusion
    if isinstance(step, AddStep):
        return add_ineqs(premises[0], premises[1])
    if isinstance(step, MultiplyStep):
        return multiply_ineq(premises[0], step.factor)
    if isinstance(step, DivideStep):
        return divide_ineq(premises[0], step.divisor)
    if isinstance(step, WeakenStep):
        return weaken_ineq(premises[0], step.addend)
    raise RuleError(f"unknown step type: {step!r}")


def _premise_indices(step: CpStep):
    if isinstance(step, AddStep):
        return (step.left, step.right)
    if isinstance(step, (MultiplyStep, DivideStep, WeakenStep)):
        return (step.source,)
    return ()


def check_trace(trace, hyps, target: LinIneq, w: int, L: int) -> bool:
    """Replay every step; derived conclusions must be w-sparse and L-bounded
    (hypothesis steps are inputs and are exempt)."""
    hyps = list(hyps)
    derived = []
    for step in trace:
        for i in _premise_indices(step):
            if not 0 <= i < len(derived):
                return False
        premises = [derived[i] for i in _premise_indices(step)]
        if isinstance(step, HypothesisStep):
            if not (0 <= step.index < len(hyps)) or hyps[step.index] != step.conclusion:
                return False
        else:
            try:
                if apply_rule(step, premises) != step.conclusion:
                    return False
            except RuleError:
                return False
            if step.conclusion.sparsity > w or step.conclusion.l1_norm > L:
                return False
        derived.append(step.conclusion)
    return bool(derived) and derived[-1] == target


def check_target(target: LinIneq, w: int, L: int) -> None:
    """A target must itself be w-sparse and L-bounded."""
    if target.sparsity > w:
        raise InputError(f"target sparsity {target.sparsity} exceeds the bound {w}")
    if target.l1_norm > L:
        raise InputError(f"target l1-norm {target.l1_norm} exceeds the bound {L}")


def _line(ineq: LinIneq) -> tuple:
    return ineq.coeffs, ineq.bound


def _l1(line) -> int:
    coeffs, bound = line
    return abs(bound) + sum(abs(c) for _, c in coeffs)


def decide_cp(hyps, target: LinIneq, w: int, L: int, stats: Optional[dict] = None):
    """Accept iff `target` has a w-sparse L-bounded derivation from `hyps`
    and the axioms.  Returns (accepted, trace).  Takes a target that
    `check_target` accepts.

    The search runs on raw `(coeffs, bound)` lines, the fields of a
    `LinIneq`; only the lines of an accepting trace become `LinIneq`s.  Each
    `saturation` round offers sums (over-budget hypotheses included), then
    the multiples and quotients of the previous round's lines:

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
    table = {_line(ax): (AxiomStep, ()) for ax in axioms if in_budget(_line(ax))}
    outside = seed_inputs(table, map(_line, hyps), in_budget, HypothesisStep)

    def rules(delta, first_round):
        sources = [*table, *outside]
        fresh = [first_round or line in delta for line in sources]
        for i, (a, a_fresh) in enumerate(zip(sources, fresh)):
            for b, b_fresh in zip(sources[i:], fresh[i:]):
                if a_fresh or b_fresh:
                    line = add(a, b)
                    if line is not None:
                        yield line, (AddStep, (a, b))
        for line in table:
            if first_round or line in delta:
                coeffs, bound = line
                for factor in range(2, L // max(_l1(line), 1) + 1):
                    product = tuple((v, c * factor) for v, c in coeffs), bound * factor
                    yield product, (MultiplyStep, (line,), factor)
                common = gcd(*(c for _, c in coeffs))
                for divisor in range(2, L + 1):
                    if common % divisor == 0:
                        quotient = tuple((v, c // divisor) for v, c in coeffs), -(-bound // divisor)
                        yield quotient, (DivideStep, (line,), divisor)

    target_line = _line(target)
    if not saturate(table, target_line, rules, stats):
        return False, None
    lines = derivation(target_line, table, outside)
    index = {line: i for i, line in enumerate(lines)}
    return True, tuple(
        step(*(index[p] for p in premises), *params, LinIneq(*line))
        for line, (step, premises, *params) in lines.items()
    )


def residual_ineq(ineq: LinIneq, rho: PartialAssignment) -> LinIneq:
    """Variables set to 1 move into the bound, variables set to 0 vanish.
    Neither norm grows, and addition, multiplication and division commute
    with it, so keeping every residual hypothesis keeps a derivation."""
    fixed = 0
    kept = []
    for v, c in ineq.coeffs:
        value = rho.value(v)
        if value is None:
            kept.append((v, c))
        elif value == 1:
            fixed += c
    return LinIneq(kept, ineq.bound - fixed)


def restrict_ineq(ineq: LinIneq, rho: PartialAssignment) -> Union[LinIneq, Const]:
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
