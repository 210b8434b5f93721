"""Propositional formulas over the threshold basis.

Formulas are built from boolean constants, variables x1..xn, negation and
rational-weighted threshold connectives [c1*f1 + ... + ck*fk >= b], which is
true when the coefficients of the true children sum to at least the bound.
k-ary AND is the threshold with all coefficients 1 and bound k; OR has bound 1.

Partial assignments over {0, 1, *} drive three-valued "witnessed" evaluation:
a formula is witnessed when its value is forced no matter how the masked
variables are filled in, judged locally per connective (no completion search).
Restriction partially evaluates a formula under a partial assignment,
collapsing witnessed subformulas to constants: a formula is witnessed true
(false) exactly when its restriction is TRUE (FALSE).

All values are immutable; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import InputError


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Var:
    index: int  # 1-based

    def __post_init__(self):
        if self.index < 1:
            raise InputError(f"variable index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class Threshold:
    coeffs: tuple
    children: tuple
    bound: Fraction

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        children = tuple(self.children)
        if len(coeffs) == 0 or len(coeffs) != len(children):
            raise InputError(
                "threshold needs equally many coefficients and children, at least one"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "bound", Fraction(self.bound))


Formula = Union[Const, Var, Not, Threshold]

TRUE = Const(True)
FALSE = Const(False)


def conjunction(children: Iterable[Formula]) -> Formula:
    """k-ary AND as a threshold: all coefficients 1, bound k."""
    children = tuple(children)
    if not children:
        return TRUE
    return Threshold((1,) * len(children), children, len(children))


def disjunction(children: Iterable[Formula]) -> Formula:
    """k-ary OR as a threshold: all coefficients 1, bound 1."""
    children = tuple(children)
    if not children:
        return FALSE
    return Threshold((1,) * len(children), children, 1)


def literal(var: int, positive: bool) -> Formula:
    return Var(var) if positive else Not(Var(var))


class WitnessStatus(Enum):
    WITNESSED_TRUE = "witnessed_true"
    WITNESSED_FALSE = "witnessed_false"
    UNWITNESSED = "unwitnessed"


_CHAR_VALUES = {"0": 0, "1": 1, "*": None}
_VALUE_CHARS = {v: ch for ch, v in _CHAR_VALUES.items()}
_ENTRY_TYPES = {int, type(None)}


def is_bit(value) -> bool:
    """True for the ints 0 and 1 and for the bools; False for any other value
    or type, such as 1.0 or Fraction(1), which equal a bit without being one."""
    return type(value) in (int, bool) and value in (0, 1)


def _entry(value):
    """0, 1 or None for a valid entry (a bool becomes 0 or 1); anything else
    raises InputError."""
    if value is None:
        return None
    if is_bit(value):
        return int(value)
    raise InputError(f"partial assignment entries must be 0, 1 or *, got {value!r}")


class PartialAssignment(tuple):
    """A vector over {0, 1, *}: the tuple of its entries, each the int 0 or
    1, or None where masked.  It equals and hashes as that plain tuple; entry
    i (1-based) is `value(i)`."""

    __slots__ = ()

    def __new__(cls, entries: Iterable):
        self = tuple.__new__(cls, entries)
        # two passes in C; the type pass stops 1.0 or Fraction(1) from passing
        # by equality and sends a bool to `_entry`
        if set(map(type, self)) <= _ENTRY_TYPES and set(self) <= _VALUE_CHARS.keys():
            return self
        return tuple.__new__(cls, map(_entry, self))

    @classmethod
    def _trusted(cls, entries) -> "PartialAssignment":
        """Wraps an iterable of 0, 1 and None without checking it."""
        return tuple.__new__(cls, entries)

    @classmethod
    def from_string(cls, text: str) -> "PartialAssignment":
        try:
            return cls._trusted(map(_CHAR_VALUES.__getitem__, text))
        except KeyError as exc:
            raise InputError(f"bad partial assignment character {exc.args[0]!r}") from None

    @classmethod
    def all_masked(cls, n: int) -> "PartialAssignment":
        return cls((None,) * n)

    def value(self, var: int):
        """Value of variable `var` (1-based): 0, 1 or None."""
        if not 1 <= var <= len(self):
            raise out_of_range(var, self)
        return self[var - 1]

    def masked_vars(self) -> tuple:
        return tuple(i + 1 for i, e in enumerate(self) if e is None)

    def __str__(self):
        return "".join(map(_VALUE_CHARS.__getitem__, self))

    def __repr__(self):
        return f"PartialAssignment({self})"


def out_of_range(var: int, values) -> InputError:
    """The error for reading variable x<var> from a sequence of values."""
    return InputError(f"variable x{var} out of range 1..{len(values)}")


def refine(sigma: PartialAssignment, tau: Mapping[int, int]) -> PartialAssignment:
    """Merge `tau`, defined only on coordinates masked in `sigma`, into `sigma`."""
    entries = list(sigma)
    for var, val in tau.items():
        if not 1 <= var <= len(entries):
            raise InputError(f"refinement touches x{var}, out of range 1..{len(entries)}")
        if entries[var - 1] is not None:
            raise InputError(f"refinement touches x{var}, already set in the base assignment")
        if not is_bit(val):
            raise InputError(f"refinement value for x{var} must be 0 or 1, got {val!r}")
        entries[var - 1] = val
    return PartialAssignment(entries)


def evaluate(phi: Formula, x) -> bool:
    """Truth value of `phi` under the full assignment `x` (tuple of 0/1)."""
    if isinstance(phi, Const):
        return phi.value
    if isinstance(phi, Var):
        if not 1 <= phi.index <= len(x):
            raise out_of_range(phi.index, x)
        return bool(x[phi.index - 1])
    if isinstance(phi, Not):
        return not evaluate(phi.child, x)
    if isinstance(phi, Threshold):
        total = Fraction(0)
        for c, child in zip(phi.coeffs, phi.children):
            if evaluate(child, x):
                total += c
        return total >= phi.bound
    raise InputError(f"not a formula: {phi!r}")


def witness_status(phi: Formula, rho: PartialAssignment) -> WitnessStatus:
    """Three-valued local evaluation of `phi` under the partial assignment
    `rho`: witnessed exactly when `restrict(phi, rho)` is a constant."""
    restricted = restrict(phi, rho)
    if restricted is TRUE:
        return WitnessStatus.WITNESSED_TRUE
    if restricted is FALSE:
        return WitnessStatus.WITNESSED_FALSE
    return WitnessStatus.UNWITNESSED


def restrict(phi: Formula, rho: PartialAssignment) -> Formula:
    """Partial evaluation of `phi` under `rho`; witnessed subformulas collapse
    to TRUE or FALSE.

    Children are restricted first, and a child is witnessed when its
    restriction is a constant.  A threshold is witnessed true when the
    witnessed-true coefficients plus the most pessimistic (minimal)
    contribution of unwitnessed children already meet the bound, and witnessed
    false when even the most optimistic (maximal) contribution falls short;
    otherwise it keeps its unwitnessed children, and the witnessed-true
    coefficients move into the bound.  Surviving variables keep their
    original indices, so restrictions compose.
    """
    if isinstance(phi, Const):
        return TRUE if phi.value else FALSE
    if isinstance(phi, Var):
        v = rho.value(phi.index)
        if v is None:
            return phi
        return TRUE if v else FALSE
    if isinstance(phi, Not):
        inner = restrict(phi.child, rho)
        if isinstance(inner, Const):
            return FALSE if inner.value else TRUE
        return Not(inner)
    if isinstance(phi, Threshold):
        base = lo = hi = 0
        coeffs = []
        children = []
        for c, child in zip(phi.coeffs, phi.children):
            restricted = restrict(child, rho)
            if restricted is TRUE:
                base += c
            elif restricted is not FALSE:
                lo += min(0, c)
                hi += max(0, c)
                coeffs.append(c)
                children.append(restricted)
        if base + lo >= phi.bound:
            return TRUE
        if base + hi < phi.bound:
            return FALSE
        return Threshold(tuple(coeffs), tuple(children), phi.bound - base)
    raise InputError(f"not a formula: {phi!r}")
