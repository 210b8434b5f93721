"""The derivation-table engine shared by width-bounded RES(k) and by sparse,
L-bounded cutting planes: a table of in-budget lines grows one derivation
round at a time until it holds the target or a round adds nothing.  Each
system supplies its inputs and a rule generator; `saturate` states the
contract between them, and `derivation` unwinds an accepting run into
`TraceStep`s, the one trace type that each system's checker replays.

The first offer of a line wins, so the order of a generator's offers is
part of every trace.  A generator may skip work only where it can show
that the work offers nothing: RES(k) calls its cut rule only on the pairs
that a literal-mask test shows can cut, and cutting planes drops a sum that
is over budget before building it.  Neither reorders what it does offer.
"""

from __future__ import annotations

from .formulas import Record


class TraceStep(Record):
    # the system's formula for the line, the rule's name, and the earlier
    # steps' formulas followed by the rule's parameters
    __slots__ = ("formula", "rule", "premises")


def seed_inputs(table: dict, inputs, in_budget, rule) -> dict:
    """Enter each in-budget input under `(rule, (), first index)` unless the
    table holds it, and return the others in the same form: they never enter
    the table, but rules may use them as premises."""
    outside = {}
    for i, line in enumerate(inputs):
        if line not in table and line not in outside:
            (table if in_budget(line) else outside)[line] = (rule, (), i)
    return outside


def saturate(table: dict, target, derive, stats: dict | None) -> bool:
    """Grow `table` until it holds `target` (True) or a round adds nothing
    (False).

    `table` maps each line to its provenance `(rule, premises, *params)`,
    with `premises` a tuple of lines.  Each round calls `derive(delta,
    first_round)`, which yields `(line, provenance)` pairs, for in-budget
    lines only, from the table as it stood before the round; `delta` holds
    the previous round's additions (in the first round, the whole table).
    The first offer of a line wins, and a round's additions become the next
    delta.  When given, `stats["table_sizes"]` records the table size before
    the first round and after every round.
    """
    if stats is not None:
        stats["table_sizes"] = [len(table)]
    delta = set(table)
    first_round = True
    while target not in table:
        new = {}
        for line, provenance in derive(delta, first_round):
            if line not in table and line not in new:
                new[line] = provenance
        if not new:
            return False
        table.update(new)
        if stats is not None:
            stats["table_sizes"].append(len(table))
        delta = set(new)
        first_round = False
    return True


def derivation(target, table: dict, outside: dict, formula=lambda line: line) -> tuple:
    """`target`'s derivation as TraceSteps, each after its premises.  A
    step's formula is `formula(line)`, built once per line, and its premises
    are its premise lines' formulas followed by the provenance's parameters
    (an input's index for an input, whose provenance comes from `outside`
    when it is over budget)."""
    formulas = {}
    steps = []

    def visit(line):
        if line not in formulas:
            rule, premises, *params = table.get(line) or outside[line]
            for premise in premises:
                visit(premise)
            formulas[line] = formula(line)
            steps.append(
                TraceStep(formulas[line], rule, (*(formulas[p] for p in premises), *params))
            )

    visit(target)
    return tuple(steps)
