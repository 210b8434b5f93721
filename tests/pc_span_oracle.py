"""Independent fixpoint oracle for degree-bounded polynomial derivability.

Works with dense coefficient rows over a fixed column order (all multilinear
monomials of degree at most d over the instance's indeterminates, largest
degree first) and plain Gaussian elimination: repeatedly close the row space
under multiply-by-an-indeterminate-then-multilinearize, restricted to rows of
degree below d, until the dimension stops growing.  The query is derivable
iff its row reduces to zero.

Shares nothing with the production decision procedure beyond the Polynomial
input type.
"""

from fractions import Fraction

from pacreason.polycalc import PCR, Indet, Polynomial


def _columns(indets, d):
    from itertools import combinations

    monos = []
    for size in range(d + 1):
        for combo in combinations(indets, size):
            monos.append(frozenset(combo))
    monos.sort(key=lambda m: (-len(m), sorted((abs(lit), lit < 0) for lit in m)))
    return monos


def _to_row(poly, col_index, width):
    row = [Fraction(0)] * width
    for m, c in poly.terms.items():
        row[col_index[m]] += c
    return row


def span_closure_decides(hyps, q, d, mode):
    """True iff q lies in the degree-d closure of the hypotheses' span."""
    hyps = list(hyps)
    variables = sorted(set().union(*(p.variables() for p in hyps + [q])))
    if mode == PCR:
        indets = [Indet(v, dual) for v in variables for dual in (False, True)]
    else:
        indets = [Indet(v) for v in variables]

    cols = _columns(indets, d)
    col_index = {m: i for i, m in enumerate(cols)}
    width = len(cols)
    col_degree = [len(m) for m in cols]

    pivots = {}  # leading column -> normalized row

    def reduce_row(row):
        while True:
            lead = next((i for i, c in enumerate(row) if c != 0), None)
            if lead is None or lead not in pivots:
                return row, lead
            factor = row[lead]
            pivot_row = pivots[lead]
            row = [a - factor * b for a, b in zip(row, pivot_row)]

    def insert(row):
        row, lead = reduce_row(row)
        if lead is None:
            return False
        inv = 1 / row[lead]
        pivots[lead] = [c * inv for c in row]
        return True

    def times_indet(row, alpha):
        out = [Fraction(0)] * width
        for i, c in enumerate(row):
            if c != 0:
                out[col_index[cols[i] | {alpha}]] += c
        return out

    seeds = list(hyps)
    if mode == PCR:
        for v in variables:
            seeds.append(
                Polynomial(
                    [
                        (frozenset((Indet(v),)), 1),
                        (frozenset((Indet(v, True),)), 1),
                        (frozenset(), -1),
                    ]
                )
            )
    for p in seeds:
        if p.degree > d:
            raise ValueError("seed degree exceeds the bound")
        insert(_to_row(p, col_index, width))

    while True:
        grew = False
        for lead in sorted(pivots):
            if col_degree[lead] > d - 1:
                continue
            base = pivots[lead]
            for alpha in indets:
                if insert(times_indet(base, alpha)):
                    grew = True
        if not grew:
            break

    reduced, lead = reduce_row(_to_row(q, col_index, width))
    return lead is None
