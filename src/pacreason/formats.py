"""Line-oriented text formats: cnf, pasgn, kdnf, poly, cp, dist and mask specs.

Every format starts with a `p <kind> ...` header and ignores blank lines and
'#' comments (DIMACS 'c' comments are also accepted in cnf files).  Parsers
raise FormatError with a line number; serializers emit the canonical form, and
serialize(parse(text)) is byte-identical for canonical files.  The canonical
order: the literals of a clause or term by `resolution.literal_bit` (by
variable, x_v before -x_v), kdnf terms by their literal lists in that order,
and polynomial terms as `Polynomial.term_texts` lists them; every other
record keeps its order.  A literal reads and prints as x<v> or -x<v>, and in
poly files as x<v> or ~x<v>, the dual indeterminate of x<v>.

Grammar summary:

    p cnf <n> <m>        clauses as DIMACS literal lists ending in 0
    p pasgn <n> <m>      m lines of n characters over {0,1,*}
    p kdnf <n> <k> <m>   m k-DNFs like x1&-x2|x3 (F is the empty disjunction;
                         a term has at most k distinct literals)
    p poly <n> <m>       m polynomials: '; '-joined terms `<rational> x1 ~x2`
                         (~x2 is the dual of x2, read as the literal -x2; a
                         bare rational is the constant term; 0 is the zero
                         polynomial)
    p cp <n> <m>         m inequalities like `x1:2 x2:-1 >= 1`
    p dist <n> <m>       m weighted points like `1/2 0110`
    p masktable <n> <m>  m rules `<assignment bits> <mask bits>` (1 = hidden)

Numbers are what `int` or `Fraction` reads, in ASCII and without '_'; a
decimal exponent is at most MAX_EXPONENT in size, and a rational's numerator
and denominator have at most MAX_EXPONENT + 1 digits.  Header fields are
non-negative, and a mask table has one rule per assignment.

Inline mask specs: `fixed:0110` (1 = hidden), `iid:<rational>`,
`table:<path>` (path resolved against the referencing file's directory).
"""

from __future__ import annotations

import os
from fractions import Fraction

from .errors import FormatError, InputError
from .formulas import PartialAssignment
from .cutting_planes import LinIneq
from .polycalc import Polynomial
from .res_k import KDnf
from .resolution import TAUTOLOGY, Cnf, literal_bit, literals_text, make_clause
from .sampling import ExplicitDistribution, FixedMask, IndependentMask, TableMask

# str() prints an int of at most 4300 digits (Python's default limit), so a
# rational read keeps its numerator and denominator below 10**4300; the
# exponent cap, the largest whose power of ten prints, keeps reading fast,
# since 1e-<exponent> builds 10**exponent
MAX_EXPONENT = 4299
_VALUE_LIMIT = 10 ** (MAX_EXPONENT + 1)


def read_text(path) -> str:
    """A UTF-8 text file's contents; InputError when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def read_int(text: str) -> int:
    """int(text) for ASCII text without '_'; ValueError otherwise."""
    return int(_ascii(text))


def read_fraction(text: str) -> Fraction:
    """Fraction(text) for ASCII text without '_' whose decimal exponent is at
    most MAX_EXPONENT in size, and whose value's numerator and denominator
    have at most MAX_EXPONENT + 1 digits; ValueError otherwise."""
    _, e, exponent = _ascii(text).lower().partition("e")
    digits = exponent.strip().lstrip("+-").lstrip("0")
    if e and digits.isdigit():  # the length test keeps int() off a long exponent
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent of {text!r} exceeds {MAX_EXPONENT}")
    value = Fraction(text)
    if abs(value.numerator) >= _VALUE_LIMIT or value.denominator >= _VALUE_LIMIT:
        raise ValueError(f"{text!r} has more than {MAX_EXPONENT + 1} digits")
    return value


def _ascii(text: str) -> str:
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return text


def _number(read, token, noun, number=None):
    """read(token), or a FormatError calling `token` a bad `noun` (on line `number`)."""
    try:
        return read(token)
    except (ValueError, ZeroDivisionError):
        where = "" if number is None else f"line {number}: "
        raise FormatError(f"{where}bad {noun} {token!r}") from None


def _lines(text, allow_c_comments=False):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if allow_c_comments and line.startswith("c"):
            continue
        yield number, line


def _header(line, number, kind, count):
    parts = line.split()
    if parts[0] != "p" or len(parts) != count + 2 or parts[1] != kind:
        raise FormatError(f"line {number}: expected header 'p {kind}' with {count} fields")
    fields = [_number(read_int, p, "header field", number) for p in parts[2:]]
    if min(fields) < 0:
        raise FormatError(f"line {number}: header fields must be non-negative")
    return fields


def _file_text(kind, fields, records) -> str:
    """The `p <kind> <fields> <count>` header, then one line per record text."""
    records = list(records)
    head = " ".join(["p", kind, *map(str, fields), str(len(records))])
    return "\n".join([head] + records) + "\n"


def _parse_file(text, kind, fields, noun, read_body, allow_c_comments=False):
    """Reads the `p <kind>` header of `text`, hands the header fields before
    the count, then the remaining (number, line) pairs, to read_body, and
    checks that it found as many records as the header's last field promises.
    Returns (header fields, records)."""
    lines = _lines(text, allow_c_comments)
    try:
        number, line = next(lines)
    except StopIteration:
        raise FormatError(f"line 1: empty {kind} file") from None
    header = _header(line, number, kind, fields)
    records = read_body(*header[:-1], lines)
    if len(records) != header[-1]:
        raise FormatError(f"header promises {header[-1]} {noun}, found {len(records)}")
    return header, records


def _variable(text, n, number, noun, token):
    """The index in `text`, which must be `x<ASCII digits>` with the index in
    1..n; otherwise a FormatError calls `token` a bad `noun`."""
    digits = text[1:]
    if not (text.startswith("x") and digits.isascii() and digits.isdigit()):
        raise FormatError(f"line {number}: bad {noun} {token!r}")
    var = int(digits)
    if not 1 <= var <= n:
        raise FormatError(f"line {number}: variable out of range for n={n}")
    return var


# ---------------------------------------------------------------- cnf


def parse_cnf(text) -> Cnf:
    (n, _), clauses = _parse_file(text, "cnf", 2, "clauses", _cnf_body, allow_c_comments=True)
    return Cnf(clauses, n)


def _cnf_body(n, lines):
    clauses = []
    current = []
    for number, line in lines:
        for token in line.split():
            lit = _number(read_int, token, "literal", number)
            if lit == 0:
                clauses.append(make_clause(current))
                current = []
            else:
                if abs(lit) > n:
                    raise FormatError(f"line {number}: literal {lit} out of range for n={n}")
                current.append(lit)
    if current:
        raise FormatError("last clause is not terminated by 0")
    return clauses


def serialize_cnf(cnf: Cnf) -> str:
    if any(clause is TAUTOLOGY for clause in cnf.clauses):
        raise FormatError("the tautology clause is not serializable")
    lines = (" ".join(map(str, [*sorted(c, key=literal_bit), 0])) for c in cnf.clauses)
    return _file_text("cnf", [cnf.n], lines)


# ---------------------------------------------------------------- pasgn


def parse_pasgns(text):
    (n, _), out = _parse_file(text, "pasgn", 2, "assignments", _pasgn_body)
    return n, out


def _pasgn_body(n, lines):
    out = []
    for number, line in lines:
        try:
            rho = PartialAssignment.from_string(line)  # rejects a bad character
        except InputError:
            rho = None
        if rho is None or len(rho) != n:
            raise FormatError(f"line {number}: expected {n} characters over 0/1/*")
        out.append(rho)
    return out


def serialize_pasgns(n: int, assignments) -> str:
    return _file_text("pasgn", [n], map(str, assignments))


# ---------------------------------------------------------------- kdnf


def _parse_literal(token, number, n, neg="-", noun="literal"):
    """The literal `token` names: v for x<v>, -v for <neg>x<v>, with v in
    1..n; otherwise a FormatError calls `token` a bad `noun`."""
    negated = token.startswith(neg)
    var = _variable(token[1:] if negated else token, n, number, noun, token)
    return -var if negated else var


def parse_kdnf_file(text):
    (n, k, _), formulas = _parse_file(text, "kdnf", 3, "formulas", _kdnf_body)
    return n, k, formulas


def _kdnf_body(n, k, lines):
    formulas = []
    for number, line in lines:
        if line == "F":
            formulas.append(KDnf(()))
            continue
        terms = []
        for term_text in line.split("|"):
            lits = {_parse_literal(tok, number, n) for tok in term_text.split("&")}
            if len(lits) > k:
                raise FormatError(f"line {number}: term exceeds {k} literals")
            terms.append(lits)
        try:
            formulas.append(KDnf(terms))
        except InputError as exc:  # a complementary pair in a term
            raise FormatError(f"line {number}: {exc}") from None
    return formulas


def serialize_kdnf_file(n: int, k: int, formulas) -> str:
    return _file_text("kdnf", [n, k], map(_kdnf_text, formulas))


def _kdnf_text(phi: KDnf) -> str:
    terms = sorted(phi, key=lambda term: sorted(map(literal_bit, term)))
    return "|".join(literals_text(term, "&") for term in terms) or "F"


# ---------------------------------------------------------------- poly


def parse_poly_file(text):
    (n, _), polys = _parse_file(text, "poly", 2, "polynomials", _poly_body)
    return n, polys


def _poly_body(n, lines):
    polys = []
    for number, line in lines:
        if line == "0":
            polys.append(Polynomial())
            continue
        terms = []
        for term_text in line.split(";"):
            tokens = term_text.split()
            if not tokens:
                raise FormatError(f"line {number}: empty term")
            coeff = _number(read_fraction, tokens[0], "rational", number)
            monomial = {_parse_literal(tok, number, n, "~", "indeterminate") for tok in tokens[1:]}
            terms.append((monomial, coeff))
        polys.append(Polynomial(terms))
    return polys


def serialize_poly_file(n: int, polys) -> str:
    return _file_text("poly", [n], ("; ".join(p.term_texts(" ")) or "0" for p in polys))


# ---------------------------------------------------------------- cp


def parse_cp_file(text):
    (n, _), ineqs = _parse_file(text, "cp", 2, "inequalities", _cp_body)
    return n, ineqs


def _cp_body(n, lines):
    ineqs = []
    for number, line in lines:
        if ">=" not in line:
            raise FormatError(f"line {number}: missing '>='")
        lhs, _, rhs = line.partition(">=")
        bound = _number(read_int, rhs.strip(), "bound", number)
        coeffs = []
        for token in lhs.split():
            var_text, colon, coeff_text = token.partition(":")
            if not colon:
                raise FormatError(f"line {number}: bad coefficient token {token!r}")
            var = _variable(var_text, n, number, "coefficient token", token)
            coeffs.append((var, _number(read_int, coeff_text, "coefficient", number)))
        ineqs.append(LinIneq(coeffs, bound))
    return ineqs


def serialize_cp_file(n: int, ineqs) -> str:
    lines = (" ".join([*(f"x{v}:{c}" for v, c in q.coeffs), f">= {q.bound}"]) for q in ineqs)
    return _file_text("cp", [n], lines)


# ---------------------------------------------------------------- dist


def parse_dist(text) -> ExplicitDistribution:
    (n, _), support = _parse_file(text, "dist", 2, "points", _dist_body)
    try:
        return ExplicitDistribution(n, support)
    except InputError as exc:
        raise FormatError(f"invalid distribution: {exc}") from None


def _dist_body(n, lines):
    support = []
    for number, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {number}: expected '<weight> <bits>'")
        weight = _number(read_fraction, parts[0], "rational", number)
        bits = parts[1]
        if len(bits) != n or any(ch not in "01" for ch in bits):
            raise FormatError(f"line {number}: expected {n} bits")
        support.append((tuple(int(ch) for ch in bits), weight))
    return support


def serialize_dist(dist: ExplicitDistribution) -> str:
    lines = (f"{w.numerator}/{w.denominator} {PartialAssignment(x)}" for x, w in dist.support)
    return _file_text("dist", [dist.n], lines)


# ---------------------------------------------------------------- masks


def parse_mask_table(text) -> TableMask:
    _, rule = _parse_file(text, "masktable", 2, "rules", _mask_table_body)
    return TableMask(rule)


def _mask_table_body(n, lines):
    rule = {}
    for number, line in lines:
        parts = line.split()
        if len(parts) != 2 or len(parts[0]) != n or len(parts[1]) != n:
            raise FormatError(f"line {number}: expected '<{n} bits> <{n} bits>'")
        if any(ch not in "01" for ch in parts[0] + parts[1]):
            raise FormatError(f"line {number}: mask table entries are over 0/1")
        x = tuple(int(ch) for ch in parts[0])
        if x in rule:
            raise FormatError(f"line {number}: assignment {parts[0]} already has a rule")
        rule[x] = frozenset(i + 1 for i, ch in enumerate(parts[1]) if ch == "1")
    return rule


def parse_mask_spec(spec: str, n: int, base_dir: str = "."):
    kind, colon, rest = spec.partition(":")
    if not colon:
        raise FormatError(f"bad mask spec {spec!r}; expected fixed:, iid: or table:")
    if kind == "fixed":
        if len(rest) != n or any(ch not in "01" for ch in rest):
            raise FormatError(f"fixed mask pattern must be {n} characters over 0/1")
        return FixedMask(i + 1 for i, ch in enumerate(rest) if ch == "1")
    if kind == "iid":
        p = _number(read_fraction, rest, "hide probability")
        if not 0 <= p <= 1:
            raise FormatError(f"hide probability {p} must lie in [0,1]")
        return IndependentMask(p)
    if kind == "table":
        path = rest if os.path.isabs(rest) else os.path.join(base_dir, rest)
        return parse_mask_table(read_text(path))
    raise FormatError(f"unknown mask kind {kind!r}")
