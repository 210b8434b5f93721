"""Line-oriented text formats: cnf, pasgn, kdnf, poly, cp, dist and mask specs.

Every format starts with a `p <kind> ...` header and ignores blank lines and
'#' comments (DIMACS 'c' comments are also accepted in cnf files).

One record loop, `_parse_file`, reads every file but a canonical pasgn file
(see below).  It parses the header, binds the header fields before the count
once with the format's reader factory, `reader(*fields)`, and hands each
later line to the record reader `read(line)` that the factory returns, which
returns the records that the line completes.  A reader parses one line and
raises FormatError or InputError without a line number; the loop prefixes
the message with `line N: `, N the physical line, blank and comment lines
counted.  A record may span lines only in cnf files, whose reader keeps the
unfinished clause and reports it once the lines run out.  The header's count
is checked last.

Serializers emit the canonical form, and serialize(parse(text)) is
byte-identical for canonical files.  The canonical order: the literals of a
clause or term by `resolution.literal_bit` (by variable, x_v before -x_v),
kdnf terms by their literal lists in that order, and polynomial terms as
`Polynomial.term_texts` lists them; every other record keeps its order.  A
literal reads and prints as x<v> or -x<v>, and in poly files as x<v> or ~x<v>,
the dual indeterminate of x<v>.

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

A pasgn line reads as its `PartialAssignment.mask`, an int.  A pasgn file in
the canonical form, a header line that `_header` accepts with n >= 1 and then
exactly m lines of n characters over {0,1,*}, each ended by '\\n' (the last
may lack it), and nothing else, is read in one bulk pass: one alphabet check
over the body, one length check per line and one base-4 translation of the
whole body.  Any other text goes through the record loop, which raises every
error: comments, blank lines, spaces, '\\r' or another line separator, a bad
header or line, a count mismatch or n = 0.  Both paths give the same masks.
`serialize_pasgns` writes only true-literal masks over x1..xn
(`resolution.check_examples`), the masks that the readers give.
Every other bit string, and every pasgn line the record loop reads, passes
one check, `_is_string_over`.

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
from .cutting_planes import LinIneq
from .polycalc import Polynomial
from .res_k import KDnf
from .resolution import TAUTOLOGY, Cnf, check_examples, literal_bit, literals_text, make_clause
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


def _number(read, token, noun):
    """read(token), or a FormatError calling `token` a bad `noun`."""
    try:
        return read(token)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad {noun} {token!r}") from None


def _header(line, kind, count):
    parts = line.split()
    if parts[0] != "p" or len(parts) != count + 2 or parts[1] != kind:
        raise FormatError(f"expected header 'p {kind}' with {count} fields")
    fields = [_number(read_int, p, "header field") for p in parts[2:]]
    if min(fields) < 0:
        raise FormatError("header fields must be non-negative")
    return fields


def _file_text(kind, fields, records) -> str:
    """The `p <kind> <fields> <count>` header, then one line per record text."""
    records = list(records)
    head = " ".join(["p", kind, *map(str, fields), str(len(records))])
    return "\n".join([head] + records) + "\n"


def _parse_file(text, kind, field_count, noun, reader, end=None, comments="#"):
    """The record loop of every format (see the module docstring).  Skips
    blank lines and lines starting with a character of `comments`, reads the
    `p <kind>` header of `field_count` fields, binds `read = reader(*fields)`
    and then extends the records with `read(line)` for each later line.  After the last line it calls
    `end()`, which raises if the lines stop inside a record, and then checks
    the count.  Returns (header fields, records)."""
    header, records, number = None, [], 1
    try:
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line[0] in comments:
                continue
            if header is None:
                *fields, count = header = _header(line, kind, field_count)
                read = reader(*fields)
            else:
                records += read(line)
    except InputError as exc:  # FormatError included
        raise FormatError(f"line {number}: {exc}") from None
    if header is None:
        raise FormatError(f"line 1: empty {kind} file")
    if end is not None:
        end()
    if len(records) != count:
        raise FormatError(f"header promises {count} {noun}, found {len(records)}")
    return header, records


def _is_string_over(text, n, alphabet) -> bool:
    """Whether `text` is n characters, each one of `alphabet`."""
    return len(text) == n and not text.strip(alphabet)


def _variable(text, n, noun, token):
    """The index in `text`, which must be `x<ASCII digits>` with the index in
    1..n; otherwise a FormatError calls `token` a bad `noun`."""
    digits = text[1:]
    if not (text.startswith("x") and digits.isascii() and digits.isdigit()):
        raise FormatError(f"bad {noun} {token!r}")
    var = int(digits)
    if not 1 <= var <= n:
        raise FormatError(f"variable out of range for n={n}")
    return var


# ---------------------------------------------------------------- cnf


def parse_cnf(text) -> Cnf:
    current = []  # the literals of the clause not yet ended by 0; it may span lines

    def reader(n):
        def read(line):
            clauses = []
            for token in line.split():
                lit = _number(read_int, token, "literal")
                if lit == 0:
                    clauses.append(make_clause(current))
                    current.clear()
                elif abs(lit) > n:
                    raise FormatError(f"literal {lit} out of range for n={n}")
                else:
                    current.append(lit)
            return clauses

        return read

    def end():
        if current:
            raise FormatError("last clause is not terminated by 0")

    (n, _), clauses = _parse_file(text, "cnf", 2, "clauses", reader, end, comments="#c")
    return Cnf(clauses, n)


def serialize_cnf(cnf: Cnf) -> str:
    if any(clause is TAUTOLOGY for clause in cnf.clauses):
        raise FormatError("the tautology clause is not serializable")
    lines = (" ".join(map(str, [*sorted(c, key=literal_bit), 0])) for c in cnf.clauses)
    return _file_text("cnf", [cnf.n], lines)


# ---------------------------------------------------------------- pasgn


def parse_pasgns(text):
    parsed = _parse_canonical_pasgns(text)
    if parsed is not None:
        return parsed
    (n, _), out = _parse_file(text, "pasgn", 2, "assignments", _pasgn_reader)
    return n, out


def _parse_canonical_pasgns(text):
    """parse_pasgns(text) in one bulk pass when `text` is in the canonical
    form (see the module docstring), None otherwise."""
    head, _, body = text.partition("\n")
    if not head.startswith("p ") or head.splitlines() != [head]:  # another line separator
        return None
    try:
        n, count = _header(head, "pasgn", 2)
    except FormatError:
        return None
    if n < 1 or body.translate(_PASGN_BODY):
        return None
    # reversed, the body holds its lines last first, each with x1 as its lowest digit
    digits = body.removesuffix("\n")[::-1].translate(_PASGN_DIGITS).split("\n")
    if len(digits) != count or set(map(len, digits)) != {n}:
        return None
    out = [int(line, 4) << 2 for line in digits]
    out.reverse()
    return n, out


# a variable's base-4 digit in the true mask, the characters of a canonical
# pasgn body, and a hex digit's two variables
_PASGN_DIGITS = str.maketrans("10*", "120")
_PASGN_BODY = str.maketrans("", "", "01*\n")
_PASGN_CHARS = {ord(f"{a + 4 * b:x}"): "*10"[a] + "*10"[b] for a in range(3) for b in range(3)}


def _pasgn_reader(n):
    def read(line):
        if not _is_string_over(line, n, "01*"):
            raise FormatError(f"expected {n} characters over 0/1/*")
        return (int(line[::-1].translate(_PASGN_DIGITS), 4) << 2,)

    return read


def serialize_pasgns(n: int, examples) -> str:
    if n < 1:  # an n = 0 line would be blank, which the reader skips
        raise FormatError(f"pasgn files need n >= 1, got n={n}")
    examples = list(examples)
    check_examples(examples, n)
    width = n // 2 + 1  # hex digits of bits 0..2n+1, lowest first: x0 (unset) and x1, ...
    lines = (f"{rho:0{width}x}"[::-1].translate(_PASGN_CHARS)[1:n + 1] for rho in examples)
    return _file_text("pasgn", [n], lines)


# ---------------------------------------------------------------- kdnf


def _parse_literal(token, n, neg="-", noun="literal"):
    """The literal `token` names: v for x<v>, -v for <neg>x<v>, with v in
    1..n; otherwise a FormatError calls `token` a bad `noun`."""
    negated = token.startswith(neg)
    var = _variable(token[1:] if negated else token, n, noun, token)
    return -var if negated else var


def parse_kdnf_file(text):
    (n, k, _), formulas = _parse_file(text, "kdnf", 3, "formulas", _kdnf_reader)
    return n, k, formulas


def _kdnf_reader(n, k):
    def read(line):
        if line == "F":
            return (KDnf(()),)
        terms = []
        for term_text in line.split("|"):
            lits = {_parse_literal(tok, n) for tok in term_text.split("&")}
            if len(lits) > k:
                raise FormatError(f"term exceeds {k} literals")
            terms.append(lits)
        return (KDnf(terms),)  # an InputError for a complementary pair in a term

    return read


def serialize_kdnf_file(n: int, k: int, formulas) -> str:
    return _file_text("kdnf", [n, k], map(_kdnf_text, formulas))


def _kdnf_text(phi: KDnf) -> str:
    terms = sorted(phi, key=lambda term: sorted(map(literal_bit, term)))
    return "|".join(literals_text(term, "&") for term in terms) or "F"


# ---------------------------------------------------------------- poly


def parse_poly_file(text):
    (n, _), polys = _parse_file(text, "poly", 2, "polynomials", _poly_reader)
    return n, polys


def _poly_reader(n):
    def read(line):
        if line == "0":
            return (Polynomial(),)
        terms = []
        for term_text in line.split(";"):
            tokens = term_text.split()
            if not tokens:
                raise FormatError("empty term")
            coeff = _number(read_fraction, tokens[0], "rational")
            monomial = {_parse_literal(tok, n, "~", "indeterminate") for tok in tokens[1:]}
            terms.append((monomial, coeff))
        return (Polynomial(terms),)

    return read


def serialize_poly_file(n: int, polys) -> str:
    return _file_text("poly", [n], ("; ".join(p.term_texts(" ")) or "0" for p in polys))


# ---------------------------------------------------------------- cp


def parse_cp_file(text):
    (n, _), ineqs = _parse_file(text, "cp", 2, "inequalities", _cp_reader)
    return n, ineqs


def _cp_reader(n):
    def read(line):
        if ">=" not in line:
            raise FormatError("missing '>='")
        lhs, _, rhs = line.partition(">=")
        bound = _number(read_int, rhs.strip(), "bound")
        coeffs = []
        for token in lhs.split():
            var_text, colon, coeff_text = token.partition(":")
            if not colon:
                raise FormatError(f"bad coefficient token {token!r}")
            var = _variable(var_text, n, "coefficient token", token)
            coeffs.append((var, _number(read_int, coeff_text, "coefficient")))
        return (LinIneq(coeffs, bound),)

    return read


def serialize_cp_file(n: int, ineqs) -> str:
    lines = (" ".join([*(f"x{v}:{c}" for v, c in q.coeffs), f">= {q.bound}"]) for q in ineqs)
    return _file_text("cp", [n], lines)


# ---------------------------------------------------------------- dist


def parse_dist(text) -> ExplicitDistribution:
    (n, _), support = _parse_file(text, "dist", 2, "points", _dist_reader)
    try:
        return ExplicitDistribution(n, support)
    except InputError as exc:
        raise FormatError(f"invalid distribution: {exc}") from None


def _dist_reader(n):
    def read(line):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("expected '<weight> <bits>'")
        weight = _number(read_fraction, parts[0], "rational")
        bits = parts[1]
        if not _is_string_over(bits, n, "01"):
            raise FormatError(f"expected {n} bits")
        return ((tuple(int(ch) for ch in bits), weight),)

    return read


def serialize_dist(dist: ExplicitDistribution) -> str:
    lines = (f"{w.numerator}/{w.denominator} {''.join(map(str, x))}" for x, w in dist.support)
    return _file_text("dist", [dist.n], lines)


# ---------------------------------------------------------------- masks


def parse_mask_table(text) -> TableMask:
    rule = {}

    def reader(n):
        def read(line):
            parts = line.split()
            if len(parts) != 2 or len(parts[0]) != n or len(parts[1]) != n:
                raise FormatError(f"expected '<{n} bits> <{n} bits>'")
            if not _is_string_over(parts[0] + parts[1], 2 * n, "01"):
                raise FormatError("mask table entries are over 0/1")
            x = tuple(int(ch) for ch in parts[0])
            if x in rule:
                raise FormatError(f"assignment {parts[0]} already has a rule")
            rule[x] = frozenset(i + 1 for i, ch in enumerate(parts[1]) if ch == "1")
            return (x,)

        return read

    _parse_file(text, "masktable", 2, "rules", reader)
    return TableMask(rule)


def parse_mask_spec(spec: str, n: int, base_dir: str = "."):
    kind, colon, rest = spec.partition(":")
    if not colon:
        raise FormatError(f"bad mask spec {spec!r}; expected fixed:, iid: or table:")
    if kind == "fixed":
        if not _is_string_over(rest, n, "01"):
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
