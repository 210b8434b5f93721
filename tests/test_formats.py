import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from pacreason import formats
from pacreason.errors import FormatError, InputError
from pacreason.formats import (
    MAX_EXPONENT,
    _parse_file,
    _pasgn_reader,
    parse_cnf,
    parse_cp_file,
    parse_dist,
    parse_kdnf_file,
    parse_mask_spec,
    parse_mask_table,
    parse_pasgns,
    parse_poly_file,
    read_fraction,
    serialize_cnf,
    serialize_cp_file,
    serialize_dist,
    serialize_kdnf_file,
    serialize_pasgns,
    serialize_poly_file,
)
from pacreason.cutting_planes import LinIneq
from pacreason.formulas import PartialAssignment
from pacreason.res_k import KDnf
from pacreason.sampling import ExplicitDistribution, FixedMask, IndependentMask
from pacreason.resolution import Cnf, make_clause

from helpers import example


def test_parse_dimacs():
    cnf = parse_cnf("p cnf 2 2\n1 0\n-1 2 0\n")
    assert cnf.n == 2
    assert cnf.clauses == (make_clause([1]), make_clause([-1, 2]))


def test_parse_dimacs_comments_and_multiline():
    cnf = parse_cnf("c comment\n# another\np cnf 2 1\n1\n-2 0\n")
    assert cnf.clauses == (make_clause([1, -2]),)


def test_an_unterminated_last_clause_is_reported_before_the_count():
    with pytest.raises(FormatError, match="^last clause is not terminated by 0$"):
        parse_cnf("p cnf 2 3\n1 0\n2\n")


# one case per format: a file whose bad record sits on a later physical line,
# after blank and comment lines, and the error that names that line
LATER_LINE_ERRORS = {
    "cnf": (parse_cnf, "c x\np cnf 2 2\n\n1\n# x\n-2 0 3 0\n", "line 6: literal 3 out of range for n=2"),
    "pasgn": (parse_pasgns, "# x\np pasgn 2 2\n\n1*\n# x\n1x\n", "line 6: expected 2 characters over 0/1/*"),
    "kdnf": (
        parse_kdnf_file, "p kdnf 2 2 2\n# x\n\nx2\nx1&-x1\n", "line 5: term contains the complementary pair x1"
    ),
    "poly": (parse_poly_file, "p poly 2 2\n\n1 x1\n# x\n1 x3\n", "line 5: variable out of range for n=2"),
    "cp": (parse_cp_file, "p cp 2 2\n# x\nx1:1 >= 0\n\nx1:1\n", "line 5: missing '>='"),
    "dist": (parse_dist, "p dist 2 2\n1/2 00\n\n# x\n1/2 0\n", "line 5: expected 2 bits"),
    "masktable": (
        parse_mask_table, "p masktable 2 2\n# x\n10 01\n\n10 11\n", "line 5: assignment 10 already has a rule"
    ),
}


@pytest.mark.parametrize("kind", sorted(LATER_LINE_ERRORS))
def test_a_record_error_names_its_physical_line(kind):
    parse, text, error = LATER_LINE_ERRORS[kind]
    with pytest.raises(FormatError, match=f"^{re.escape(error)}$"):
        parse(text)


def test_parse_dimacs_errors():
    with pytest.raises(FormatError):
        parse_cnf("p cnf 1 1\n2 0\n")
    with pytest.raises(FormatError):
        parse_cnf("p cnf 1 2\n1 0\n")
    with pytest.raises(FormatError):
        parse_cnf("p cnf 1 1\n1\n")


def test_pasgn_roundtrip():
    text = "p pasgn 3 2\n1*0\n***\n"
    n, got = parse_pasgns(text)
    assert n == 3
    assert got == [example("1*0"), example(PartialAssignment.all_masked(3))]
    assert serialize_pasgns(n, got) == text


def test_pasgn_roundtrip_with_bool_entries():
    rhos = [PartialAssignment([True, None, False]), PartialAssignment([False, True, None])]
    rhos = list(map(example, rhos))
    text = serialize_pasgns(3, rhos)
    assert text == "p pasgn 3 2\n1*0\n01*\n"
    assert parse_pasgns(text) == (3, rhos)


@pytest.mark.parametrize("line", ["x10", "1x0", "10x", "10", "10**"])
def test_pasgn_rejects_bad_lines(line):
    with pytest.raises(FormatError, match=r"^line 3: expected 3 characters over 0/1/\*$"):
        parse_pasgns(f"p pasgn 3 2\n1*0\n{line}\n")


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 63, 64, 65, 200])
def test_pasgn_text_survives_its_masks(n):
    # the reader turns each line into its literal masks, and the writer
    # reads the true mask back out of its hex digits: all-masked, all-set
    # and mixed lines come back byte for byte, at n on both sides of the
    # hex-digit and machine-word boundaries
    rng = random.Random(n)
    lines = ["*" * n, "0" * n, "1" * n, "".join(rng.choice("01") for _ in range(n))]
    lines += ["".join(rng.choice("01*") for _ in range(n)) for _ in range(12)]
    text = f"p pasgn {n} {len(lines)}\n" + "\n".join(lines) + "\n"
    assert parse_pasgns(text) == (n, list(map(example, lines)))
    assert serialize_pasgns(*parse_pasgns(text)) == text


@pytest.mark.parametrize("rho", [1 << 10, 12, -4, 1, 2, (4, 8), True, 4.0, "4"])
def test_serialize_pasgns_writes_only_true_literal_masks(rho):
    # over n = 2: a bit above x2's, both literals of x1, a negative int, bit
    # 0 or 1, a (true, false) pair, a bool, a float and a string are
    # no example; unchecked, each would print as some line or raise another
    # error, so the writer raises what decide_pac raises, wherever rho stands
    good = example("1*")
    assert serialize_pasgns(2, [good, 0]) == "p pasgn 2 2\n1*\n**\n"
    for examples in ([rho], [good, rho], [rho, good]):
        with pytest.raises(InputError) as caught:
            serialize_pasgns(2, examples)
        assert str(caught.value) == f"example {rho!r} is not a true-literal mask over x1..x2"


def _pasgn_reader_of_assignments(n):
    """The pasgn reader that builds a PartialAssignment per line, whose error
    text the mask reader keeps."""

    def read(line):
        try:
            rho = PartialAssignment.from_string(line)
        except InputError:
            rho = None
        if rho is None or len(rho) != n:
            raise FormatError(f"expected {n} characters over 0/1/*")
        return (rho.mask,)

    return read


def _pasgn_outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


def test_pasgn_fuzz_matches_the_reader_of_assignments():
    # seeded files of short, long and foreign-character lines among good
    # ones, blank and comment lines, and a header count that may be off: the
    # same masks or the same error, byte for byte
    rng = random.Random(26)
    seen = Counter()

    def reference(text):
        (n, _), rhos = _parse_file(text, "pasgn", 2, "assignments", _pasgn_reader_of_assignments)
        return n, rhos

    for _ in range(3000):
        n = rng.choice((1, 2, 3, 4, 7, 8, 9))
        lines = []
        for _ in range(rng.randint(1, 5)):
            length = n + rng.choice((0, 0, 0, -1, 1))
            chars = [rng.choice("01*") for _ in range(max(length, 0))]
            if chars and rng.random() < 0.2:
                chars[rng.randrange(len(chars))] = rng.choice("x2 \t-_#é١")
            lines.append("".join(chars))
            if rng.random() < 0.1:
                lines.append(rng.choice(("", "# note", "  ")))
        count = sum(1 for line in lines if line.strip() and line.strip()[0] != "#")
        text = f"p pasgn {n} {count + rng.choice((0, 0, 0, 1))}\n" + "\n".join(lines) + "\n"
        got, want = _pasgn_outcome(parse_pasgns, text), _pasgn_outcome(reference, text)
        assert got == want, text
        seen["error" if isinstance(want, str) else "parsed"] += 1
        seen["count error"] += isinstance(want, str) and "header promises" in want
    assert min(seen.values()) >= 100, seen


def _pasgn_record_loop(text):
    (n, _), rhos = _parse_file(text, "pasgn", 2, "assignments", _pasgn_reader)
    return n, rhos


def _canonical_pasgn(n):
    """A file as `serialize_pasgns` writes it: all-masked, all-false, all-true
    and mixed lines at n."""
    rng = random.Random(n)
    lines = ["*" * n, "0" * n, "1" * n] + ["".join(rng.choice("01*") for _ in range(n)) for _ in range(4)]
    return f"p pasgn {n} {len(lines)}\n" + "".join(line + "\n" for line in lines)


def _edit_line(text, number, edit):
    """`text` with its line `number` (0 the header) replaced by edit(line)."""
    lines = text.split("\n")
    lines[number] = edit(lines[number])
    return "\n".join(lines)


def _middle(char):
    """An edit that replaces the middle character of a line by `char`."""
    return lambda line: line[: len(line) // 2] + char + line[len(line) // 2 + 1:]


def _join_lines(text, number, separator):
    """`text` with lines `number` and `number` + 1 joined by `separator`."""
    lines = text.split("\n")
    lines[number:number + 2] = [lines[number] + separator + lines[number + 1]]
    return "\n".join(lines)


# edits of a canonical 7-line file: each result is a FormatError or reads as
# the record loop reads it, so none may pass the bulk check by mistake
NEAR_CANONICAL_PASGNS = {
    "no final newline": lambda text: text[:-1],
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr at the end": lambda text: text[:-1] + "\r",
    "leading comment": lambda text: "# note\n" + text,
    "leading blank line": lambda text: "\n" + text,
    "trailing blank line": lambda text: text + "\n",
    "trailing comment": lambda text: text + "# note\n",
    "trailing space in a line": lambda text: _edit_line(text, 2, lambda line: line + " "),
    "leading space in a line": lambda text: _edit_line(text, 2, lambda line: " " + line),
    "trailing space in the header": lambda text: _edit_line(text, 0, lambda line: line + " "),
    "header arabic-indic digit": lambda text: _edit_line(text, 0, lambda line: line[:-1] + "\u0667"),
    "header plus sign": lambda text: _edit_line(text, 0, lambda line: line.replace("n ", "n +")),
    "header underscore": lambda text: _edit_line(text, 0, lambda line: line[:-1] + "0_7"),
    "header leading zeros": lambda text: _edit_line(text, 0, lambda line: line.replace("n ", "n 00")),
    "header extra field": lambda text: _edit_line(text, 0, lambda line: line + " 0"),
    "header vertical tab": lambda text: _edit_line(text, 0, lambda line: line[:-2] + "\x0b7"),
    "header tab": lambda text: _edit_line(text, 0, lambda line: line[:-2] + "\t7"),
    "count one short": lambda text: _edit_line(text, 0, lambda line: line[:-1] + "6"),
    "count one over": lambda text: _edit_line(text, 0, lambda line: line[:-1] + "8"),
    "vertical tab in a line": lambda text: _edit_line(text, 2, _middle("\x0b")),
    "line separator in a line": lambda text: _edit_line(text, 2, _middle("\u2028")),
    "vertical tab between lines": lambda text: _join_lines(text, 2, "\x0b"),
    "line separator between lines": lambda text: _join_lines(text, 2, "\u2028"),
    "form feed between lines": lambda text: _join_lines(text, 2, "\x0c"),
    "digit 2 in a line": lambda text: _edit_line(text, 3, _middle("2")),
    "underscore in a line": lambda text: _edit_line(text, 3, _middle("_")),
    "space in a line": lambda text: _edit_line(text, 3, _middle(" ")),
    "arabic-indic digit in a line": lambda text: _edit_line(text, 3, _middle("\u0661")),
    "letter in a line": lambda text: _edit_line(text, 3, _middle("x")),
    "short line": lambda text: _edit_line(text, 3, lambda line: line[:-1]),
    "long line": lambda text: _edit_line(text, 3, lambda line: line + "*"),
}


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 63, 64, 65, 200])
def test_pasgn_bulk_pass_matches_the_record_loop(n, monkeypatch):
    # the same masks or the same error, byte for byte, as the record loop on
    # canonical files and every file next to them
    canonical = _canonical_pasgn(n)
    files = {"canonical": canonical} | {name: edit(canonical) for name, edit in NEAR_CANONICAL_PASGNS.items()}
    for name, text in files.items():
        assert _pasgn_outcome(parse_pasgns, text) == _pasgn_outcome(_pasgn_record_loop, text), name

    # the canonical form, with or without its final newline, never reaches the record loop
    def record_loop(*args, **kwargs):
        raise AssertionError("the record loop read a canonical pasgn file")

    monkeypatch.setattr(formats, "_parse_file", record_loop)
    for text in (canonical, canonical[:-1]):
        assert parse_pasgns(text) == _pasgn_outcome(_pasgn_record_loop, text)


@pytest.mark.parametrize("text, want", [
    ("p pasgn 0 2\n\n\n", "FormatError: header promises 2 assignments, found 0"),
    ("p pasgn 0 0\n\n", (0, [])),
    ("p pasgn 1 0\n", (1, [])),
    ("p pasgn 1 0", (1, [])),
    ("p pasgn 1 1\n\n", "FormatError: header promises 1 assignments, found 0"),
    ("p pasgn 1 1", "FormatError: header promises 1 assignments, found 0"),
    ("", "FormatError: line 1: empty pasgn file"),
    (" \n", "FormatError: line 1: empty pasgn file"),
])
def test_pasgn_files_without_records_read_as_the_record_loop_reads_them(text, want):
    # blank lines are no n = 0 records on either path
    assert _pasgn_outcome(parse_pasgns, text) == _pasgn_outcome(_pasgn_record_loop, text) == want


def test_pasgn_serializer_refuses_n_zero():
    # an n = 0 line is blank, and the reader skips blank lines
    with pytest.raises(FormatError, match=r"^pasgn files need n >= 1, got n=0$"):
        serialize_pasgns(0, [(0, 0), (0, 0)])


# the bit-string errors of the dist reader, the mask table and fixed: specs
BIT_STRING_ERRORS = [
    (parse_dist, "p dist 2 1\n1 0x\n", "line 2: expected 2 bits"),
    (parse_dist, "p dist 2 1\n1 010\n", "line 2: expected 2 bits"),
    (parse_mask_table, "p masktable 2 1\n00 1\n", "line 2: expected '<2 bits> <2 bits>'"),
    (parse_mask_table, "p masktable 2 1\n0* 10\n", "line 2: mask table entries are over 0/1"),
    (parse_mask_table, "p masktable 2 1\n00 1x\n", "line 2: mask table entries are over 0/1"),
    (lambda spec: parse_mask_spec(spec, 3), "fixed:01*", "fixed mask pattern must be 3 characters over 0/1"),
    (lambda spec: parse_mask_spec(spec, 3), "fixed:0101", "fixed mask pattern must be 3 characters over 0/1"),
]


@pytest.mark.parametrize("parse, text, error", BIT_STRING_ERRORS)
def test_bit_strings_keep_their_errors(parse, text, error):
    with pytest.raises(FormatError, match=f"^{re.escape(error)}$"):
        parse(text)


def test_cnf_roundtrip():
    text = "p cnf 3 3\n1 -2 0\n3 0\n0\n"
    assert serialize_cnf(parse_cnf(text)) == text


def test_kdnf_roundtrip():
    text = "p kdnf 3 2 3\nx1&-x2|x3\nF\n-x1\n"
    n, k, formulas = parse_kdnf_file(text)
    assert (n, k) == (3, 2)
    assert serialize_kdnf_file(n, k, formulas) == text


# one case per serializer that orders literals, terms or monomials: the text
# read, and the canonical text written back.  Literals go by variable, x_v
# before -x_v; kdnf terms by their literal lists in that order; polynomial
# terms by `monomial_key`, highest first, each listing x_v before ~x_v
CANONICAL_TEXT = {
    "cnf": (lambda text: serialize_cnf(parse_cnf(text)), "p cnf 3 1\n3 -2 0\n", "p cnf 3 1\n-2 3 0\n"),
    "kdnf": (
        lambda text: serialize_kdnf_file(*parse_kdnf_file(text)),
        "p kdnf 3 2 2\nx1&-x2|-x1|x2&x3\n-x3|x3\n",
        "p kdnf 3 2 2\nx1&-x2|-x1|x2&x3\nx3|-x3\n",
    ),
    "poly": (
        lambda text: serialize_poly_file(*parse_poly_file(text)),
        "p poly 3 1\n1 ~x2 x1; -1/2 x3 ~x1; 2; 3 ~x3; 5 ~x1 x1\n",
        "p poly 3 1\n5 x1 ~x1; 1 x1 ~x2; -1/2 ~x1 x3; 3 ~x3; 2\n",
    ),
}


@pytest.mark.parametrize("kind", sorted(CANONICAL_TEXT))
def test_serializers_write_the_canonical_order(kind):
    roundtrip, text, canonical = CANONICAL_TEXT[kind]
    assert roundtrip(text) == canonical
    assert roundtrip(canonical) == canonical


def test_a_polynomial_prints_its_terms_in_the_file_order():
    _, (p,) = parse_poly_file(CANONICAL_TEXT["poly"][1])
    assert repr(p) == "Polynomial(5x1~x1 + 1x1~x2 + -1/2~x1x3 + 3~x3 + 2)"


def test_kdnf_term_size_gate():
    with pytest.raises(FormatError):
        parse_kdnf_file("p kdnf 3 1 1\nx1&x2\n")


def test_kdnf_term_size_counts_distinct_literals():
    # like `1 1 0` in a cnf file, a repeated literal is one literal
    assert parse_kdnf_file("p kdnf 2 1 1\nx1&x1|-x2\n") == parse_kdnf_file("p kdnf 2 1 1\nx1|-x2\n")


def test_kdnf_complementary_term_reports_its_line():
    with pytest.raises(FormatError, match=r"^line 3: term contains the complementary pair x1$"):
        parse_kdnf_file("p kdnf 2 2 2\nx2\nx1&-x1\n")


def test_poly_roundtrip():
    text = "p poly 2 3\n3/2 x1 ~x2; -1 x1; 2\n0\n1 ~x1\n"
    n, polys = parse_poly_file(text)
    assert n == 2
    assert polys[0].coeff(()) == Fraction(2)
    assert serialize_poly_file(n, polys) == text


def test_cp_roundtrip():
    text = "p cp 2 3\nx1:2 x2:-1 >= 1\n>= 1\nx2:1 >= 0\n"
    n, ineqs = parse_cp_file(text)
    assert n == 2
    assert ineqs[0].coeffs == ((1, 2), (2, -1))
    assert ineqs[0].bound == 1
    assert serialize_cp_file(n, ineqs) == text


def test_dist_roundtrip():
    text = "p dist 2 2\n1/2 00\n1/2 11\n"
    dist = parse_dist(text)
    assert serialize_dist(dist) == text


def test_dist_roundtrip_with_bool_entries():
    half = Fraction(1, 2)
    dist = ExplicitDistribution(2, [((True, False), half), ((False, True), half)])
    text = serialize_dist(dist)
    assert text == "p dist 2 2\n1/2 10\n1/2 01\n"
    assert parse_dist(text).support == dist.support
    assert {type(b) for x, _ in dist.support for b in x} == {int}


def test_dist_rejects_bad_weights():
    with pytest.raises(FormatError):
        parse_dist("p dist 1 2\n1/2 0\n1/3 1\n")


def test_mask_specs():
    assert parse_mask_spec("fixed:010", 3) == FixedMask({2})
    assert parse_mask_spec("iid:1/4", 3) == IndependentMask(Fraction(1, 4))
    with pytest.raises(FormatError):
        parse_mask_spec("fixed:01", 3)
    with pytest.raises(FormatError):
        parse_mask_spec("gaussian:1", 3)


def test_mask_table_parsing(tmp_path):
    table_text = "p masktable 2 2\n00 10\n11 01\n"
    mask = parse_mask_table(table_text)
    assert mask.rule == {(0, 0): frozenset({1}), (1, 1): frozenset({2})}
    path = tmp_path / "rules.masktable"
    path.write_text(table_text)
    loaded = parse_mask_spec(f"table:{path.name}", 2, base_dir=str(tmp_path))
    assert loaded == mask


def test_mask_table_rejects_a_repeated_assignment():
    for count in (1, 2):
        with pytest.raises(FormatError, match=r"^line 3: assignment 10 already has a rule$"):
            parse_mask_table(f"p masktable 2 {count}\n10 01\n10 11\n")


# each case is one value built twice, its literals, terms or coefficients
# given in two orders
EQUAL_VALUES = {
    "cnf": (Cnf([make_clause([1, 2, -6])], 7), Cnf([make_clause([1, -6, 2])], 7)),
    "cnf-parsed": (parse_cnf("p cnf 7 1\n1 2 -6 0\n"), parse_cnf("p cnf 7 1\n1 -6 2 0\n")),
    "kdnf": (KDnf([[1, 2, -6], [3]]), KDnf([[3], [1, -6, 2]])),
    "cp": (LinIneq([(1, 1), (2, 1), (6, -1)], 1), LinIneq([(1, 1), (6, -1), (2, 1)], 1)),
    "poly": (
        parse_poly_file("p poly 7 1\n1 x1 x2 ~x6; -1\n")[1][0],
        parse_poly_file("p poly 7 1\n-1; 1 x1 ~x6 x2\n")[1][0],
    ),
}


@pytest.mark.parametrize("kind", sorted(EQUAL_VALUES))
def test_equal_values_print_alike(kind):
    first, second = EQUAL_VALUES[kind]
    assert first == second and repr(first) == repr(second)


def test_a_cnf_prints_its_clauses_as_text():
    cnf = Cnf([make_clause([-6, 2, 1]), make_clause([]), make_clause([1, -1])], 7)
    assert repr(cnf) == "Cnf(n=7, clauses=[x1|x2|-x6, (), T])"


# one case per number a file or mask spec holds: a non-ASCII digit or an
# underscore is not a number, and a header field is not negative; then one
# case per rational with a decimal exponent above MAX_EXPONENT
BIG = f"1e-{MAX_EXPONENT + 1}"
BAD_NUMBERS = {
    "header-digit": (parse_cnf, "p cnf ٣ 1\n1 0\n", "line 1: bad header field '٣'"),
    "header-negative": (parse_cnf, "p cnf -1 0\n", "line 1: header fields must be non-negative"),
    "kdnf-negative-k": (parse_kdnf_file, "p kdnf 2 -1 1\nx1\n", "line 1: header fields must be non-negative"),
    "cnf-literal-digit": (parse_cnf, "p cnf 3 1\n٣ 0\n", "line 2: bad literal '٣'"),
    "cnf-literal-underscore": (parse_cnf, "p cnf 10 1\n1_0 0\n", "line 2: bad literal '1_0'"),
    "cp-coefficient": (parse_cp_file, "p cp 1 1\nx1:1_0 >= 1\n", "line 2: bad coefficient '1_0'"),
    "cp-bound": (parse_cp_file, "p cp 1 1\nx1:1 >= ١\n", "line 2: bad bound '١'"),
    "dist-weight": (parse_dist, "p dist 1 1\n١ 1\n", "line 2: bad rational '١'"),
    "poly-coefficient": (parse_poly_file, "p poly 1 1\n١/٢ x1\n", "line 2: bad rational '١/٢'"),
    "iid-mask": (lambda spec: parse_mask_spec(spec, 2), "iid:١/٣", "bad hide probability '١/٣'"),
    "dist-exponent": (parse_dist, f"p dist 1 1\n{BIG} 1\n", f"line 2: bad rational {BIG!r}"),
    "poly-exponent": (parse_poly_file, f"p poly 1 1\n{BIG} x1\n", f"line 2: bad rational {BIG!r}"),
    "iid-exponent": (lambda spec: parse_mask_spec(spec, 2), f"iid:{BIG}", f"bad hide probability {BIG!r}"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_numbers_are_ascii_and_header_fields_non_negative(case):
    parse, text, error = BAD_NUMBERS[case]
    with pytest.raises(FormatError, match=f"^{re.escape(error)}$"):
        parse(text)


def test_ascii_numbers_keep_their_forms():
    assert parse_cnf("p cnf +2 1\n+1 -2 0\n").clauses == (make_clause([1, -2]),)
    assert parse_cp_file("p cp 1 1\nx1:+2 >= +1\n")[1] == [LinIneq([(1, 2)], 1)]
    assert parse_dist("p dist 1 2\n+1/2 0\n0.5 1\n").support[0][1] == Fraction(1, 2)
    assert parse_mask_spec("iid:1e-1", 1) == IndependentMask(Fraction(1, 10))


def test_a_decimal_exponent_is_capped():
    assert read_fraction(f"1e-{MAX_EXPONENT}") == Fraction(1, 10**MAX_EXPONENT)
    assert read_fraction(f" 25E+0{MAX_EXPONENT - 1} ") == 25 * 10 ** (MAX_EXPONENT - 1)
    assert read_fraction("1e-000000000000000000001") == Fraction(1, 10)
    assert (read_fraction("+1"), read_fraction("0.5")) == (1, Fraction(1, 2))
    for text in (f"1e{MAX_EXPONENT + 1}", f"2.5E-0{MAX_EXPONENT + 1}", "1e-1000000", "1e-3000000"):
        error = f"decimal exponent of {text!r} exceeds {MAX_EXPONENT}"
        with pytest.raises(ValueError, match=f"^{error}$"):
            read_fraction(text)


def test_a_rational_has_at_most_the_digits_str_prints():
    # numerator and denominator stay below 10**(MAX_EXPONENT + 1), so str()
    # prints every rational read; a longer mantissa adds digits to an
    # exponent within the cap
    longest = read_fraction(f"-99e{MAX_EXPONENT - 1}")
    assert longest == -99 * 10 ** (MAX_EXPONENT - 1) and len(str(longest)) == MAX_EXPONENT + 2
    assert str(read_fraction(f"3e-{MAX_EXPONENT}")) == "3/1" + "0" * MAX_EXPONENT
    for text in (f"10e{MAX_EXPONENT}", f"0.1e-{MAX_EXPONENT}", f"-12.5e{MAX_EXPONENT}"):
        error = f"{text!r} has more than {MAX_EXPONENT + 1} digits"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            read_fraction(text)
