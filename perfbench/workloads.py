"""Seeded input generators for the benchmark workloads.

`generate(name, seed, work_dir)` writes every input file of one workload into
`work_dir` through the public `pacreason.formats` serializers and returns the
plan: the `pacreason` command lines to run, in order, with the paths relative
to `work_dir`.  The same (name, seed) always writes byte-identical files.

All systems of a workload decide the same query over the same clause set,
encoded per system:

    res-space    the clauses as a cnf file
    res-k-width  single-literal-term k-DNFs; the cnf query is negated by the CLI
    pc           prod_{neg} x * prod_{pos} (1 - x) = 0 (no dual indeterminates)
    pcr          encode_clause_pcr
    cp           encode_clause_cp

Budgets are checked here so that no run hits a seed-dependent InputError:
--d covers the unrestricted KB's degree, and the query fits --k, --w and --L.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from pacreason import formats
from pacreason.cutting_planes import encode_clause_cp
from pacreason.polycalc import Indet, Polynomial, encode_clause_pcr
from pacreason.res_k import KDnf
from pacreason.resolution import Cnf, make_clause
from pacreason.sampling import ExplicitDistribution

DEFAULT_SEED = 1
SYSTEMS = ("res-space", "res-k-width", "pc", "pcr", "cp")


@dataclass(frozen=True)
class Invocation:
    """One `pacreason` run: `label` names it in reports, `system` is the
    decide system (None for `sample`), `examples` the m it processes."""

    label: str
    system: str | None
    argv: tuple
    examples: int


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple


def dual_free_pc(clause) -> Polynomial:
    """The clause as prod_{neg} x * prod_{pos} (1 - x) = 0, multilinear and
    without dual indeterminates, so plain PC can use it."""
    terms = [(frozenset(), Fraction(1))]
    for lit in sorted(clause, key=abs):
        x = Indet(abs(lit))
        if lit < 0:
            terms = [(m | {x}, c) for m, c in terms]
        else:
            terms = [t for m, c in terms for t in ((m, c), (m | {x}, -c))]
    return Polynomial(terms)


def _satisfies(point, clause) -> bool:
    return any((point[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)


def _random_clause(rng, n, width=3):
    variables = rng.sample(range(1, n + 1), width)
    return make_clause(v if rng.getrandbits(1) else -v for v in variables)


def _write(work: Path, name: str, text: str) -> str:
    (work / name).write_text(text, encoding="utf-8")
    return name


def _write_kb(work: Path, system: str, n: int, clauses, query, params: dict):
    """Writes the system's KB and query files; returns (kb, query) names."""
    if system == "res-space":
        kb_name, kb_text = "kb.cnf", formats.serialize_cnf(Cnf(clauses, n))
        query_name, query_text = "query.cnf", formats.serialize_cnf(Cnf([query], n))
    elif system == "res-k-width":
        if len(query) > params["k"]:
            raise ValueError("query clause does not negate into a k-DNF")
        kb_name = "kb.kdnf"
        kb_text = formats.serialize_kdnf_file(n, 1, [KDnf([[lit] for lit in c]) for c in clauses])
        query_name, query_text = "query.cnf", formats.serialize_cnf(Cnf([query], n))
    elif system in ("pc", "pcr"):
        encode = dual_free_pc if system == "pc" else encode_clause_pcr
        polys = [encode(c) for c in clauses]
        q = encode(query)
        if max(p.degree for p in polys + [q]) > params["d"]:
            raise ValueError(f"--d {params['d']} is below the KB degree")
        kb_name, kb_text = f"kb.{system}.poly", formats.serialize_poly_file(n, polys)
        query_name, query_text = f"query.{system}.poly", formats.serialize_poly_file(n, [q])
    else:
        q = encode_clause_cp(query)
        if q.sparsity > params["w"] or q.l1_norm > params["L"]:
            raise ValueError("cp query exceeds --w or --L")
        kb_name = "kb.cp"
        kb_text = formats.serialize_cp_file(n, [encode_clause_cp(c) for c in clauses])
        query_name, query_text = "query.cp", formats.serialize_cp_file(n, [q])
    return _write(work, kb_name, kb_text), _write(work, query_name, query_text)


def _decide(work, system, n, clauses, query, params, pac, source_args, m):
    kb, q = _write_kb(work, system, n, clauses, query, params)
    argv = ["decide", "--system", system,
            "--epsilon", pac[0], "--gamma", pac[1], "--delta", pac[2]]
    for key in sorted(params):
        argv += [f"--{key}", str(params[key])]
    argv += ["--kb", kb, "--query", q, *source_args, "--m", str(m), "--per-example"]
    return Invocation(f"decide:{system}", system, tuple(argv), m)


def _stream_seed(rng) -> str:
    return str(rng.getrandbits(64))


# ------------------------------------------------------------------ iid-probe
#
# n=10, 14 random 3-clauses, up to 40 support points that satisfy the KB,
# iid:1/3, eps=1/5, gamma=delta=1/20 and query x1 | x2.  Search is nearly all
# of the run and most restricted instances are distinct.  Each system decides
# its own prefix of the one seeded stream, with m and budgets sized so that it
# runs for one to ten seconds; per-example costs are heavy-tailed, and a run
# must average over many examples to be steady.  pcr is left out: --d must be
# at least 3 here, and one example can then take 20 s.  The KB and support are
# fixed, because search time differs up to fivefold between random KBs; the
# seed draws the example stream.

IID_PROBE_SYSTEMS = {
    "res-space": ({"s": 4}, 5000),
    "res-k-width": ({"k": 2, "w": 1}, 3000),
    "pc": ({"d": 3}, 1200),
    "cp": ({"w": 2, "L": 3}, 120),
}


def _iid_probe(work: Path, rng) -> Workload:
    n = 10
    kb_rng = random.Random("iid-probe:kb")
    clauses = [_random_clause(kb_rng, n) for _ in range(14)]
    points = set()
    for _ in range(4000):
        if len(points) == 40:
            break
        x = tuple(kb_rng.getrandbits(1) for _ in range(n))
        if all(_satisfies(x, c) for c in clauses):
            points.add(x)
    dist = ExplicitDistribution.uniform(sorted(points))
    dist_file = _write(work, "probe.dist", formats.serialize_dist(dist))
    source = ["--dist", dist_file, "--mask", "iid:1/3", "--seed", _stream_seed(rng)]
    query = make_clause([1, 2])
    pac = ("1/5", "1/20", "1/20")
    return Workload("iid-probe", tuple(
        _decide(work, system, n, clauses, query, params, pac, source, m)
        for system, (params, m) in IID_PROBE_SYSTEMS.items()
    ))


# ---------------------------------------------------------------- table-birds
#
# "Birds fly", in the paper's style: 2-clause implications over eight roles,
# eleven support points and a table mask that hides FLIES, plus up to two
# other roles, per point.  Gamma is small and m runs into the thousands: every
# system decides at least 1000 examples, so the (at most eleven) distinct
# restricted instances are at most 1% of its backend calls.  The points that
# neither are birds nor fly carry exactly eps of the mass and are the ones
# rejected, so failed sits near the budget and both verdicts occur across
# seeds.  The scenario is fixed; the seed draws the example stream.

BIRD, FLIES, WINGS, FEATHERS, EGGS, PENGUIN, SWIMS, NEST = range(1, 9)
BIRD_RULES = (
    (-BIRD, WINGS), (-BIRD, FEATHERS), (-BIRD, EGGS), (-WINGS, FLIES),
    (-PENGUIN, BIRD), (-PENGUIN, SWIMS), (-PENGUIN, -FLIES), (-NEST, EGGS),
)
# (weight, true roles, hidden roles)
BIRD_POINTS = (
    ("3/20", {BIRD, FLIES, WINGS, FEATHERS, EGGS}, {FLIES, WINGS}),
    ("3/20", {BIRD, FLIES, WINGS, FEATHERS, EGGS, SWIMS}, {FLIES}),
    ("3/20", {BIRD, FLIES, WINGS, FEATHERS, EGGS, NEST}, {FLIES, FEATHERS}),
    ("3/20", {BIRD, FLIES, WINGS, FEATHERS, EGGS, SWIMS, NEST}, {FLIES, WINGS, EGGS}),
    ("1/20", {BIRD, WINGS, FEATHERS, EGGS, PENGUIN, SWIMS}, {FLIES, PENGUIN}),
    ("1/20", {BIRD, WINGS, FEATHERS, EGGS, PENGUIN, SWIMS, NEST}, {FLIES, SWIMS}),
    ("1/10", {FLIES, WINGS}, {FLIES}),
    ("1/20", set(), {FLIES}),
    ("1/20", {EGGS}, {FLIES, WINGS}),
    ("1/20", {SWIMS}, {FLIES, BIRD}),
    ("1/20", {EGGS, SWIMS}, {FLIES, EGGS}),
)
BIRD_SYSTEMS = {
    "res-space": ({"s": 3}, 40000),
    "res-k-width": ({"k": 2, "w": 2}, 1000),
    "pc": ({"d": 2}, 2000),
    "pcr": ({"d": 2}, 1000),
    "cp": ({"w": 2, "L": 3}, 1000),
}
BIRD_PAC = ("1/5", "1/50", "1/20")


def _table_birds(work: Path, rng) -> Workload:
    n = 8

    def bits(roles):
        return "".join("1" if v in roles else "0" for v in range(1, n + 1))

    clauses = [make_clause(rule) for rule in BIRD_RULES]
    table = [f"{bits(on)} {bits(hidden)}" for _, on, hidden in BIRD_POINTS]
    # formats has no masktable serializer; parsing the text back validates it
    text = "\n".join([f"p masktable {n} {len(table)}", *table]) + "\n"
    formats.parse_mask_table(text)
    _write(work, "birds.masktable", text)
    dist = ExplicitDistribution(n, [(tuple(int(b) for b in bits(on)), Fraction(w))
                                    for w, on, _ in BIRD_POINTS])
    dist_file = _write(work, "birds.dist", formats.serialize_dist(dist))
    source = ["--dist", dist_file, "--mask", "table:birds.masktable",
              "--seed", _stream_seed(rng)]
    return Workload("table-birds", tuple(
        _decide(work, system, n, clauses, make_clause([FLIES]), params, BIRD_PAC, source, m)
        for system, (params, m) in BIRD_SYSTEMS.items()
    ))


# --------------------------------------------------------------- wide-samples
#
# n=60, 32 random support points and a planted KB of 150 3-clauses that every
# support point satisfies, iid:1/10.  `pacreason sample` writes the examples to
# a pasgn file and `decide --samples` reads them back with res-space at a small
# space bound, so sampling, parsing and restriction are a large share of the
# run.  The other engines cost 0.3-6 s per example at n=60 and are left out.
# The KB and support are fixed, as in iid-probe; the seed draws the stream.

WIDE_M = 15000


def _wide_samples(work: Path, rng) -> Workload:
    n = 60
    kb_rng = random.Random("wide-samples:kb")
    points = sorted({tuple(kb_rng.getrandbits(1) for _ in range(n)) for _ in range(32)})
    clauses = []
    while len(clauses) < 150:
        c = _random_clause(kb_rng, n)
        if c not in clauses and all(_satisfies(x, c) for x in points):
            clauses.append(c)
    dist_file = _write(work, "wide.dist",
                       formats.serialize_dist(ExplicitDistribution.uniform(points)))
    sample = Invocation("sample", None, (
        "sample", "--dist", dist_file, "--mask", "iid:1/10",
        "--seed", _stream_seed(rng), "--m", str(WIDE_M), "--out", "wide.pasgn",
    ), WIDE_M)
    decide = _decide(work, "res-space", n, clauses, make_clause([1, 2]), {"s": 2},
                     ("1/5", "1/50", "1/20"), ["--samples", "wide.pasgn"], WIDE_M)
    return Workload("wide-samples", (sample, decide))


GENERATORS = {
    "iid-probe": _iid_probe,
    "table-birds": _table_birds,
    "wide-samples": _wide_samples,
}


def generate(name: str, seed: int, work_dir) -> Workload:
    """Writes the inputs of workload `name` for `seed` into `work_dir`."""
    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](work, random.Random(f"{name}:{seed}"))
