"""Command-line front end.

Subcommands:

    decide   run the masked-example reduction with a proof-search backend
    prove    one backend call on explicit inputs (no sampling)
    sample   draw masked examples from an explicit distribution
    oracle   brute-force sat / entailment / validity checks
    encode   translate CNF clauses into polynomial or inequality form

Exit codes: 0 Accept, 1 Reject, 2 input or usage error.  The report printed
on stdout is a pure function of the configuration and seed; wall-clock timing
goes to stderr so reports stay byte-identical across runs.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from . import formats
from .backends import SYSTEMS
from .cutting_planes import encode_clause_cp
from .decide_pac import PacParams, decide_pac, required_sample_size
from .errors import FormatError, InputError, RuleError
from .oracle import entails, sat_solve
from .polycalc import encode_clause_pcr
from .resolution import clause_to_formula
from .sampling import draw_masked_examples, validity


def _fraction_arg(text):
    try:
        return formats.read_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from None


def _int_arg(text):
    try:
        return formats.read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from None


def _load_instance(args):
    """Returns (backend, query, hyps) for the system named in the arguments,
    whose backend class takes exactly the budget flags given."""
    backend_class = SYSTEMS[args.system]
    given = {"s": args.s, "k": args.k, "w": args.w, "d": args.d, "L": args.L}
    for name, value in given.items():
        if value is not None and name not in backend_class.budgets:
            raise InputError(f"parameter --{name} does not apply to system {args.system}")
    missing = [name for name in backend_class.budgets if given[name] is None]
    if missing:
        raise InputError(
            f"system {args.system} needs parameter(s): {', '.join('--' + p for p in missing)}"
        )
    kb_text, query_text = formats.read_text(args.kb), formats.read_text(args.query)
    budgets = {name: given[name] for name in backend_class.budgets}
    return backend_class.load(args.system, kb_text, query_text, **budgets)


def _load_examples(args, n: int, params: PacParams):
    if args.samples is not None:
        drawn = [name for name in ("dist", "mask", "seed") if getattr(args, name) is not None]
        if drawn:
            raise InputError(f"--samples excludes {', '.join('--' + name for name in drawn)}")
        sample_n, examples = formats.parse_pasgns(formats.read_text(args.samples))
        if sample_n != n:
            raise InputError(f"samples n={sample_n} does not match instance n={n}")
        if args.m not in (None, len(examples)):
            raise InputError(
                f"--m {args.m} does not match the {len(examples)} examples in --samples"
            )
        return examples
    if args.dist is None or args.mask is None or args.seed is None:
        raise InputError("need either --samples or all of --dist, --mask and --seed")
    dist = formats.parse_dist(formats.read_text(args.dist))
    if dist.n != n:
        raise InputError(f"distribution n={dist.n} does not match instance n={n}")
    mask = formats.parse_mask_spec(
        args.mask, n, base_dir=os.path.dirname(args.dist) or "."
    )
    m = args.m
    if m is None:
        m = required_sample_size(params.gamma, params.delta)
    return draw_masked_examples(dist, mask, m, args.seed)


def run_scenario(args):
    """Execute the reduction for parsed `decide` arguments; returns
    (outcome, report text).  The PAC parameters and the budgets are checked
    before any example is read or drawn."""
    params = PacParams(args.epsilon, args.gamma, args.delta)
    backend, query, hyps = _load_instance(args)
    examples = _load_examples(args, backend.n, params)
    # the inputs live through the run, and a PartialAssignment (a tuple
    # subclass) stays tracked: frozen, the collector skips every example
    gc.freeze()
    try:
        outcome = decide_pac(backend, query, hyps, params, examples)
    finally:
        gc.unfreeze()
    lines = [
        f"system={args.system}",
        f"epsilon={args.epsilon}",
        f"gamma={args.gamma}",
        f"delta={args.delta}",
        f"m={outcome.sample_count}",
        f"budget={outcome.budget}",
        f"failed={outcome.failed_count}",
    ]
    if args.per_example:
        lines.extend(
            f"example={i} verdict={'accept' if ok else 'reject'}"
            for i, ok in enumerate(outcome.per_example)
        )
    lines.append(f"verdict={outcome.verdict}")
    return outcome, "\n".join(lines) + "\n"


def _cmd_decide(args) -> int:
    started = time.perf_counter()
    outcome, report = run_scenario(args)
    elapsed = time.perf_counter() - started
    sys.stdout.write(report)
    sys.stderr.write(f"wall_time_s={elapsed:.3f}\n")
    return 0 if outcome.accepted else 1


def _cmd_prove(args) -> int:
    backend, query, hyps = _load_instance(args)
    proof = backend.decide(query, hyps)
    if proof:
        lines = backend.replay(proof, query, hyps)
        if args.show_proof:
            sys.stdout.writelines(line + "\n" for line in lines)
    sys.stdout.write(f"verdict={'Accept' if proof else 'Reject'}\n")
    return 0 if proof else 1


def _write_output(text, path) -> int:
    """Writes `text` to the file at `path`, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sample(args) -> int:
    dist = formats.parse_dist(formats.read_text(args.dist))
    mask = formats.parse_mask_spec(
        args.mask, dist.n, base_dir=os.path.dirname(args.dist) or "."
    )
    examples = draw_masked_examples(dist, mask, args.m, args.seed)
    text = formats.serialize_pasgns(dist.n, examples)
    return _write_output(text, args.out)


def _cmd_oracle(args) -> int:
    if args.action == "sat":
        cnf = formats.parse_cnf(formats.read_text(args.cnf))
        model = sat_solve(cnf)
        if model is None:
            sys.stdout.write("unsat\n")
            return 1
        sys.stdout.write("sat " + "".join(str(b) for b in model) + "\n")
        return 0
    if args.action == "entails":
        kb = formats.parse_cnf(formats.read_text(args.kb))
        query = formats.parse_cnf(formats.read_text(args.query))
        if query.n != kb.n:
            raise InputError(f"query n={query.n} does not match kb n={kb.n}")
        hyps = [clause_to_formula(c) for c in kb.clauses]
        result = entails(hyps, query.to_formula(), kb.n)
        sys.stdout.write("entails\n" if result else "does-not-entail\n")
        return 0 if result else 1
    if args.action == "validity":
        dist = formats.parse_dist(formats.read_text(args.dist))
        query = formats.parse_cnf(formats.read_text(args.query))
        if query.n != dist.n:
            raise InputError(f"query n={query.n} does not match dist n={dist.n}")
        value = validity(dist, query.to_formula())
        sys.stdout.write(f"validity={value}\n")
        return 0
    raise InputError(f"unknown oracle action {args.action!r}")


def _cmd_encode(args) -> int:
    cnf = formats.parse_cnf(formats.read_text(args.cnf))
    if args.target == "pcr":
        text = formats.serialize_poly_file(
            cnf.n, [encode_clause_pcr(c) for c in cnf.clauses]
        )
    else:
        text = formats.serialize_cp_file(
            cnf.n, [encode_clause_cp(c) for c in cnf.clauses]
        )
    return _write_output(text, args.out)


def _add_backend_params(parser):
    parser.add_argument("--s", type=_int_arg, help="clause space bound (res-space)")
    parser.add_argument("--k", type=_int_arg, help="conjunction size bound (res-k-width)")
    parser.add_argument("--w", type=_int_arg, help="width (res-k-width) or sparsity (cp)")
    parser.add_argument("--d", type=_int_arg, help="degree bound (pc/pcr)")
    parser.add_argument("--L", type=_int_arg, help="l1-norm bound (cp)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacreason",
        description="Decide (1-eps)-validity of propositional queries from "
        "knowledge bases plus partially masked examples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="run the masked-example reduction")
    decide.add_argument("--system", choices=SYSTEMS, required=True)
    decide.add_argument("--epsilon", type=_fraction_arg, required=True)
    decide.add_argument("--gamma", type=_fraction_arg, required=True)
    decide.add_argument("--delta", type=_fraction_arg, required=True)
    _add_backend_params(decide)
    decide.add_argument("--kb", required=True, help="knowledge base file")
    decide.add_argument("--query", required=True, help="query file")
    decide.add_argument("--samples", help="pasgn file of masked examples")
    decide.add_argument("--dist", help="dist file to sample from")
    decide.add_argument("--mask", help="mask spec: fixed:BITS, iid:P or table:PATH")
    decide.add_argument("--seed", type=_int_arg, help="64-bit stream seed")
    decide.add_argument("--m", type=_int_arg, help="example count (default: Hoeffding size)")
    decide.add_argument("--per-example", action="store_true", dest="per_example")
    decide.set_defaults(func=_cmd_decide)

    prove = sub.add_parser("prove", help="single backend call on explicit inputs")
    prove.add_argument("--system", choices=SYSTEMS, required=True)
    _add_backend_params(prove)
    prove.add_argument("--kb", required=True)
    prove.add_argument("--query", required=True)
    prove.add_argument("--show-proof", action="store_true", dest="show_proof")
    prove.set_defaults(func=_cmd_prove)

    sample = sub.add_parser("sample", help="emit masked examples")
    sample.add_argument("--dist", required=True)
    sample.add_argument("--mask", required=True)
    sample.add_argument("--seed", type=_int_arg, required=True)
    sample.add_argument("--m", type=_int_arg, required=True)
    sample.add_argument("--out")
    sample.set_defaults(func=_cmd_sample)

    oracle = sub.add_parser("oracle", help="brute-force ground truth")
    oracle_sub = oracle.add_subparsers(dest="action", required=True)
    sat = oracle_sub.add_parser("sat")
    sat.add_argument("--cnf", required=True)
    ent = oracle_sub.add_parser("entails")
    ent.add_argument("--kb", required=True)
    ent.add_argument("--query", required=True)
    val = oracle_sub.add_parser("validity")
    val.add_argument("--dist", required=True)
    val.add_argument("--query", required=True)
    oracle.set_defaults(func=_cmd_oracle)

    encode = sub.add_parser("encode", help="clause encodings")
    encode.add_argument("target", choices=("pcr", "cp"))
    encode.add_argument("--cnf", required=True)
    encode.add_argument("--out")
    encode.set_defaults(func=_cmd_encode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputError, FormatError, RuleError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
