"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

from pacreason.backends import CuttingPlanesBackend, SpaceResolutionBackend
from pacreason.cutting_planes import (
    LinIneq,
    check_trace as check_cp_trace,
    decide_cp,
    encode_clause_cp,
)
from pacreason.decide_pac import (
    ACCEPT,
    REJECT,
    PacParams,
    decide_pac_from_distribution,
    required_sample_size,
)
from pacreason.formulas import (
    Const,
    PartialAssignment,
    TRUE,
    Var,
    WitnessStatus,
    conjunction,
    evaluate,
    refine,
    restrict,
    witness_status,
)
from pacreason.oracle import entails, sat_solve
from pacreason.polycalc import PC, PCR, encode_clause_pcr
from pacreason.res_k import (
    BOTTOM,
    KDnf,
    decide_resk_width,
    restrict_kdnf,
)
from pacreason.resolution import (
    Cnf,
    check_proof,
    clause_space,
    encode_clause,
    make_clause,
    proof_tree,
    search_space,
)
from pacreason.sampling import (
    ExplicitDistribution,
    TableMask,
    tight_union_bound_distribution,
    validity,
)

from helpers import (
    completions,
    decide_one,
    decide_polynomials,
    example,
    holds_at,
    random_cnf,
    random_formula,
    pc_instance,
    random_partial,
    restrict_kb,
)
from pc_span_oracle import span_closure_decides
from test_polycalc import random_polynomial
from test_cutting_planes import random_ineq

BOT = frozenset()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def report(number, ok, description):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


_corpus_cache = {}


def resolution_corpus():
    """220 random CNFs with their space-(n+2) refutation searches, built once."""
    if "corpus" not in _corpus_cache:
        rng = random.Random(1001)
        corpus = []
        for _ in range(220):
            n = rng.randint(1, 4)
            phi = random_cnf(rng, n, max_clauses=8)
            found = search_space(phi.masks, n + 2, encode_clause(BOT))
            corpus.append((phi, n + 2, proof_tree(found)))
        _corpus_cache["corpus"] = corpus
    return _corpus_cache["corpus"]


def test_criterion_1_resolution_matches_sat_oracle():
    started = time.perf_counter()
    corpus = resolution_corpus()
    ok = True
    for phi, s, proof in corpus:
        unsat = sat_solve(phi) is None
        if (proof is not None) != unsat:
            ok = False
            break
        if proof is not None and not (
            check_proof(proof, phi, BOT) and clause_space(proof) <= s
        ):
            ok = False
            break
    elapsed = time.perf_counter() - started
    report(
        1,
        ok and elapsed < 60,
        f"search_space vs sat oracle on {len(corpus)} CNFs ({elapsed:.1f}s)",
    )


def test_criterion_2_restriction_closure():
    rng = random.Random(2002)
    checks = 0

    for phi, s, proof in resolution_corpus():
        if proof is None:
            continue
        for _ in range(20):
            rho = random_partial(rng, phi.n)
            assert search_space(restrict_kb(phi, rho).masks, s, encode_clause(BOT)) is not None
            checks += 1

    resk_accepted = 0
    while resk_accepted < 12:
        n = rng.randint(2, 3)
        hyps = [random_kdnf_local(rng, n) for _ in range(rng.randint(2, 4))]
        accepted, _ = decide_resk_width(hyps, BOTTOM, 2, 2)
        if not accepted:
            continue
        resk_accepted += 1
        for _ in range(20):
            rho = example(random_partial(rng, n))
            restricted = [
                r for r in (restrict_kdnf(h, rho) for h in hyps) if r != TRUE
            ]
            again, _ = decide_resk_width(restricted, BOTTOM, 2, 2)
            assert again
            checks += 1

    pc_accepted = 0
    while pc_accepted < 12:
        mode = PC if rng.random() < 0.6 else PCR
        n = rng.randint(1, 4)
        d = rng.randint(1, 3)
        hyps = [random_polynomial(rng, n, d, mode) for _ in range(rng.randint(1, 3))]
        q = random_polynomial(rng, n, d, mode)
        backend, query, rows = pc_instance(d, n, mode, q, hyps)
        if not backend.decide(query, rows):
            continue
        pc_accepted += 1
        for _ in range(20):
            # the backend's own restriction, at rho and at a refinement sigma
            rho = random_partial(rng, n)
            assert decide_one(backend, query, rows, example(rho))
            tau = {v: rng.randint(0, 1) for v in range(1, n + 1)
                   if rho[v - 1] is None and rng.random() < 0.5}
            assert decide_one(backend, query, rows, example(refine(rho, tau)))
            checks += 1

    cp_accepted = 0
    while cp_accepted < 12:
        n = rng.randint(1, 3)
        hyps = [random_ineq(rng, n) for _ in range(rng.randint(1, 3))]
        target = random_ineq(rng, n)
        w, L = 2, 4
        if target.sparsity > w or target.l1_norm > L:
            continue
        backend = CuttingPlanesBackend(w, L, n)
        if not backend.decide(target, hyps):
            continue
        cp_accepted += 1
        for _ in range(20):
            rho = example(random_partial(rng, n))
            assert decide_one(backend, target, hyps, rho)
            checks += 1

    report(2, True, f"same-budget acceptance preserved under {checks} restrictions")


def random_kdnf_local(rng, n):
    terms = []
    for _ in range(rng.randint(1, 2)):
        size = rng.randint(1, 2)
        vars_ = rng.sample(range(1, n + 1), min(size, n))
        terms.append(tuple(v if rng.random() < 0.5 else -v for v in vars_))
    return KDnf(terms)


def test_criterion_3_restriction_witnessing_semantics():
    rng = random.Random(3003)
    pairs = 0
    while pairs < 10_000:
        n = rng.randint(1, 12)
        phi = random_formula(rng, n, depth=3)
        rho = random_partial(rng, n)
        pairs += 1

        simplified = restrict(phi, rho)
        status = witness_status(phi, rho)
        values = set()
        for x in completions(rho):
            v = evaluate(phi, x)
            if evaluate(simplified, x) != v:
                report(3, False, f"restriction changed the value of {phi!r} under {rho}")
            values.add(v)
        if status is WitnessStatus.WITNESSED_TRUE and values != {True}:
            report(3, False, "witnessed-true formula had a falsifying completion")
        if status is WitnessStatus.WITNESSED_FALSE and values != {False}:
            report(3, False, "witnessed-false formula had a satisfying completion")
        if (status is WitnessStatus.WITNESSED_TRUE) != (simplified == Const(True)):
            report(3, False, "witnessing and restriction-to-true disagree")

        # staged evaluation: sigma then tau equals rho in one shot
        sigma_entries = []
        tau = {}
        for i, e in enumerate(rho, start=1):
            if e is not None and rng.random() < 0.5:
                sigma_entries.append(None)
                tau[i] = e
            else:
                sigma_entries.append(e)
        sigma = PartialAssignment(sigma_entries)
        if refine(sigma, tau) != rho:
            report(3, False, "refine did not reassemble the split assignment")
        tau_assignment = PartialAssignment(
            tau.get(i) if sigma[i - 1] is None else None
            for i in range(1, n + 1)
        )
        if restrict(phi, rho) != restrict(restrict(phi, sigma), tau_assignment):
            report(3, False, "staged restriction differs from one-shot restriction")
    report(3, True, f"{pairs} formula/assignment pairs verified exhaustively")


def test_criterion_4_union_bound_pair():
    rng = random.Random(4004)
    entailed_checks = 0
    while entailed_checks < 80:
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        psis = [random_formula(rng, n, depth=2) for _ in range(k)]
        phi = random_formula(rng, n, depth=2)
        if not entails(psis, phi, n):
            continue
        entailed_checks += 1
        points = sorted(
            {tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 4))}
        )
        weights = [rng.randint(1, 5) for _ in points]
        total = sum(weights)
        dist = ExplicitDistribution(
            n, [(x, Fraction(wt, total)) for x, wt in zip(points, weights)]
        )
        slack = sum((1 - validity(dist, psi) for psi in psis), Fraction(0))
        if validity(dist, phi) < 1 - slack:
            report(4, False, "union bound violated on an explicit distribution")

    tight_cases = [
        ([Var(1), Var(2)], [Fraction(1, 4), Fraction(1, 4)], 2),
        ([Var(1)], [Fraction(1, 3)], 1),
        ([Var(1), Var(2), Var(3)], [Fraction(1, 8), Fraction(1, 8), Fraction(1, 8)], 3),
    ]
    for psis, eps, n in tight_cases:
        dist = tight_union_bound_distribution(psis, eps, n)
        for psi, e in zip(psis, eps):
            if validity(dist, psi) != 1 - e:
                report(4, False, "tight construction missed per-formula validity")
        if validity(dist, conjunction(psis)) != 1 - sum(eps):
            report(4, False, "tight construction missed conjunction validity")
    report(
        4,
        True,
        f"union bound exact on {entailed_checks} entailed instances and "
        f"{len(tight_cases)} tight constructions",
    )


def test_criterion_5_decide_pac_statistics():
    started = time.perf_counter()
    eps, gamma, delta = Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)
    params = PacParams(eps, gamma, delta)
    m = 150
    runs = 100

    # promise case 2: witness rate of psi=(x1) is exactly 1-eps+gamma = 9/10,
    # and cutting x1 with the rule (not-x1 or x2) proves x2 in clause space 2
    kb = Cnf([make_clause([-1, 2])], 2).masks
    query = encode_clause(make_clause([2]))
    dist2 = ExplicitDistribution(
        2, [((1, 1), Fraction(9, 10)), ((0, 0), Fraction(1, 10))]
    )
    mask2 = TableMask({(1, 1): {2}, (0, 0): {2}})
    backend = SpaceResolutionBackend(s=2, n=2)
    wrong_accept_case = sum(
        decide_pac_from_distribution(
            backend, query, kb, params, dist2, mask2, seed=seed, m=m
        ).verdict
        != ACCEPT
        for seed in range(runs)
    )

    # promise case 1: [KB => query] is exactly 1-eps-gamma = 7/10 valid
    kb1 = Cnf([], 2).masks
    dist1 = ExplicitDistribution(
        2, [((1, 1), Fraction(7, 10)), ((1, 0), Fraction(3, 10))]
    )
    mask1 = TableMask({(1, 1): frozenset(), (1, 0): frozenset()})
    wrong_reject_case = sum(
        decide_pac_from_distribution(
            backend, query, kb1, params, dist1, mask1, seed=seed, m=m
        ).verdict
        != REJECT
        for seed in range(runs)
    )

    elapsed = time.perf_counter() - started
    ok = (
        wrong_accept_case <= runs * 0.10
        and wrong_reject_case <= runs * 0.10
        and elapsed < 300
    )
    report(
        5,
        ok,
        f"wrong verdicts {wrong_accept_case}/{runs} (case 2) and "
        f"{wrong_reject_case}/{runs} (case 1) at m={m} ({elapsed:.1f}s)",
    )


def test_criterion_6_pc_pcr():
    rng = random.Random(6006)
    oracle_checks = 0
    while oracle_checks < 110:
        mode = PC if rng.random() < 0.6 else PCR
        n = rng.randint(1, 5) if mode == PC else rng.randint(1, 3)
        d = rng.randint(1, 3)
        hyps = [random_polynomial(rng, n, d, mode) for _ in range(rng.randint(0, 3))]
        q = random_polynomial(rng, n, d, mode)
        if decide_polynomials(hyps, q, d, mode) != span_closure_decides(hyps, q, d, mode):
            report(6, False, "decide_pc disagreed with the span-closure oracle")
        oracle_checks += 1

    sound_checks = 0
    attempts = 0
    while sound_checks < 25 and attempts < 4000:
        attempts += 1
        mode = PC if rng.random() < 0.6 else PCR
        n = rng.randint(1, 6)
        d = rng.randint(1, 3)
        hyps = [random_polynomial(rng, n, d, mode) for _ in range(rng.randint(1, 3))]
        q = random_polynomial(rng, n, d, mode)
        if not decide_polynomials(hyps, q, d, mode):
            continue
        sound_checks += 1
        for x in product((0, 1), repeat=n):
            if all(h.evaluate(x) == 0 for h in hyps) and q.evaluate(x) != 0:
                report(6, False, "an accepted polynomial fails on the Boolean zero set")

    clause_checks = 0
    for width in range(1, 5):
        for vars_ in product(range(1, 5), repeat=width):
            if len(set(vars_)) != width:
                continue
            for signs in product((1, -1), repeat=width):
                clause = make_clause(s * v for s, v in zip(signs, vars_))
                encoded = encode_clause_pcr(clause)
                for x in product((0, 1), repeat=4):
                    satisfied = any(
                        (lit > 0) == bool(x[abs(lit) - 1]) for lit in clause
                    )
                    if (encoded.evaluate(x) == 0) != satisfied:
                        report(6, False, "pcr clause encoding broke on a point")
                clause_checks += 1
    report(
        6,
        True,
        f"{oracle_checks} oracle matches, {sound_checks} exhaustive zero-set "
        f"checks, {clause_checks} clause encodings",
    )


def test_criterion_7_cutting_planes():
    accepted, trace = decide_cp(
        [LinIneq({1: 1}, 1), LinIneq({1: -1}, 0)], LinIneq({}, 1), w=1, L=2
    )
    if not (accepted and check_cp_trace(
        trace, [LinIneq({1: 1}, 1), LinIneq({1: -1}, 0)], LinIneq({}, 1), w=1, L=2
    )):
        report(7, False, "contradiction instance not accepted with a valid trace")

    for length in range(2, 5):
        hyps = [encode_clause_cp(make_clause([1]))]
        hyps += [
            encode_clause_cp(make_clause([-i, i + 1])) for i in range(1, length)
        ]
        target = encode_clause_cp(make_clause([length]))
        accepted, trace = decide_cp(hyps, target, w=1, L=2)
        if not accepted or not check_cp_trace(trace, hyps, target, w=1, L=2):
            report(7, False, f"unit chain of length {length} failed")

    rng = random.Random(7007)
    sound_checks = 0
    while sound_checks < 25:
        n = rng.randint(1, 4)
        hyps = [random_ineq(rng, n) for _ in range(rng.randint(0, 3))]
        target = random_ineq(rng, n)
        w, L = 2, 4
        if target.sparsity > w or target.l1_norm > L:
            continue
        accepted, trace = decide_cp(hyps, target, w, L)
        if not accepted:
            continue
        sound_checks += 1
        if not check_cp_trace(trace, hyps, target, w, L):
            report(7, False, "accepted trace failed replay or budget checks")
        satisfying = [
            x for x in product((0, 1), repeat=n) if all(holds_at(h, x) for h in hyps)
        ]
        for step in trace:
            if step.rule == "HypothesisStep":
                continue
            for x in satisfying:
                if not holds_at(step.formula, x):
                    report(7, False, "a derived inequality fails a satisfying point")
    report(7, True, f"chain encodings plus {sound_checks} sound accepted traces")


def test_criterion_8_sample_size_formula():
    ok = (
        required_sample_size(Fraction(1, 10), Fraction(1, 100)) == 231
        and required_sample_size(Fraction(1, 2), 1 / 2.718281828459045) == 2
        and required_sample_size(Fraction(1, 10), Fraction(1, 2)) == 35
    )
    report(8, ok, "the three worked sample sizes match exactly")


def test_criterion_9_determinism(tmp_path):
    kb = tmp_path / "kb.cnf"
    kb.write_text("p cnf 2 1\n-1 2 0\n")
    query = tmp_path / "query.cnf"
    query.write_text("p cnf 2 1\n2 0\n")
    dist = tmp_path / "obs.dist"
    dist.write_text("p dist 2 2\n9/10 11\n1/10 00\n")
    argv = [
        sys.executable, "-m", "pacreason", "decide",
        "--system", "res-space",
        "--epsilon", "1/5", "--gamma", "1/10", "--delta", "1/20",
        "--s", "2",
        "--kb", str(kb), "--query", str(query),
        "--dist", str(dist), "--mask", "iid:1/3", "--seed", "424242",
        "--m", "60", "--per-example",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    def run():
        return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=str(tmp_path))

    first = run()
    second = run()
    ok = (
        first.stdout == second.stdout
        and first.returncode == second.returncode
        and bool(first.stdout)
    )
    report(9, ok, "byte-identical reports across runs")
