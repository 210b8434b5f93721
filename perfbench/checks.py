"""Output checks for benchmark invocations.

A `decide --per-example` report must be internally consistent: m example
lines numbered 0..m-1, `failed` equal to the number of rejecting lines,
`budget` equal to floor(epsilon * m), the verdict and the exit code agreeing
with failed > budget.  Across repetitions every report of one invocation must
be byte-identical, and at the default seed it must match the digest recorded
in expected.json from the plain per-example loop.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(workload: str) -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def check_decide_report(report: str, rc, m: int) -> list:
    """Problems found in one decide report; empty when it is consistent."""
    lines = report.splitlines()
    fields = {}
    verdicts = []
    for line in lines:
        if line.startswith("example="):
            index, _, verdict = line.partition(" ")
            verdicts.append((index[len("example="):], verdict))
        elif "=" in line:
            key, _, value = line.partition("=")
            fields[key] = value
    problems = []
    required = ("epsilon", "m", "budget", "failed", "verdict")
    if any(key not in fields for key in required):
        return [f"report lacks one of {required}"]
    if int(fields["m"]) != m:
        problems.append(f"m={fields['m']}, expected {m}")
    if [i for i, _ in verdicts] != [str(i) for i in range(m)]:
        problems.append("example lines are not numbered 0..m-1")
    rejects = sum(1 for _, v in verdicts if v == "verdict=reject")
    if rejects + sum(1 for _, v in verdicts if v == "verdict=accept") != len(verdicts):
        problems.append("example verdicts other than accept/reject")
    if int(fields["failed"]) != rejects:
        problems.append(f"failed={fields['failed']} but {rejects} example lines reject")
    product = Fraction(fields["epsilon"]) * m
    if int(fields["budget"]) != product.numerator // product.denominator:
        problems.append(f"budget={fields['budget']} is not floor(epsilon*m)")
    verdict = "Reject" if int(fields["failed"]) > int(fields["budget"]) else "Accept"
    if fields["verdict"] != verdict:
        problems.append(f"verdict={fields['verdict']}, expected {verdict}")
    if rc != (0 if verdict == "Accept" else 1):
        problems.append(f"exit code {rc} does not match verdict {verdict}")
    return problems
