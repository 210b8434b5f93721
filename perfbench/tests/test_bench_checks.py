"""The output check catches a changed report."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import Invocation  # noqa: E402

REPORT = "\n".join([
    "system=res-space", "epsilon=1/2", "gamma=1/4", "delta=1/4", "m=4", "budget=2",
    "failed=1",
    "example=0 verdict=accept", "example=1 verdict=reject",
    "example=2 verdict=accept", "example=3 verdict=accept",
    "verdict=Accept",
]) + "\n"
DECIDE = Invocation("decide:res-space", "res-space", ("decide",), 4)


def test_consistent_report_passes():
    assert checks.check_decide_report(REPORT, 0, 4) == []


def test_flipped_example_line_is_caught():
    flipped = REPORT.replace("example=2 verdict=accept", "example=2 verdict=reject")
    assert checks.check_decide_report(flipped, 0, 4)


def test_flip_with_matching_counts_is_caught_by_the_digest(tmp_path):
    flipped = (REPORT.replace("example=2 verdict=accept", "example=2 verdict=reject")
               .replace("failed=1", "failed=2"))
    assert checks.check_decide_report(flipped, 0, 4) == []
    expected = {DECIDE.label: checks.digest(REPORT)}
    result = {"rc": 0, "report": flipped}
    assert run.check(DECIDE, result, tmp_path, {}, expected) == [
        "output differs from the recorded expected output"]
    assert run.check(DECIDE, {"rc": 0, "report": REPORT}, tmp_path, {}, expected) == []


def test_repetitions_must_agree(tmp_path):
    first = {}
    assert run.check(DECIDE, {"rc": 0, "report": REPORT}, tmp_path, first, {}) == []
    other = REPORT.replace("example=3 verdict=accept", "example=3 verdict=reject").replace(
        "failed=1", "failed=2")
    assert run.check(DECIDE, {"rc": 0, "report": other}, tmp_path, first, {}) == [
        "output differs from the first repetition"]


def test_wrong_exit_code_and_verdict_are_caught():
    assert checks.check_decide_report(REPORT, 1, 4)
    assert checks.check_decide_report(REPORT.replace("verdict=Accept", "verdict=Reject"), 1, 4)
    assert checks.check_decide_report(REPORT, 0, 5)
