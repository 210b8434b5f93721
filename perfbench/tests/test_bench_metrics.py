"""End-to-end metric arithmetic on hand-built invocation records."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from workloads import Invocation, Workload  # noqa: E402

PLAN = Workload("toy", (
    Invocation("sample", None, (), 100),
    Invocation("decide:pc", "pc", (), 100),
))


def _record(label, system, run_s, calibration_s, traced=False):
    return {"round": 0, "label": label, "system": system, "traced": traced, "problems": [],
            "result": {"run_s": run_s, "setup_s": 0.1, "calibration_s": calibration_s,
                       "maxrss_kb": 2048}}


ROUNDS = [
    _record("sample", None, 1.0, run.CALIBRATION_REF_S),
    _record("decide:pc", "pc", 2.0, run.CALIBRATION_REF_S),
    _record("decide:pc", "pc", 4.0, 2 * run.CALIBRATION_REF_S),  # host at half speed
    _record("decide:pc", "pc", 9.0, run.CALIBRATION_REF_S, traced=True),
]


def test_times_are_scaled_to_the_reference_speed_and_averaged():
    metrics = run.end_to_end(PLAN, ROUNDS)
    assert metrics["decide_s.pc"] == pytest.approx(2.0)
    assert metrics["sample_s"] == pytest.approx(1.0)
    assert metrics["examples_per_s"] == pytest.approx(200 / 4.0)
    assert metrics["setup_s"] == pytest.approx(0.1)  # median of 0.1, 0.1, 0.05
    assert metrics["peak_rss_mb"] == 2
    assert metrics["failed_share"] == 0


def test_unscaled_times_ignore_the_calibration():
    metrics = run.end_to_end(PLAN, ROUNDS, normalize=False)
    assert metrics["decide_s.pc"] == pytest.approx(3.0)
    assert metrics["examples_per_s"] == pytest.approx(200 / 6.0)


def test_benchmark_json_units_match_the_printed_ones():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(entry["name"]) == entry["unit"], entry["name"]
    assert run.unit_of("backends.decide_s.cp") == "s"
