"""Benchmark of the `pacreason` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (workloads.py), then runs its
`pacreason` invocations as a closed loop with one client: each invocation in a
fresh child interpreter (child.py), one at a time, rounds repeated until S
seconds have passed.  Every report is checked (checks.py).  Invocation times
are means over the rounds, setup_s is the median over the children, and both
are scaled to a reference host speed (see end_to_end).  With
--trace 1 each invocation also runs traced, right after its untraced run, and
the per-layer metrics come from the traced spans (tracing.py).

Prints a table of every metric, then, as the last line, one JSON object with
`correct`, `attempted`, `failed` and the metrics that BENCHMARK.json lists
for the mode.  Exits 1 when a check fails and 2 when the program source or
BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
# calibration loop time (child.calibrate) that end-to-end times are scaled to;
# about what the loop takes on an unloaded 2-CPU cloud container
CALIBRATION_REF_S = 0.03

sys.path.insert(0, str(SRC))  # the generator serializes with this checkout's pacreason
import checks  # noqa: E402
import tracing  # noqa: E402


def run_child(invocation, work: Path, trace: bool, tag: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "child.py"), "1" if trace else "0", tag,
           json.dumps(list(invocation.argv))]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        result["error"] = f"imported pacreason from {result['module']}, not {SRC}"
    elif result["crash"]:
        result["error"] = result["crash"]
    return result


def check(invocation, result: dict, work: Path, first: dict, expected: dict) -> list:
    """Problems with one invocation's outcome."""
    if "error" in result:
        return [result["error"]]
    if invocation.system is None:  # sample: the written file is the output
        if result["rc"] != 0:
            return [f"sample exited {result['rc']}: {result['stderr']}"]
        output = (work / invocation.argv[invocation.argv.index("--out") + 1]).read_text()
    else:
        output = result["report"]
        try:
            problems = checks.check_decide_report(output, result["rc"], invocation.examples)
        except ValueError as exc:
            problems = [f"unparsable report: {exc}"]
        if problems:
            return problems
    key = checks.digest(output)
    if first.setdefault(invocation.label, key) != key:
        return ["output differs from the first repetition"]
    if expected and expected.get(invocation.label) != key:
        return ["output differs from the recorded expected output"]
    return []


def run_rounds(plan, work: Path, seconds: float, trace: bool, expected: dict):
    """Runs the plan's invocations in order, round after round, until
    `seconds` have passed (at least one round).  Returns the per-invocation
    records and the output digest of each invocation label."""
    rounds, first = [], {}
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        for inv in plan.invocations:
            for traced in (False, True) if trace else (False,):
                result = run_child(inv, work, traced, f"{index}:{inv.label}:{int(traced)}")
                rounds.append({"round": index, "label": inv.label, "system": inv.system,
                               "traced": traced, "result": result,
                               "problems": check(inv, result, work, first, expected)})
        index += 1
    return rounds, first


# every end-to-end metric of the table, in print order; one that a workload
# does not run is printed as absent
END_TO_END = ["setup_s", "decide_s.res-space", "decide_s.res-k-width", "decide_s.pc",
              "decide_s.pcr", "decide_s.cp", "examples_per_s", "sample_s", "peak_rss_mb",
              "failed_share"]


def median(values):
    return statistics.median(values) if values else None


def end_to_end(plan, rounds, normalize: bool = True) -> dict:
    """End-to-end metrics from the untraced invocations.

    With `normalize`, every time is scaled by CALIBRATION_REF_S over the
    invocation's own calibration time: seconds at the host speed where the
    calibration loop takes CALIBRATION_REF_S.  The host's speed drifts by up
    to 2x over minutes; scaled times spread far less across runs.
    Invocation times are averaged over the rounds, because the speed also
    varies from second to second and the mean uses all of the measured time
    where a median of three or four rounds would keep one."""
    untraced = [r for r in rounds if not r["traced"] and "run_s" in r["result"]]

    def scale(r):
        return CALIBRATION_REF_S / r["result"]["calibration_s"] if normalize else 1.0

    metrics = {"setup_s": median([r["result"]["setup_s"] * scale(r) for r in untraced])}
    examples = decide_time = 0.0
    for inv in plan.invocations:
        times = [r["result"]["run_s"] * scale(r) for r in untraced if r["label"] == inv.label]
        if not times:
            continue
        if inv.system is None:
            metrics["sample_s"] = statistics.fmean(times)
        else:
            metrics[f"decide_s.{inv.system}"] = statistics.fmean(times)
            examples += inv.examples * len(times)
            decide_time += sum(times)
    if decide_time:
        metrics["examples_per_s"] = examples / decide_time
    if untraced:
        metrics["peak_rss_mb"] = max(r["result"]["maxrss_kb"] for r in untraced) / 1024
    metrics["failed_share"] = sum(1 for r in rounds if r["problems"]) / len(rounds)
    return metrics


def per_layer(rounds, systems):
    """Layer metrics from the traced runs: per-invocation numbers, summed per
    round for the workload-wide ones, then the median over rounds.  A metric
    whose operation ran in no traced invocation is None (absent)."""
    traced = [r for r in rounds if r["traced"] and "trace" in r["result"]]
    by_round = {}
    for r in traced:
        layers = tracing.invocation_layers(r["result"]["trace"])
        by_round.setdefault(r["round"], []).append((r, layers))
    out = {}

    def per_round(fn):
        return median([v for v in (fn(items) for items in by_round.values()) if v is not None])

    def combined(key, combine):
        def fn(items):
            values = [layers[key] for _, layers in items if layers[key] is not None]
            return combine(values) if values else None
        return per_round(fn)

    for key in ("formats.parse_s", "formats.pasgn_parse_s", "sampling.draw_s", "cli.self_s",
                "resolution.search_calls", "res_k.rounds", "cutting_planes.rounds"):
        out[key] = combined(key, sum)
    for key in ("res_k.table_size_max", "cutting_planes.table_size_max",
                "polycalc.basis_size_max"):
        out[key] = combined(key, max)
    drawn = combined("sampling.draw_examples", sum)
    if out["sampling.draw_s"] is not None and drawn:
        out["sampling.draw_us_per_example"] = out["sampling.draw_s"] / drawn * 1e6

    def decide_time(items):
        return sum(r["result"]["run_s"] for r, _ in items if r["system"])

    def decide_share(items):
        spent = [layers["backends.decide_s"] for _, layers in items
                 if layers["backends.decide_s"] is not None]
        return sum(spent) / decide_time(items) if spent and decide_time(items) else None

    out["backends.decide_share"] = per_round(decide_share)
    untraced = {}
    for r in rounds:
        if not r["traced"] and r["system"] and "run_s" in r["result"]:
            untraced[r["round"]] = untraced.get(r["round"], 0.0) + r["result"]["run_s"]

    def overhead(items):
        plain = untraced.get(items[0][0]["round"])
        return decide_time(items) / plain if plain else None

    out["trace.overhead_ratio"] = per_round(overhead)

    absent = []
    for system in systems:
        runs = [(r, layers) for r, layers in (x for items in by_round.values() for x in items)
                if r["system"] == system]
        if not runs:
            absent.append(system)
            continue
        for key in ("backends.restrict_s", "backends.decide_s", "decide_pac.self_s",
                    "backends.restricted_hyps_mean"):
            out[f"{key}.{system}"] = median([layers[key] for _, layers in runs
                                             if layers[key] is not None])
        self_s = out[f"decide_pac.self_s.{system}"]
        if self_s:
            out[f"decide_pac.tracer_share.{system}"] = (
                median([layers["decide_pac.tracer_s"] for _, layers in runs]) / self_s)
        # the counts are the same in every round: the reports are identical
        first = runs[0][1]
        n_calls = first["backends.decide_calls"]
        if not n_calls:  # backend decide methods not found: their metrics stay absent
            continue
        calls = [us for _, layers in runs for us in layers["backends.call_us"]]
        out[f"backends.decide_calls.{system}"] = n_calls
        out[f"backends.accept_ratio.{system}"] = first["backends.accepted"] / n_calls
        out[f"decide_pac.distinct_ratio.{system}"] = first["decide_pac.distinct_instances"] / n_calls
        spent = out[f"backends.decide_s.{system}"]
        if spent:
            out[f"decide_pac.repeat_time_share.{system}"] = (
                median([layers["decide_pac.repeat_s"] for _, layers in runs]) / spent)
        out[f"backends.decide_call_p50_us.{system}"] = median(calls)
        out[f"backends.decide_call_samples.{system}"] = len(calls)
        tail = tracing.tail_percentile(calls)
        if tail is not None:
            out[f"backends.decide_call_tail_pct.{system}"] = tail[0]
            out[f"backends.decide_call_tail_us.{system}"] = tail[1]
    missing = sorted({m for r in traced for m in r["result"]["trace"]["missing"]})
    return out, absent, missing


# the unit of every metric the table prints, by name without its `.<system>`
UNITS = {
    "setup_s": "s", "decide_s": "s", "examples_per_s": "1/s", "sample_s": "s",
    "peak_rss_mb": "MB", "failed_share": "ratio",
    "formats.parse_s": "s", "formats.pasgn_parse_s": "s",
    "sampling.draw_s": "s", "sampling.draw_us_per_example": "us",
    "backends.restrict_s": "s", "backends.restricted_hyps_mean": "count",
    "backends.decide_s": "s", "backends.decide_calls": "count",
    "backends.decide_call_p50_us": "us", "backends.decide_call_tail_us": "us",
    "backends.decide_call_tail_pct": "%", "backends.decide_call_samples": "count",
    "backends.accept_ratio": "ratio", "backends.decide_share": "ratio",
    "decide_pac.self_s": "s", "decide_pac.tracer_share": "ratio",
    "decide_pac.distinct_ratio": "ratio", "decide_pac.repeat_time_share": "ratio",
    "resolution.search_calls": "count", "res_k.table_size_max": "count",
    "res_k.rounds": "count", "cutting_planes.table_size_max": "count",
    "cutting_planes.rounds": "count", "polycalc.basis_size_max": "count",
    "cli.self_s": "s", "trace.overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    return UNITS[name] if name in UNITS else UNITS[name.rpartition(".")[0]]


def json_metrics(listed, metrics) -> dict:
    """The listed metrics for the JSON line; an absent one is left out, not
    written as 0."""
    return {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
            for e in listed if metrics.get(e["name"]) is not None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "pacreason" / "cli.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"error: needs {SRC}/pacreason and {spec_path}\n")
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    import workloads

    if args.workload not in workloads.GENERATORS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = workloads.generate(args.workload, args.seed, work)
        expected = (checks.load_expected(args.workload)
                    if args.seed == workloads.DEFAULT_SEED else {})
        rounds, _ = run_rounds(plan, work, args.seconds, bool(args.trace), expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in rounds:
        for problem in r["problems"]:
            sys.stderr.write(f"check failed: round {r['round']} {r['label']}"
                             f"{' traced' if r['traced'] else ''}: {problem}\n")
    failed = sum(1 for r in rounds if r["problems"])
    metrics = end_to_end(plan, rounds)
    raw = end_to_end(plan, rounds, normalize=False)
    absent, missing = [], []
    if args.trace:
        layer_metrics, absent, missing = per_layer(rounds, workloads.SYSTEMS)
        metrics.update(layer_metrics)

    print(f"workload={args.workload} seed={args.seed} rounds={rounds[-1]['round'] + 1} "
          f"invocations={len(rounds)} failed={failed}")
    shown = END_TO_END + sorted(set(metrics) - set(END_TO_END))
    for name in shown:
        value = metrics.get(name)
        unit = unit_of(name)
        text = "absent" if value is None else f"{value:.6g} {unit}"
        if name in raw and raw[name] != value:
            text += f"  (unscaled {raw[name]:.6g} {unit})"
        print(f"  {name:44s} {text}")
    for inv in plan.invocations:
        times = [r["result"]["run_s"] for r in rounds
                 if r["label"] == inv.label and not r["traced"] and "run_s" in r["result"]]
        print(f"  {inv.label} per round, unscaled: " + " ".join(f"{t:.4g}" for t in times) + " s")
    for system in absent:
        print(f"  per-layer metrics of {system}: absent (system not in this workload)")
    for name in missing:
        print(f"  traced name {name}: absent (not found in pacreason)")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = json_metrics(listed, metrics)
    for entry in listed:
        if entry["name"] not in out:
            print(f"  {entry['name']}: absent, left out of the JSON line")
    print(json.dumps({"correct": failed == 0, "attempted": len(rounds), "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
