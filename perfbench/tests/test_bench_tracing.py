"""Self-time arithmetic and trace-derived numbers on hand-built spans."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import tracing  # noqa: E402

# [name, start, end, parent, detail]
SPANS = [
    ["cli.run_scenario", 0.0, 10.0, None, None],        # 0
    ["formats.parse", 0.5, 1.5, 0, None],               # 1
    ["formats.parse", 0.7, 1.0, 1, None],               # 2 nested parse
    ["decide_pac.decide_pac", 2.0, 9.0, 0, None],       # 3
    ["backends.restrict", 2.0, 2.5, 3, None],           # 4
    ["backends.decide", 2.5, 5.0, 3, True],             # 5
    ["resolution.search_space", 3.0, 4.0, 5, None],     # 6
    ["backends.decide", 6.0, 8.5, 3, False],            # 7
]


def test_self_time_subtracts_children_only():
    selfs = tracing.self_times(SPANS)
    assert selfs == pytest.approx([10 - 1 - 7, 1 - 0.3, 0.3, 7 - 0.5 - 2.5 - 2.5,
                                   0.5, 2.5 - 1, 1, 2.5])


def test_overlapping_children_are_counted_once():
    spans = [["root", 0.0, 4.0, None, None],
             ["a", 1.0, 3.0, 0, None],
             ["b", 2.0, 5.0, 0, None]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_outermost_total_skips_nested_spans():
    assert tracing.total(SPANS, "formats.parse") == pytest.approx(1.0)


def test_invocation_layers():
    layers = tracing.invocation_layers({
        "spans": SPANS, "missing": [], "distinct_instances": 1, "hyps_sizes": [3, 5],
        "residual_s": 0.01, "repeated": [False, True]})
    assert layers["cli.self_s"] == pytest.approx(2.0)
    assert layers["decide_pac.self_s"] == pytest.approx(1.5)
    assert layers["decide_pac.tracer_s"] == pytest.approx(3 * 0.01)  # three direct children
    assert layers["backends.decide_s"] == pytest.approx(5.0)
    assert layers["backends.decide_calls"] == 2
    assert layers["backends.accepted"] == 1
    assert layers["decide_pac.repeat_s"] == pytest.approx(2.5)  # the second call repeats
    assert layers["backends.restricted_hyps_mean"] == 4
    assert layers["resolution.search_calls"] == 1
    assert layers["res_k.table_size_max"] is None  # absent engine
    assert layers["formats.pasgn_parse_s"] is None  # operation that did not run


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(15))) is None
    assert tracing.tail_percentile(list(range(100)))[0] == 50
    assert tracing.tail_percentile(list(range(1000))) == (90, 900)
    assert tracing.tail_percentile(list(range(1100))) == (99, 1089)


def test_canonical_key_ignores_set_order():
    a = (frozenset({1, -2}), (frozenset({3}), frozenset({-1, 4})))
    b = (frozenset({-2, 1}), (frozenset({3}), frozenset({4, -1})))
    assert tracing.instance_key(*a) == tracing.instance_key(*b)


def test_wrapper_records_nested_spans_and_its_detail():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    tracer = tracing.Tracer()
    tracer.wrap(Owner, "outer", "outer")
    tracer.wrap(Owner, "inner", "inner", detail=lambda a, kw, result: result)
    tracer.wrap(Owner, "gone", "gone")
    assert Owner.outer(3) == 7
    (outer, start, end, parent, _), inner = tracer.spans
    assert (outer, parent) == ("outer", None)
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == 6
    assert start <= inner[1] <= inner[2] <= end
    assert tracer.missing == ["Owner.gone"] and tracer.stack == []
    assert tracing.residual_cost(calls=50) >= 0


def test_missing_backend_classes_are_absent_without_a_crash(monkeypatch):
    """A pacreason whose backends module lacks the backend classes (and so
    records no backend calls) still yields a traced result."""
    import types

    import run

    stubs = {name: types.ModuleType(f"pacreason.{name}")
             for name in ("cli", "formats", "backends", "polycalc")}
    stubs["cli"].run_scenario = lambda: None
    for name, module in stubs.items():
        monkeypatch.setitem(sys.modules, f"pacreason.{name}", module)
    tracer = tracing.Tracer("0:decide:pc:1")
    tracer.install()
    assert "backends.SpaceResolutionBackend" in tracer.missing
    assert "pacreason.backends.search_space" in tracer.missing
    stubs["cli"].run_scenario()
    rounds = [
        {"round": 0, "label": "decide:pc", "system": "pc", "traced": False,
         "problems": [], "result": {"run_s": 1.0}},
        {"round": 0, "label": "decide:pc", "system": "pc", "traced": True,
         "problems": [], "result": {"run_s": 1.1, "trace": tracer.export()}},
    ]
    metrics, absent, missing = run.per_layer(rounds, ("pc", "cp"))
    assert absent == ["cp"]
    assert "backends.SpaceResolutionBackend" in missing
    assert metrics["cli.self_s"] is not None
    assert metrics["trace.overhead_ratio"] == pytest.approx(1.1)
    for name in ("backends.decide_calls.pc", "decide_pac.distinct_ratio.pc",
                 "backends.accept_ratio.pc", "backends.decide_share"):
        assert metrics.get(name) is None
    listed = [{"name": "cli.self_s", "unit": "s"},
              {"name": "backends.decide_calls.pc", "unit": "count"}]
    assert list(run.json_metrics(listed, metrics)) == ["cli.self_s"]
