"""Spans around the calls into each pacreason module, recorded from outside.

`Tracer.install()` replaces public functions and backend methods by name
with wrappers that record a span per call: name, start, end, parent span and
an optional detail (the verdict of a backend call, the table sizes of a
closure run, the basis size of a PC run).  A name that no longer exists is
listed in `missing` and its metrics are reported as absent; nothing crashes.
Spans stay in memory and are exported once, after the run.

The second half of the module turns exported spans into self times and the
per-layer metrics; it needs no pacreason import.
"""

from __future__ import annotations

import importlib
import statistics
import time

FORMAT_PARSERS = ("parse_cnf", "parse_kdnf_file", "parse_poly_file", "parse_cp_file",
                  "parse_dist", "parse_mask_spec", "parse_mask_table")
BACKEND_CLASSES = ("SpaceResolutionBackend", "ResKWidthBackend",
                   "PolynomialCalculusBackend", "CuttingPlanesBackend")


class Tracer:
    def __init__(self, invocation: str = ""):
        self.invocation = invocation
        self.spans = []  # [name, start, end, parent index, detail]
        self.stack = []
        self.missing = []
        self.decided = []  # (query, hyps) of every backend call, keyed after the run
        self.residual_s = 0.0

    # -------------------------------------------------------------- recording

    def wrap(self, owner, attr: str, name: str, detail=None, before=None):
        """Replaces owner.attr by a recording wrapper, if it exists.

        The span opens at the wrapper's first statement and closes after the
        `before` and `detail` callbacks, so the tracer's own work is counted
        in the wrapped call and not in its caller's self time.  What is left
        in the caller is the call into the wrapper itself (`residual_s`)."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
                if detail is not None:
                    span[4] = detail(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mod = importlib.import_module
        cli, formats = mod("pacreason.cli"), mod("pacreason.formats")
        backends, polycalc = mod("pacreason.backends"), mod("pacreason.polycalc")
        self.wrap(cli, "run_scenario", "cli.run_scenario")
        self.wrap(cli, "decide_pac", "decide_pac.decide_pac")
        self.wrap(cli, "draw_masked_examples", "sampling.draw",
                  detail=lambda a, kw, result: len(result))
        for attr in FORMAT_PARSERS:
            self.wrap(formats, attr, "formats.parse")
        self.wrap(formats, "parse_pasgns", "formats.pasgn_parse")
        self.wrap(backends, "search_space", "resolution.search_space")
        self.wrap(backends, "decide_resk_width", "res_k.decide_resk_width",
                  before=_with_stats, detail=_table_stats)
        self.wrap(backends, "decide_cp", "cutting_planes.decide_cp",
                  before=_with_stats, detail=_table_stats)
        self.wrap(polycalc, "build_basis", "polycalc.build_basis",
                  detail=lambda a, kw, result: len(result[0]))
        for cls_name in BACKEND_CLASSES:
            cls = getattr(backends, cls_name, None)
            if cls is None:
                self.missing.append(f"backends.{cls_name}")
                continue
            self.wrap(cls, "restrict_query", "backends.restrict")
            self.wrap(cls, "restrict_hyps", "backends.restrict")
            self.wrap(cls, "decide", "backends.decide", detail=self._decided)
        self.residual_s = residual_cost()

    def _decided(self, args, kwargs, result):
        self.decided.append(args[1:3])
        return bool(result)

    def export(self) -> dict:
        seen, repeated = set(), []
        for query, hyps in self.decided:
            key = instance_key(query, hyps)
            repeated.append(key in seen)
            seen.add(key)
        return {
            "invocation": self.invocation,
            "missing": self.missing,
            "residual_s": self.residual_s,
            "spans": self.spans,
            "distinct_instances": len(seen),
            "repeated": repeated,  # per backend call, in call order
            "hyps_sizes": [_size(hyps) for _, hyps in self.decided],
        }


def residual_cost(calls: int = 2000) -> float:
    """Median time per call that a wrapper adds outside its own span: the
    caller's share of the tracer, measured on a wrapped no-op."""
    class Owner:
        @staticmethod
        def noop():
            return None

    probe = Tracer()
    probe.wrap(Owner, "noop", "probe")
    plain, wrapped, clock = (lambda: None), Owner.noop, time.perf_counter
    costs = []
    for _ in range(calls):
        begin = clock()
        plain()
        middle = clock()
        wrapped()
        end = clock()
        span = probe.spans.pop()
        costs.append((end - middle) - (span[2] - span[1]) - (middle - begin))
    return max(statistics.median(costs), 0.0)


def _with_stats(args, kwargs):
    if kwargs.get("stats") is None:
        kwargs = dict(kwargs, stats={})
    return args, kwargs


def _table_stats(args, kwargs, result):
    sizes = kwargs["stats"].get("table_sizes", [])
    return [max(sizes, default=0), max(len(sizes) - 1, 0)]


def _size(hyps) -> int:
    return len(getattr(hyps, "clauses", hyps))


def canonical(obj):
    """An order-free, hashable form of a restricted query or KB."""
    if isinstance(obj, (frozenset, set)):
        return ("set",) + tuple(sorted((canonical(x) for x in obj), key=repr))
    if isinstance(obj, (tuple, list)):
        return tuple(canonical(x) for x in obj)
    if hasattr(obj, "clauses"):
        return ("cnf", canonical(obj.clauses))
    terms = getattr(obj, "terms", None)
    if isinstance(terms, dict):
        return ("poly",) + tuple(sorted(((canonical(m), str(c)) for m, c in terms.items()),
                                        key=repr))
    if terms is not None:
        return ("kdnf", canonical(terms))
    if hasattr(obj, "coeffs"):
        return ("cp", obj.coeffs, obj.bound)
    if hasattr(obj, "dual"):
        return ("indet", obj.var, obj.dual)
    return repr(obj)


def instance_key(query, hyps):
    return canonical((query, hyps))


# ------------------------------------------------------------------ analysis


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda i: spans[i][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def outermost(spans, name):
    """Spans called `name` that have no ancestor of the same name."""
    def nested(span):
        parent = span[3]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    return [s for s in spans if s[0] == name and not nested(s)]


def total(spans, name) -> float:
    return sum(s[2] - s[1] for s in outermost(spans, name))


def tail_percentile(values, beyond: int = 10):
    """(percentile, value) for the highest of 50/90/99/99.9/99.99 with at
    least `beyond` samples above it; None when there are too few samples."""
    values = sorted(values)
    best = None
    for pct in (50, 90, 99, 99.9, 99.99):
        rank = int(len(values) * pct / 100)
        if len(values) - rank - 1 < beyond:
            break
        best = (pct, values[rank])
    return best


def invocation_layers(trace: dict) -> dict:
    """Per-layer numbers of one traced invocation.  An operation that did
    not run in it (no span of its name) is None, not 0."""
    spans = trace["spans"]
    selfs = self_times(spans)
    decide_calls = [s for s in spans if s[0] == "backends.decide"]
    draws = [s for s in spans if s[0] == "sampling.draw"]
    sizes = trace["hyps_sizes"]
    names = {s[0] for s in spans}

    def timed(name):
        return total(spans, name) if name in names else None

    def engine(name, pick):
        details = [s[4] for s in spans if s[0] == name]
        return pick(details) if details else None

    def self_time(name):
        return sum(t for s, t in zip(spans, selfs) if s[0] == name) if name in names else None

    return {
        "formats.parse_s": timed("formats.parse"),
        "formats.pasgn_parse_s": timed("formats.pasgn_parse"),
        "sampling.draw_s": timed("sampling.draw"),
        "sampling.draw_examples": sum(s[4] for s in draws),
        "backends.restrict_s": timed("backends.restrict"),
        "backends.decide_s": timed("backends.decide"),
        "backends.decide_calls": len(decide_calls),
        "backends.call_us": [(s[2] - s[1]) * 1e6 for s in decide_calls],
        "backends.accepted": sum(1 for s in decide_calls if s[4]),
        "backends.restricted_hyps_mean": statistics.fmean(sizes) if sizes else None,
        "decide_pac.self_s": self_time("decide_pac.decide_pac"),
        # the part of that self time spent calling into the wrappers of its children
        "decide_pac.tracer_s": trace["residual_s"] * sum(
            1 for s in spans if s[3] is not None and spans[s[3]][0] == "decide_pac.decide_pac"),
        "decide_pac.distinct_instances": trace["distinct_instances"],
        # backend time on instances already decided earlier in the invocation:
        # what a perfect memo on the restricted instance would skip
        "decide_pac.repeat_s": sum(s[2] - s[1] for s, again in zip(decide_calls, trace["repeated"])
                                   if again),
        "cli.self_s": self_time("cli.run_scenario"),
        "resolution.search_calls": engine("resolution.search_space", len),
        "res_k.table_size_max": engine("res_k.decide_resk_width",
                                       lambda d: max(x[0] for x in d)),
        "res_k.rounds": engine("res_k.decide_resk_width", lambda d: sum(x[1] for x in d)),
        "cutting_planes.table_size_max": engine("cutting_planes.decide_cp",
                                                lambda d: max(x[0] for x in d)),
        "cutting_planes.rounds": engine("cutting_planes.decide_cp",
                                        lambda d: sum(x[1] for x in d)),
        "polycalc.basis_size_max": engine("polycalc.build_basis", max),
    }
