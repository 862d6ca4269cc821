"""Span tracing for the traced benchmark run, from outside the program.

``install`` wraps the public entry points of each meandrics layer in the
job process, replacing every module-level reference (and the check list
behind ``verify.run_suite``) so that internal calls are traced too.  Each
call records one span: name, parent, wall start and end, and process CPU
start and end.  Counts that need the call's arguments (pairs scanned,
term products, index sequences) are added to ``Tracer.counters`` at the
same boundary.

The rest of the module turns the spans of one job into per-layer
metrics.  It needs no meandrics import, so run.py and the tests can use
it on recorded spans.
"""

from __future__ import annotations

import statistics
import threading
from collections import defaultdict
from math import comb
from time import perf_counter, process_time
from typing import Callable, NamedTuple, Sequence

# The 19 checks of ``verify all``, in suite order.
CHECK_NAMES = (
    "krint-equals-comb-partitions",
    "kr-interval-meet-formula",
    "interval-join-kreweras-duality",
    "comb-loop-count-formula",
    "subset-binomial-identity",
    "kreweras-loop-invariance",
    "thin-closed-form",
    "thin-loop-distribution",
    "thin-cumulant-coefficients",
    "thin-matrix-model-exact",
    "thin-matrix-model-vs-brute-force",
    "shallow-top-series",
    "shallow-top-cumulant-coefficients",
    "shallow-top-meander-binomials",
    "semi-meander-series",
    "semi-loop-distribution",
    "transform-round-trips",
    "moment-cumulant-definition",
    "last-block-composition",
)

# Span names.  A span's layer is the text before the first dot.
ENUMERATE = "partitions.enumerate"
LATTICE = "partitions.lattice"
GEODESIC = "partitions.geodesic"
MEANDERS_CACHED = "meanders.cached"
MEANDERS_PAIRWISE = "meanders.pairwise"
MUL = "transforms.mul"
TRANSFORM = "transforms.transform"
SERIES = "transforms.series"
SERIALIZE = "transforms.serialize"
DRAW = "matrix_models.draw"
ESTIMATE = "matrix_models.estimate"
THIN_EXACT = "matrix_models.thin_exact"
VERIFY_SUITE = "verify.run_suite"
CHECK_PREFIX = "verify.check:"
CLI_MAIN = "cli.main"


# ---------------------------------------------------------------------------
# Recording (job process)
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span store for one job process.

    Spans are opened and closed only on the thread that created the
    tracer; calls from worker threads run untraced, so spans always nest.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name_id, parent, start, end, cpu_start, cpu_end]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._stack = [-1]
        self._thread = threading.get_ident()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def traced(self, name: str, fn: Callable,
               after: Callable | None = None) -> Callable:
        """fn wrapped in a span; after(args, kwargs, result, span) runs
        once the span is closed, outside its interval."""
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, kwargs, result, self.spans[i])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def traced_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function wrapped so that every resumption is a
        span; ``<name>.items`` counts the items yielded."""
        nid = self.name_id(name)
        key = f"{name}.items"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if threading.get_ident() != self._thread:
                return it

            def stream():
                while True:
                    i = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    self.counters[key] += 1
                    yield item
            return stream()

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, nid: int) -> int:
        i = len(self.spans)
        self.spans.append([nid, self._stack[-1], perf_counter(), 0.0,
                           process_time(), 0.0])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        rec = self.spans[i]
        rec[3] = perf_counter()
        rec[5] = process_time()
        self._stack.pop()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": dict(self.counters)}


def class_pairs(klass: str, n: int) -> int:
    """Pairs a scan of this class visits: the product of its side sizes."""
    nc = comb(2 * n, n) // (n + 1)
    intervals = 1 << (n - 1)
    return {"full": nc * nc, "shallow-top": intervals * nc,
            "thin": intervals * intervals, "semi": intervals}[klass]


def index_sequences(model: str, n: int, l: int) -> int:
    """Index sequences the factorized trace walks per sample: m^length."""
    if model == "gue-df":
        return l ** (2 * n)
    if model in ("nc-nc", "wishart-pt"):
        return (l * l) ** n
    return 0


def _term_count(poly) -> int:
    # LaurentPoly has no size accessor; terms() sorts, which would cost
    # more than many of the products it is counting.
    terms = getattr(poly, "_terms", None)
    return len(terms) if terms is not None else len(poly.terms())


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every meandrics layer."""
    import logging

    import meandrics
    from meandrics import cli, matrix_models, meanders, partitions, transforms, verify

    modules = (meandrics, partitions, meanders, transforms, matrix_models,
               verify, cli)
    counters = tracer.counters

    def patch(module, attr: str, wrapped: Callable) -> None:
        original = getattr(module, attr)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
        for suite in verify.SUITES.values():
            for k, (fn, cap) in enumerate(suite):
                if fn is original:
                    suite[k] = (wrapped, cap)

    def traced(module, attr: str, name: str, after=None) -> None:
        patch(module, attr, tracer.traced(name, getattr(module, attr), after))

    def traced_method(cls, attrs: Sequence[str], name: str, after=None) -> None:
        wrapped = tracer.traced(name, getattr(cls, attrs[0]), after)
        for attr in attrs:
            setattr(cls, attr, wrapped)

    # partitions
    for attr in ("enumerate_nc", "enumerate_interval", "enumerate_kr_interval"):
        patch(partitions, attr,
              tracer.traced_iter(ENUMERATE, getattr(partitions, attr)))
    for attr in ("nc_meet", "nc_join", "interval_join", "kr_interval_meet",
                 "refinement_leq"):
        traced(partitions, attr, LATTICE)
    traced_method(partitions.NcPartition, ["to_geodesic"], GEODESIC)
    traced_method(partitions.CombSubset, ["to_geodesic"], GEODESIC)

    # meanders: a cached entry point that enumerates no partition was
    # served from the pair-histogram cache; otherwise it scanned its class.
    enumerated = f"{ENUMERATE}.items"

    def cached_entry(fn: Callable) -> Callable:
        def call(klass, n, *args, **kwargs):
            before = counters[enumerated]
            result = fn(klass, n, *args, **kwargs)
            counters["meanders.cached_calls"] += 1
            if counters[enumerated] == before:
                counters["meanders.cache_hits"] += 1
            else:
                counters["meanders.pairs"] += class_pairs(klass.value, n)
            return result
        return call

    for attr in ("meander_polynomial", "generating_coefficient",
                 "cumulant_coefficient"):
        patch(meanders, attr,
              tracer.traced(MEANDERS_CACHED, cached_entry(getattr(meanders, attr))))

    def pairwise_after(args, kwargs, result, span):
        counters["meanders.pairs"] += result.shape[0] * result.shape[1]

    traced(meanders, "pairwise_cycle_counts", MEANDERS_PAIRWISE, pairwise_after)

    # transforms
    def mul_after(args, kwargs, result, span):
        left, right = args
        if isinstance(right, transforms.LaurentPoly):
            counters["transforms.term_products"] += (
                _term_count(left) * _term_count(right))
        else:
            counters["transforms.term_products"] += _term_count(left)
        if result is not NotImplemented:
            counters["transforms.max_terms"] = max(
                counters["transforms.max_terms"], _term_count(result))

    traced_method(transforms.LaurentPoly, ["__mul__", "__rmul__"], MUL, mul_after)
    for attr in ("boolean_transform", "boolean_inverse", "free_transform",
                 "free_inverse", "last_block_sum", "compose"):
        traced(transforms, attr, TRANSFORM)
    for attr in ("thin_series", "shallow_top_series", "semi_meander_series"):
        traced(transforms, attr, SERIES)
    traced(transforms, "series_to_json", SERIALIZE)

    # matrix_models
    def ginibre_after(args, kwargs, result, span):
        counters["matrix_models.gaussians"] += result.size

    traced(matrix_models, "sample_stream", DRAW)
    traced(matrix_models, "sample_ginibre", DRAW, ginibre_after)
    traced(matrix_models, "sample_gue", DRAW)

    def estimate_after(args, kwargs, result, span):
        spec = args[0]
        if spec.model is not matrix_models.Model.THIN:
            counters["matrix_models.samples"] += spec.samples
            counters["matrix_models.index_sequences"] += spec.samples * (
                index_sequences(spec.model.value, spec.n, spec.l))

    traced(matrix_models, "estimate", ESTIMATE, estimate_after)
    traced(matrix_models, "estimate_sweep", ESTIMATE)
    traced(matrix_models, "thin_exact", THIN_EXACT)

    def count_resamples(record: logging.LogRecord) -> bool:
        # estimate logs ("model %s: resampling %d non-finite samples ...")
        if "resampling" in str(record.msg):
            counters["matrix_models.resamples"] += int(record.args[1])
        return True

    logging.getLogger(matrix_models.__name__).addFilter(count_resamples)

    # verify: a check's span is renamed after the name it reports
    def check_after(args, kwargs, result, span):
        name, ok, _ = result
        span[0] = tracer.name_id(CHECK_PREFIX + name)
        if not ok:
            counters["verify.checks_failed"] += 1

    for attr in [a for a in vars(verify) if a.startswith("check_")]:
        traced(verify, attr, CHECK_PREFIX, check_after)
    traced(verify, "run_suite", VERIFY_SUITE)

    traced(cli, "main", CLI_MAIN)


# ---------------------------------------------------------------------------
# Analysis (run.py)
# ---------------------------------------------------------------------------

class Span(NamedTuple):
    name: str
    parent: int
    start: float
    end: float
    cpu_start: float
    cpu_end: float


def load_spans(dump: dict) -> list[Span]:
    names = dump["names"]
    return [Span(names[s[0]], *s[1:]) for s in dump["spans"]]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans: Sequence[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    kids = _children(spans)
    out = []
    for s, ks in zip(spans, kids):
        covered = _union_length([(max(spans[k].start, s.start),
                                  min(spans[k].end, s.end))
                                 for k in ks if spans[k].end > s.start
                                 and spans[k].start < s.end])
        out.append((s.end - s.start) - covered)
    return out


def self_cpu_times(spans: Sequence[Span]) -> list[float]:
    """Each span's process CPU time minus that of its child spans."""
    kids = _children(spans)
    out = []
    for s, ks in zip(spans, kids):
        child = sum(spans[k].cpu_end - spans[k].cpu_start for k in ks)
        out.append(max(0.0, (s.cpu_end - s.cpu_start) - child))
    return out


def _is(prefix: str) -> Callable[[str], bool]:
    """Matches a span name exactly, or every name under a prefix ending in '.'."""
    if prefix.endswith("."):
        return lambda name: name.startswith(prefix)
    return lambda name: name == prefix


def _covered(spans: Sequence[Span], match: Callable[[str], bool]) -> float:
    """Wall time during which at least one matching span was open."""
    return _union_length([(s.start, s.end) for s in spans if match(s.name)])


def _outermost(spans: Sequence[Span], match: Callable[[str], bool]) -> int:
    """Matching spans not nested directly in another matching span."""
    return sum(1 for s in spans if match(s.name)
               and not (s.parent >= 0 and match(spans[s.parent].name)))


def job_totals(dump: dict) -> dict[str, float]:
    """Additive per-layer totals of one traced job."""
    spans = load_spans(dump)
    counters = dump["counters"]
    own = self_times(spans)
    own_cpu = self_cpu_times(spans)

    def self_sum(match, times=own):
        return sum(t for s, t in zip(spans, times) if match(s.name))

    meanders = _is("meanders.")
    return {
        "partitions.enumerate_s": _covered(spans, _is(ENUMERATE)),
        "partitions.enumerated": counters.get(f"{ENUMERATE}.items", 0),
        "partitions.lattice_s": _covered(spans, _is(LATTICE)),
        "partitions.lattice_calls": _outermost(spans, _is(LATTICE)),
        "partitions.geodesic_s": _covered(spans, _is(GEODESIC)),
        "partitions.geodesic_calls": _outermost(spans, _is(GEODESIC)),
        "meanders.scan_s": self_sum(meanders),
        "meanders.scan_cpu_s": self_sum(meanders, own_cpu),
        "meanders.pairs": counters.get("meanders.pairs", 0),
        "meanders.calls": _outermost(spans, meanders),
        "meanders.cached_calls": counters.get("meanders.cached_calls", 0),
        "meanders.cache_hits": counters.get("meanders.cache_hits", 0),
        "transforms.mul_calls": sum(1 for s in spans if s.name == MUL),
        "transforms.mul_s": _covered(spans, _is(MUL)),
        "transforms.term_products": counters.get("transforms.term_products", 0),
        "transforms.transform_s": _covered(spans, _is(TRANSFORM)),
        "transforms.series_s": _covered(spans, _is(SERIES)),
        "transforms.max_terms": counters.get("transforms.max_terms", 0),
        "transforms.serialize_s": _covered(spans, _is(SERIALIZE)),
        "matrix_models.draw_s": _covered(spans, _is(DRAW)),
        "matrix_models.gaussians": counters.get("matrix_models.gaussians", 0),
        "matrix_models.trace_s": self_sum(_is(ESTIMATE)),
        "matrix_models.samples": counters.get("matrix_models.samples", 0),
        "matrix_models.index_sequences":
            counters.get("matrix_models.index_sequences", 0),
        "matrix_models.resamples": counters.get("matrix_models.resamples", 0),
        "matrix_models.thin_exact_s": _covered(spans, _is(THIN_EXACT)),
        "verify.self_s": self_sum(_is("verify.")),
        "verify.checks_failed": counters.get("verify.checks_failed", 0),
        **{f"verify.check_s.{name}": _covered(spans, _is(CHECK_PREFIX + name))
           for name in CHECK_NAMES},
        "cli.self_s": self_sum(_is(CLI_MAIN)),
    }


_MAXED = ("transforms.max_terms",)


def merge_totals(parts: Sequence[dict[str, float]]) -> dict[str, float]:
    """Totals of a job list: sums, except maxima where a sum means nothing."""
    out: dict[str, float] = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            out[key] = max(out[key], value) if key in _MAXED else out[key] + value
    return dict(out)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def finalize(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics: every per-layer metric of BENCHMARK.json except
    trace.overhead_s and cli.output_bytes, which run.py measures."""
    out = dict(totals)
    cached = out.pop("meanders.cached_calls")
    hits = out.pop("meanders.cache_hits")
    out["meanders.cache_hit_ratio"] = hits / cached if cached else 0.0
    out["meanders.pairs_per_s"] = _rate(totals["meanders.pairs"],
                                        totals["meanders.scan_s"])
    out["transforms.term_products_per_s"] = _rate(
        totals["transforms.term_products"], totals["transforms.mul_s"])
    out["matrix_models.index_sequences_per_s"] = _rate(
        totals["matrix_models.index_sequences"], totals["matrix_models.trace_s"])
    return out


TOTAL_KEYS = tuple(job_totals({"names": [], "spans": [], "counters": {}}))


def median_metrics(runs: Sequence[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
