"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

They run a few small CLI jobs, so ``src/meandrics`` must be present.
"""

import json
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))

# The per-layer metrics the benchmark is specified to report, besides one
# time per verify check and the tracing overhead.
SPECIFIED_PER_LAYER = [
    "partitions.enumerate_s", "partitions.enumerated", "partitions.lattice_s",
    "partitions.lattice_calls", "partitions.geodesic_s",
    "partitions.geodesic_calls",
    "meanders.scan_s", "meanders.scan_cpu_s", "meanders.pairs",
    "meanders.pairs_per_s", "meanders.calls", "meanders.cache_hit_ratio",
    "transforms.mul_calls", "transforms.mul_s", "transforms.term_products",
    "transforms.term_products_per_s", "transforms.transform_s",
    "transforms.series_s", "transforms.max_terms", "transforms.serialize_s",
    "matrix_models.draw_s", "matrix_models.gaussians", "matrix_models.trace_s",
    "matrix_models.samples", "matrix_models.index_sequences",
    "matrix_models.index_sequences_per_s", "matrix_models.resamples",
    "matrix_models.thin_exact_s",
    "verify.self_s", "verify.checks_failed",
    "cli.self_s", "cli.output_bytes",
]


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------

def test_per_layer_names_are_the_specified_ones():
    from meandrics import verify

    checks = [fn(**{cap: 1})[0] for suite in verify.SUITES.values()
              for fn, cap in suite]
    assert checks == list(tracing.CHECK_NAMES)
    want = SPECIFIED_PER_LAYER + [f"verify.check_s.{c}" for c in checks] + [
        "trace.overhead_s"]
    assert sorted(run.declared_units("per_layer")) == sorted(want)


def test_finalize_emits_every_traced_metric():
    zero = {k: 0 for k in tracing.TOTAL_KEYS}
    measured_by_run = {"cli.output_bytes", "trace.overhead_s"}
    assert (set(tracing.finalize(zero)) | measured_by_run
            == set(run.declared_units("per_layer")))


def test_end_to_end_names_match_benchmark_json():
    outcome = run.Outcome("j", setup_s=1.0, wall_s=1.0, cpu_s=1.0,
                          peak_rss_mb=1.0)
    assert set(run.end_to_end([[outcome]])) == set(run.declared_units("end_to_end"))
    bench = json.loads(run.BENCHMARK.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


# ---------------------------------------------------------------------------
# Self times
# ---------------------------------------------------------------------------

def span(name, parent, start, end, cpu=(0.0, 0.0)):
    return tracing.Span(name, parent, start, end, *cpu)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        span("cli.main", -1, 0.0, 10.0),
        span("meanders.cached", 0, 1.0, 4.0),
        span("meanders.cached", 0, 3.0, 6.0),      # overlaps its sibling
        span("partitions.enumerate", 1, 2.0, 3.0),
        span("transforms.mul", 0, 9.0, 12.0),       # runs past its parent
    ]
    # root: 10 - |[1,6] u [9,10]| = 4; the first child loses its own child
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_cpu_subtracts_child_cpu():
    spans = [
        span("meanders.cached", -1, 0.0, 5.0, (0.0, 9.0)),
        span("partitions.enumerate", 0, 1.0, 2.0, (1.0, 3.0)),
    ]
    assert tracing.self_cpu_times(spans) == pytest.approx([7.0, 2.0])


def test_job_totals_split_layers_by_self_time():
    names = ["cli.main", "meanders.cached", "partitions.enumerate",
             "partitions.geodesic", "verify.check:thin-closed-form"]
    dump = {
        "names": names,
        "spans": [
            [0, -1, 0.0, 10.0, 0.0, 10.0],
            [4, 0, 0.5, 9.0, 0.5, 9.0],
            [1, 1, 1.0, 8.0, 1.0, 15.0],
            [2, 2, 1.0, 2.0, 1.0, 2.0],
            [2, 2, 2.0, 3.0, 2.0, 3.0],
            [3, 2, 3.0, 3.5, 3.0, 3.5],
        ],
        "counters": {"partitions.enumerate.items": 2, "meanders.pairs": 100,
                     "meanders.cached_calls": 2, "meanders.cache_hits": 1},
    }
    totals = tracing.job_totals(dump)
    assert totals["meanders.scan_s"] == pytest.approx(7.0 - 2.5)
    assert totals["meanders.scan_cpu_s"] == pytest.approx(14.0 - 2.5)
    assert totals["partitions.enumerate_s"] == pytest.approx(2.0)
    assert totals["partitions.geodesic_calls"] == 1
    assert totals["verify.check_s.thin-closed-form"] == pytest.approx(8.5)
    assert totals["verify.self_s"] == pytest.approx(8.5 - 7.0)
    assert totals["cli.self_s"] == pytest.approx(1.5)
    metrics = tracing.finalize(tracing.merge_totals([totals, totals]))
    assert metrics["meanders.pairs"] == 200
    assert metrics["meanders.cache_hit_ratio"] == pytest.approx(0.5)
    assert metrics["meanders.pairs_per_s"] == pytest.approx(200 / 9.0)


def test_counts_follow_from_inputs():
    assert tracing.class_pairs("full", 9) == 4862 ** 2
    assert tracing.class_pairs("thin", 13) == 4096 ** 2
    assert tracing.index_sequences("gue-df", 5, 2) == 2 ** 10
    assert tracing.index_sequences("nc-nc", 2, 2) == 16


# ---------------------------------------------------------------------------
# Correctness gate and failure accounting
# ---------------------------------------------------------------------------

TINY = run.Job("tiny", ("polynomial", "thin", "3"), 60)


@pytest.fixture(scope="module")
def tiny_stdout() -> bytes:
    o = run.run_job("test:tiny", TINY.argv(0), False, 60)
    assert not o.errors and o.rc == 0
    return o.stdout


def test_corrupted_output_is_rejected(tiny_stdout):
    import hashlib
    expected = {"tiny": {"rc": 0, "sha256": hashlib.sha256(tiny_stdout).hexdigest()}}
    assert run.check_output(TINY, 0, 0, tiny_stdout, expected) == []
    corrupted = tiny_stdout.replace(b"3,1,", b"3,2,")
    assert corrupted != tiny_stdout
    assert run.check_output(TINY, 0, 0, corrupted, expected)
    assert run.check_output(TINY, 0, 1, tiny_stdout, expected)


def test_oracle_and_montecarlo_checks():
    good = b"PASS a -- x\nPASS b -- y\n2/2 checks passed\n"
    assert run._check_oracle(good) == []
    assert run._check_oracle(good.replace(b"PASS b", b"FAIL b"))
    assert run._check_oracle(b"PASS a -- x\n2/2 checks passed\n")
    exp = {"exact_target": 12, "d": [8, 16]}
    line = {"d": 8, "seed": 3, "mean": 1.5, "stderr": 0.1, "exact_target": 12}
    ok = "\n".join(json.dumps({**line, "d": d}) for d in (8, 16)).encode()
    assert run._check_montecarlo(ok, 3, exp) == []
    assert run._check_montecarlo(ok, 4, exp)
    assert run._check_montecarlo(ok.replace(b"1.5", b"NaN"), 3, exp)
    assert run._check_montecarlo(b"[1]\n[2]", 3, exp)
    assert run._check_montecarlo(ok.replace(b'"exact_target": 12', b'"exact_target": 13'),
                                 3, exp)


@pytest.mark.parametrize("job, why", [
    (run.Job("tiny", ("polynomial", "thin", "3"), 60), "sha256"),
    (run.Job("tiny", ("polynomial", "full", "0"), 60), "raised"),
    (run.Job("tiny", ("polynomial", "thin", "99"), 60), "exit code"),
    (run.Job("tiny", ("verify", "all"), 0.01), "timed out"),
])
def test_every_failure_counts(monkeypatch, job, why):
    expected = {"tiny": {"rc": 0, "sha256": "0" * 64}}
    monkeypatch.setattr(run, "WORKLOADS", {"tiny": (job,)})
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    record = run.run_workload("tiny", 0, 0.0, False)
    result = record["result"]
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1
    assert why in " ".join(record["failures"]["p0:tiny"])


def test_rerun_must_repeat_first_output(tiny_stdout, monkeypatch):
    monkeypatch.setattr(run, "load_expected", lambda: {"tiny": {"rc": 0}})
    first = {"tiny": "f" * 64}
    [o] = run.run_pass((TINY,), 0, False, "p1", 1e18,
                       run.load_expected(), first)
    assert o.errors == ["stdout differs from this job's first run"]


# ---------------------------------------------------------------------------
# Tracing a real job
# ---------------------------------------------------------------------------

def test_traced_job_records_nested_spans():
    job = run.Job("tiny", ("verify", "thin", "--budget-override", "4"), 60)
    o = run.run_job("test:traced", job.argv(0), True, 60)
    assert not o.errors and o.rc == 0
    spans = tracing.load_spans(o.trace)
    names = {s.name for s in spans}
    assert {tracing.CLI_MAIN, tracing.VERIFY_SUITE, tracing.ENUMERATE,
            tracing.MEANDERS_CACHED, tracing.MUL, tracing.SERIES,
            tracing.THIN_EXACT} <= names
    assert tracing.CHECK_PREFIX + "thin-closed-form" in names
    for s in spans:
        assert s.end >= s.start
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    totals = tracing.job_totals(o.trace)
    # the thin pair and cumulant histograms for n<=4 are each scanned once
    # over 1 + 4 + 16 + 64 pairs; every other meanders call is a cache hit
    assert totals["meanders.pairs"] == 2 * 85
    assert 0 < totals["meanders.cache_hits"] < totals["meanders.cached_calls"]
