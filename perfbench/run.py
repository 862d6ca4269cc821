"""Benchmark of the meandrics CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Each job of a workload runs ``meandrics`` in a fresh interpreter
(``job.py``), one at a time, with ``MEANDER_THREADS`` set to the number of
usable CPUs.  The job list is repeated for about ``--seconds``, and
every output is checked against ``expected.json``.  The last stdout line
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  README.md defines the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

RUN_LIMIT_S = 165.0     # every job ends by then, so a run ends within 180 s
MIN_PASSES = 2          # a rerun must repeat the first pass byte for byte,
                        # and a median needs more than one sample


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple[str, ...]     # "{seed}" is replaced by the benchmark seed
    timeout_s: float
    check: str = "digest"     # "digest", "oracle" or "montecarlo"

    def argv(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.args]


_MC = ("--d", "8,16,32", "--seed", "{seed}")

WORKLOADS: dict[str, tuple[Job, ...]] = {
    "oracle": (Job("verify-all", ("verify", "all"), 120, "oracle"),),
    "scan": (
        Job("polynomial-full-9", ("polynomial", "full", "9"), 60),
        Job("polynomial-thin-13", ("polynomial", "thin", "13"), 60),
    ),
    "series": (
        Job("series-shallow-top-22", ("series", "shallow-top", "22"), 60),
        Job("series-thin-40", ("series", "thin", "40"), 60),
    ),
    "montecarlo": (
        Job("simulate-gue-df-5-2",
            ("simulate", "gue-df", "5", "2", "--samples", "100") + _MC, 60,
            "montecarlo"),
        Job("simulate-nc-nc-2-2",
            ("simulate", "nc-nc", "2", "2", "--samples", "1000") + _MC, 60,
            "montecarlo"),
    ),
}


@dataclass
class Outcome:
    """One job process: its measurements and, if it failed, why."""
    job_id: str
    rc: int | None = None
    stdout: bytes = b""
    setup_s: float | None = None
    wall_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    trace: dict | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["MEANDER_THREADS"] = str(nproc())
    return env


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's "end_to_end" or "per_layer" metrics."""
    return {m["name"]: m["unit"]
            for m in json.loads(BENCHMARK.read_text())[kind]}


def warm_up() -> None:
    """Import meandrics.cli once, so the measured imports find bytecode
    compiled, as a user's do after their first run."""
    subprocess.run([sys.executable, "-c", "import meandrics.cli"],
                   env=job_env(), cwd=ROOT, check=True)


def run_job(job_id: str, argv: list[str], trace: bool,
            timeout_s: float) -> Outcome:
    """Run one job process and collect its measurements."""
    outcome = Outcome(job_id)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"job-{os.getpid()}-{job_id.replace(':', '-')}"
    out_path, err_path, res_path = (stem.with_suffix(s) for s in
                                    (".out", ".err", ".json"))
    try:
        if timeout_s <= 0:
            outcome.errors.append("not started: the run's time limit was reached")
            return outcome
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "job.py"), str(res_path),
                 repr(spawned), "1" if trace else "0", "--", *argv],
                stdout=out, stderr=err, env=job_env(), cwd=ROOT)
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                outcome.errors.append(f"timed out after {timeout_s:.0f} s")
                return outcome
            finally:
                if proc.poll() is None:     # timed out, or run.py is stopping
                    proc.kill()
                    proc.wait()
        outcome.stdout = out_path.read_bytes()
        if not res_path.exists():
            tail = err_path.read_text(errors="replace")[-2000:]
            outcome.errors.append(f"exit {proc.returncode} with no result: {tail}")
            return outcome
        result = json.loads(res_path.read_text())
        if "exception" in result:
            outcome.errors.append("raised: " + result["exception"])
        if result["rc"] != proc.returncode:
            outcome.errors.append(f"process exit {proc.returncode} != cli exit {result['rc']}")
        if not Path(result["cli_file"]).resolve().is_relative_to(SRC):
            outcome.errors.append(f"imported meandrics from {result['cli_file']}")
        outcome.rc = proc.returncode
        outcome.setup_s = result["setup_s"]
        outcome.wall_s = result.get("wall_s")
        outcome.cpu_s = result.get("cpu_s")
        outcome.peak_rss_mb = result["peak_rss_mb"]
        outcome.trace = result.get("trace")
        return outcome
    finally:
        for path in (out_path, err_path, res_path):
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())["jobs"]


def check_output(job: Job, seed: int, rc: int | None, stdout: bytes,
                 expected: dict) -> list[str]:
    """Reasons the job's exit code and stdout are wrong; empty if right."""
    exp = expected[job.name]
    errors = []
    if rc != exp["rc"]:
        errors.append(f"exit code {rc}, expected {exp['rc']}")
    digest = hashlib.sha256(stdout).hexdigest()
    want = exp.get("sha256") or exp.get("sha256_by_seed", {}).get(str(seed))
    if want is not None and digest != want:
        errors.append(f"stdout sha256 {digest[:16]}..., expected {want[:16]}...")
    if job.check == "oracle":
        errors += _check_oracle(stdout)
    elif job.check == "montecarlo":
        errors += _check_montecarlo(stdout, seed, exp)
    return errors


def _check_oracle(stdout: bytes) -> list[str]:
    lines = stdout.decode("utf-8", "replace").splitlines()
    if not lines:
        return ["no output"]
    *checks, summary = lines
    bad = [line for line in checks if not line.startswith("PASS ")]
    if bad:
        return [f"not PASS: {line}" for line in bad]
    if not checks or summary != f"{len(checks)}/{len(checks)} checks passed":
        return [f"summary line {summary!r} after {len(checks)} PASS lines"]
    return []


def _check_montecarlo(stdout: bytes, seed: int, exp: dict) -> list[str]:
    try:
        reports = [json.loads(line) for line in stdout.decode().splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"unreadable report: {exc}"]
    if not all(isinstance(r, dict) for r in reports):
        return ["a report line is not a JSON object"]
    if [r.get("d") for r in reports] != exp["d"]:
        return [f"reports for d={[r.get('d') for r in reports]}, expected {exp['d']}"]
    errors = []
    for r in reports:
        if r.get("seed") != seed:
            errors.append(f"d={r['d']}: seed {r.get('seed')}, expected {seed}")
        if r.get("exact_target") != exp["exact_target"]:
            errors.append(f"d={r['d']}: exact_target {r.get('exact_target')}, "
                          f"expected {exp['exact_target']}")
        for key in ("mean", "stderr"):
            if not (isinstance(r.get(key), float) and math.isfinite(r[key])):
                errors.append(f"d={r['d']}: {key} {r.get(key)!r} is not finite")
    return errors


# ---------------------------------------------------------------------------
# Passes and metrics
# ---------------------------------------------------------------------------

def run_pass(jobs: tuple[Job, ...], seed: int, trace: bool, tag: str,
             deadline: float, expected: dict,
             first_digest: dict[str, str]) -> list[Outcome]:
    """Run the job list once and check every output.  A job's stdout must
    also repeat the bytes of its first run in this benchmark run."""
    outcomes = []
    for job in jobs:
        limit = min(job.timeout_s, deadline - time.monotonic())
        o = run_job(f"{tag}:{job.name}", job.argv(seed), trace, limit)
        if not o.errors:
            o.errors += check_output(job, seed, o.rc, o.stdout, expected)
            ref = first_digest.setdefault(job.name, o.digest)
            if o.digest != ref:
                o.errors.append("stdout differs from this job's first run")
        for err in o.errors:
            print(f"FAILED {o.job_id}: {err}", file=sys.stderr)
        outcomes.append(o)
    return outcomes


def _pass_sum(outcomes: list[Outcome], key: str) -> float | None:
    values = [getattr(o, key) for o in outcomes]
    return None if None in values else sum(values)


def _median(values: list[float | None]) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _job_medians(passes: list[list[Outcome]], key: str) -> float:
    """Each job's median over the passes, summed over the job list."""
    return sum(_median([getattr(p[j], key) for p in passes])
               for j in range(len(passes[0])))


def end_to_end(passes: list[list[Outcome]]) -> dict[str, float]:
    setup = [o.setup_s for p in passes for o in p]
    return {
        "wall_s": _job_medians(passes, "wall_s"),
        "setup_s": len(passes[0]) * _median(setup),
        "cpu_s": _job_medians(passes, "cpu_s"),
        "peak_rss_mb": max((o.peak_rss_mb for p in passes for o in p
                            if o.peak_rss_mb is not None), default=0.0),
    }


def per_layer(plain: list[Outcome], traced: list[Outcome]) -> dict[str, float]:
    totals = tracing.merge_totals([tracing.job_totals(o.trace) for o in traced
                                   if o.trace is not None])
    metrics = tracing.finalize({k: totals.get(k, 0.0) for k in
                                tracing.TOTAL_KEYS})
    metrics["cli.output_bytes"] = sum(len(o.stdout) for o in traced)
    metrics["trace.overhead_s"] = ((_pass_sum(traced, "wall_s") or 0.0)
                                   - (_pass_sum(plain, "wall_s") or 0.0))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; its record holds the printed result under "result"."""
    jobs = WORKLOADS[name]
    expected = load_expected()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    warm_up()
    first_digest: dict[str, str] = {}
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    durations = []
    while True:
        t0 = time.monotonic()
        k = len(plain)
        plain.append(run_pass(jobs, seed, False, f"p{k}", deadline,
                              expected, first_digest))
        if trace:
            traced.append(run_pass(jobs, seed, True, f"t{k}", deadline,
                                   expected, first_digest))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed >= RUN_LIMIT_S or (
                len(plain) + len(traced) >= MIN_PASSES
                and elapsed + statistics.mean(durations) / 2 > seconds):
            break

    outcomes = [o for p in plain + traced for o in p]
    failed = sum(1 for o in outcomes if o.errors)
    if trace:
        metrics = tracing.median_metrics(
            [per_layer(p, t) for p, t in zip(plain, traced)])
        write_trace(name, seed, traced)
    else:
        metrics = end_to_end(plain)
    units = declared_units("per_layer" if trace else "end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(plain), "meta": metadata(seed),
        "samples": {key: [{o.job_id: getattr(o, key) for o in p}
                          for p in plain + traced]
                    for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")},
        "failures": {o.job_id: o.errors for o in outcomes if o.errors},
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def write_trace(name: str, seed: int, traced: list[list[Outcome]]) -> None:
    """Every span of the traced passes, grouped by job id, times relative
    to the job's cli.main start."""
    jobs = []
    for o in (o for p in traced for o in p if o.trace is not None):
        spans = o.trace["spans"]
        t0 = min((s[2] for s in spans), default=0.0)
        jobs.append({
            "job_id": o.job_id, "names": o.trace["names"],
            "columns": ["name", "parent", "start", "end", "cpu_start", "cpu_end"],
            "spans": [[s[0], s[1], round(s[2] - t0, 7), round(s[3] - t0, 7),
                       s[4], s[5]] for s in spans],
            "counters": o.trace["counters"],
        })
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "jobs": jobs},
                               separators=(",", ":")) + "\n")


def metadata(seed: int) -> dict:
    import numpy
    import platform

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "meandrics").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_sha": git_sha, "source_sha256": source.hexdigest(),
        "nproc": nproc(), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "MEANDER_THREADS": str(nproc()), "seed": seed,
    }


def print_record(record: dict) -> None:
    result = record["result"]
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{record['workload']:<10} {name:<52} {m['value']:>16.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{record['workload']:<10} {'failed_ratio':<52} {ratio:>16.6g} ratio"
          f" ({result['failed']}/{result['attempted']} jobs)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload and print all their metrics")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running job is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (SRC / "meandrics" / "cli.py", EXPECTED, BENCHMARK)
               if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.all else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        records.append(record)
    if args.all:
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
