"""Command-line front end.

Subcommands:

- ``enumerate {nc,interval,kr-interval,rainbow} N`` streams partitions as
  JSON lines plus a trailing count line;
- ``polynomial CLASS RANGE`` prints loop-count tables (csv or json);
- ``series {thin,shallow-top,semi} ORDER`` dumps a generating series;
- ``verify SUITE`` runs oracle-equivalence checks, printing one
  PASS/FAIL line per check;
- ``simulate MODEL N L`` runs the random-matrix estimators over a list
  of dimensions.

Exit codes: 0 success, 1 verification failure or a broken pipe (stdout
closed early, as by ``| head``; nothing is printed), 2 usage error,
3 resource limit exceeded.  Commands raise ``_UsageError`` or
``meanders.ResourceLimitError``; ``main`` alone maps them to exit codes
2 and 3 with one ``error:`` line.  Every command checks its arguments
and all its budgets, then opens ``--out``, then does the work, so an
unwritable ``--out`` exits 2 before any work and an exit 3 leaves an
existing ``--out`` file untouched.  For ``verify`` the budgets are a
plan checked first: ``verify.run_suite`` checks every cap in
``verify.SUITE_CAPS`` for the named suites before the first check runs.
The fixed caps of every command live in ``meanders``
(``DEFAULT_BUDGETS``, ``ENUM_BUDGETS``, ``SERIES_BUDGETS`` and
``NC_PAIR_TABLE_BUDGET``).  All output is deterministic given the
arguments (and seed); warnings go to stderr so stdout stays stable.
The MEANDER_THREADS environment variable caps the worker threads of
every pair scan (loop polynomials, generating and cumulant coefficients,
and the pairwise cycle counts behind ``verify``) and of the Monte Carlo
sample batches and traces of ``simulate``.  A pair scan uses the threads
only when it composes at least ``meanders._POOL_CELLS`` (pair, point)
cells; smaller ones run on the calling thread.  Output depends neither
on the thread count nor on that rule.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterator, Sequence, TextIO

from . import matrix_models, meanders, transforms, verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    """A bad argument found after parsing; main prints it and exits 2."""


def _parse_range(text: str) -> tuple[int, int]:
    """N or LO..HI with 1 <= LO <= HI; _UsageError otherwise."""
    lo, dots, hi = text.partition("..")
    try:
        bounds = int(lo), int(hi if dots else lo)
    except ValueError:
        bounds = 0, 0
    if not 1 <= bounds[0] <= bounds[1]:
        raise _UsageError(f"range must be N or LO..HI with 1 <= LO <= HI, got {text!r}")
    return bounds


def _budget(text: str) -> int:
    """argparse type of --budget-override: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """stdout, or the file at path opened for writing and closed on exit.

    Each command enters it after all its budget checks and before any
    work, so a command that exits 3 leaves an existing file at path as it
    was, and one that cannot open path exits 2 without doing the work."""
    if path is None:
        yield sys.stdout
        return
    try:
        out = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _UsageError(f"cannot write --out {path!r}: {exc.strerror}") from None
    with out:
        yield out


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise _UsageError("n must be >= 1")
    budget = args.budget_override
    if budget is None:
        budget = meanders.ENUM_BUDGETS[args.kind]
    meanders._check_cap(f"{args.kind} enumeration", n, budget)
    with _output(args.out) as out:
        count = 0
        for part in meanders.side_partitions(args.kind, n):
            out.write(json.dumps(part.to_one_based()) + "\n")
            count += 1
        out.write(json.dumps({"count": count}) + "\n")
    return EXIT_OK


def cmd_polynomial(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.range)
    klass = meanders.MeanderClass(args.klass)
    meanders._check_budget(klass, hi, args.budget_override)
    with _output(args.out) as out:
        if args.format == "csv":
            out.write("n,k,count\n")
        for n in range(lo, hi + 1):
            poly = meanders.meander_polynomial(klass, n, budget=args.budget_override)
            if args.format == "json":
                out.write(json.dumps(poly.to_json()) + "\n")
            else:
                for _, k, count in poly.csv_rows():
                    out.write(f"{n},{k},{count}\n")
    return EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    order = args.order
    if order < 1:
        raise _UsageError("order must be >= 1")
    meanders._check_cap(f"{args.which} series", order, meanders.SERIES_BUDGETS[args.which])
    with _output(args.out) as out:
        if args.which == "thin":
            series = transforms.thin_series(order)[0]
        elif args.which == "shallow-top":
            series = transforms.shallow_top_series(order)[0]
        else:
            series = transforms.semi_meander_series(order)
        _write_series(out, args.which, series)
    return EXIT_OK


def _write_series(out, which: str, series: transforms.TruncSeries) -> None:
    """Write json.dumps({"series": which, "order": ..., "coefficients":
    transforms.series_to_json(series)}, indent=1) and a newline, one
    coefficient at a time, so the document is never held whole."""
    out.write(f'{{\n "series": {json.dumps(which)},\n "order": {series.order},\n'
              ' "coefficients": [\n')
    for n, poly in enumerate(series.coefficients(), 1):
        terms = ",\n".join(
            f'    {{\n     "eY": {ey},\n     "eA": {ea},\n     "eB": {eb},\n'
            f'     "coeff": "{c}"\n    }}'
            for (ey, ea, eb), c in poly.terms())
        out.write(f'  {{\n   "n": {n},\n   "terms": '
                  + (f"[\n{terms}\n   ]" if terms else "[]")
                  + ("\n  },\n" if n < series.order else "\n  }\n"))
    out.write(" ]\n}\n")


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(args.suite, budget=args.budget_override)
    failures = 0
    for name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        print(f"{tag} {name} -- {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_simulate(args: argparse.Namespace) -> int:
    model = matrix_models.Model(args.model)
    try:
        d_values = [int(x) for x in args.d.split(",")]
    except ValueError:
        raise _UsageError(f"bad --d list {args.d!r}") from None
    try:
        # one spec per dimension, so that every d is checked before any work
        specs = [matrix_models.ModelSpec(
            model, args.n, args.l, d=d,
            samples=args.samples, seed=args.seed,
            second_map=args.second_map) for d in d_values]
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    matrix_models.check_target_budget(model, args.n, args.l)
    for spec in specs:
        matrix_models.check_trace_budget(spec)
    with _output(args.out) as out:
        for spec in specs:
            doc = matrix_models.estimate(spec).to_json()
            if args.format == "json":
                out.write(json.dumps(doc) + "\n")
                continue
            if spec is specs[0]:        # the header: the JSON keys
                out.write(",".join(doc) + "\n")
            out.write(",".join(map(str, doc.values())) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meandrics",
        description="Enumeration, generating series and matrix models for "
                    "meandric systems with one shallow side.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream partitions as JSON lines")
    p.add_argument("kind", choices=list(meanders.ENUM_BUDGETS))
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--budget-override", type=_budget, default=None)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("polynomial", help="loop-count tables per class")
    p.add_argument("klass", metavar="class",
                   choices=[c.value for c in meanders.MeanderClass])
    p.add_argument("range", help="single n or lo..hi")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--budget-override", type=_budget, default=None)
    p.set_defaults(fn=cmd_polynomial)

    p = sub.add_parser("series", help="dump a generating series as JSON")
    p.add_argument("which", choices=["thin", "shallow-top", "semi"])
    p.add_argument("order", type=int)
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("verify", help="run oracle-equivalence suites")
    p.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--budget-override", type=_budget, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="random-matrix estimates vs exact counts")
    p.add_argument("model", choices=[m.value for m in matrix_models.Model])
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--d", default="8", help="comma-separated dimensions")
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--second-map", choices=["independent", "same", "conjugate"],
                   default="independent", help="nc-nc only")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; the only place that maps errors to exit codes."""
    args = build_parser().parse_args(argv)
    if getattr(args, "budget_override", None) is not None:
        print(f"warning: budget override {args.budget_override}", file=sys.stderr)
    try:
        code = args.fn(args)
        sys.stdout.flush()      # so that a broken pipe raises here
        return code
    except (_UsageError, meanders.ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, _UsageError) else EXIT_RESOURCE
    except BrokenPipeError:
        # quiet at shutdown too; 1 is Python's own exit code on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
