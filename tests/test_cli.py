import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from meandrics import cli, matrix_models, meanders, transforms


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The functions each command with --out does its work in.
_WORK = {
    "enumerate": [(meanders, "side_partitions")],
    "polynomial": [(meanders, "meander_polynomial")],
    "series": [(transforms, "thin_series"), (transforms, "shallow_top_series"),
               (transforms, "semi_meander_series")],
    "simulate": [(matrix_models, "estimate"), (matrix_models, "estimate_sweep"),
                 (matrix_models, "exact_target")],
}


def refuse_work(monkeypatch, command):
    """Make every work function of command fail the test if called."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} did work before its checks")
    for module, attr in _WORK[command]:
        monkeypatch.setattr(module, attr, refuse)


class TestEnumerate:
    def test_nc_3(self, capsys):
        code, out, _ = run(capsys, "enumerate", "nc", "3")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 6
        assert json.loads(lines[-1]) == {"count": 5}
        parts = [json.loads(ln) for ln in lines[:-1]]
        assert [[1], [2], [3]] in parts and [[1, 2, 3]] in parts

    def test_interval_1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "interval", "1")
        assert code == 0
        assert out.splitlines() == ['[[1]]', '{"count": 1}']

    def test_kr_interval_10(self, capsys):
        code, out, _ = run(capsys, "enumerate", "kr-interval", "10")
        lines = out.strip().splitlines()
        assert code == 0
        assert json.loads(lines[-1]) == {"count": 512}
        assert len(lines) == 513

    def test_rainbow(self, capsys):
        code, out, _ = run(capsys, "enumerate", "rainbow", "6")
        assert code == 0
        assert json.loads(out.splitlines()[0]) == [[1, 6], [2, 5], [3, 4]]

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "enumerate", "nc", "20")
        assert code == 3
        assert "budget" in err

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "nc3.jsonl"
        code, out, _ = run(capsys, "enumerate", "nc", "3", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().count("\n") == 6


class TestPolynomial:
    def test_thin_table_matches_formula(self, capsys):
        code, out, _ = run(capsys, "polynomial", "thin", "1..5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,count"
        for line in lines[1:]:
            n, k, count = (int(x) for x in line.split(","))
            assert count == meanders.thin_count(n, k)

    def test_full_1_json(self, capsys):
        code, out, _ = run(capsys, "polynomial", "full", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 1, "class": "full", "coeffs": {"1": 1}}

    def test_budget(self, capsys):
        code, _, err = run(capsys, "polynomial", "full", "10..10")
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize("argv", [("full", "0"), ("thin", "x"),
                                      ("thin", "5..3"), ("thin", "0..2"),
                                      ("thin", "2.."), ("semi", "..4")])
    def test_bad_range_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "polynomial", *argv)
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestSeries:
    def test_semi_4_second_coefficient(self, capsys):
        code, out, _ = run(capsys, "series", "semi", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["series"] == "semi" and doc["order"] == 4
        c2 = doc["coefficients"][1]
        assert c2["n"] == 2
        assert c2["terms"] == [
            {"eY": 0, "eA": 1, "eB": 0, "coeff": "1"},
            {"eY": 1, "eA": 0, "eB": 0, "coeff": "1"},
        ]

    def test_thin_series_runs(self, capsys):
        code, out, _ = run(capsys, "series", "thin", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["coefficients"][0]["terms"] == [
            {"eY": 0, "eA": 0, "eB": 0, "coeff": "1"}]

    @pytest.mark.parametrize("which,build", [
        ("thin", lambda n: transforms.thin_series(n)[0]),
        ("shallow-top", lambda n: transforms.shallow_top_series(n)[0]),
        ("semi", transforms.semi_meander_series)], ids=["thin", "shallow-top", "semi"])
    def test_streamed_output_is_indented_json_dumps(self, capsys, tmp_path,
                                                     which, build):
        for order in range(1, 9):
            doc = {"series": which, "order": order,
                   "coefficients": transforms.series_to_json(build(order))}
            want = json.dumps(doc, indent=1) + "\n"
            code, out, _ = run(capsys, "series", which, str(order))
            assert code == 0 and out == want
            path = tmp_path / f"{which}-{order}.json"
            code, out, _ = run(capsys, "series", which, str(order), "--out", str(path))
            assert code == 0 and out == ""
            assert path.read_bytes() == want.encode()

    def test_streamed_empty_coefficient(self):
        series = transforms.TruncSeries.x(3)     # X: coefficients 2 and 3 are 0
        buf = io.StringIO()
        cli._write_series(buf, "thin", series)
        doc = {"series": "thin", "order": 3,
               "coefficients": transforms.series_to_json(series)}
        assert buf.getvalue() == json.dumps(doc, indent=1) + "\n"
        assert '"terms": []' in buf.getvalue()

    @pytest.mark.parametrize("which,order", [
        ("thin", "800"), ("thin", "65"), ("shallow-top", "29"), ("semi", "257")])
    def test_over_budget_exits_3_before_any_work(self, capsys, monkeypatch,
                                                 which, order):
        refuse_work(monkeypatch, "series")
        code, out, err = run(capsys, "series", which, order)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestVerify:
    def test_thin_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "thin", "--budget-override", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(ln.startswith("PASS") for ln in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_corrupted_build_fails_with_counterexample(self, capsys, monkeypatch):
        monkeypatch.setattr(meanders, "thin_count", lambda n, k: 1)
        code, out, _ = run(capsys, "verify", "thin", "--budget-override", "4")
        assert code == 1
        fail_lines = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert fail_lines
        assert any("n=" in ln and "k=" in ln for ln in fail_lines)

    def test_budget_override_warns_on_stderr(self, capsys):
        _, out, err = run(capsys, "verify", "semi", "--budget-override", "5")
        assert "override" in err
        assert "override" not in out


class TestSimulate:
    def test_thin_exact_row(self, capsys):
        code, out, _ = run(capsys, "simulate", "thin", "3", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["mean"] == 72.0 and doc["exact_target"] == 72
        assert doc["samples"] == 0 and doc["stderr"] == 0.0

    def test_nc_nc_small(self, capsys):
        code, out, _ = run(capsys, "simulate", "nc-nc", "1", "2",
                           "--d", "8", "--samples", "100", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["mean"] - 2.0) < 0.5
        assert doc["exact_target"] == 2

    def test_deterministic_output(self, capsys):
        args = ("simulate", "shallow-top", "2", "2",
                "--d", "4,8", "--samples", "50", "--seed", "9")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "simulate", "thin", "2", "2", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "model,n,l,d,samples,seed,mean,stderr,exact_target"
        assert lines[1].startswith("thin,2,2,")

    def test_bad_model_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "bogus", "1", "2"])
        assert exc.value.code == 2

    def test_bad_d_list(self, capsys):
        code, _, err = run(capsys, "simulate", "nc-nc", "1", "2", "--d", "4,x")
        assert code == 2 and "bad --d" in err

    def test_invalid_spec(self, capsys):
        code, _, err = run(capsys, "simulate", "nc-nc", "0", "2")
        assert code == 2

    @pytest.mark.parametrize("model,d", [
        pytest.param("gue-df", "8,1", id="8,1"),
        pytest.param("gue-df", "1,8", id="1,8"),
        pytest.param("gue-df", "4,8,0,16", id="4,8,0,16"),
        pytest.param("thin", "8,1", id="thin-8,1"),
        pytest.param("gue-df", "", id="empty")])
    def test_every_d_checked_before_any_work(self, capsys, monkeypatch, model, d):
        refuse_work(monkeypatch, "simulate")
        code, out, err = run(capsys, "simulate", model, "2", "2",
                             "--d", d, "--samples", "2")
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("n,l", [("4097", "1"), ("257", "16"), ("1", "65")])
    def test_thin_over_budget_exits_3_before_any_work(self, capsys, monkeypatch, n, l):
        refuse_work(monkeypatch, "simulate")
        code, out, err = run(capsys, "simulate", "thin", n, l)
        lines = err.splitlines()
        assert code == 3 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert f"thin exact target for l={l} at n={n} exceeds budget" in lines[0]

    @pytest.mark.parametrize("argv, what", [
        pytest.param(("gue-df", "9", "2"),
                     "gue-df trace for l=2, d=8, 400 samples at n=9", id="gue-df"),
        pytest.param(("nc-nc", "5", "3", "--d", "4,8"),
                     "nc-nc trace for l=3, d=8, 400 samples at n=5", id="nc-nc"),
        pytest.param(("shallow-top", "1", "16", "--d", "64", "--samples", "4000"),
                     "shallow-top trace for l=16, d=64, 4000 samples at n=1",
                     id="shallow-top")])
    def test_trace_over_budget_exits_3_before_any_work(self, capsys, monkeypatch,
                                                       argv, what):
        refuse_work(monkeypatch, "simulate")
        code, out, err = run(capsys, "simulate", *argv)
        lines = err.splitlines()
        assert code == 3 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert what in lines[0]

    @pytest.mark.parametrize("argv", [
        ("gue-df", "3", "2", "--d", "4,8", "--samples", "20"),
        ("nc-nc", "2", "2", "--d", "4,8", "--samples", "50")], ids=lambda a: a[0])
    def test_stdout_independent_of_thread_count(self, capsys, monkeypatch, argv):
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MEANDER_THREADS", threads)
            meanders._thread_count.cache_clear()
            code, out, _ = run(capsys, "simulate", *argv, "--seed", "3")
            assert code == 0
            outs.append(out)
        meanders._thread_count.cache_clear()
        assert outs[0] == outs[1] and len(outs[0].splitlines()) == 2

    def test_thin_target_computed_once_for_every_d(self, capsys, monkeypatch):
        built = []
        z_thin = matrix_models.z_thin
        monkeypatch.setattr(matrix_models, "z_thin",
                            lambda l: built.append(l) or z_thin(l))
        matrix_models.thin_exact.cache_clear()
        code, out, _ = run(capsys, "simulate", "thin", "5", "7", "--d", "8,16,32")
        matrix_models.thin_exact.cache_clear()
        assert code == 0 and built == [7]
        assert [json.loads(line)["exact_target"] for line in out.splitlines()] == \
            [7 * 16 ** 4] * 3


class TestUsage:
    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [("enumerate", "nc", "3"),
                                      ("polynomial", "thin", "3"),
                                      ("verify", "thin"), ("verify", "lemmas")])
    @pytest.mark.parametrize("budget", ["0", "-1", "x"])
    def test_budget_override_below_1_exits_2(self, capsys, argv, budget):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--budget-override", budget])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == "" and "error:" in captured.err

    def test_enumerate_honours_budget_override_1(self, capsys):
        code, out, err = run(capsys, "enumerate", "nc", "3", "--budget-override", "1")
        assert code == 3 and out == ""
        assert "override" in err and "budget 1" in err


class TestOut:
    @pytest.mark.parametrize("argv", [("enumerate", "nc", "3"),
                                      ("polynomial", "thin", "3"),
                                      ("series", "thin", "3"),
                                      ("simulate", "thin", "2", "2")])
    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv, where):
        path = tmp_path / "missing" / "x" if where == "missing-dir" else tmp_path
        code, out, err = run(capsys, *argv, "--out", str(path))
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("argv", [("enumerate", "nc", "3"),
                                      ("polynomial", "full", "8"),
                                      ("series", "thin", "3"),
                                      ("simulate", "nc-nc", "2", "2", "--samples", "2")],
                             ids=lambda argv: argv[0])
    def test_unwritable_out_exits_2_before_any_work(self, capsys, monkeypatch,
                                                    tmp_path, argv):
        refuse_work(monkeypatch, argv[0])
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x"))
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("argv", [("series", "thin", "65"),
                                      ("enumerate", "nc", "20"),
                                      ("polynomial", "full", "10"),
                                      ("simulate", "nc-nc", "10", "2"),
                                      pytest.param(("simulate", "gue-df", "9", "2"),
                                                   id="simulate-trace")],
                             ids=lambda argv: argv[0])
    def test_over_budget_exits_3_before_opening_out(self, capsys, monkeypatch,
                                                    tmp_path, argv):
        refuse_work(monkeypatch, argv[0])
        path = tmp_path / "kept.txt"
        path.write_bytes(b"written before\n")
        code, out, err = run(capsys, *argv, "--out", str(path))
        lines = err.splitlines()
        assert code == 3 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert path.read_bytes() == b"written before\n"


# ---------------------------------------------------------------------------
# Every argv exits 0-3 (or argparse's SystemExit(2)) and never raises
# ---------------------------------------------------------------------------

# --out values, replaced in the test by paths under a temporary directory
_OUT_FILE, _OUT_MISSING, _OUT_DIR = "<file>", "<missing-dir>/x", "<dir>"
_BAD_INTS = ["0", "-1", "-7", "x", "2.5", ""]


def _mostly(good, bad):
    """good in about three draws of four, bad in the others."""
    return st.sampled_from([good, good, good, bad]).flatmap(lambda s: s)


def _ints(hi: int):
    return _mostly(st.integers(1, hi).map(str), st.sampled_from(_BAD_INTS))


def _choice(names):
    return _mostly(st.sampled_from(names), st.just("bogus"))


def _options(**flags):
    """A list of (flag, value) pairs drawn from flags, each at most once,
    plus now and then a flag no subcommand knows."""
    pairs = [st.tuples(st.just(f"--{name.replace('_', '-')}"), values)
             for name, values in flags.items()]
    return st.lists(_mostly(st.one_of(*pairs), st.just(("--bogus", "1"))),
                    max_size=len(flags) + 1, unique_by=lambda p: p[0])


_budgets = st.sampled_from(["1", "2", "6", "1000", "0", "-3", "x"])
_outs = st.sampled_from([_OUT_FILE, _OUT_MISSING, _OUT_DIR])
_ranges = st.one_of(
    _ints(6),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from(["5..3", "0..2", "-1..2", "2..", "..4", "1..x", "1...3", "..", "1,3"]))
_d_lists = st.one_of(
    st.lists(st.integers(-1, 8), min_size=1, max_size=3).map(
        lambda ds: ",".join(map(str, ds))),
    st.sampled_from(["4,x", ",", "", "8,", " 4"]))


def _command(name, positionals, options):
    return st.tuples(st.just(name), st.tuples(*positionals), options).map(
        lambda t: [t[0], *t[1], *(x for pair in t[2] for x in pair)])


_argv = st.one_of(
    _command("enumerate",
             [_choice(["nc", "interval", "kr-interval", "rainbow"]), _ints(6)],
             _options(budget_override=_budgets, out=_outs, format=_choice(["json"]))),
    _command("polynomial",
             [_choice([c.value for c in meanders.MeanderClass]), _ranges],
             _options(budget_override=_budgets, out=_outs,
                      format=_choice(["csv", "json"]))),
    # series has no --budget-override: argparse rejects it
    _command("series",
             [_choice(["thin", "shallow-top", "semi"]),
              st.one_of(_ints(12), st.sampled_from(["29", "65", "257", "100000"]))],
             _options(out=_outs, format=_choice(["json"]), budget_override=_budgets)),
    _command("verify", [st.just("bogus")], _options(budget_override=_budgets)),
    # --samples is always given and small, so that examples stay fast
    _command("simulate",
             [_choice([m.value for m in matrix_models.Model]), _ints(3), _ints(2),
              st.just("--samples"), _ints(4)],
             _options(d=_d_lists, out=_outs, format=_choice(["json", "csv"]),
                      seed=st.sampled_from(["0", "7", "-1", "x"]),
                      second_map=_choice(["independent", "same", "conjugate"]))),
    # no subcommand, or one without its arguments
    st.lists(_choice(["enumerate", "polynomial", "series", "verify", "simulate"]),
             max_size=2))


@given(_argv)
@example(["simulate", "gue-df", "2", "2", "--d", "8,1", "--samples", "2"])
@example(["enumerate", "nc", "3", "--out", _OUT_MISSING])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
def test_every_argv_exits_0_to_3(tmp_path, argv):
    # one directory for every example: a file written by one is overwritten
    outs = {_OUT_FILE: str(tmp_path / "out.txt"),
            _OUT_MISSING: str(tmp_path / "missing" / "x"), _OUT_DIR: str(tmp_path)}
    argv = [outs.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse rejects the argv
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2, 3), argv
    if code in (2, 3):
        assert "error:" in err.getvalue(), argv


class TestThreads:
    @pytest.mark.parametrize("raw, want", [("zero", 1), ("0", 1), ("-2", 1),
                                           ("100000", None)])
    def test_bad_value_warns_once_and_clamps(self, capsys, monkeypatch, raw, want):
        monkeypatch.setenv("MEANDER_THREADS", raw)
        meanders._thread_count.cache_clear()
        cpus = os.cpu_count() or 1
        assert meanders._threads() == meanders._threads() == (want or cpus)
        err = capsys.readouterr().err
        assert err.count("warning: MEANDER_THREADS") == 1

    def test_valid_value_is_silent(self, capsys, monkeypatch):
        monkeypatch.setenv("MEANDER_THREADS", "1")
        meanders._thread_count.cache_clear()
        assert meanders._threads() == 1
        assert capsys.readouterr().err == ""

    def test_stdout_unchanged_by_bad_value(self, capsys, monkeypatch):
        monkeypatch.delenv("MEANDER_THREADS", raising=False)
        _, plain, _ = run(capsys, "polynomial", "semi", "1..6")
        monkeypatch.setenv("MEANDER_THREADS", "many")
        meanders._thread_count.cache_clear()
        meanders._pair_histogram.cache_clear()
        code, out, err = run(capsys, "polynomial", "semi", "1..6")
        assert code == 0 and out == plain
        assert "MEANDER_THREADS" in err
