import io
import json
import os

import pytest

from meandrics import cli, meanders, transforms


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        def refuse(order):
            raise AssertionError("series built past its budget")
        for attr in ("thin_series", "shallow_top_series", "semi_meander_series"):
            monkeypatch.setattr(cli.transforms, attr, refuse)
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
