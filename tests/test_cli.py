"""Tests for the command-line surface and its file outputs."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

import harqsdo
import oracles
from harqsdo import CodeParams, cli, estimate, exhaustive_search, optimize
from harqsdo.cli import COMMANDS, build_config, main, parse_int_range, parse_float_range


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def read_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# harq-sdo 0.1.0 ")
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return list(reader)


class TestParsing:
    def test_int_ranges(self):
        assert parse_int_range("32") == [32]
        assert parse_int_range("4:8") == [4, 5, 6, 7, 8]
        assert parse_int_range("4:10:3") == [4, 7, 10]
        assert parse_int_range("88,104") == [88, 104]
        assert parse_int_range([3, 5]) == [3, 5]
        assert parse_int_range(8.0) == parse_int_range("8.0") == [8]
        assert parse_int_range([3.0, 5]) == parse_int_range("3.0:5:2") == [3, 5]

    def test_float_ranges(self):
        assert parse_float_range("0.5") == [0.5]
        assert parse_float_range("0.3,0.5") == [0.3, 0.5]
        assert parse_float_range(" 0.3, 0.5 ") == parse_float_range([0.3, "0.5"]) == [0.3, 0.5]
        assert parse_float_range(1) == [1.0]

    @pytest.mark.parametrize("argv", [
        ["optimize", "--k", "8", "--n", "24", "--m", "3", "--model", "all"],
        ["sweep-k", "--k", "20:26:2", "--n", "24", "--m", "3", "--model", "all"],
        ["sweep-k", "--k", "20:26:2", "--n", "24", "--m", "3", "--model", "all",
         "--format", "json"],
    ], ids=["optimize", "sweep-k", "json"])
    def test_negative_zero_eps_prints_the_zero_run(self, argv, tmp_path, capsys):
        assert [math.copysign(1.0, x) for x in parse_float_range("-0.0,0")] == [1.0, 1.0]
        path = tmp_path / "run.json"
        path.write_text('{"epsilon": -0.0}')
        code, zero = run_cli(argv + ["--eps", "0"], capsys)
        assert code == 0 and "epsilon=0 " in zero
        assert run_cli(argv + ["--eps", "-0.0"], capsys) == (0, zero)
        assert run_cli(argv + ["--config", str(path)], capsys) == (0, zero)

    def test_bad_float_range(self):
        for text, shown in [("abc", "'abc'"), ("0.3, abc", "'abc'"), (None, "None"),
                            ([0.3, None], "None"), ({}, "{}"), (False, "False")]:
            with pytest.raises(ValueError, match=f"^epsilon must be a number, got {shown}$"):
                parse_float_range(text, "epsilon")

    def test_bad_range(self):
        with pytest.raises(ValueError):
            parse_int_range("9:4")
        for text in ("8.5", "8,8.5", "4:8.5", 8.5, [8, 8.5], "eight"):
            with pytest.raises(ValueError, match="^k must be an integer, got "):
                parse_int_range(text, "k")

    @pytest.mark.parametrize("text", ["8:100000000000000000000", "1e2:1e20", "0:1e19:1"])
    def test_range_longer_than_a_list_names_the_field(self, text):
        with pytest.raises(ValueError, match=f"^n range '{text}' is too long$"):
            parse_int_range(text, "n")

    def test_unknown_command(self):
        with pytest.raises(ValueError, match="invalid choice: 'frobnicate'"):
            build_config(["frobnicate"])

    def test_flags_before_the_command(self, capsys):
        code_before, before = run_cli(["--k", "8", "--n", "24", "--m", "3", "optimize"], capsys)
        code_after, after = run_cli(["optimize", "--k", "8", "--n", "24", "--m", "3"], capsys)
        assert code_before == code_after == 0
        assert before == after
        assert read_csv(before)[0]["m"] == "3"

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in COMMANDS)


class TestConstantsCommand:
    def test_digits(self, capsys):
        code, out = run_cli(["constants"], capsys)
        assert code == 0
        rows = {r["name"]: r["value"] for r in read_csv(out)}
        assert rows["erdos_borwein"].startswith("1.6066951524")
        assert rows["digital_search_tree"].startswith("1.1373387363")
        assert float(rows["overhead_moment_2"]) == pytest.approx(5.3255032015, abs=1e-9)


class TestValidateCommand:
    def test_passes_and_exit_zero(self, capsys):
        code, out = run_cli(["validate"], capsys)
        assert code == 0
        rows = read_csv(out)
        assert rows and all(r["verdict"] == "pass" for r in rows)
        names = {r["name"] for r in rows}
        # capacity and monotonicity are enforced here
        assert "throughput_below_capacity" in names
        assert "ack_monotone_in_t" in names


class TestOptimizeCommand:
    def test_methods_and_values(self, capsys):
        code, out = run_cli(
            ["optimize", "--k", "8", "--n", "24", "--m", "3", "--eps", "0.5",
             "--model", "all"],
            capsys,
        )
        assert code == 0
        rows = read_csv(out)
        assert [r["method"] for r in rows] == ["es", "na", "lna"]
        es = exhaustive_search(CodeParams(8, 24, 0.5), 3)
        got = rows[0]
        assert [got["n1"], got["n2"], got["n3"]] == [str(b) for b in es.schedule.boundaries]
        assert float(got["expected_symbols"]) == pytest.approx(es.objective, rel=1e-11)

    def test_csv_json_numeric_equality(self, capsys):
        argv = ["optimize", "--k", "8", "--n", "20", "--m", "2", "--eps", "0.3",
                "--model", "na"]
        _, out_csv = run_cli(argv + ["--format", "csv"], capsys)
        _, out_json = run_cli(argv + ["--format", "json"], capsys)
        row_csv = read_csv(out_csv)[0]
        payload = json.loads(out_json)
        row_json = payload["rows"][0]
        assert float(row_csv["expected_symbols"]) == row_json["expected_symbols"]
        assert float(row_csv["throughput"]) == row_json["throughput"]
        assert [int(row_csv["n1"]), int(row_csv["n2"])] == row_json["schedule"]


class TestSweepKCommand:
    def test_single_point_degenerates_to_optimize(self, capsys):
        _, sweep = run_cli(
            ["sweep-k", "--k", "8", "--n", "24", "--m", "3", "--eps", "0.5",
             "--model", "na"],
            capsys,
        )
        _, single = run_cli(
            ["optimize", "--k", "8", "--n", "24", "--m", "3", "--eps", "0.5",
             "--model", "na"],
            capsys,
        )
        assert read_csv(sweep) == read_csv(single)

    def test_cells_found_once_per_k_and_read_a_chunk_ahead(self, monkeypatch, capsys):
        # each (k, n, m) is checked for a schedule once, and with curve
        # chunks of two 89-point curves the stream reads at most two k past
        # the row being solved, so a long k range never holds its rows' cells
        monkeypatch.setattr("harqsdo.channel._CURVE_CELLS", 2 * 89)
        checked, ahead = [], []
        feasible, row_entries = cli._feasible, cli._row_entries

        def counted(k, n, m):
            checked.append((k, n, m))
            return feasible(k, n, m)

        def watched(k, *args):
            ahead.append(max(seen for seen, _, _ in checked) - k)
            return row_entries(k, *args)

        monkeypatch.setattr(cli, "_feasible", counted)
        monkeypatch.setattr(cli, "_row_entries", watched)
        _, out = run_cli(["sweep-k", "--k", "1:84", "--n", "88", "--m", "5", "--eps", "0.5",
                          "--model", "na"], capsys)
        assert [row["method"] for row in read_csv(out)] == ["na"] * 84
        assert sorted(checked) == [(k, 88, 5) for k in range(1, 85)]
        assert len(ahead) == 84 and max(ahead) <= 2

    def test_infeasible_rows_marked_skipped(self, capsys):
        _, out = run_cli(
            ["sweep-k", "--k", "22,23,26", "--n", "24", "--m", "3", "--eps", "0.5",
             "--model", "na"],
            capsys,
        )
        rows = read_csv(out)
        by_k = {r["k"]: r for r in rows}
        assert by_k["22"]["method"] == "na"
        assert by_k["23"]["method"] == "skipped"  # k + m - 1 > n
        assert by_k["26"]["method"] == "skipped"  # k > n
        assert by_k["23"]["throughput"] == ""

    def test_es_large_space_row(self, capsys):
        # comb(n - k, m - 1) ~ 2.3e12 tuples: the exact search still fills the row
        _, out = run_cli(
            ["sweep-k", "--k", "1", "--n", "200", "--m", "8", "--eps", "0.5",
             "--model", "es"],
            capsys,
        )
        row = read_csv(out)[0]
        es = exhaustive_search(CodeParams(1, 200, 0.5), 8)
        assert row["method"] == "es"
        assert [int(row[f"n{i}"]) for i in range(1, 9)] == list(es.schedule.boundaries)
        assert float(row["expected_symbols"]) == pytest.approx(es.objective, rel=1e-11)


class TestSweepNCommand:
    def test_m1_throughput_formula(self, capsys):
        from harqsdo import ack_prob

        _, out = run_cli(
            ["sweep-n", "--k", "8", "--n", "20,24", "--m", "1", "--eps", "0.5",
             "--model", "na"],
            capsys,
        )
        for row in read_csv(out):
            n = int(row["n"])
            want = 8 * ack_prob(CodeParams(8, n, 0.5), n) / n
            assert float(row["throughput"]) == pytest.approx(want, rel=1e-11)

    def test_model_all_takes_best(self, capsys):
        _, out = run_cli(
            ["sweep-n", "--k", "8", "--n", "24", "--m", "3", "--eps", "0.5",
             "--model", "all"],
            capsys,
        )
        row = read_csv(out)[0]
        na = optimize(CodeParams(8, 24, 0.5), 3, "normal").throughput
        lna = optimize(CodeParams(8, 24, 0.5), 3, "lognormal").throughput
        assert float(row["throughput"]) == pytest.approx(max(na, lna), rel=1e-11)

    def test_model_es_runs_exact_search(self, capsys):
        _, out = run_cli(
            ["sweep-n", "--k", "8", "--n", "20,24", "--m", "3", "--eps", "0.5",
             "--model", "es"],
            capsys,
        )
        for row in read_csv(out):
            params = CodeParams(8, int(row["n"]), 0.5)
            na = optimize(params, 3, "normal")
            assert row["method"] == "es"
            assert row["schedule"] == " ".join(
                str(b) for b in exhaustive_search(params, 3).schedule.boundaries
            )
            assert float(row["expected_symbols"]) <= na.objective + 1e-11


class TestSimulateCommand:
    def test_byte_identical_across_worker_counts(self, tmp_path):
        base = ["simulate", "--k", "8", "--n", "24", "--m", "3", "--eps", "0.5",
                "--trials", "3000", "--seed", "42", "--model", "es",
                "--format", "json"]
        f1 = tmp_path / "w1.json"
        f2 = tmp_path / "w4.json"
        assert main(base + ["--workers", "1", "--out", str(f1)]) == 0
        assert main(base + ["--workers", "4", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_workers_start_no_thread(self, monkeypatch, capsys):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        code, out = run_cli(["simulate", "--k", "8", "--n", "24", "--m", "3", "--eps", "0.5",
                             "--trials", "2000", "--seed", "42", "--workers", "8"], capsys)
        assert code == 0
        assert int(read_csv(out)[0]["trials"]) == 2000

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("matrix_reuse", ["1", "3"])
    def test_model_all_rows_match_single_model_runs(self, matrix_reuse, fmt, capsys):
        base = ["simulate", "--k", "8", "--n", "24", "--m", "3", "--eps", "0.5",
                "--trials", "1000", "--seed", "5", "--matrix-reuse", matrix_reuse,
                "--format", fmt]

        def table(text):  # (columns, rows), a CSV row as printed
            if fmt == "csv":
                return text.splitlines()[1], text.splitlines()[2:]
            payload = json.loads(text)
            return payload["columns"], payload["rows"]

        code, out = run_cli(base + ["--model", "all"], capsys)
        assert code == 0
        columns, rows = table(out)
        methods = read_csv(out) if fmt == "csv" else rows
        assert [row["method"] for row in methods] == ["es", "na", "lna"]
        for method, row in zip(("es", "na", "lna"), rows):
            code, single = run_cli(base + ["--model", method], capsys)
            assert code == 0
            assert table(single) == (columns, [row])

    @pytest.mark.parametrize("method", ["es", "na", "lna"])
    def test_model_all_row_is_the_single_method_row(self, method, capsys):
        # one optimize_row solves every method of a run: at the benchmark's
        # design point each --model all row is the method's own run's row,
        # and its schedule is the one-method solver's
        base = ["simulate", "--k", "32", "--n", "88", "--m", "4", "--eps", "0.5",
                "--trials", "600", "--seed", "11"]
        code, out = run_cli(base + ["--model", "all"], capsys)
        assert code == 0
        [row] = [line for line in out.splitlines()[2:] if line.split(",")[4] == method]
        code, single = run_cli(base + ["--model", method], capsys)
        assert code == 0
        assert single.splitlines()[2:] == [row]
        params = CodeParams(32, 88, 0.5)
        report = (exhaustive_search(params, 4) if method == "es"
                  else optimize(params, 4, cli._MODEL_KIND[method]))
        [fields] = read_csv(single)
        assert tuple(int(fields[f"n{i}"]) for i in range(1, 5)) == report.schedule.boundaries
        assert fields["analytic_expected_symbols"] == cli._fmt(report.objective)

    def test_model_all_draws_once(self, philox_builds, capsys):
        code, out = run_cli(["simulate", "--k", "32", "--n", "88", "--m", "4", "--eps", "0.5",
                             "--trials", "600", "--model", "all"], capsys)
        assert code == 0
        assert len(read_csv(out)) == 3
        assert len(philox_builds) == 1

    def test_report_contents(self, capsys):
        code, out = run_cli(
            ["simulate", "--k", "8", "--n", "24", "--m", "3", "--eps", "0.5",
             "--trials", "2000", "--seed", "7", "--model", "na"],
            capsys,
        )
        assert code == 0
        row = read_csv(out)[0]
        assert row["generator"].startswith("philox4x64")
        assert int(row["trials"]) == 2000
        rates = [float(row[f"ack_rate_block{i}"]) for i in (1, 2, 3)]
        assert rates == sorted(rates)
        assert float(row["success_rate"]) == rates[-1]


class TestDomainErrors:
    @pytest.mark.parametrize("argv", [
        ["optimize", "--eps", "1.5"],
        ["simulate", "--k", "8", "--n", "9", "--m", "4"],
        ["simulate", "--seed", "-1", "--trials", "10"],
        ["simulate", "--seed", str(2 ** 128), "--trials", "10", "--workers", "2"],
        ["simulate", "--trials", "-3"],
        ["optimize", "--k", "8.5"],
        ["sweep-n", "--n", "20:24.5"],
        ["optimize", "--eps", "abc"],
        ["sweep-k", "--eps", "0.3,abc"],
        ["simulate", "--trials", "8.5"],
        ["simulate", "--trials", "10", "--seed", "1.5"],
        ["simulate", "--trials", "10", "--workers", "two"],
        ["simulate", "--trials", "10", "--matrix-reuse", "2.5"],
        ["simulate", "--trials", "10", "--workers", "0"],
        # every cell would be skipped (k > n): eps and m are checked first
        ["sweep-k", "--k", "30", "--n", "20", "--m", "2", "--eps", "1.5"],
        ["sweep-n", "--k", "30", "--n", "20", "--m", "2", "--eps", "-3"],
        ["sweep-k", "--k", "30", "--n", "20", "--m", "2", "--eps", "nan"],
        ["sweep-k", "--k", "30", "--n", "20", "--m", "0"],
        # more values than a list can index
        ["sweep-n", "--k", "32", "--n", "8:100000000000000000000", "--m", "2"],
        ["sweep-k", "--k", "1:100000000000000000000", "--n", "88", "--m", "2"],
        # the output directory cannot be made: a file stands in its place
        ["optimize", "--out", "/dev/null/out.csv"],
        # argparse's own errors: no usage block before the message
        ["optimize", "--model", "foo"],
        ["frobnicate"],
        ["optimize", "--k"],
        ["optimize", "--bogus"],
    ])
    def test_one_line_message_and_exit_2(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("harq-sdo: error: ")

    # m sizes the n1..nm columns; the cell check must come first, at small memory
    @pytest.mark.parametrize("m", [10 ** 6, 10 ** 20], ids=["1e6", "1e20"])
    @pytest.mark.parametrize("command", ["optimize", "sweep-k"])
    def test_huge_m_fails_before_its_columns(self, command, m, capsys):
        tracemalloc.start()
        try:
            code = main([command, "--k", "8", "--n", "24", "--m", str(m)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("harq-sdo: error: ")
        assert peak <= 8 * 2 ** 20

    def test_huge_m_skipped_beside_a_solved_one(self, capsys):
        # the solvers size their arrays by the largest m that fits, not by 1e20
        tracemalloc.start()
        try:
            code = main(["sweep-n", "--k", "8", "--n", "24", "--m", f"2,{10 ** 20}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        rows = read_csv(capsys.readouterr().out)
        assert [(r["m"], r["method"]) for r in rows] == [("2", "na"), (str(10 ** 20), "skipped")]
        assert peak <= 8 * 2 ** 20

    @pytest.mark.parametrize("bad", ["8.5", "1e400", "inf", "nan"])
    @pytest.mark.parametrize("field, argv", [
        ("trials", ["simulate", "--trials", "{}"]),
        ("k", ["optimize", "--k", "{}"]),
        ("n", ["sweep-n", "--n", "20:{}"]),
    ], ids=["trials-flag", "k-range", "n-range"])
    def test_non_integral_number_names_the_field(self, field, argv, bad, capsys):
        code = main([a.format(bad) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"harq-sdo: error: {field} must be an integer, got ")

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config"),
        ("[1, 2]", "must hold a JSON object, got list"),
        ('{"command": "simulate", "trials": 10, "workers": 1.5}',
         "workers must be an integer, got 1.5"),
        ('{"command": "simulate", "trials": 10, "matrix_reuse": 2.5}',
         "matrix_reuse must be an integer, got 2.5"),
        ('{"command": "constants", "out": 5}', "out must be a path or null, got 5"),
        ('{"command": "constants", "gnuplot": "yes"}',
         "gnuplot must be true or false, got 'yes'"),
        ('{"command": "optimize", "k": 8.5}', "k must be an integer, got 8.5"),
        ('{"command": "optimize", "k": [8.5], "n": [24.9]}', "k must be an integer, got 8.5"),
        ('{"command": "optimize", "n": "24.9"}', "n must be an integer, got 24.9"),
        ('{"command": "optimize", "epsilon": "abc"}', "epsilon must be a number, got 'abc'"),
        ('{"command": "optimize", "epsilon": null}', "epsilon must be a number, got None"),
        # true == 1 and false == 0, but a JSON boolean is no count and no rate
        ('{"command": "simulate", "trials": true}', "trials must be an integer, got True"),
        ('{"command": "optimize", "k": true}', "k must be an integer, got True"),
        ('{"command": "optimize", "epsilon": false}', "epsilon must be a number, got False"),
        # malformed JSON: the message names the file, as the read and shape errors do
        ('{"command": "optimize",', "config {path} is not valid JSON: Expecting property name"),
        (b'\xff{"command": "optimize"}', "config {path} is not valid JSON: "),
    ], ids=["missing-file", "json-list", "fractional-workers", "fractional-matrix-reuse",
            "numeric-out", "string-gnuplot", "fractional-k", "fractional-k-list",
            "fractional-n-string", "string-epsilon", "null-epsilon", "boolean-trials",
            "boolean-k", "boolean-epsilon", "truncated-json", "undecodable-byte"])
    def test_bad_config_one_line_exit_2(self, content, message, tmp_path, capsys):
        path = tmp_path / "run.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        code = main(["--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("harq-sdo: error: ")
        assert message.format(path=path) in lines[0]


class TestOutputPlumbing:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        argv = ["sweep-k", "--k", "6:10", "--n", "24", "--m", "2", "--eps", "0.5",
                "--model", "all", "--format", "csv"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file(self, tmp_path, capsys):
        cfg = {"command": "optimize", "k": 8, "n": 24, "m": 2, "epsilon": 0.5,
               "model": "na", "format": "csv"}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(["--config", str(path)], capsys)
        assert code == 0
        rows = read_csv(out)
        assert rows[0]["method"] == "na"

    def test_cli_flags_override_config(self, tmp_path, capsys):
        cfg = {"command": "optimize", "k": 8, "n": 24, "m": 2, "epsilon": 0.5,
               "model": "na"}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(["optimize", "--config", str(path), "--m", "3"], capsys)
        assert code == 0
        assert read_csv(out)[0]["m"] == "3"

    def test_config_before_or_after_the_subcommand(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"m": 3, "epsilon": 0.3}))
        code_before, before = run_cli(["--config", str(path), "optimize"], capsys)
        code_after, after = run_cli(["optimize", "--config", str(path)], capsys)
        assert code_before == code_after == 0
        assert before == after
        row = read_csv(before)[0]
        assert (row["m"], row["epsilon"]) == ("3", "0.3")

    def test_integral_floats_print_as_integers(self, tmp_path, capsys):
        outs = []
        for value in (2, 2.0):
            path = tmp_path / "run.json"
            path.write_text(json.dumps({
                "command": "simulate", "k": 4 * value, "n": [12 * value], "m": value,
                "trials": 20 * value, "seed": 3 * value,
                "workers": value, "matrix_reuse": value}))
            code, out = run_cli(["--config", str(path)], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        header = outs[1].splitlines()[0]
        assert "k=8 n=24 m=2 " in header and "trials=40 seed=6 matrix_reuse=2" in header

    def test_integral_float_flags_run_as_integers(self, capsys):
        base = ["simulate", "--k", "4", "--n", "12", "--m", "2"]
        outs = []
        for value in ("2", "2.0"):
            argv = base + ["--trials", f"1{value}", "--seed", value, "--workers", value,
                           "--matrix-reuse", value]
            code, out = run_cli(argv, capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert "trials=12 seed=2 matrix_reuse=2" in outs[1].splitlines()[0]

    def test_exponent_form_runs_as_in_a_config(self, tmp_path, capsys):
        base = ["simulate", "--k", "4", "--n", "12", "--m", "2", "--seed", "1"]
        path = tmp_path / "run.json"
        path.write_text('{"command": "simulate", "k": 4, "n": 12, "m": [2], "seed": 1, '
                        '"trials": 1e2}')
        outs = [run_cli(argv, capsys) for argv in (base + ["--trials", "100"],
                                                   base + ["--trials", "1e2"],
                                                   ["--config", str(path)])]
        assert [code for code, _ in outs] == [0, 0, 0]
        assert outs[0][1] == outs[1][1] == outs[2][1]
        assert parse_int_range("1e1:12") == [10, 11, 12]

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "constants", "frobs": 3}))
        for argv, message in [(["--config", str(path)], "unknown config fields: ['frobs']"),
                              ([], "no command given")]:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"harq-sdo: error: {message}")

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARQ_SDO_OUT", str(tmp_path))
        assert main(["constants"]) == 0
        assert (tmp_path / "constants.csv").exists()

    def test_gnuplot_script(self, tmp_path):
        out = tmp_path / "fig.csv"
        argv = ["sweep-n", "--k", "8", "--n", "20:24:2", "--m", "2", "--eps", "0.5",
                "--model", "na", "--out", str(out), "--gnuplot"]
        assert main(argv) == 0
        script = (tmp_path / "fig.csv.gp").read_text()
        assert "fig.csv" in script and "plot" in script

    def test_schedule_rows_satisfy_invariants(self, capsys):
        _, out = run_cli(
            ["sweep-k", "--k", "4:10", "--n", "20", "--m", "3", "--eps", "0.3",
             "--model", "all"],
            capsys,
        )
        for row in read_csv(out):
            if row["method"] == "skipped":
                continue
            bounds = [int(row[f"n{i}"]) for i in (1, 2, 3)]
            assert bounds[-1] == 20
            assert bounds[0] >= int(row["k"])
            assert all(a < b for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("argv", [
        ["optimize", "--k", "8", "--n", "24", "--m", "3", "--model", "all"],
        # skipped rows: empty schedule slots and values
        ["sweep-k", "--k", "20:26:2", "--n", "24", "--m", "3", "--model", "all"],
        ["sweep-n", "--k", "8", "--n", "16:24:4", "--m", "1:3", "--model", "all"],
        # the generator field holds commas, so it is quoted
        ["simulate", "--k", "8", "--n", "24", "--m", "3", "--trials", "200", "--model", "all"],
        ["validate"],
        ["constants"],
    ], ids=lambda argv: argv[0])
    def test_csv_matches_per_cell_loop(self, argv):
        cfg = build_config(argv)
        columns, rows = cli._RUNNERS[cfg.command](cfg)
        if cfg.command in cli.DESIGN_COMMANDS:
            # records, rendered a line per row; the oracle reads them by field name
            text = cli._design_csv(cfg, columns, rows)
            rows = [dict(zip(cli.DESIGN_FIELDS, record)) for record in rows]
        else:
            if cfg.command == "validate":
                rows[1] = {**rows[1], "passed": False}
            text = cli._rows_to_csv(cfg, columns, rows)
        assert text == oracles.rows_to_csv_loop(cfg, columns, rows)
        if cfg.command == "sweep-k":
            assert text.count(",skipped,,,,,\n") == 2  # k = 24 and 26, one row a cell
        if cfg.command == "validate":
            assert text.count(",FAIL\n") == 1
        if cfg.command == "simulate":
            assert ',"philox4x64' in text


class TestSharedParser:
    """One parser serves every main call of a process, as a fresh one would."""

    def test_interleaved_calls_match_a_fresh_parser(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "optimize", "k": 8, "n": 24, "m": 2}))
        sweep = ["sweep-k", "--k", "6:10:2", "--n", "24", "--m", "2", "--model", "all"]
        argvs = [sweep, ["optimize", "--bogus"], ["--config", str(path)],
                 sweep[1:] + sweep[:1]]

        def outputs():
            runs = []
            for argv in argvs:
                code = main(argv)
                captured = capsys.readouterr()
                runs.append((code, captured.out, captured.err))
            return runs

        built = []

        class CountingParser(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        cached = cli._build_parser
        monkeypatch.setattr(cli, "_Parser", CountingParser)
        cached.cache_clear()
        try:
            shared = outputs() + outputs()
            assert len(built) == 1
            monkeypatch.setattr(cli, "_build_parser", cached.__wrapped__)
            fresh = outputs()
            assert len(built) == 1 + len(argvs)
        finally:
            cached.cache_clear()  # the next call builds a plain _Parser again
        assert shared == fresh + fresh
        assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
        assert fresh[1][2].startswith("harq-sdo: error: unrecognized arguments: --bogus")
        assert fresh[3] == fresh[0]


_WITHOUT_SCIPY = """
import contextlib, io, json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
from harqsdo.cli import main

runs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    runs.append([code, buf.getvalue()])
print(json.dumps(runs))
"""


class TestRuntimeWithoutScipy:
    """scipy is a test dependency only; the package must run where it is absent."""

    @staticmethod
    def python(code, *args):
        src = os.path.dirname(os.path.dirname(harqsdo.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        env.pop("HARQ_SDO_OUT", None)
        run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                             text=True, env=env, timeout=300, check=True)
        return run.stdout

    def test_import_loads_no_scipy(self):
        out = self.python("import sys, harqsdo.cli; "
                          "print([m for m in sys.modules if m.startswith('scipy')])")
        assert out == "[]\n"

    def test_commands_run_with_scipy_blocked(self, capsys, monkeypatch):
        monkeypatch.delenv("HARQ_SDO_OUT", raising=False)
        argvs = [["optimize", "--k", "8", "--n", "24", "--m", "3"],
                 ["sweep-n", "--k", "8", "--n", "16:24:4", "--m", "2", "--model", "all"],
                 ["simulate", "--trials", "200"],
                 ["validate"]]
        blocked = json.loads(self.python(_WITHOUT_SCIPY, json.dumps(argvs)))
        assert blocked == [list(run_cli(argv, capsys)) for argv in argvs]
