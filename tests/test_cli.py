from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from decimal import MAX_PREC, Decimal, localcontext
from fractions import Fraction

import pytest

from asymser import (
    ShiftedExpansion,
    TaylorSeries,
    build_series,
    continuation,
    load_coeffs,
    save_coeffs,
    shifted_to_plain,
)
from asymser import cli, functions
from asymser.cli import main
from helpers import COEFF_FILE_NAMES, ROUND_TRIP_SERIES, arctan_assoc_coeff

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import workloads  # noqa: E402

F = Fraction
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


# 9E+55 * C(20, k) / 2**(20 - k) overflows a decimal context with Emax 57
# in the first step of an alpha that carries the whole vector at dx 0.5
OVERFLOWING = ["1"] + ["0"] * 19 + ["9E+55"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestTransformCommand:
    def test_arctan_32_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["transform", "--input", "arctan", "--count", "32",
                     "--lag", "4", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 32
        for row in rows:
            n = int(row["n"])
            want = arctan_assoc_coeff(n)
            assert F(int(row["assoc_num"]), int(row["assoc_den"])) == want
        assert rows[14]["assoc_dec"] == "-9.142857143"
        assert rows[17]["assoc_dec"] == "15.05882353"
        assert rows[25]["assoc_dec"] == "163.84"
        assert "radius estimate (lag 4):" in capsys.readouterr().out

    def test_unit_pole_rows(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["transform", "--input", "pole:1", "--count", "4",
                     "--lag", "1", "--out", str(out)]) == 0
        rows = read_csv(out)
        got = [(int(r["taylor_num"]), int(r["assoc_num"])) for r in rows]
        assert got == [(1, 1), (-1, -1), (1, 0), (-1, 0)]

    def test_constant_series_from_file(self, tmp_path, capsys):
        src = tmp_path / "c.csv"
        src.write_text("n,numerator,denominator\n0,5,1\n")
        out = tmp_path / "t.csv"
        assert main(["transform", "--input", f"file:{src}", "--count", "1",
                     "--lag", "1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["taylor_dec"] == "5"
        assert rows[0]["assoc_dec"] == "5"

    def test_decimal_file_prefix_fills_only_decimal_columns(self, tmp_path):
        src = tmp_path / "p.json"
        save_coeffs(build_series("pole:2", 4), src)
        out = tmp_path / "t.csv"
        assert main(["transform", "--input", f"file:{src}", "--count", "4",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["taylor_dec"] for r in rows] == ["0.5", "-0.25", "0.125", "-0.0625"]
        assert [r["assoc_dec"] for r in rows] == ["0.5", "-0.25", "-0.125", "-0.0625"]
        assert {r[col] for r in rows for col in ("taylor_num", "taylor_den",
                                                 "assoc_num", "assoc_den")} == {""}

    def test_exact_columns_past_the_conversion_limit(self, tmp_path, capsys):
        # c_1499 of pole:1/1000 is 1000**1500: 4501 digits, past the
        # interpreter's default limit of 4300 on int/str conversion
        out = tmp_path / "t.csv"
        assert main(["transform", "--input", "pole:1/1000", "--count", "1500",
                     "--out", str(out)]) == 0
        last = read_csv(out)[-1]
        assert (last["taylor_num"], last["taylor_den"]) == ("-1" + "0" * 4500, "1")

    def test_stable_radius_estimate_line(self, tmp_path, capsys):
        assert main(["transform", "--input", "pole:2", "--count", "30",
                     "--out", str(tmp_path / "t.csv")]) == 0
        assert capsys.readouterr().out == "radius estimate (lag 4): 2.000000000\n"


class TestContinueCommand:
    def test_unit_pole_exact_expansion(self, tmp_path):
        out = tmp_path / "c.json"
        code = main(["continue", "--input", "pole:1", "--m", "50",
                     "--dx", "0.25", "--alpha", "1e-30", "--digits", "38",
                     "--count", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        vals = [Decimal(v) for v in doc["shifted_coefficients"]]
        assert abs(vals[0]) < Decimal("1e-30")
        assert abs(vals[1] - 1) < Decimal("1e-30")
        assert abs(vals[2]) < Decimal("1e-30")
        assert doc["converged_count"] >= 3
        assert len(doc["steps"]) == 4

    def test_low_digits_path_lands_on_one(self, tmp_path, capsys):
        argv = ["continue", "--input", "arctan", "--m", "40", "--dx", "0.125",
                "--alpha", "0.5", "--digits", "2"]
        # nothing converges at center 1, so the default count of 2 is refused
        assert main(argv) == 4
        assert capsys.readouterr().err.strip() == "error: requested 2 coefficients, only 0 converged"
        out = tmp_path / "c.json"
        assert main([*argv, "--count", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["center"] == "1.000"
        assert doc["steps"][-1]["center"] == "1.000"

    def test_non_integral_step_exits_4(self, tmp_path):
        code = main(["continue", "--input", "arctan", "--m", "20",
                     "--dx", "0.3", "--alpha", "0.1"])
        assert code == 4

    def test_numerical_blow_up_exits_4(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(OVERFLOWING))
        out = tmp_path / "out.json"
        with localcontext() as ctx:
            ctx.Emax = 57
            assert main(["continue", "--input", f"file:{path}", "--m", "21", "--dx", "0.5",
                         "--alpha", "1e-30", "--out", str(out)]) == 4
        assert capsys.readouterr().err == "error: numerical blow-up: Overflow\n"
        assert not out.exists()

    def test_extraction_beyond_converged_exits_4(self):
        # alpha below every term: nothing converges, extraction must refuse
        code = main(["continue", "--input", "arctan", "--m", "20",
                     "--dx", "0.25", "--alpha", "1e-30", "--count", "2"])
        assert code == 4

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 50, "dx": "0.25", "alpha": "1e-30",
                                   "digits": 38, "count": 1}))
        out = tmp_path / "c.json"
        code = main(["continue", "--input", "pole:1", "--config", str(cfg),
                     "--count", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["shifted_coefficients"]) == 3  # flag overrode the file

    def test_missing_input_file_exits_3(self, tmp_path):
        code = main(["continue", "--input", f"file:{tmp_path}/nope.csv",
                     "--m", "5", "--dx", "0.25", "--alpha", "0.1"])
        assert code == 3

    @pytest.mark.parametrize("text, note", [("arctan", True), ("pole:2", False)])
    def test_arctan_half_step_note(self, tmp_path, text, note):
        out = tmp_path / "c.json"
        assert main(["continue", "--input", text, "--m", "40", "--dx", "0.5",
                     "--alpha", "0.1", "--count", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert ("note" in doc) == note
        if note:
            assert doc["note"].startswith("step 0.5 passes within 0.5 of the nearest")

    @pytest.mark.parametrize(
        "text, m, dx, alpha, count, note",
        [("arctan", "701", "0.5", "0.1", "2", True),
         ("pole:-3", "40", "0.5", "0.1", "1", True),
         ("arctan", "20", "0.25", "1e-30", "2", False)],
    )
    def test_refused_extraction_carries_the_note(
            self, tmp_path, capsys, text, m, dx, alpha, count, note):
        out = tmp_path / "c.json"
        assert main(["continue", "--input", text, "--m", m, "--dx", dx, "--alpha", alpha,
                     "--count", count, "--out", str(out)]) == 4
        assert main(["continue", "--input", text, "--m", m, "--dx", dx, "--alpha", alpha,
                     "--count", count]) == 4
        captured = capsys.readouterr()
        message = f"error: requested {count} coefficients, only 0 converged\n"
        if note:
            message += (f"note: step {dx} passes within {dx} of the nearest singularity of "
                        "the companion function; instability with growing m is expected\n")
        assert captured.err == message * 2
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, dx, note",
        [("arctan", "0.25", False), ("arctan", "0.125", False),
         ("pole:-3", "0.5", True),  # u's pole is at 3/4
         ("pole:-1", "0.25", True),  # at 1/2
         ("pole:2", "0.125", False),  # at 2
         ("altgeom", "0.5", False), ("altgeom", "0.125", False),  # u = 1 - x
         ("file:{dir}/arctan.csv", "0.5", False)],  # a file has no singularity data
    )
    def test_note_follows_the_singularities(self, tmp_path, text, dx, note):
        save_coeffs(build_series("arctan", 40), tmp_path / "arctan.csv")
        out = tmp_path / "c.json"
        # count 0: a step onto the pole leaves nothing converged to extract
        assert main(["continue", "--input", text.format(dir=tmp_path), "--m", "40",
                     "--dx", dx, "--alpha", "0.1", "--count", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert ("note" in doc) == note
        if note:
            assert doc["note"].startswith(f"step {dx} passes within {dx} of the nearest")

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            (["--m", "0"], 3, "error: m must be >= 1"),
            (["--digits", "0"], 3, "error: digits must be >= 1"),
            (["--dx", "0"], 4, "error: step must be positive"),
            (["--dx", "-0.25"], 4, "error: step must be positive"),
        ],
    )
    def test_scheme_parameters_checked(self, capsys, flags, code, message):
        # a flag given twice takes its last value
        assert main(["continue", "--input", "arctan", "--m", "20", "--dx", "0.25",
                     "--alpha", "0.1", *flags]) == code
        assert capsys.readouterr().err.strip() == message


class TestConvertCommand:
    def test_to_plain(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("n,numerator,denominator\n0,0,1\n1,1,1\n2,0,1\n3,0,1\n")
        out = tmp_path / "q.csv"
        assert main(["convert", str(src), "--direction", "to-plain",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        got = [F(int(r["numerator"]), int(r["denominator"])) for r in rows]
        assert got == [F(0), F(1), F(-1), F(1)]

    def test_alias_round_trip_bit_exact(self, tmp_path):
        src = tmp_path / "v.csv"
        save_coeffs(build_series("arctan", 9), src)
        mid = tmp_path / "mid.csv"
        back = tmp_path / "back.csv"
        assert main(["convert", str(src), "--direction", "to-q",
                     "--out", str(mid)]) == 0
        assert main(["convert", str(mid), "--direction", "to-qprime",
                     "--out", str(back)]) == 0
        assert back.read_text() == src.read_text()

    def test_integers_past_the_conversion_limit_both_ways(self, tmp_path):
        src = tmp_path / "v.csv"
        save_coeffs(build_series("pole:1/1000", 1500), src)
        mid, back = tmp_path / "q.csv", tmp_path / "back.csv"
        assert main(["convert", str(src), "--direction", "to-plain", "--out", str(mid)]) == 0
        assert main(["convert", str(mid), "--direction", "to-shifted", "--out", str(back)]) == 0
        assert back.read_text() == src.read_text()

    def test_single_value(self, tmp_path, capsys):
        src = tmp_path / "one.csv"
        src.write_text("n,numerator,denominator\n0,7,2\n")
        assert main(["convert", str(src), "--direction", "to-shifted"]) == 0
        assert "7,2" in capsys.readouterr().out

    @pytest.mark.parametrize("name", COEFF_FILE_NAMES)
    @pytest.mark.parametrize("key", list(ROUND_TRIP_SERIES))
    def test_every_written_file_reads_back(self, tmp_path, key, name):
        series = ROUND_TRIP_SERIES[key]
        src = tmp_path / ("in.json" if key == "decimal-19" else "in.csv")
        save_coeffs(series, src)
        out = tmp_path / name
        code = main(["convert", str(src), "--direction", "to-plain", "--out", str(out)])
        if key == "exact-thirds" and name.endswith(".json"):
            assert code == 3  # q_3 = 2/3 has no exact decimal
            assert not out.exists()
            return
        assert code == 0
        with localcontext() as ctx:
            ctx.prec = 19
            want = shifted_to_plain(ShiftedExpansion(series.coeffs)).coeffs
        assert load_coeffs(out, digits=19).coeffs == want

    def test_standard_output_takes_the_file_layout(self, tmp_path, capsys):
        src = tmp_path / "v.json"
        save_coeffs(ROUND_TRIP_SERIES["decimal-19"], src)
        out = tmp_path / "q.json"
        argv = ["convert", str(src), "--direction", "to-plain"]
        assert main([*argv, "--out", str(out)]) == 0
        assert main(argv) == 0
        assert main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out == 2 * out.read_text()
        assert out.read_text().startswith('[\n"0",\n"1",\n')

    def test_bad_direction_exits_3(self, tmp_path):
        src = tmp_path / "one.csv"
        src.write_text("n,numerator,denominator\n0,1,1\n")
        assert main(["convert", str(src), "--direction", "sideways"]) == 3


class TestDirectCommand:
    def test_pole_two_trace(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["direct", "--input", "pole:2", "--k", "0",
                     "--schedule", "5..30", "--tol", "0.02", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 26
        assert Decimal(rows[0]["partial"]) == Decimal(1) / 64
        assert rows[-1]["converged"] == "yes"
        assert "limit:" in capsys.readouterr().out

    def test_decimal_file_prefix_converges(self, tmp_path, capsys):
        src = tmp_path / "p.json"
        save_coeffs(build_series("pole:2", 31), src)
        out = tmp_path / "d.csv"
        assert main(["direct", "--input", f"file:{src}", "--k", "0",
                     "--schedule", "5..30", "--tol", "0.02", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["converged"] for r in rows[:2]] == ["no", "no"]
        assert {r["converged"] for r in rows[2:]} == {"yes"}
        assert Decimal(rows[0]["partial"]) == Decimal(1) / 64
        assert capsys.readouterr().out == f"limit: {rows[-1]['partial']}\n"

    def test_arctan_diverges(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["direct", "--input", "arctan", "--k", "0",
                     "--schedule", "5..30", "--out", str(out)])
        assert code == 0
        assert "not converged" in capsys.readouterr().out

    def test_comma_schedule(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["direct", "--input", "pole:2", "--k", "1",
                     "--schedule", "5,10,20", "--out", str(out)]) == 0
        assert len(read_csv(out)) == 3

    def test_stepped_range_schedule(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["direct", "--input", "pole:2", "--k", "0",
                     "--schedule", "5..25..5", "--out", str(out)]) == 0
        assert [int(r["m"]) for r in read_csv(out)] == [5, 10, 15, 20, 25]

    def test_row_verdicts_are_exact(self, tmp_path, capsys):
        """Each row's verdict is the summary's, at any --digits: the first
        partial is off by just over tol in its 31st digit."""
        src = tmp_path / "edge.json"
        src.write_text(json.dumps(["1", "0.5000000000000000000000000000001",
                                   "-1.0000000000000000000000000000002",
                                   "1.5000000000000000000000000000003"]))
        assert main(["direct", "--input", f"file:{src}", "--k", "0", "--schedule", "1,2,3",
                     "--tol", "0.5", "--digits", "40"]) == 0
        assert capsys.readouterr().out == (
            "m,partial,converged\n1,1.5000000000000000000000000000001,no\n"
            "2,1,no\n3,1,no\nnot converged\n"
        )

    @pytest.mark.parametrize(
        "schedule, message",
        [("30..5", "error: --schedule needs at least one m value"),
         ("5..30..-5", "error: --schedule needs at least one m value"),
         ("", "error: --schedule needs at least one m value"),
         ("5..30..0", "error: --schedule step must not be zero")],
    )
    def test_schedule_without_m_values_exits_3(self, capsys, schedule, message):
        assert main(["direct", "--input", "pole:2", "--k", "0",
                     "--schedule", schedule]) == 3
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""

    def test_schedule_of_four_parts_exits_3(self, capsys):
        assert main(["direct", "--input", "pole:2", "--k", "0",
                     "--schedule", "1..2..3..4"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: bad schedule '1..2..3..4'\n"
        assert captured.out == ""


class TestSweepCommand:
    GRID = ["sweep", "--input", "arctan", "--m", "26,22", "--dx", "0.5,0.25",
            "--alpha", "0.1"]

    def test_grid_structure_and_order(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(self.GRID + ["--out", str(out)]) == 0
        rows = read_csv(out)
        keys = [(int(r["m"]), r["dx"]) for r in rows]
        assert keys == [(22, "0.25"), (22, "0.5"), (26, "0.25"), (26, "0.5")]
        for r in rows:
            assert r["status"] in ("converged", "unconverged")
            assert r["err0"] != "" or r["c0_at_1"] == "unconverged"

    def test_parallel_equals_sequential(self, tmp_path):
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        assert main(self.GRID + ["--jobs", "1", "--out", str(seq)]) == 0
        assert main(self.GRID + ["--jobs", "2", "--out", str(par)]) == 0
        assert seq.read_text() == par.read_text()

    @pytest.mark.parametrize(
        "dx, alpha, want",
        [("0.25,0.250", "0.1", [("0.25", "0.1")]),
         ("0.250,0.25", "0.10,0.1", [("0.250", "0.10")]),
         ("0.5,0.25,0.50,0.250", "0.1", [("0.25", "0.1"), ("0.5", "0.1")])],
    )
    def test_equal_values_give_one_row_in_first_spelling(self, tmp_path, dx, alpha, want):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--input", "arctan", "--m", "20", "--dx", dx,
                     "--alpha", alpha, "--out", str(out)]) == 0
        assert [(r["dx"], r["alpha"]) for r in read_csv(out)] == want

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_config_lists_of_numbers_and_text(self, tmp_path, jobs):
        """JSON numbers and their text are one value: each cell once, in the
        first spelling its list gives, in (m, dx, alpha) order."""
        path, out = tmp_path / "config.json", tmp_path / "s.csv"
        path.write_text(json.dumps({"m": [98, "40", 98.0], "dx": [0.25, "0.250", "0.5", 0.5],
                                    "alpha": ["0.10", 0.1, "0.01"]}))
        assert main(["sweep", "--input", "arctan", "--config", str(path), "--jobs", jobs,
                     "--out", str(out)]) == 0
        assert [(r["m"], r["dx"], r["alpha"]) for r in read_csv(out)] == [
            (m, dx, a) for m in ("40", "98") for dx in ("0.25", "0.5") for a in ("0.01", "0.10")]

    def test_equal_values_independent_of_hash_seed(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from asymser.cli import main; "
                "sys.exit(main(['sweep', '--input', 'arctan', '--m', '20', "
                "'--dx', '0.25,0.250,0.5', '--alpha', '0.1,0.10', '--jobs', '1']))")
        outputs = [
            subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": str(seed)}, timeout=120).stdout
            for seed in range(1, 5)
        ]
        assert outputs[0].count(b"\n") == 3  # header, dx 0.25 and dx 0.5
        assert outputs == [outputs[0]] * 4

    def test_pole_input_has_reference_errors(self, tmp_path):
        # u = (1 - x)/(2 - x): u(1) = 0 and u'(1) = -1
        out = tmp_path / "s.csv"
        assert main(["sweep", "--input", "pole:2", "--m", "30", "--dx", "0.25",
                     "--alpha", "0.001", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "converged"
        with localcontext() as ctx:
            ctx.prec = 60
            assert row["err0"] == functions.format_decimal(abs(Decimal(row["c0_at_1"])), 10)
            assert row["err1"] == functions.format_decimal(abs(Decimal(row["c1_at_1"]) + 1), 10)
        assert 0 < Decimal(row["err0"]) < Decimal("0.001")
        assert 0 < Decimal(row["err1"]) < Decimal("0.001")

    def test_file_input_has_no_reference_errors(self, tmp_path):
        save_coeffs(build_series("arctan", 30), tmp_path / "arctan.csv")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--input", f"file:{tmp_path}/arctan.csv", "--m", "30",
                     "--dx", "0.25", "--alpha", "0.1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["c0_at_1"] != "unconverged"
        assert rows[0]["err0"] == "" and rows[0]["err1"] == ""

    def test_reference_reaches_the_pool_workers(self, tmp_path):
        argv = ["sweep", "--input", "pole:3/2", "--m", "20,60", "--dx", "0.25,0.5",
                "--alpha", "1e-6,0.1"]
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        assert main(argv + ["--jobs", "1", "--out", str(seq)]) == 0
        assert main(argv + ["--jobs", "2", "--out", str(par)]) == 0
        assert seq.read_text() == par.read_text()
        rows = read_csv(par)
        assert all(r["err0"] != "" for r in rows if r["c0_at_1"] != "unconverged")
        assert all(r["err1"] != "" for r in rows if r["c1_at_1"] != "unconverged")
        assert any(r["err1"] != "" for r in rows)


class TestSweepPool:
    @pytest.mark.parametrize(
        "dx, jobs, started_with",
        [("0.25,0.5", "2", [2]), ("0.25,0.5", "64", [4]), ("0.25", "64", [2])],
    )
    def test_pool_capped_at_task_count(self, tmp_path, monkeypatch, dx, jobs, started_with):
        grid = ["sweep", "--input", "arctan", "--m", "22,26", "--dx", dx,
                "--alpha", "0.01,0.1"]  # one task per (m, dx) pair
        serial = tmp_path / "serial.csv"
        assert main(grid + ["--jobs", "1", "--out", str(serial)]) == 0
        started = []

        class RecordingPool:  # runs the initializer and the tasks in-process
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        out = tmp_path / "pooled.csv"
        assert main(grid + ["--jobs", jobs, "--out", str(out)]) == 0
        assert started == started_with
        assert out.read_text() == serial.read_text()

    def test_prefix_travels_once(self, tmp_path, monkeypatch):
        """The rounded prefix and the err reference reach each worker once,
        through the pool's initializer; a task holds only its pair's configs,
        and the largest pairs go first."""
        grid = ["sweep", "--input", "pole:3/2", "--m", "22,40", "--dx", "0.25,0.5",
                "--alpha", "0.01,0.1"]
        serial = tmp_path / "serial.csv"
        assert main(grid + ["--jobs", "1", "--out", str(serial)]) == 0
        pools = []

        class RecordingPool:  # runs the initializer and the tasks in-process
            def __init__(self, max_workers, initializer, initargs):
                self.initargs, self.tasks = initargs, []
                pools.append(self)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                self.tasks = list(tasks)
                return map(fn, self.tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        out = tmp_path / "pooled.csv"
        assert main(grid + ["--jobs", "2", "--out", str(out)]) == 0
        assert out.read_text() == serial.read_text()
        (pool,) = pools
        coeffs, reference = pool.initargs
        assert len(coeffs) == 40 and all(isinstance(c, Decimal) for c in coeffs)
        assert len(reference) == 2
        assert [[(c.m, str(c.step), str(c.alpha)) for c in task] for task in pool.tasks] == [
            [(m, dx, a) for a in ("0.01", "0.1")]
            for m, dx in ((40, "0.25"), (40, "0.5"), (22, "0.25"), (22, "0.5"))
        ]
        assert all(type(c) is continuation.SchemeConfig for task in pool.tasks for c in task)

    def test_spawned_workers_give_the_serial_csv(self, tmp_path):
        """Under spawn, the default start method on macOS and Windows, each
        worker imports asymser afresh and gets the prefix, the reference and
        its pickled configs from the parent: its CSV is the --jobs 1 one."""
        argv = ["sweep", "--input", "arctan", "--m", "20,98,201", "--dx", "0.125,0.25,0.5",
                "--alpha", "0.01,0.1"]
        serial = tmp_path / "serial.csv"
        assert main(argv + ["--jobs", "1", "--out", str(serial)]) == 0
        spawned = tmp_path / "spawned.csv"
        script = ("import multiprocessing, sys\n"
                  "from asymser.cli import main\n"
                  "multiprocessing.set_start_method('spawn')\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--jobs", "2", "--out", str(spawned)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert spawned.read_text() == serial.read_text()


class TestSweepGrouping:
    """Alphas of one (m, dx) pair share a task and its first step; the rows
    must be those of separate one-alpha sweeps."""

    ALPHAS = ["0.001", "0.01", "0.1", "0.5"]

    def sweep(self, tmp_path, name, alphas, jobs, m="98,201", dx="0.125,0.25,0.5"):
        out = tmp_path / name
        assert main(["sweep", "--input", "arctan", "--m", m, "--dx", dx,
                     "--alpha", ",".join(alphas), "--jobs", str(jobs),
                     "--out", str(out)]) == 0
        return read_csv(out)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grid_equals_one_alpha_sweeps(self, tmp_path, jobs):
        grid = self.sweep(tmp_path, "grid.csv", self.ALPHAS, jobs)
        single = [self.sweep(tmp_path, f"a{i}.csv", [a], jobs)
                  for i, a in enumerate(self.ALPHAS)]
        # every pair's rows in alpha order, as the grid lists them
        merged = [row for pair in zip(*single) for row in pair]
        assert [(r["m"], r["dx"], r["alpha"]) for r in grid] == [
            (m, dx, a) for m in ("98", "201") for dx in ("0.125", "0.25", "0.5")
            for a in self.ALPHAS
        ]
        assert grid == merged

    def test_arithmetic_error_spoils_only_its_cell(self, tmp_path, monkeypatch):
        alphas = ["0.01", "0.1", "0.5"]
        clean = self.sweep(tmp_path, "clean.csv", alphas, 1, m="98", dx="0.25,0.5")
        # the pair's second steps are rounded one alpha at a time: fail 0.1's at dx 0.25
        config = continuation.SchemeConfig(m=98, step="0.25", alpha="0.1")
        _, states = continuation.continue_to_one_with_steps(
            functions.build_companion("arctan", 98), config)
        quotients = continuation._quotients

        def failing(*args):
            coeffs = quotients(*args)
            if coeffs == states[1].coeffs:
                raise ArithmeticError("injected in the second step")
            return coeffs

        monkeypatch.setattr(continuation, "_quotients", failing)
        rows = self.sweep(tmp_path, "spoilt.csv", alphas, 1, m="98", dx="0.25,0.5")
        assert len(rows) == len(clean) == 6
        for got, want in zip(rows, clean):
            if (got["dx"], got["alpha"]) == ("0.25", "0.1"):
                assert got["status"] == "error:ArithmeticError"
                assert want["status"] != got["status"]
            else:
                assert got == want

    @pytest.mark.parametrize("argv, cells", [
        # 1e-300 converges nothing on the first step; dx 1 is a single step
        (["sweep", "--input", "arctan", "--m", "40,98", "--dx", "0.25,0.5,1",
          "--alpha", "1e-300,0.01,0.1", "--jobs", "1"], 18),
        (workloads.sweep_argv(2), 60),
        # on pole:3/2 the alphas' first-step blocks differ by long stretches
        (["sweep", "--input", "pole:3/2", "--m", "20,98,201", "--dx", "0.125,0.25,0.5,1",
          "--alpha", "1e-300,0.01,0.1", "--digits", "19", "--jobs", "2"], 36),
    ], ids=["arctan", "arctan-grid", "pole"])
    def test_each_row_is_the_continue_run_of_its_cell(self, tmp_path, argv, cells):
        """A row's c0, c1, converged count and steps are those of its cell's
        own continue run, whatever its pair's shared first shift did."""
        out, report = tmp_path / "grid.csv", tmp_path / "c.json"
        assert main(argv + ["--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == cells
        text = argv[argv.index("--input") + 1]
        for row in rows:
            code = main(["continue", "--input", text, "--m", row["m"], "--dx", row["dx"],
                         "--alpha", row["alpha"], "--digits", row["digits"], "--count", "0",
                         "--out", str(report)])
            if row["status"].startswith("error:"):  # the run blows up: continue exits 4
                assert code == 4
                continue
            assert code == 0
            doc = json.loads(report.read_text())
            leading = (doc["coefficients_at_one"] + ["unconverged"] * 2)[:2]
            assert [row["c0_at_1"], row["c1_at_1"]] == leading
            assert int(row["converged_count"]) == doc["converged_count"]
            assert int(row["steps"]) == len(doc["steps"])

    def test_overflow_in_a_shared_step_spoils_only_its_alpha(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(OVERFLOWING))
        flags = ["--input", f"file:{path}", "--m", "21", "--dx", "0.5"]
        out, report = tmp_path / "s.csv", tmp_path / "c.json"
        with localcontext() as ctx:
            ctx.Emax = 57
            assert main(["sweep", *flags, "--alpha", "1e-30,1E+55", "--jobs", "1",
                         "--out", str(out)]) == 0
            assert main(["continue", *flags, "--alpha", "1E+55", "--count", "0",
                         "--out", str(report)]) == 0
        overflowed, row = read_csv(out)
        assert (overflowed["alpha"], overflowed["status"]) == ("1E-30", "error:Overflow")
        doc = json.loads(report.read_text())
        assert [row["steps"], row["c0_at_1"], row["c1_at_1"], row["converged_count"],
                row["status"]] == [
            str(len(doc["steps"])), *doc["coefficients_at_one"][:2],
            str(doc["converged_count"]), "converged"]
        assert (row["steps"], row["c0_at_1"], row["converged_count"]) == (
            "2", "5.318069458007812500E+53", "3")


class TestExitCodes:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "dx, alpha, code, message",
        [
            ("0.25,0.3", "0.1", 4, "error: 1/step = 10/3 is not an integer"),
            ("0.25", "0.1,0", 3, "error: alpha must be positive"),
            ("0.25", "nan", 3, "error: alpha must be a number"),
            ("inf", "0.1", 4, "error: step Infinity is not finite"),
            ("zz", "0.1", 3, "error: step 'zz' is not a number"),
            ("0.25", "0.1,nan", 3, "error: alpha must be a number"),
            ("0.25", "0.1,inf", 3, "error: alpha Infinity is not finite"),
            ("0.25,nan", "0.1", 4, "error: step NaN is not finite"),
            ("0.3,0.25", "0.1", 4, "error: 1/step = 10/3 is not an integer"),
        ],
    )
    def test_sweep_grid_checked_up_front(self, monkeypatch, capsys, jobs, dx, alpha,
                                         code, message):
        started = []
        monkeypatch.setattr(cli, "build_companion", lambda *a: started.append("companion"))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *a, **k: started.append("pool"))
        assert main(["sweep", "--input", "arctan", "--m", "30", "--dx", dx,
                     "--alpha", alpha, "--jobs", jobs]) == code
        assert capsys.readouterr().err.strip() == message
        assert started == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "flags, config, flag",
        [
            (["--m", ",", "--dx", "0.25", "--alpha", "0.1"], None, "m"),
            (["--m", "30", "--dx", "", "--alpha", "0.1"], None, "dx"),
            (["--m", "30", "--dx", "0.25", "--alpha", ""], None, "alpha"),
            (["--m", "30", "--alpha", "0.1"], {"dx": []}, "dx"),
        ],
    )
    def test_empty_sweep_list_exits_3(self, tmp_path, monkeypatch, capsys, jobs, flags,
                                      config, flag):
        started = []
        monkeypatch.setattr(cli, "build_companion", lambda *a: started.append("companion"))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *a, **k: started.append("pool"))
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            flags = [*flags, "--config", str(path)]
        assert main(["sweep", "--input", "arctan", *flags, "--jobs", jobs]) == 3
        assert capsys.readouterr().err.strip() == f"error: --{flag} needs at least one value"
        assert started == []

    @pytest.mark.parametrize("jobs", [["--jobs", "0"], ["--jobs", "-3"], {"jobs": 0}])
    def test_sweep_jobs_below_one_checked_up_front(self, tmp_path, monkeypatch, capsys, jobs):
        started = []
        monkeypatch.setattr(cli, "build_companion", lambda *a: started.append("companion"))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *a, **k: started.append("pool"))
        if isinstance(jobs, dict):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(jobs))
            jobs = ["--config", str(path)]
        assert main(["sweep", "--input", "arctan", "--m", "30", "--dx", "0.25",
                     "--alpha", "0.1", *jobs]) == 3
        assert capsys.readouterr().err.strip() == "error: --jobs must be >= 1"
        assert started == []

    @pytest.mark.parametrize(
        "command, key",
        [("continue", "m"), ("continue", "digits"), ("continue", "count"),
         ("sweep", "digits"), ("sweep", "jobs")],
    )
    @pytest.mark.parametrize("value", [[40], {"n": 40}, None, True])
    def test_config_value_of_wrong_type_exits_3(self, tmp_path, monkeypatch, capsys,
                                                command, key, value):
        started = []
        monkeypatch.setattr(cli, "build_companion", lambda *a: started.append("companion"))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *a, **k: started.append("pool"))
        config = {"m": 40, "dx": "0.25", "alpha": "0.1", key: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--input", "arctan", "--config", str(path)]) == 3
        if key == "m" and value is None:
            message = "error: missing required option(s): --m"
        else:
            message = f"error: --{key} must be an integer, got {json.dumps(value)}"
        assert capsys.readouterr().err.strip() == message
        assert started == []

    @pytest.mark.parametrize("command", ["continue", "sweep"])
    @pytest.mark.parametrize("document", [None, ["m", 40], "m"])
    def test_config_that_is_not_an_object_exits_3(self, tmp_path, capsys, command, document):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        assert main([command, "--input", "arctan", "--m", "40", "--dx", "0.25",
                     "--alpha", "0.1", "--config", str(path)]) == 3
        assert capsys.readouterr().err.strip() == "error: --config must hold a JSON object"

    @pytest.mark.parametrize("value", [{"n": 40}, True, [40, True], [[40]]])
    def test_sweep_config_m_of_wrong_type_exits_3(self, tmp_path, capsys, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"m": value, "dx": "0.25", "alpha": "0.1"}))
        assert main(["sweep", "--input", "arctan", "--config", str(path)]) == 3
        bad = value[-1] if isinstance(value, list) else value
        assert capsys.readouterr().err.strip() == (
            f"error: --m must be an integer, got {json.dumps(bad)}")

    @pytest.mark.parametrize("command, key", [("continue", "m"), ("continue", "count"),
                                              ("sweep", "m"), ("sweep", "jobs")])
    def test_config_integer_that_is_not_a_number_exits_3(self, tmp_path, monkeypatch, capsys,
                                                         command, key):
        started = []
        monkeypatch.setattr(cli, "build_companion", lambda *a: started.append("companion"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"m": 40, "dx": "0.25", "alpha": "0.1", key: "abc"}))
        assert main([command, "--input", "arctan", "--config", str(path)]) == 3
        assert capsys.readouterr().err == f'error: --{key} must be an integer, got "abc"\n'
        assert started == []

    def test_config_integers_as_text_or_integral_numbers(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"m": "30", "dx": "0.25", "alpha": "0.1",
                                    "digits": 19.0, "count": "1"}))
        out = tmp_path / "c.json"
        assert main(["continue", "--input", "arctan", "--config", str(path),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["m"], doc["digits"], len(doc["shifted_coefficients"])) == (30, 19, 1)

    @pytest.mark.parametrize(
        "dx, alpha, message",
        [("abc", "0.1", "error: step 'abc' is not a number"),
         ("0.25", "xyz", "error: alpha 'xyz' is not a number")],
    )
    def test_non_numeric_continue_parameters_exit_3(self, capsys, dx, alpha, message):
        assert main(["continue", "--input", "arctan", "--m", "20", "--dx", dx,
                     "--alpha", alpha]) == 3
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("command, dx, shown", [
        ("continue", "1e3000000", "1E+3000000"), ("continue", "2", "2"),
        ("sweep", "0.25,1e3000000", "1E+3000000")])
    def test_step_above_one_exits_4_at_once(self, capsys, command, dx, shown):
        """A step above 1 is refused before 1/step, a million digits long, is built."""
        assert main([command, "--input", "arctan", "--m", "20", "--dx", dx,
                     "--alpha", "0.1"]) == 4
        assert capsys.readouterr().err == (
            f"error: step {shown} is greater than 1, the length of the path\n")

    @pytest.mark.parametrize("command, dx", [("continue", "3e-5000"), ("sweep", "0.25,3e-5000")])
    def test_long_non_integral_step_exits_4(self, capsys, command, dx):
        """1/step = 10**5000/3 is not shown: its text is longer than an int may print."""
        assert main([command, "--input", "arctan", "--m", "20", "--dx", dx,
                     "--alpha", "0.1"]) == 4
        assert capsys.readouterr().err == "error: 1/step is not an integer for step 3E-5000\n"

    @pytest.mark.parametrize("alpha, shown, converged", [
        ("1e-30000000", "1E-30000000", 0), ("1e30000000", "1E+30000000", 5)])
    @pytest.mark.parametrize("command", ["continue", "sweep"])
    def test_alpha_of_thirty_million_decades(self, command, alpha, shown, converged):
        """The flags are settled by the exponents alone, before 10**30000000
        is formed: every flag fails at 1e-30000000 and holds at 1e30000000."""
        env = {**os.environ, "PYTHONPATH": SRC}
        argv = [command, "--input", "arctan", "--m", "5", "--dx", "0.5", "--alpha", alpha]
        if command == "continue":
            argv += ["--count", "0"]
        proc = subprocess.run([sys.executable, "-m", "asymser", *argv], capture_output=True,
                              text=True, env=env, timeout=30)
        assert proc.returncode == 0, proc.stderr
        if command == "continue":
            assert json.loads(proc.stdout)["converged_count"] == converged
        else:
            (row,) = csv.DictReader(proc.stdout.splitlines())
            assert (row["alpha"], row["converged_count"]) == (shown, str(converged))

    @pytest.mark.parametrize("dx, shown", [
        ("1e-30", "1E-30 takes 1000000000000000000000000000000"),
        ("1e-100000000", "1E-100000000 takes more than 10**99999999")])
    @pytest.mark.parametrize("csv_input", [False, True])
    def test_path_of_too_many_steps_exits_3_at_once(self, tmp_path, csv_input, dx, shown):
        """dx 1e-30 takes 10**30 steps, over 1000 * m: refused before the
        first, and 1/dx is not formed when its exponent alone refuses it."""
        text = "arctan"
        if csv_input:
            path = tmp_path / "arctan.csv"
            save_coeffs(build_series("arctan", 5), path)
            text = f"file:{path}"
        env = {**os.environ, "PYTHONPATH": SRC}
        argv = ["continue", "--input", text, "--m", "5", "--dx", dx, "--alpha", "0.1"]
        proc = subprocess.run([sys.executable, "-m", "asymser", *argv], capture_output=True,
                              text=True, env=env, timeout=30)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"error: dx {shown} steps; at most 1000 * m = 5000 are allowed\n"

    @pytest.mark.parametrize("a", ["1e100000", "1e1000000", "1e-1000000"])
    def test_pole_parameter_past_64_bits_exits_3_at_once(self, capsys, a):
        """A pole parameter of 332,193 bits took seconds to build a companion
        of 5 terms; past 64 bits it is refused before 10**e is formed."""
        start = time.perf_counter()
        assert main(["continue", "--input", f"pole:{a}", "--m", "5", "--dx", "0.5",
                     "--alpha", "0.1"]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"error: pole parameter in 'pole:{a}' has a numerator or denominator past 64 bits\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_path_of_too_many_steps_checked_up_front(self, monkeypatch, capsys, jobs):
        """Every cell's step count is checked with its other parameters: the
        m=20 cells of dx 1/16384 may run, the m=5 ones may not."""
        started = []
        monkeypatch.setattr(cli, "build_companion", lambda *a: started.append("companion"))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *a, **k: started.append("pool"))
        assert main(["sweep", "--input", "arctan", "--m", "20,5", "--dx", "0.25,0.00006103515625",
                     "--alpha", "0.1", "--jobs", jobs]) == 3
        assert capsys.readouterr().err == (
            "error: dx 0.00006103515625 takes 16384 steps; at most 1000 * m = 5000 are allowed\n")
        assert started == []

    def test_input_term_of_three_hundred_thousand_digits(self, tmp_path):
        """Each step's sums are exact multiples of their long denominators:
        those quotients are divided as integers, not by converting an int
        of 300,000 digits to Decimal, which is quadratic."""
        prefix = tmp_path / "long.json"
        prefix.write_text(json.dumps(["1"] + ["0"] * 19 + ["9E+299998"]))
        env = {**os.environ, "PYTHONPATH": SRC}
        argv = ["continue", "--input", f"file:{prefix}", "--m", "21", "--dx", "0.5",
                "--alpha", "1e-30", "--count", "0"]
        proc = subprocess.run([sys.executable, "-m", "asymser", *argv], capture_output=True,
                              text=True, env=env, timeout=30)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["coefficients_at_one"][:2] == ["9.000000000000000000E+299998",
                                                  "1.800000000000000000E+300000"]
        assert [s["carried"] for s in doc["steps"]] == [21, 21]

    def test_input_term_next_to_the_largest_exponent(self, tmp_path):
        """Quotients of a million digits near Emax 999999 are divided as
        integers too, and the one that overflows is a numerical blow-up."""
        prefix = tmp_path / "long.json"
        prefix.write_text(json.dumps(["1"] + ["0"] * 19 + ["9E+999998"]))
        env = {**os.environ, "PYTHONPATH": SRC}
        argv = ["continue", "--input", f"file:{prefix}", "--m", "21", "--dx", "0.5",
                "--alpha", "1e-30", "--count", "0"]
        proc = subprocess.run([sys.executable, "-m", "asymser", *argv], capture_output=True,
                              text=True, env=env, timeout=30)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == "error: numerical blow-up: Overflow\n"

    @pytest.mark.parametrize("alpha", ["inf", "Infinity"])
    def test_infinite_continue_alpha_exits_3(self, tmp_path, capsys, alpha):
        # it would claim every coefficient: c0 = 55.13 where the truth is pi/2
        out = tmp_path / "c.json"
        assert main(["continue", "--input", "arctan", "--m", "20", "--dx", "0.25",
                     "--alpha", alpha, "--count", "2", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: alpha Infinity is not finite\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_direct_tolerance_exits_3(self, capsys, tol):
        assert main(["direct", "--input", "pole:2", "--k", "0",
                     "--schedule", "5..10", "--tol", tol]) == 3
        assert capsys.readouterr().err.strip() == f"error: tol {tol} is not finite"

    def test_negative_direct_tolerance_exits_3(self, capsys):
        assert main(["direct", "--input", "pole:2", "--k", "0",
                     "--schedule", "5..10", "--tol", "-0.5"]) == 3
        assert capsys.readouterr().err.strip() == "error: tol -0.5 is negative"

    @pytest.mark.parametrize("tol, shown", [("-1e-400", "-1E-400"), ("-3", "-3"),
                                            ("-1e-999999999999", "-1E-999999999999")])
    def test_negative_direct_tolerance_below_float_range_exits_3(self, capsys, tol, shown):
        """tol is read as an exact decimal: no float rounds it to -0.0."""
        assert main(["direct", "--input", "pole:1", "--k", "0",
                     "--schedule", "5..8", f"--tol={tol}"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: tol {shown} is negative\n"
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["-inf", "Infinity", "snan", "-nan"])
    def test_other_non_finite_direct_tolerances_exit_3(self, capsys, tol):
        assert main(["direct", "--input", "pole:2", "--k", "0",
                     "--schedule", "5..10", f"--tol={tol}"]) == 3
        assert capsys.readouterr().err == f"error: tol {tol} is not finite\n"

    def test_malformed_direct_tolerance_exits_3(self, capsys):
        assert main(["direct", "--input", "pole:2", "--k", "0",
                     "--schedule", "5..10", "--tol", "1e-9x"]) == 3
        assert capsys.readouterr().err == "error: tol '1e-9x' is not a number\n"

    @pytest.mark.parametrize("tol, verdicts", [("1e-400", "yes"), ("1e-600", "no"),
                                               ("0", "no"), ("1e999999999999", "yes")])
    def test_direct_tolerance_beyond_float_range_is_exact(self, tmp_path, capsys, tol,
                                                          verdicts):
        """Partials 1 + m*10**-500 agree within 1e-400, which a float would
        have read as 0, and not within 1e-600."""
        path = tmp_path / "tiny.csv"
        save_coeffs(TaylorSeries([1, F(1, 10**500)] + [0] * 7), path)
        assert main(["direct", "--input", f"file:{path}", "--k", "0",
                     "--schedule", "5..8", "--tol", tol]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [r.split(",")[2] for r in rows[1:5]] == ["no", "no", verdicts, verdicts]

    @pytest.mark.parametrize(
        "command",
        [["transform", "--input", "arctan", "--count", "4"],
         ["convert", "{dir}/c.csv", "--direction", "to-plain"],
         ["direct", "--input", "pole:2", "--k", "0", "--schedule", "5..10"]],
    )
    def test_digits_below_one_exit_3(self, tmp_path, capsys, command):
        save_coeffs(build_series("arctan", 4), tmp_path / "c.csv")
        argv = [arg.format(dir=tmp_path) for arg in command]
        assert main([*argv, "--digits", "0"]) == 3
        assert capsys.readouterr().err.strip() == "error: digits must be >= 1"

    @pytest.mark.parametrize("digits", [10**18, 10**21])  # both above MAX_PREC
    @pytest.mark.parametrize(
        "command",
        [["transform", "--input", "arctan", "--count", "4"],
         ["continue", "--input", "arctan", "--m", "20", "--dx", "0.25", "--alpha", "0.1"],
         ["convert", "{dir}/c.json", "--direction", "to-plain"],
         ["direct", "--input", "pole:2", "--k", "0", "--schedule", "5..10"],
         ["sweep", "--input", "arctan", "--m", "20", "--dx", "0.25", "--alpha", "0.1"]],
    )
    def test_digits_above_max_prec_exit_3(self, tmp_path, capsys, command, digits):
        save_coeffs(ROUND_TRIP_SERIES["decimal-19"], tmp_path / "c.json")
        argv = [arg.format(dir=tmp_path) for arg in command]
        assert main([*argv, "--digits", str(digits)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: digits must be <= {MAX_PREC}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command",
        [["continue", "--input", "arctan", "--m", "20", "--dx", "0.25", "--alpha", "0.1"],
         ["sweep", "--input", "arctan", "--m", "20", "--dx", "0.25", "--alpha", "0.1",
          "--jobs", "1"]],
    )
    def test_out_of_memory_exits_3(self, capsys, monkeypatch, command):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "build_companion", exhausted)
        assert main(command) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory; lower --m, --count or --digits\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["transform", "continue", "sweep"])
    def test_out_of_memory_in_a_file_transform_exits_3(self, tmp_path, capsys, monkeypatch,
                                                      command):
        """A file: input's companion is still the binomial transform."""
        def exhausted(series):
            raise MemoryError

        save_coeffs(build_series("arctan", 20), tmp_path / "c.csv")
        monkeypatch.setattr(functions, "associated", exhausted)
        flags = (["--count", "20"] if command == "transform"
                 else ["--m", "20", "--dx", "0.25", "--alpha", "0.1"])
        assert main([command, "--input", f"file:{tmp_path}/c.csv", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory; lower --m, --count or --digits\n"
        assert captured.out == ""

    @pytest.mark.parametrize("lag", ["0", "-2"])
    def test_transform_lag_below_one_checked_up_front(self, tmp_path, monkeypatch, capsys,
                                                      lag):
        started = []
        monkeypatch.setattr(cli, "build_series", lambda *a: started.append("series"))
        for text in ("arctan", f"file:{tmp_path}/missing.csv"):
            assert main(["transform", "--input", text, "--count", "12", "--lag", lag]) == 3
            captured = capsys.readouterr()
            assert captured.err == "error: --lag must be >= 1\n"
            assert captured.out == ""
        assert started == []

    def test_transform_series_too_short_for_its_lag(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["transform", "--input", "arctan", "--count", "5", "--lag", "4",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "radius estimate (lag 4): unavailable (need at least lag + 2 coefficients)\n")
        assert len(read_csv(out)) == 5

    @pytest.mark.parametrize("count", [["--count", "-1"], {"count": -1}])
    def test_continue_count_below_zero_checked_up_front(self, tmp_path, monkeypatch, capsys,
                                                        count):
        started = []
        monkeypatch.setattr(cli, "build_companion", lambda *a: started.append("companion"))
        if isinstance(count, dict):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(count))
            count = ["--config", str(path)]
        assert main(["continue", "--input", "arctan", "--m", "1501", "--dx", "0.25",
                     "--alpha", "0.1", *count]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: count must be >= 0\n"
        assert captured.out == ""
        assert started == []

    @pytest.mark.parametrize(
        "flags, message",
        [(["--k", "-1", "--schedule", "5..20000"], "error: k must be >= 0"),
         (["--k", "1", "--schedule", "20000,5"], "error: --schedule must be strictly increasing"),
         (["--k", "1", "--schedule", "5,5"], "error: --schedule must be strictly increasing")],
    )
    def test_direct_index_and_schedule_checked_up_front(self, monkeypatch, capsys, flags,
                                                        message):
        started = []
        monkeypatch.setattr(cli, "build_series", lambda *a: started.append("series"))
        assert main(["direct", "--input", "pole:3/2", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""
        assert started == []

    def test_negative_direct_index_exits_3(self, capsys):
        assert main(["direct", "--input", "pole:2", "--k", "-1",
                     "--schedule", "5..10"]) == 3
        assert capsys.readouterr().err.strip() == "error: k must be >= 0"

    def test_usage_error(self):
        assert main([]) == 2
        assert main(["continue"]) == 2  # missing required --input

    @pytest.mark.parametrize(
        "text, count, code, message",
        [
            ("sin", "0", 3, "error: unknown input spec 'sin'"),
            ("pole:abc", "0", 3, "error: bad pole parameter in 'pole:abc'"),
            ("pole:0", "0", 3, "error: count must be >= 1"),
            ("file:{dir}/missing.csv", "0", 3, "error: count must be >= 1"),
            ("pole:0", "3", 4, "error: pole parameter must be nonzero"),
            ("file:{dir}/six.csv", "9", 3, "error: file provides 6 coefficients, need 9"),
        ],
    )
    def test_rejected_input_exit_codes(self, tmp_path, capsys, text, count, code, message):
        save_coeffs(build_series("arctan", 6), tmp_path / "six.csv")
        assert main(["transform", "--input", text.format(dir=tmp_path),
                     "--count", count]) == code
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("command", ["continue", "sweep"])
    @pytest.mark.parametrize(
        "text, code, message",
        [("pole:0", 4, "error: pole parameter must be nonzero"),
         ("sin", 3, "error: unknown input spec 'sin'"),
         ("pole:abc", 3, "error: bad pole parameter in 'pole:abc'")],
    )
    def test_companion_route_rejects_inputs_alike(self, capsys, command, text, code, message):
        """continue and sweep build the companion without the Taylor prefix,
        with the exit codes and messages of build_series."""
        assert main([command, "--input", text, "--m", "20", "--dx", "0.25",
                     "--alpha", "0.1"]) == code
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""

    def test_unknown_input_spec(self, tmp_path):
        assert main(["transform", "--input", "tan", "--count", "4",
                     "--out", str(tmp_path / "x.csv")]) == 3

    def test_non_finite_decimals_exit_3(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(["0", "1", "Infinity", "NaN"]))
        assert main(["transform", "--input", f"file:{src}", "--count", "4",
                     "--out", str(tmp_path / "t.csv")]) == 3
        assert main(["continue", "--input", f"file:{src}", "--m", "4", "--dx", "0.25",
                     "--alpha", "0.1", "--out", str(tmp_path / "c.json")]) == 3

    @pytest.mark.parametrize("entry, reason", [
        ("1e99999999999999999999", "is outside the decimal range"),
        ("1e-99999999999999999999", "is outside the decimal range"),
        ("abc", "is not a decimal")])
    def test_undecimal_entry_exits_3(self, tmp_path, capsys, entry, reason):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(["0", "1", entry]))
        assert main(["transform", "--input", f"file:{src}", "--count", "3"]) == 3
        assert capsys.readouterr().err == f"error: entry 2 {reason}: {entry!r}\n"


class TestOutFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "--input", "arctan", "--count", "12"],
            ["continue", "--input", "arctan", "--m", "40", "--dx", "0.25", "--alpha", "0.01",
             "--count", "1"],
            ["direct", "--input", "pole:2", "--k", "1", "--schedule", "5..20..5"],
            ["sweep", "--input", "arctan", "--m", "26,22", "--dx", "0.5,0.25", "--alpha", "0.1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_file_holds_the_table_of_standard_output(self, tmp_path, capsys, argv):
        """--out FILE gets the bytes that lead standard output without it;
        what follows them (a summary line) stays on standard output."""
        out = tmp_path / "out"
        assert main(argv) == 0
        whole = capsys.readouterr().out
        assert main([*argv, "--out", str(out)]) == 0
        rest = capsys.readouterr().out
        table = out.read_bytes().decode()
        assert table and whole == table + rest
        assert main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out == whole


class TestModuleEntry:
    @pytest.mark.parametrize("argv, code, head", [
        (["transform", "--input", "arctan", "--count", "8"], 0,
         "n,taylor_num,taylor_den,taylor_dec,assoc_num,assoc_den,assoc_dec\n"),
        (["transform", "--input", "nothing", "--count", "8"], 3, ""),
    ])
    def test_python_m_asymser(self, argv, code, head):
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-m", "asymser", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.startswith(head)
        assert (proc.stderr == "") == (code == 0)


class TestImportGraph:
    def test_start_imports_no_pool_and_no_annotation_machinery(self, tmp_path):
        """A fresh `continue` run loads neither the process pool nor
        dataclasses, inspect, pathlib or typing."""
        code = """
import sys
sys.path.insert(0, sys.argv[1])
import asymser, asymser.cli
code = asymser.cli.main(["continue", "--input", "arctan", "--m", "40", "--dx", "0.25",
                         "--alpha", "0.01", "--count", "1", "--out", sys.argv[2]])
print(code, *sorted(set(sys.argv[3:]) & set(sys.modules)))
"""
        heavy = ["concurrent.futures", "multiprocessing", "dataclasses", "inspect",
                 "pathlib", "typing"]
        out = tmp_path / "c.json"
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, SRC, str(out), *heavy],
                              capture_output=True, text=True, check=True, timeout=120)
        assert proc.stdout.split() == ["0"]
        assert json.loads(out.read_text())["converged_count"] >= 1
