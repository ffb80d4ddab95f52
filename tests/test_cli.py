from __future__ import annotations

import csv
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from asymser import arctan_assoc_coeff, arctan_coeffs, save_coeffs
from asymser.cli import main

F = Fraction


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

    def test_non_integral_step_exits_4(self, tmp_path):
        code = main(["continue", "--input", "arctan", "--m", "20",
                     "--dx", "0.3", "--alpha", "0.1"])
        assert code == 4

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
        save_coeffs(arctan_coeffs(9), src)
        mid = tmp_path / "mid.csv"
        back = tmp_path / "back.csv"
        assert main(["convert", str(src), "--direction", "to-q",
                     "--out", str(mid)]) == 0
        assert main(["convert", str(mid), "--direction", "to-qprime",
                     "--out", str(back)]) == 0
        assert back.read_text() == src.read_text()

    def test_single_value(self, tmp_path, capsys):
        src = tmp_path / "one.csv"
        src.write_text("n,numerator,denominator\n0,7,2\n")
        assert main(["convert", str(src), "--direction", "to-shifted"]) == 0
        assert "7,2" in capsys.readouterr().out

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

    def test_empty_schedule_writes_empty_trace(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["direct", "--input", "pole:2", "--k", "0",
                     "--schedule", "", "--out", str(out)]) == 0
        assert read_csv(out) == []
        assert "not converged" in capsys.readouterr().out


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

    def test_non_arctan_input_has_no_reference_errors(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--input", "pole:2", "--m", "30", "--dx", "0.25",
                     "--alpha", "0.001", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["err0"] == "" and rows[0]["err1"] == ""
        assert rows[0]["status"] == "converged"


class TestExitCodes:
    def test_usage_error(self):
        assert main([]) == 2
        assert main(["continue"]) == 2  # missing required --input

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
