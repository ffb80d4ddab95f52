"""Byte-identity pins and the rounding count of the benchmark's workloads.

The pins hold the sha256 of CLI outputs: the headline `continue` JSON, the
serial 60-cell sweep CSV and a 200-coefficient `transform` of arctan; a
`sweep`, a `continue` and two `transform`s of `pole:A` inputs; and a
`direct` run at the default tol.  The `pole:A` and `altgeom` pins were taken
while every companion still came from the binomial transform, before
built-in inputs took theirs from the recurrence, and the `direct` pin while
`--tol` was still read as a float.  The `pole-sweep` pin was retaken when
its err0/err1 columns filled from the companion's coefficients at 1; its
other columns did not move.
A change that moves these bytes on purpose updates the pin and says so in
CHANGES.md; any other change must leave them as they are.
The 60-cell grid and the 200-coefficient `transform` also run on a saved
exact prefix of arctan, the `file:` route, which must give the built-in
input's rows and bytes.
"""
from __future__ import annotations

import csv
import hashlib
import io
import os
import sys

import pytest

from asymser import build_companion, build_series, cli, companion_at_one, save_coeffs, transform

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import workloads  # noqa: E402

PINS = {
    "headline": (workloads.HEADLINE_ARGV,
                 "30995a34b977ad1d259b36762d30ba578c588a18e78ab212c96a2a173e018b6e"),
    "serial-sweep": (workloads.sweep_argv(1),
                     "87bd4e135122e259702664bc05d7e6c669f86f734f815b8559dd64ad705ff186"),
    "transform-200": (["transform", "--input", "arctan", "--count", "200"],
                      "cb9cc99f9c537a10d35fb3b70153056fd133fe28009fa87e62de6901767af7d1"),
    "pole-sweep": (["sweep", "--input", "pole:3/2", "--m", "20,60,120", "--dx", "0.25,0.5",
                    "--alpha", "1e-6,0.1", "--jobs", "1"],
                   "927c708a8daa8bb3aeb62b54f9f832404871ff4ca73fb75c1e11671eeeac11c5"),
    "pole-continue": (["continue", "--input", "pole:2", "--m", "60", "--dx", "0.5",
                       "--alpha", "1e-6"],
                      "b8e7c9ebf0c69134677fdc58d6920f63f8b3d529a4e6e7f1e99643c8a61e9eca"),
    "pole-transform-300": (["transform", "--input", "pole:3/2", "--count", "300"],
                           "81cefe5b52d210cea57377b41c3856176185261ebb276fb2ff5f39c9cf7cad71"),
    "altgeom-transform-50": (["transform", "--input", "altgeom", "--count", "50"],
                             "fd7b0c0eb98a6eede0f7905fc9b296fcfe606022b2488deaa266e223c12c4b84"),
    # the rows turn to "yes" at m=24 with the default tol 1e-9, at m=26 with 1e-10
    "direct-default-tol": (["direct", "--input", "pole:3/2", "--k", "1", "--schedule", "5..80"],
                           "fa560e4c32b20acac5ac24c0d530aef5faa51307e0768d7e4f9f80bdc5e1c98d"),
}


@pytest.mark.parametrize("name", list(PINS))
def test_output_is_pinned(capsys, name):
    argv, digest = PINS[name]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sweep_rounds_its_prefix_once(capsys, monkeypatch):
    """The 60-cell sweep rounds the exact companion prefix once, and then the
    two reference values at 1 of its err columns; each (m, dx) pair starts
    from that rounded prefix without rounding a value again."""
    calls = []
    rounded = transform._rounded
    monkeypatch.setattr(transform, "_rounded", lambda value: calls.append(value)
                        or rounded(value))
    assert cli.main(workloads.sweep_argv(1)) == 0
    capsys.readouterr()
    m = max(workloads.SWEEP_M)
    assert len(calls) == m + 2
    assert calls[:m] == list(build_companion("arctan", m).coeffs)
    assert calls[m:] == companion_at_one("arctan", 2)


def test_file_prefix_sweeps_the_grid_as_the_builtin_input(capsys, tmp_path):
    """The paper's route, a saved exact Taylor prefix, gives every cell of the
    60-cell grid the built-in arctan's row, at --jobs 2 against --jobs 1; only
    the err columns, which need the function itself, stay empty."""
    save_coeffs(build_series("arctan", max(workloads.SWEEP_M)), tmp_path / "arctan.csv")
    grids = []
    for text, jobs in (("arctan", 1), (f"file:{tmp_path}/arctan.csv", 2)):
        argv = workloads.sweep_argv(jobs)
        argv[argv.index("--input") + 1] = text
        assert cli.main(argv) == 0
        grids.append(list(csv.DictReader(io.StringIO(capsys.readouterr().out))))
    builtin, saved = grids
    assert len(builtin) == len(saved) == 60
    errs = ("err0", "err1")
    for a, b in zip(builtin, saved):
        assert (b["err0"], b["err1"]) == ("", "")
        assert {k: v for k, v in a.items() if k not in errs} == \
            {k: v for k, v in b.items() if k not in errs}


def test_file_prefix_transforms_as_the_builtin_input(capsys, tmp_path):
    """`transform` of a saved exact prefix of arctan, the `file:` route,
    prints the bytes of the built-in input's `transform-200` pin."""
    argv, digest = PINS["transform-200"]
    save_coeffs(build_series("arctan", 200), tmp_path / "arctan.csv")
    argv = [f"file:{tmp_path}/arctan.csv" if a == "arctan" else a for a in argv]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
