"""Byte-identity pins and the rounding count of the benchmark's workloads.

The pins hold the sha256 of three CLI outputs: the headline `continue` JSON,
the serial 60-cell sweep CSV and a 200-coefficient `transform`.  A change
that moves these bytes on purpose updates the pin and says so in
CHANGES.md; any other change must leave them as they are.
"""
from __future__ import annotations

import hashlib
import os
import sys

import pytest

from asymser import cli, continuation

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
}


@pytest.mark.parametrize("name", list(PINS))
def test_output_is_pinned(capsys, name):
    argv, digest = PINS[name]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sweep_rounds_its_prefix_once(capsys, monkeypatch):
    """The 60-cell sweep rounds the exact companion prefix once; each (m, dx)
    pair starts from that rounded prefix without rounding a value again."""
    calls = []
    rounded = continuation._rounded
    monkeypatch.setattr(continuation, "_rounded", lambda value: calls.append(value)
                        or rounded(value))
    assert cli.main(workloads.sweep_argv(1)) == 0
    capsys.readouterr()
    assert len(calls) == max(workloads.SWEEP_M)
