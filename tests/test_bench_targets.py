"""The traced benchmark patches layer functions by name (bench/spans.py
TARGETS).  A rename or a fold in the package must not silently drop a layer
from its per-layer metrics: a traced CLI run has to show every span the
headline and sweep-grid workloads read."""
from __future__ import annotations

import os
import sys

from asymser import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import spans  # noqa: E402


def test_traced_cli_run_shows_every_layer(tmp_path):
    with spans.Tracer().installed() as tracer:
        assert cli.main(["continue", "--input", "arctan", "--m", "40", "--dx", "0.25",
                         "--alpha", "0.01", "--count", "1",
                         "--out", str(tmp_path / "c.json")]) == 0
        assert cli.main(["sweep", "--input", "arctan", "--m", "40", "--dx", "0.25",
                         "--alpha", "0.1,0.01", "--jobs", "1",
                         "--out", str(tmp_path / "s.csv")]) == 0
    for name in ["cli.main", "functions.build_series", "transform.associated",
                 "continuation.continue", "continuation.recenter_step", "cli.sweep_cell"]:
        assert tracer.named(name), name
    assert len(tracer.named("cli.sweep_cell")) == 2
    assert all("converged" in s["attrs"] for s in tracer.named("continuation.continue"))


def test_traced_convert_and_direct_show_their_layers(tmp_path):
    """transform-convert reads the spans of load_coeffs and direct_trace."""
    src = tmp_path / "v.json"
    src.write_text('["0.5", "-0.25", "0.125"]\n')
    with spans.Tracer().installed() as tracer:
        assert cli.main(["convert", str(src), "--direction", "to-plain",
                         "--out", str(tmp_path / "q.json")]) == 0
        assert cli.main(["direct", "--input", "pole:2", "--k", "1", "--schedule", "5..10",
                         "--out", str(tmp_path / "d.csv")]) == 0
    for name in ["functions.load_coeffs", "conversion.shifted_to_plain",
                 "conversion.direct_trace"]:
        assert tracer.named(name), name
