"""The traced benchmark patches layer functions by name (bench/spans.py
TARGETS).  A rename or a fold in the package must not silently drop a layer
from its per-layer metrics: a traced CLI run has to show every span the
headline and sweep-grid workloads read."""
from __future__ import annotations

import json
import os
import sys

from asymser import build_series, cli, save_coeffs

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import spans  # noqa: E402


def test_traced_cli_run_shows_every_layer(tmp_path):
    """A built-in input's companion comes from its recurrence, so the
    transform and the Taylor prefix are traced on the file: route."""
    save_coeffs(build_series("arctan", 40), tmp_path / "arctan.csv")
    with spans.Tracer().installed() as tracer:
        assert cli.main(["continue", "--input", "arctan", "--m", "40", "--dx", "0.25",
                         "--alpha", "0.01", "--count", "1",
                         "--out", str(tmp_path / "c.json")]) == 0
        builtin = [s["name"] for s in tracer.spans]
        assert cli.main(["sweep", "--input", "arctan", "--m", "40", "--dx", "0.25",
                         "--alpha", "0.1,0.01", "--jobs", "1",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert cli.main(["continue", "--input", f"file:{tmp_path / 'arctan.csv'}",
                         "--m", "40", "--dx", "0.25", "--alpha", "0.01", "--count", "1",
                         "--out", str(tmp_path / "f.json")]) == 0
    assert "transform.associated" not in builtin
    assert "continuation.continue" in builtin
    assert (tmp_path / "f.json").read_text() == (tmp_path / "c.json").read_text().replace(
        '"arctan"', json.dumps(f"file:{tmp_path / 'arctan.csv'}"))
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


def test_shared_first_steps_are_traced_recenter_steps(tmp_path):
    """Each alpha of a sweep pair takes its first step, from the shared
    first shift, as its own recenter_step: every recenter_step span lies
    inside its cell's continuation.continue span, the first one of each cell
    over all m coefficients, and each cell holds one span per step."""
    with spans.Tracer().installed() as tracer:
        assert cli.main(["sweep", "--input", "arctan", "--m", "30,40", "--dx", "0.25,0.5,1",
                         "--alpha", "1e-300,0.01,0.1", "--jobs", "1",
                         "--out", str(tmp_path / "s.csv")]) == 0
    by_id = {s["id"]: s for s in tracer.spans}

    def enclosing_continue(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == "continuation.continue":
                return span["id"]
        return None

    steps = tracer.named("continuation.recenter_step")
    inside = [enclosing_continue(s) for s in steps]
    assert None not in inside
    cells = tracer.named("continuation.continue")
    # the pairs run largest first: m = 40, then 30, each at dx 0.25, 0.5 and 1
    assert [inside.count(c["id"]) for c in cells] == ([4] * 3 + [2] * 3 + [1] * 3) * 2
    firsts = [steps[inside.index(c["id"])]["attrs"]["n"] for c in cells]
    assert firsts == [40] * 9 + [30] * 9
