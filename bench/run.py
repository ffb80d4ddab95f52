#!/usr/bin/env python3
"""Benchmark of asymser: the `headline`, `sweep-grid` and `transform-convert`
workloads, checked against references computed here, with a traced run that
times each layer.

    python3 bench/run.py --workload headline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --record label

Run from the root of the repository.  With --trace 0 the named workload
runs whole passes, one caller in a closed loop, until --seconds have passed;
the metrics are the end-to-end ones.  With --trace 1 every workload makes
one untraced and one traced pass (sweep-grid serially), and the metrics are
the per-layer ones.  The last line of standard output is a JSON object with
the keys correct, attempted, failed and metrics; attempted and failed count
the operations of the named workloads.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_out"
JOBS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 9

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "v0_digits": "digits"}


def unit(metric: str) -> str:
    """Unit of an end-to-end or per-layer metric, with or without a
    workload prefix."""
    base = metric.rsplit(".", 1)[-1]
    if base in UNITS:
        return UNITS[base]
    if base.endswith("_s"):
        return "s"
    return "ratio" if base.endswith("efficiency") else "count"

# Import asymser and asymser.cli in a fresh interpreter, make one small
# `continue` call through the CLI, and print the seconds that took.
SETUP_CODE = """
import time
start = time.perf_counter()
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import asymser, asymser.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = asymser.cli.main(["continue", "--input", "arctan", "--m", "40",
                             "--dx", "0.25", "--alpha", "0.01", "--count", "1"])
print(repr(time.perf_counter() - start) if code == 0 else "exit %d" % code)
"""


def measure_setup() -> float:
    """Median set-up time over fresh interpreters; the first one, which may
    compile bytecode, is not counted."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return statistics.median(times[1:])


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus `workers` times the largest
    child's, in MB (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024


def consistency(outcomes) -> list:
    """Every pass of a workload must give the same output."""
    first = outcomes[0].output
    return [f"pass {i + 1} output differs from pass 1"
            for i, o in enumerate(outcomes) if o.output != first]


def timed_run(workload, seconds: float) -> dict:
    """Whole passes until `seconds` have passed; end-to-end metrics."""
    setup = measure_setup()
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(workload.run_pass(JOBS))
    walls = [o.seconds for o in outcomes]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(JOBS if workload.name == "sweep-grid" else 0),
        "v0_digits": outcomes[0].v0_digits,
    }
    return {"outcomes": outcomes, "metrics": metrics, "pass_seconds": walls,
            "problems": consistency(outcomes)}


def layer_metrics(tracer, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics from the spans of one traced pass of each workload."""
    # workloads and spans import asymser, so they load only after main() has
    # put this checkout's src/ first on the path.
    from workloads import COMPANION_AT_ONE, off_by

    false_converged = 0
    for span in tracer.named("continuation.continue"):
        alpha = Fraction(Decimal(span["attrs"]["alpha"]))
        false_converged += sum(
            off_by(Decimal(c), COMPANION_AT_ONE[k]) > alpha
            for k, c in enumerate(span["attrs"]["converged"])
        )
    first_steps = tracer.first_children("continuation.continue", "continuation.recenter_step")
    metrics = {
        "transform.associated_s": tracer.busy("transform.associated"),
        "transform.associated_inverse_s": tracer.busy("transform.associated_inverse"),
        "transform.associated_decimal_s": tracer.busy("transform.associated_decimal"),
        "transform.estimate_radius_s": tracer.busy("transform.estimate_radius"),
        "continuation.first_step_s": sum(s["end"] - s["start"] for s in first_steps),
        "continuation.continue_s": tracer.busy("continuation.continue"),
        "continuation.terms": sum(
            s["attrs"]["n"] * (s["attrs"]["n"] + 1) // 2
            for s in tracer.named("continuation.recenter_step")
        ),
        "continuation.false_converged": false_converged,
        "conversion.shifted_to_plain_s": tracer.busy("conversion.shifted_to_plain"),
        "conversion.plain_to_shifted_s": tracer.busy("conversion.plain_to_shifted"),
        "conversion.direct_trace_s": tracer.busy("conversion.direct_trace"),
        "functions.build_series_s": tracer.busy("functions.build_series"),
        "functions.load_coeffs_s": tracer.busy("functions.load_coeffs"),
        "cli.self_s": tracer.self_time("cli.main"),
        "cli.sweep_cell_s": tracer.median_duration("cli.sweep_cell"),
        "cli.sweep_efficiency": tracer.busy("cli.sweep_cell")
        / (JOBS * untraced["sweep-grid"].seconds),
    }
    for name in untraced:
        metrics[f"trace_overhead.{name}_s"] = traced[name].seconds - untraced[name].seconds
    return metrics


def traced_run(selected: list, seed: int, label: str) -> dict:
    """One untraced and one traced pass of every workload.

    Every workload runs so that each layer is timed on the workload that
    exercises it; sweep-grid runs serially when traced so that every cell's
    spans are seen in this process.
    """
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    untraced, traced, problems = {}, {}, []
    for name, cls in WORKLOADS.items():
        workload = cls(seed, WORKDIR)
        untraced[name] = workload.run_pass(JOBS)
        with tracer.installed(), tracer.span(f"pass.{name}"):
            traced[name] = workload.run_pass(1)
        problems += [f"{name}: {p}" for p in consistency([untraced[name], traced[name]])]
        problems += [f"{name}: {p}" for o in (untraced[name], traced[name]) for p in o.problems]
    WORKDIR.mkdir(exist_ok=True)
    trace_file = WORKDIR / f"trace-{label}-seed{seed}.json"
    trace_file.write_text(json.dumps(tracer.spans) + "\n")
    outcomes = [o for name in selected for o in (untraced[name], traced[name])]
    return {"outcomes": outcomes, "metrics": layer_metrics(tracer, untraced, traced),
            "problems": problems, "trace_file": str(trace_file.relative_to(ROOT))}


def print_record(name: str, run: dict, trace: bool) -> None:
    """Accuracy beside time, for a reader; the JSON line follows at the end."""
    outcomes = run["outcomes"]
    print(f"== {name}: {len(outcomes)} passes, "
          f"attempted {sum(o.ops for o in outcomes)}, failed {sum(o.failed for o in outcomes)}")
    for key, value in run["metrics"].items():
        print(f"  {key:34s} {value:.6g} {unit(key)}")
    if trace:
        print(f"  spans written to {run['trace_file']}")
    record = outcomes[0].record
    if name == "headline" and record:
        print(f"  err0 {record['err0']:.4g}  err1 {record['err1']:.4g}  "
              f"converged_count {record['converged_count']}  carried per step {record['carried']}")
    for cell in record.get("cells", []):
        err1 = "-" if cell.get("err1") is None else f"{cell['err1']:.3g}"
        print(f"  m={cell['m']:<5} dx={cell['dx']:<6} alpha={cell['alpha']:<5} "
              f"converged={cell['converged_count']:<3} err0={cell.get('err0', float('nan')):<10.3g} "
              f"err1={err1:<10} {'FAILED' if cell['failed'] else 'ok'}")
    for line in record.get("errors", []):
        print(f"  error: {line}")
    for line in run["problems"]:
        print(f"  PROBLEM: {line}")


def main(argv=None) -> int:
    names = ["headline", "sweep-grid", "transform-convert"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL",
                        help="also write the run record to BENCH_<LABEL>.json")
    args = parser.parse_args(argv)
    if args.record is not None and not re.fullmatch(r"[A-Za-z0-9_.-]+", args.record):
        parser.error("--record takes letters, digits, '_', '.' and '-'")

    if not (SRC / "asymser" / "__init__.py").is_file():
        print(f"error: no asymser package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import asymser
    if Path(asymser.__file__).resolve().parent != SRC / "asymser":
        print(f"error: asymser imported from {asymser.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    selected = names if args.workload == "all" else [args.workload]
    runs = {}
    if args.trace:
        runs[args.workload] = traced_run(selected, args.seed, args.workload)
    else:
        for name in selected:
            runs[name] = timed_run(WORKLOADS[name](args.seed, WORKDIR), args.seconds)
            runs[name]["problems"] += [p for o in runs[name]["outcomes"] for p in o.problems]
    for name, run in runs.items():
        print_record(name, run, bool(args.trace))

    outcomes = [o for run in runs.values() for o in run["outcomes"]]
    problems = [p for run in runs.values() for p in run["problems"]]
    if len(runs) == 1:
        metrics = next(iter(runs.values()))["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, run in runs.items() for k, v in run["metrics"].items()}
    result = {
        "correct": not problems,
        "attempted": sum(o.ops for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    if args.record is not None:
        record = {
            "label": args.record, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "jobs": JOBS, "result": result,
            "workloads": {
                name: {"pass_seconds": run.get("pass_seconds"),
                       "record": run["outcomes"][0].record}
                for name, run in runs.items()
            },
        }
        (ROOT / f"BENCH_{args.record}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
