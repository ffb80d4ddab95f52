#!/usr/bin/env python3
"""End-to-end arctangent case study.

Runs the full pipeline on f = arctan(x): companion-series transform, radius
estimate, analytic continuation to 1 at the headline parameters, extraction
of the expansion at infinity, and (optionally) the whole parameter grid.
For contrast it also runs the direct-summation route on f = 1/(2+x), where
the companion series converges beyond radius 1 and no continuation is needed.

Usage:
  python scripts/arctan_case_study.py            # headline run
  python scripts/arctan_case_study.py --full     # plus the full grid sweep
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from asymser import (
    SchemeConfig,
    build_companion,
    build_series,
    companion_at_one,
    continue_to_one_with_steps,
    direct_trace,
    estimate_radius,
    extract_shifted,
    format_decimal,
    to_decimals,
)
from asymser.cli import main as cli_main


def headline(outdir: Path) -> None:
    print("== companion transform ==")
    # the companion's coefficients from its recurrence, u' = 1/(1 - 2x + 2x^2)
    assoc = build_companion("arctan", 701)
    for n in (3, 6, 14, 25):
        print(f"  coefficient {n}: {format_decimal(assoc.coeffs[n])}")
    est = estimate_radius(build_companion("arctan", 2000), lag=4)
    print(f"  radius estimate (lag 4, 2000 coefficients): {est.values[-1]:.9f}")
    print("  (0.707106781 expected: the companion series cannot be summed at 1)")

    print("== continuation to 1, m=701 dx=0.25 alpha=0.1, 19 digits ==")
    t0 = time.time()
    config = SchemeConfig(m=701, step="0.25", alpha="0.1", digits=19)
    state, states = continue_to_one_with_steps(assoc, config)
    print(f"  carried per step: {[len(s.coeffs) for s in states]}")
    shifted = extract_shifted(state, 2)
    # the companion's exact coefficients at 1 are pi/2 and 1
    reference = to_decimals(companion_at_one("arctan", 2), config.digits + 8)
    err0, err1 = (abs(c - r) for c, r in zip(state.coeffs, reference))
    print(f"  leading coefficient  {shifted.coeffs[0]}  (pi/2 off by {format_decimal(err0, 3)})")
    print(f"  next coefficient    {shifted.coeffs[1]}  (-1 off by {format_decimal(err1, 3)})")
    print(f"  {time.time() - t0:.2f} s")

    print("== direct summation only works when the companion radius exceeds 1 ==")
    trace = direct_trace(build_series("pole:2", 101), 1, [60, 80, 100], tol=1e-10)
    print(f"  1/(2+x), coefficient 1 partials -> {format_decimal(trace.limit_guess, 6)} (exact: 1)")
    trace = direct_trace(build_series("arctan", 31), 0, [10, 20, 30])
    tail = format_decimal(trace.partials[-1][1], 4)
    print(f"  arctan partials blow up instead ({tail} at 30) -> not converged: "
          f"{not trace.converged}")


def full_grid(outdir: Path) -> None:
    out = outdir / "sweep.csv"
    print(f"== full grid sweep -> {out} ==")
    code = cli_main([
        "sweep", "--input", "arctan",
        "--m", "98,201,301,401,501,601,701,801,901,1001",
        "--dx", "0.125,0.25,0.5", "--alpha", "0.1,0.01",
        "--digits", "19", "--jobs", str(min(4, os.cpu_count() or 1)), "--out", str(out),
    ])
    if code != 0:
        sys.exit(code)
    lines = out.read_text().splitlines()
    print(f"  {len(lines) - 1} grid cells written")
    print("  step 0.5 rows (instability grows with m):")
    for line in lines:
        parts = line.split(",")
        if parts[1] == "0.5" and parts[2] == "0.1":
            print(f"    m={parts[0]:>5}  c0={parts[5][:16]:>17}  status={parts[10]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true", help="also run the full grid sweep")
    ap.add_argument("--outdir", default="case_study_out")
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    headline(outdir)
    if args.full:
        full_grid(outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
