"""The three benchmark workloads and the checks on their outputs.

Each workload prepares its inputs and references once, from the seed, and
then runs whole passes.  A pass calls the program only through its public
entry points (asymser.cli.main and the functions exported by asymser),
times those calls alone, and checks every result against the references
in refs.py.  An operation whose call raises or exits non-zero, or (on
sweep-grid) a cell that claims convergence to a wrong value, counts as
failed; any other mismatch is a problem that makes the run incorrect.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import asymser
from asymser import cli

import refs

HALF_PI = refs.machin_pi(50) / 2
# Reference coefficients at 1; no continuation in the workloads keeps more.
COMPANION_AT_ONE = refs.companion_at_one(1001, HALF_PI)


@dataclass
class Outcome:
    """One pass: operations attempted and failed, problems found, the time
    spent inside the program, and the accuracy record."""

    ops: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    seconds: float = 0.0
    v0_digits: float = 0.0
    record: dict = field(default_factory=dict)
    output: str = ""

    def timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


def off_by(value, reference) -> Fraction:
    """|value - reference| in exact rationals."""
    return abs(Fraction(value) - Fraction(reference))


def digits_of(error: Fraction) -> float:
    """-log10 of a positive error, for errors far below the float range too."""
    if error == 0:
        return 50.0  # the precision of the pi reference
    return math.log10(error.denominator) - math.log10(error.numerator)


def call_cli(outcome: Outcome, argv: list[str]) -> tuple[int, str]:
    """Run asymser.cli.main in-process, capturing what it writes to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = outcome.timed(cli.main, argv)
    return code, buf.getvalue()


# ------------------------------------------------------------------ headline

HEADLINE_ARGV = ["continue", "--input", "arctan", "--m", "701", "--dx", "0.25",
                 "--alpha", "0.1", "--digits", "19", "--count", "2"]


def check_headline(doc: dict) -> tuple[list, dict]:
    """Problems with a `continue` report for arctan, and its accuracy record.

    Acceptance criterion 3 (|v0 - pi/2| <= 1e-4, |v1 + 1| <= 1e-2, at least
    two converged coefficients), the sign flip from coefficients at 1 to
    shifted coefficients, and every coefficient reported converged within
    alpha of the companion's Taylor coefficient at 1.
    """
    problems = []
    alpha = Fraction(Decimal(doc["alpha"]))
    count = doc["converged_count"]
    at_one = [Decimal(c) for c in doc["coefficients_at_one"]]
    shifted = [Decimal(c) for c in doc["shifted_coefficients"]]
    err0 = off_by(shifted[0], HALF_PI)
    err1 = off_by(shifted[1], -1)
    if count < 2:
        problems.append(f"converged_count {count} < 2")
    if err0 > Fraction(1, 10**4):
        problems.append(f"|v0 - pi/2| = {float(err0):.3g} > 1e-4")
    if err1 > Fraction(1, 10**2):
        problems.append(f"|v1 + 1| = {float(err1):.3g} > 1e-2")
    for k, v in enumerate(shifted):
        if v != (at_one[k] if k % 2 == 0 else at_one[k].copy_negate()):
            problems.append(f"shifted coefficient {k} is not (-1)^k times c_{k} at 1")
    for k in range(min(count, len(at_one))):
        if off_by(at_one[k], COMPANION_AT_ONE[k]) > alpha:
            problems.append(f"converged c_{k} = {at_one[k]} misses the reference by more than alpha")
    centers = [Decimal(s["center"]) for s in doc["steps"]]
    if centers != [Decimal("0.25") * i for i in range(1, 5)]:
        problems.append(f"step centers {centers}")
    carried = [s["carried"] for s in doc["steps"]]
    if any(b > a for a, b in zip([doc["m"]] + carried, carried)):
        problems.append(f"carried lengths grow: {carried}")
    record = {"v0": doc["shifted_coefficients"][0], "v0_digits": digits_of(err0),
              "err0": float(err0), "err1": float(err1),
              "converged_count": count, "carried": carried}
    return problems, record


class Headline:
    """The paper's case study through `asymser continue`, one call a pass."""

    name = "headline"

    def __init__(self, seed: int, workdir: Path):
        pass  # fixed input: the arctan prefix the CLI generates

    def run_pass(self, jobs: int) -> Outcome:
        outcome = Outcome(ops=1)
        code, text = call_cli(outcome, HEADLINE_ARGV)
        if code != 0:
            outcome.failed = 1
            return outcome
        outcome.problems, outcome.record = check_headline(json.loads(text))
        outcome.v0_digits = outcome.record["v0_digits"]
        outcome.output = text
        return outcome


# ---------------------------------------------------------------- sweep-grid

SWEEP_M = (98, 201, 301, 401, 501, 601, 701, 801, 901, 1001)
SWEEP_DX = ("0.125", "0.25", "0.5")
SWEEP_ALPHA = ("0.01", "0.1")


def sweep_argv(jobs: int, m=SWEEP_M, dx=SWEEP_DX, alpha=SWEEP_ALPHA) -> list[str]:
    return ["sweep", "--input", "arctan", "--m", ",".join(map(str, m)),
            "--dx", ",".join(dx), "--alpha", ",".join(alpha), "--digits", "19",
            "--jobs", str(jobs)]


def judge_cell(row: dict) -> tuple[bool, dict]:
    """Whether a sweep row fails, and the claim it makes.

    A row fails when it is an error row, when it reports at least one
    converged coefficient and c0 misses pi/2 by more than alpha, or when it
    reports at least two and c1 misses 1 by more than alpha.
    """
    claim = {"m": int(row["m"]), "dx": row["dx"], "alpha": row["alpha"],
             "converged_count": int(row["converged_count"]), "status": row["status"]}
    if row["status"].startswith("error:"):
        return True, claim
    alpha = Fraction(Decimal(row["alpha"]))
    count = claim["converged_count"]
    err0 = off_by(Decimal(row["c0_at_1"]), HALF_PI)
    err1 = None if row["c1_at_1"] == "unconverged" else off_by(Decimal(row["c1_at_1"]), 1)
    claim.update(err0=float(err0), err1=None if err1 is None else float(err1),
                 v0_digits=digits_of(err0))
    failed = (count >= 1 and err0 > alpha) or (count >= 2 and (err1 is None or err1 > alpha))
    return failed, claim


def check_sweep(text: str, grid: list[tuple]) -> tuple[list, list, list]:
    """Problems with a sweep CSV over `grid` (m, dx, alpha), the failed
    flag of each row, and the per-cell claims."""
    rows = list(csv.DictReader(io.StringIO(text)))
    got = [(int(r["m"]), r["dx"], r["alpha"]) for r in rows]
    if got != grid:
        return [f"rows {got[:3]}... are not the {len(grid)} cells in (m, dx, alpha) order"], [], []
    problems, failed, claims = [], [], []
    for row in rows:
        bad, claim = judge_cell(row)
        failed.append(bad)
        claims.append(claim)
        if row["status"].startswith("error:"):
            continue
        if row["steps"] != str(int(1 / Fraction(row["dx"]))):
            problems.append(f"cell {claim}: steps {row['steps']}")
        if (row["status"] == "converged") != (claim["converged_count"] >= 2):
            problems.append(f"cell {claim}: status disagrees with converged_count")
        for column, mine in (("err0", claim["err0"]), ("err1", claim.get("err1"))):
            if row[column] and abs(float(row[column]) - mine) > 1e-9 * mine:
                problems.append(f"cell {claim}: {column} {row[column]} != reference {mine:.10g}")
    return problems, failed, claims


class SweepGrid:
    """The 60-cell arctan grid through `asymser sweep`, one call a pass."""

    name = "sweep-grid"
    grid = [(m, dx, a) for m in SWEEP_M for dx in SWEEP_DX for a in SWEEP_ALPHA]

    def __init__(self, seed: int, workdir: Path):
        pass  # fixed input: the arctan prefix the CLI generates

    def run_pass(self, jobs: int) -> Outcome:
        outcome = Outcome(ops=len(self.grid))
        code, text = call_cli(outcome, sweep_argv(jobs))
        if code != 0:
            outcome.failed = outcome.ops
            return outcome
        outcome.problems, failed, claims = check_sweep(text, self.grid)
        outcome.failed = sum(failed)
        digits = [c["v0_digits"] for c in claims if c["dx"] == "0.25" and "v0_digits" in c]
        outcome.v0_digits = statistics.median(digits) if digits else 0.0
        outcome.record = {"cells": [dict(c, failed=f) for c, f in zip(claims, failed)]}
        outcome.output = text
        return outcome


# --------------------------------------------------------- transform-convert

TC_M = max(SWEEP_M)
TC_POLE = Fraction(3, 2)
TC_POLE_COUNT = 300
TC_SCHEDULE = tuple(range(30, 61))
TC_RANDOM_VECTORS = 4
TC_RANDOM_LENGTH = 60
TC_DIGITS = 19


def exact_equal(got, want) -> bool:
    """Bit for bit: the same exact rationals, none of them float or Decimal."""
    return len(got) == len(want) and all(
        type(g) in (int, Fraction) and g == w for g, w in zip(got, want)
    )


def within_bounds(got, exact, bounds) -> bool:
    """Decimal results, each within its rounding bound of the exact value."""
    return len(got) == len(exact) and all(
        isinstance(g, Decimal) and off_by(g, e) <= b for g, e, b in zip(got, exact, bounds)
    )


def operation(outcome: Outcome, label: str, run, check):
    """One operation: `run` calls the program, `check` judges its result.

    Returns the result, or None when the call raised.
    """
    outcome.ops += 1
    try:
        result = run()
    except Exception as e:  # a program error fails this operation only
        outcome.failed += 1
        outcome.record.setdefault("errors", []).append(f"{label}: {type(e).__name__}: {e}")
        return None
    if not check(result):
        outcome.problems.append(f"{label}: result differs from the reference")
    return result


class TransformConvert:
    """The exact triangular kernels with no continuation, plus a decimal leg."""

    name = "transform-convert"

    def __init__(self, seed: int, workdir: Path):
        self.taylor = refs.arctan_taylor(TC_M)
        self.companion = tuple(refs.arctan_companion(n) for n in range(TC_M))
        self.pairs, self.last_estimate = refs.last_lag4_estimate(TC_M)
        self.shifted = refs.pole_shifted(TC_POLE, TC_POLE_COUNT)
        self.plain = refs.pole_plain(TC_POLE, TC_POLE_COUNT)
        self.pole_series = refs.pole_taylor(TC_POLE, max(TC_SCHEDULE) + 1)
        self.pole_v = refs.pole_shifted(TC_POLE, 4)
        rng = random.Random(seed)
        # Small denominators keep the work of a vector nearly the same for every seed.
        self.vectors = [
            tuple(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 12))
                  for _ in range(TC_RANDOM_LENGTH))
            for _ in range(TC_RANDOM_VECTORS)
        ]
        with localcontext() as ctx:
            ctx.prec = TC_DIGITS
            self.decimal_prefix = tuple(
                Decimal(c.numerator) / Decimal(c.denominator) for c in self.taylor
            )
        self.bounds = [refs.arctan_companion_bound(n, TC_DIGITS) for n in range(TC_M)]
        workdir.mkdir(parents=True, exist_ok=True)
        self.json_path = workdir / f"arctan{TC_DIGITS}.json"
        staging = workdir / f"arctan{TC_DIGITS}.{os.getpid()}.tmp"
        staging.write_text(json.dumps([str(d) for d in self.decimal_prefix]) + "\n")
        os.replace(staging, self.json_path)

    def run_pass(self, jobs: int) -> Outcome:
        o = Outcome()
        t = o.timed
        op = operation

        # Later operations take the reference when an earlier call failed, so
        # that every pass attempts the same operations.
        w = op(o, "associated", lambda: t(asymser.associated, asymser.TaylorSeries(self.taylor)),
               lambda w: exact_equal(w.coeffs, self.companion))
        if w is None:
            w = asymser.AssociatedSeries(self.companion)
        op(o, "associated_inverse", lambda: t(asymser.associated_inverse, w),
           lambda c: exact_equal(c, self.taylor))
        op(o, "estimate_radius", lambda: t(asymser.estimate_radius, w, 4),
           lambda e: len(e.values) == self.pairs and e.limit_guess == e.values[-1]
           and abs(e.values[-1] - self.last_estimate) <= 1e-12 * self.last_estimate)

        op(o, "shifted_to_plain pole:3/2",
           lambda: t(asymser.shifted_to_plain, asymser.ShiftedExpansion(self.shifted)),
           lambda p: exact_equal(p.coeffs, self.plain))
        op(o, "plain_to_shifted pole:3/2",
           lambda: t(asymser.plain_to_shifted, asymser.PlainExpansion(self.plain)),
           lambda s: exact_equal(s.coeffs, self.shifted))
        for i, vec in enumerate(self.vectors):
            op(o, f"random {i} shifted->plain->shifted",
               lambda: t(asymser.plain_to_shifted,
                         t(asymser.shifted_to_plain, asymser.ShiftedExpansion(vec))),
               lambda s: exact_equal(s.coeffs, vec))
            op(o, f"random {i} plain->shifted->plain",
               lambda: t(asymser.shifted_to_plain,
                         t(asymser.plain_to_shifted, asymser.PlainExpansion(vec))),
               lambda p: exact_equal(p.coeffs, vec))
            op(o, f"random {i} companion round trip",
               lambda: t(asymser.associated_inverse,
                         t(asymser.associated, asymser.TaylorSeries(vec))),
               lambda c: exact_equal(c, vec))

        pole = asymser.TaylorSeries(self.pole_series)
        for k in range(4):
            trace = op(o, f"direct_trace k={k}",
                       lambda: t(asymser.direct_trace, pole, k, TC_SCHEDULE),
                       lambda tr: tr.converged
                       and off_by(tr.limit_guess, self.pole_v[k]) <= Fraction(1, 10**15))
            if k == 0 and trace is not None:
                o.v0_digits = digits_of(off_by(trace.partials[-1][1], self.pole_v[0]))

        loaded = op(o, "load_coeffs 19-digit JSON",
                    lambda: t(asymser.load_coeffs, self.json_path, digits=TC_DIGITS),
                    lambda s: s.coeffs == self.decimal_prefix)
        if loaded is None:
            loaded = asymser.TaylorSeries(self.decimal_prefix)
        with localcontext() as ctx:
            ctx.prec = TC_DIGITS
            op(o, "associated 19-digit", lambda: t(asymser.associated, loaded),
               lambda wd: within_bounds(wd.coeffs, self.companion, self.bounds))
        return o


WORKLOADS = {cls.name: cls for cls in (Headline, SweepGrid, TransformConvert)}
