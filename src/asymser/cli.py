"""Command-line front end.

Subcommands: transform, continue, convert, direct, sweep.  All numeric output
is decimal text; exit codes are 0 (ok), 2 (usage), 3 (input error),
4 (numerical contract violated).  Only :mod:`functions` knows the inputs:
its data give every input's sweep err columns and continue note.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from decimal import localcontext
from fractions import Fraction

from .continuation import (
    EmptyStateError,
    InsufficientConvergedError,
    NonIntegralPathError,
    SchemeConfig,
    continue_to_one_with_steps,
    extract_shifted,
    shared_first_shift,
)
from .conversion import direct_trace, plain_to_shifted, shifted_to_plain, tail_agreement
from .functions import (
    DegeneratePoleError,
    _int_text,
    _write_text,
    build_companion,
    build_series,
    companion_at_one,
    format_decimal,
    load_coeffs,
    reaches_singularity,
    save_coeffs,
)
from .transform import (
    DEFAULT_DIGITS,
    AssociatedSeries,
    DegenerateRatiosError,
    PlainExpansion,
    ShiftedExpansion,
    TaylorSeries,
    _check_digits,
    _exact_decimal,
    estimate_radius,
    to_decimals,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def ProcessPoolExecutor(*args, **kwargs):
    """A concurrent.futures.ProcessPoolExecutor.  It is imported here, so
    that only a sweep that starts a pool pays for importing multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(*args, **kwargs)


def _write_rows(path, header, rows):
    """Write a CSV table, header first, to `path` or standard output."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(buf.getvalue(), path)


def _parse_schedule(text: str) -> list[int]:
    """Parse '5..30', '5..30..5' or '5,10,20' into strictly increasing m values."""
    if ".." in text:
        parts = text.split("..")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad schedule {text!r}")
        lo, hi, *step = map(int, parts)
        step = step[0] if step else 1
        if step == 0:
            raise ValueError("--schedule step must not be zero")
        schedule = list(range(lo, hi + 1, step))
    else:
        schedule = [int(p) for p in text.split(",") if p]
    if not schedule:
        raise ValueError("--schedule needs at least one m value")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("--schedule must be strictly increasing")
    return schedule


def _merge_config(args, keys):
    """Fill argparse values that are None from a JSON config file.  A key
    whose fallback is None is required: it is refused when still None."""
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("--config must hold a JSON object")
    merged = {}
    for key, fallback in keys.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
        elif key in values:
            merged[key] = values[key]
        else:
            merged[key] = fallback
    missing = ", ".join(f"--{key}" for key in keys if keys[key] is None and merged[key] is None)
    if missing:
        raise ValueError(f"missing required option(s): {missing}")
    return merged


def _integer(value, key: str) -> int:
    """An integer option from a flag or a JSON config file: an int, an
    integral float or the decimal text of an int.  Anything else, a JSON
    true, list, object or null among them, is rejected by the option's name."""
    try:  # int() cuts a float's fraction off: only a float equal to it is integral
        if not isinstance(value, bool) and (isinstance(value, str) or int(value) == value):
            return int(value)
    except (TypeError, ValueError, OverflowError):  # not a number, nan or infinite
        pass
    raise ValueError(f"--{key} must be an integer, got {json.dumps(value)}")


# ---------------------------------------------------------------- transform

def cmd_transform(args) -> int:
    digits = _check_digits(args.digits)
    if args.lag < 1:
        raise ValueError("--lag must be >= 1")
    series = build_series(args.input, args.count, digits)
    assoc = build_companion(args.input, args.count, digits)
    exact = isinstance(series.coeffs[0], (Fraction, int))
    rows = []
    for n, (c, w) in enumerate(zip(series.coeffs, assoc.coeffs)):
        if exact:
            cf, wf = Fraction(c), Fraction(w)
            rows.append(
                [n, _int_text(cf.numerator), _int_text(cf.denominator), format_decimal(cf),
                 _int_text(wf.numerator), _int_text(wf.denominator), format_decimal(wf)]
            )
        else:
            rows.append([n, "", "", format_decimal(c), "", "", format_decimal(w)])
    _write_rows(
        args.out,
        ["n", "taylor_num", "taylor_den", "taylor_dec", "assoc_num", "assoc_den", "assoc_dec"],
        rows,
    )
    try:
        est = estimate_radius(assoc, args.lag)
    except DegenerateRatiosError:
        print(f"radius estimate (lag {args.lag}): degenerate (zero coefficients in every pair)")
    except ValueError as e:
        print(f"radius estimate (lag {args.lag}): unavailable ({e})")
    else:
        if est.limit_guess is not None:
            print(f"radius estimate (lag {args.lag}): {est.limit_guess:.9f}")
        else:
            print(f"radius estimate (lag {args.lag}): undetermined "
                  f"(last value {est.values[-1]:.9f} over {len(est.values)} comparisons)")
    return EXIT_OK


# ----------------------------------------------------------------- continue

def cmd_continue(args) -> int:
    merged = _merge_config(
        args, {"m": None, "dx": None, "alpha": None, "digits": DEFAULT_DIGITS, "count": 2}
    )
    m = _integer(merged["m"], "m")
    digits = _integer(merged["digits"], "digits")
    count = _integer(merged["count"], "count")
    if count < 0:
        raise ValueError("count must be >= 0")
    config = SchemeConfig(m=m, step=str(merged["dx"]), alpha=str(merged["alpha"]), digits=digits)
    assoc = build_companion(args.input, m, digits)
    state, states = continue_to_one_with_steps(assoc, config)
    note = None
    if reaches_singularity(args.input, config.step, config.steps):
        note = (f"step {config.step} passes within {config.step} of the nearest singularity "
                "of the companion function; instability with growing m is expected")
    try:
        shifted = extract_shifted(state, count)
    except InsufficientConvergedError as e:
        if note is None:
            raise
        raise InsufficientConvergedError(f"{e}\nnote: {note}") from None
    doc = {
        "input": args.input,
        "m": m,
        "dx": str(config.step),
        "alpha": str(config.alpha),
        "digits": digits,
        "center": str(state.center),
        "converged_count": state.converged_count,
        "coefficients_at_one": [str(c) for c in state.coeffs],
        "shifted_coefficients": [str(c) for c in shifted.coeffs],
        "steps": [
            {"center": str(s.center), "carried": len(s.coeffs),
             "converged_count": s.converged_count}
            for s in states
        ],
    }
    if note is not None:
        doc["note"] = note
    _write_text(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------ convert

_DIRECTIONS = {
    "to-plain": "to-plain",
    "to-shifted": "to-shifted",
    "to-q": "to-plain",
    "to-qprime": "to-shifted",
}


def cmd_convert(args) -> int:
    direction = _DIRECTIONS.get(args.direction)
    if direction is None:
        raise ValueError(f"direction must be one of {sorted(_DIRECTIONS)}")
    digits = _check_digits(args.digits)
    series = load_coeffs(args.coeff_file, digits=digits)
    with localcontext() as ctx:
        ctx.prec = digits
        if direction == "to-plain":
            result = shifted_to_plain(ShiftedExpansion(series.coeffs))
        else:
            result = plain_to_shifted(PlainExpansion(series.coeffs))
    save_coeffs(TaylorSeries(result.coeffs), args.out)
    return EXIT_OK


# ------------------------------------------------------------------- direct

def cmd_direct(args) -> int:
    schedule = _parse_schedule(args.schedule)
    digits = _check_digits(args.digits)
    if args.k < 0:  # as direct_trace checks it, but before the prefix is built
        raise ValueError("k must be >= 0")
    series = build_series(args.input, max(schedule) + 1, digits)
    # exact, as written: a tol below the float range stays positive
    tol = _exact_decimal(args.tol, "tol")
    if not tol.is_finite():  # named as written: "inf", not "Infinity"
        raise ValueError(f"tol {args.tol} is not finite")
    with localcontext() as ctx:
        ctx.prec = digits
        trace = direct_trace(series, args.k, schedule, tol=tol)
    values = [v for _, v in trace.partials]
    rows = []
    for i, (m, val) in enumerate(trace.partials):
        running = tail_agreement(values[: i + 1], tol)
        rows.append([m, format_decimal(val, digits), "yes" if running else "no"])
    _write_rows(args.out, ["m", "partial", "converged"], rows)
    if trace.converged:
        print(f"limit: {format_decimal(trace.limit_guess, digits)}")
    else:
        print("not converged")
    return EXIT_OK


# -------------------------------------------------------------------- sweep

# The rounded prefix and err reference of the sweep whose tasks a pool
# worker runs, set once in each worker by _start_worker.
_WORKER = {}


def _start_worker(coeffs, reference):
    """Hold the sweep's rounded prefix and err reference for every task of
    this pool worker: the pool calls it once in each worker."""
    _WORKER["sweep"] = (coeffs, reference)


def _run_pair(configs, sweep=None):
    """The sweep rows of one (m, dx) pair, one per alpha, in alpha order.

    `sweep` is the rounded prefix and the err reference, by default those
    of this pool worker.  Each row is its own cell's continuation; inside
    one :func:`shared_first_shift` block, the alphas' first steps make the
    integer shift of the prefix once, and each rounds its own block.
    """
    coeffs, reference = sweep or _WORKER["sweep"]
    assoc = AssociatedSeries(coeffs[: configs[0].m])
    with shared_first_shift():
        return [_run_cell(assoc, config, reference) for config in configs]


def _run_cell(assoc, config, reference):
    """The sweep row of one (m, dx, alpha) cell, with err |c - r| for each c
    at 1 with a reference r.  A numerical blow-up gives an error row that
    names the error's class."""
    try:
        state, _ = continue_to_one_with_steps(assoc, config)
        head = state.coeffs[:2]
        with localcontext() as ctx:
            ctx.prec = config.digits + 8
            errs = [format_decimal(abs(c - r), 10) for c, r in zip(head, reference)]
        values = [str(c) for c in head] + ["unconverged"] * (2 - len(head))
        errs += [""] * (2 - len(errs))
        status = "converged" if state.converged_count >= 2 else "unconverged"
        return [
            config.m, str(config.step), str(config.alpha), config.digits, config.steps,
            *values, *errs, state.converged_count, status,
        ]
    except ArithmeticError as e:  # numerical blow-up is recorded, not fatal
        return [config.m, str(config.step), str(config.alpha), config.digits, "",
                "unconverged", "unconverged", "", "", 0, f"error:{type(e).__name__}"]


SWEEP_HEADER = [
    "m", "dx", "alpha", "digits", "steps", "c0_at_1", "c1_at_1",
    "err0", "err1", "converged_count", "status",
]


def _as_list(value) -> list:
    """The items of a JSON list, the parts of a comma list, or one value."""
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, str):
        return [p for p in value.split(",") if p]
    return [value]


def cmd_sweep(args) -> int:
    merged = _merge_config(
        args, {"m": None, "dx": None, "alpha": None, "digits": DEFAULT_DIGITS, "jobs": 1}
    )
    grid = {"m": [_integer(v, "m") for v in _as_list(merged["m"])],
            "dx": _as_list(merged["dx"]), "alpha": _as_list(merged["alpha"])}
    for flag, values in grid.items():
        if not values:
            raise ValueError(f"--{flag} needs at least one value")
    digits = _integer(merged["digits"], "digits")
    jobs = _integer(merged["jobs"], "jobs")
    if jobs < 1:
        raise ValueError("--jobs must be >= 1")
    # every cell's parameters are checked before any work starts, in the order
    # written; equal cells count once, in the first spelling given
    configs = sorted(dict.fromkeys(
        SchemeConfig(m=m, step=str(dx), alpha=str(alpha), digits=digits)
        for m, dx, alpha in itertools.product(*grid.values())
    ), key=lambda c: (c.m, c.step, c.alpha))
    assoc = build_companion(args.input, configs[-1].m, digits)
    coeffs = to_decimals(assoc.coeffs, digits)
    # u's first two coefficients at 1, rounded once for every cell's err columns
    reference = to_decimals(companion_at_one(args.input, 2) or (), digits + 8)
    # one task per (m, dx) pair, its configs alone: its alphas share the first shift
    pairs = [list(pair) for _, pair in itertools.groupby(configs, lambda c: (c.m, c.step))]
    # the largest pairs first (most coefficients, then most steps), so that no
    # worker starts one late; the rows stay in grid order
    order = sorted(range(len(pairs)), key=lambda i: (-pairs[i][0].m, pairs[i][0].step))
    tasks = [pairs[i] for i in order]
    # with fork, the pool starts all its workers at once: start no idle ones
    workers = min(jobs, len(pairs))
    if workers > 1:
        # each worker gets the prefix once, not once per task
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=(coeffs, reference)) as pool:
            done = list(pool.map(_run_pair, tasks))
    else:
        done = [_run_pair(task, (coeffs, reference)) for task in tasks]
    row_groups = [group for _, group in sorted(zip(order, done))]
    rows = [row for group in row_groups for row in group]
    _write_rows(args.out, SWEEP_HEADER, rows)
    return EXIT_OK


# ------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymser",
        description="Coefficients of negative-power expansions at infinity, "
                    "computed from Taylor coefficients at a finite center.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="companion coefficients and radius estimate")
    p.add_argument("--input", required=True, help="arctan | pole:A | altgeom | file:PATH")
    p.add_argument("--count", type=int, required=True, help="number of coefficients")
    p.add_argument("--lag", type=int, default=4, help="ratio-test lag (default 4)")
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("continue", help="continue the companion series to 1 and extract")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, default=None, help="input coefficient count")
    p.add_argument("--dx", default=None, help="center step, e.g. 0.25")
    p.add_argument("--alpha", default=None, help="convergence threshold")
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--count", type=int, default=None, help="coefficients to extract")
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    p.add_argument("--out", default=None, help="JSON path (default stdout)")

    p = sub.add_parser("convert", help="convert between expansion forms")
    p.add_argument("coeff_file", help="coefficient file (.json: decimals, else CSV)")
    p.add_argument("--direction", required=True,
                   help="to-plain | to-shifted (aliases: to-q, to-qprime)")
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p.add_argument("--out", default=None, help="format by name (default stdout)")

    p = sub.add_parser("direct", help="direct partial sums of a shifted coefficient")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True, help="coefficient index")
    p.add_argument("--schedule", required=True, help="m values: '5..30' or '5,10,20'")
    p.add_argument("--tol", default="1e-9", help="agreement tolerance (default 1e-9)")
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="grid of continuation runs, CSV report")
    p.add_argument("--input", required=True)
    p.add_argument("--m", default=None, help="comma list of m values")
    p.add_argument("--dx", default=None, help="comma list of steps")
    p.add_argument("--alpha", default=None, help="comma list of thresholds")
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)

    return parser


_HANDLERS = {
    "transform": cmd_transform,
    "continue": cmd_continue,
    "convert": cmd_convert,
    "direct": cmd_direct,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (NonIntegralPathError, InsufficientConvergedError, EmptyStateError,
            DegeneratePoleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as e:  # as a sweep's error row names it
        print(f"error: numerical blow-up: {type(e).__name__}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as e:  # parse errors of files and JSON are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory; lower --m, --count or --digits", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
