"""Tests of the benchmark's references and checks.

Run from the root of the repository:  python -m pytest bench
"""
from __future__ import annotations

import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import refs  # noqa: E402
import workloads  # noqa: E402


def test_machin_pi_agrees_with_math_pi():
    assert float(refs.machin_pi(50)) == math.pi


def test_closed_forms_agree_with_direct_sums():
    taylor = refs.arctan_taylor(40)
    for n in range(1, 40):
        terms = [comb(n - 1, s - 1) * taylor[s] for s in range(1, n + 1)]
        assert sum(terms) == refs.arctan_companion(n)
        assert sum(abs(t) for t in terms) == Fraction(2 ** (n - 1), n)
    # u'(1 + t) = 1/(1 + 2t + 2t^2): multiplying back gives 1.
    a = [k * c for k, c in enumerate(refs.companion_at_one(30, Decimal(0)))][1:]
    product = [sum(p * a[n - i] for i, p in enumerate((1, 2, 2)) if n >= i) for n in range(29)]
    assert product == [1] + [0] * 28
    # 1/(a + x) = sum_n q_n x^-n and = sum_n v_n (x + 1)^-n, checked at x = 7.
    a, x = Fraction(3, 2), Fraction(7)
    plain, shifted = refs.pole_plain(a, 80), refs.pole_shifted(a, 80)
    assert abs(sum(q / x**n for n, q in enumerate(plain)) - 1 / (a + x)) < Fraction(1, 10**40)
    assert abs(sum(v / (x + 1) ** n for n, v in enumerate(shifted)) - 1 / (a + x)) < Fraction(1, 10**40)


def test_checks_catch_a_perturbed_coefficient():
    outcome = workloads.Headline(0, Path(".")).run_pass(1)
    assert outcome.failed == 0 and outcome.problems == []
    doc = json.loads(outcome.output)
    doc["coefficients_at_one"][2] = str(Decimal(doc["coefficients_at_one"][2]) + Decimal("0.2"))
    problems, _ = workloads.check_headline(doc)
    assert any("c_2" in p for p in problems)

    row = {"m": "701", "dx": "0.25", "alpha": "0.1", "converged_count": "2",
           "status": "converged", "c0_at_1": "1.5708", "c1_at_1": "1.05"}
    assert workloads.judge_cell(row)[0] is False
    assert workloads.judge_cell(dict(row, c1_at_1="1.15"))[0] is True
    assert workloads.judge_cell(dict(row, c0_at_1="1.68"))[0] is True

    exact = [refs.arctan_companion(n) for n in range(60)]
    assert workloads.exact_equal(tuple(exact), exact)
    nudged = list(exact)
    nudged[57] += Fraction(1, 10**30)
    assert not workloads.exact_equal(tuple(nudged), exact)

    bounds = [refs.arctan_companion_bound(n, 19) for n in range(60)]
    decimal = [Decimal(w.numerator) / Decimal(w.denominator) for w in exact]
    assert workloads.within_bounds(decimal, exact, bounds)
    with localcontext() as ctx:
        ctx.prec = 80
        wrong = exact[57] + 2 * bounds[57]
        decimal[57] = Decimal(wrong.numerator) / Decimal(wrong.denominator)
    assert not workloads.within_bounds(decimal, exact, bounds)


def test_sweep_csv_is_identical_at_one_and_two_jobs():
    small = dict(m=(98, 201), dx=("0.25", "0.5"), alpha=("0.01", "0.1"))
    texts = []
    for jobs in (1, 2):
        code, text = workloads.call_cli(workloads.Outcome(), workloads.sweep_argv(jobs, **small))
        assert code == 0
        texts.append(text)
    assert texts[0].encode() == texts[1].encode()
    assert len(texts[0].splitlines()) == 1 + 2 * 2 * 2
