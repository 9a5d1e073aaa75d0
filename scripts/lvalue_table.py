#!/usr/bin/env python3
"""Tabulate the four special values by every route that reaches them.

For each (form, s) pair the script runs all applicable routes at the
requested precision, prints value / reported error / effort / wall time,
and closes the block with the mutual agreement of the routes, which is the
number every other table in this package is ultimately judged against.
Each route runs alone (``shared=False``, as ``thetal lvalue`` does), so the
time of a half-period route or of ``alpha_integral`` is its own, not that
of the whole shared pass.

    python3 scripts/lvalue_table.py --digits 25
    python3 scripts/lvalue_table.py --forms g --s 4 --digits 40
"""

import argparse
import time

import mpmath as mp

from thetal.context import MIN_DIGITS, DomainError, PrecisionContext
from thetal.lvalues import FORMS, L_VALUE_METHODS, l_value


def run_pair(form, s, ctx, digits):
    print(f"L({form}, {s}) at {digits} digits")
    got = []
    for method in L_VALUE_METHODS:
        t0 = time.perf_counter()
        try:
            res = l_value(form, s, method, ctx, shared=False)
        except DomainError as exc:
            print(f"  {method:<14} -- {exc}")
            continue
        dt = time.perf_counter() - t0
        got.append(res)
        print(
            f"  {method:<14} {mp.nstr(res.value, digits, strip_zeros=False):<{digits + 3}}"
            f" est {mp.nstr(res.error_estimate, 2):<9}"
            f" effort {res.effort:<8} {dt:6.2f}s"
        )
    if len(got) > 1:
        with mp.workdps(digits + 15):
            worst = max(
                abs(a.value - b.value) / abs(a.value)
                for i, a in enumerate(got)
                for b in got[i + 1 :]
            )
            agreed = digits if worst == 0 else int(mp.floor(-mp.log10(worst)))
        print(f"  -> {len(got)} routes agree to {agreed} digits"
              f" (worst pairwise rel {mp.nstr(worst, 2)})")
    print()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--digits", type=int, default=25)
    ap.add_argument("--forms", default="f,g",
                    help="comma list from {f,g} (default both)")
    ap.add_argument("--s", default="3,4",
                    help="comma list from {3,4} (default both)")
    args = ap.parse_args(argv)
    if args.digits < MIN_DIGITS:
        ap.error(f"digits must be at least {MIN_DIGITS}")

    forms = tuple(w.strip() for w in args.forms.split(","))
    svals = tuple(w.strip() for w in args.s.split(","))
    for form in forms:
        if form not in FORMS:
            ap.error(f"unknown form {form!r}")
    for s in svals:
        if s not in ("3", "4"):
            ap.error(f"s must be 3 or 4, not {s!r}")
    ctx = PrecisionContext(digits=args.digits)
    for form in forms:
        for s in svals:
            run_pair(form, int(s), ctx, args.digits)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
