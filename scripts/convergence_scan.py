#!/usr/bin/env python3
"""Profile the three double-series strategies on one parameter set at (1, 1).

The reference value is integral_reduction run ten digits hotter.  The scan
then reports, per strategy and budget, the measured relative error next to
the bound the routine claimed, and flags any budget where the claim was
optimistic.  double_truncate is swept over truncation sides M (the term
budget is M^2); iterated and integral_reduction are swept over precision.

    python3 scripts/convergence_scan.py --spec thm11_1
    python3 scripts/convergence_scan.py --spec thm12_2b --digits 30
"""

import argparse

import mpmath as mp

from thetal.context import MIN_DIGITS, PrecisionContext
from thetal.hyper import kdf_full
from thetal.lvalues import KDF_SPECS


def rel_to(ref, v, digits):
    with mp.workdps(digits + 25):
        return abs(v - ref) / abs(ref)


def scan(spec_name, digits):
    spec = KDF_SPECS[spec_name]
    hot = PrecisionContext(digits=digits + 10)
    ref = kdf_full(spec, 1, 1, "integral_reduction", hot).value
    print(f"{spec_name} at (1, 1): reference {mp.nstr(ref, digits)}"
          f"  [integral_reduction, {digits + 10} digits]\n")

    print(f"{'strategy':<19} {'budget':<14} {'measured rel':<13} "
          f"{'claimed bound':<14} honest")
    rows = []
    for d in dict.fromkeys((10, 15, 20, digits)):
        ctx = PrecisionContext(digits=d)
        for strategy in ("integral_reduction", "iterated"):
            res = kdf_full(spec, 1, 1, strategy, ctx)
            rows.append((strategy, f"{d} digits", res))
    for m in (64, 256, 1000, 2000):
        # the truncation square side is min(2000, sqrt(max_terms))
        ctx = PrecisionContext(digits=digits, max_terms=m * m)
        res = kdf_full(spec, 1, 1, "double_truncate", ctx)
        rows.append(("double_truncate", f"M = {m}", res))

    optimistic = 0
    for strategy, budget, res in rows:
        err = rel_to(ref, res.value, digits)
        bound = abs(res.error_estimate / ref)
        ok = err <= bound
        optimistic += not ok
        print(f"{strategy:<19} {budget:<14} {mp.nstr(err, 3):<13} "
              f"{mp.nstr(bound, 3):<14} {'yes' if ok else 'NO'}")
    print()
    if optimistic:
        print(f"{optimistic} budget(s) claimed more than they delivered")
        return 1
    print("every claimed bound held")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", default="thm11_1", choices=sorted(KDF_SPECS))
    ap.add_argument("--digits", type=int, default=20)
    args = ap.parse_args(argv)
    if args.digits < MIN_DIGITS:
        ap.error(f"digits must be at least {MIN_DIGITS}")
    return scan(args.spec, args.digits)


if __name__ == "__main__":
    raise SystemExit(main())
