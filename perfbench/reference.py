"""Write perfbench/reference.json: L(g,3) and L(g,4) for the coeffs-1e5 checks.

    PYTHONPATH=src python3 perfbench/reference.py

The coeffs-1e5 workload checks the raw Dirichlet series, run at 20 digits,
against these values.  They come from the alpha-space integral at 40 digits,
20 digits hotter than the checked route and sharing none of its code, and
the Mellin transform at the same precision must agree with them to 35
digits before anything is written.
"""

import json
import platform
import sys
from pathlib import Path

import mpmath as mp

from thetal.context import PrecisionContext
from thetal.lvalues import alpha_integral, mellin

DIGITS = 40
AGREE = 35
ROUTES = {"L(g,3)": ("thm11_2", 3), "L(g,4)": ("thm12_2", 4)}


def main() -> int:
    ctx = PrecisionContext(digits=DIGITS)
    values = {}
    for name, (rhs_id, s) in ROUTES.items():
        value, estimate, _ = alpha_integral(rhs_id, ctx)
        check, _, _ = mellin("g", s, ctx)
        with mp.workdps(DIGITS + 20):
            gap = abs(value - check) / abs(value)
        if not gap < mp.mpf(10) ** -AGREE:
            print(f"{name}: alpha integral and Mellin differ by {mp.nstr(gap, 3)}",
                  file=sys.stderr)
            return 1
        values[name] = {
            "value": mp.nstr(value, DIGITS),
            "error_estimate": mp.nstr(estimate, 3),
            "route": f"lvalues.alpha_integral({rhs_id!r}) at {DIGITS} digits",
            "crosscheck": f"lvalues.mellin('g', {s}) agrees to {mp.nstr(gap, 3)} relative",
        }
    out = {
        "provenance": "python3 perfbench/reference.py",
        "environment": {
            "python": platform.python_version(),
            "mpmath": mp.__version__,
            "backend": mp.libmp.BACKEND,
        },
        "values": values,
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
