"""Command line front end.

Every numeric flag that can be exact stays exact: hypergeometric parameters
and series arguments are passed through as strings and coerced to rationals
downstream, never parsed to binary floats on the way in.  Heavy output is
available as JSON with all reals rendered as decimal strings.
"""

import argparse
import json
import os
import sys

import mpmath as mp

from .context import MIN_DIGITS, DomainError, NumericsError, PrecisionContext
from .hyper import KDF_STRATEGIES, KdFSpec, PFQSpec, kdf_converges, kdf_full, pfq
from .identities import (
    DEFAULT_GRID,
    IDENTITY_IDS,
    REGISTRY,
    RunConfig,
    reports_to_json,
    verify_all,
)
from .lvalues import FORMS, L_VALUE_METHODS, dirichlet_sum, l_value
from .theta import (
    alpha_pair,
    coeffs_convolution,
    coeffs_lambert,
    eisenstein_M,
    form_f,
    form_g,
    theta2,
    theta3,
    theta4,
    theta_involution,
)

_THETA_FNS = {
    "theta2": theta2,
    "theta3": theta3,
    "theta4": theta4,
    "f": form_f,
    "g": form_g,
    "M": eisenstein_M,
}


def _default_digits():
    env = os.environ.get("THETAL_DIGITS")
    if env is None:
        return 20
    try:
        return int(env)
    except ValueError:
        raise DomainError(f"THETAL_DIGITS is not an integer: {env!r}") from None


def _csv(s):
    out = tuple(tok.strip() for tok in s.split(",") if tok.strip())
    if not out:
        raise argparse.ArgumentTypeError("empty list")
    return out


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=None,
                        help=f"decimal digits, at least {MIN_DIGITS} "
                             "(default 20, or THETAL_DIGITS)")
    common.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default="text")
    common.add_argument("--max-terms", type=int, default=None,
                        help="series/summation budget override")

    p = argparse.ArgumentParser(
        prog="thetal",
        description="theta products, double hypergeometric series, and "
                    "L-value identity verification",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("theta", parents=[common],
                       help="evaluate a theta series or theta product")
    q.add_argument("--fn", choices=sorted(_THETA_FNS), required=True)
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--q", help="nome in (0,1)")
    g.add_argument("--u", help="half-period: nome exp(-pi u)")

    a = sub.add_parser("alpha", parents=[common],
                       help="modular parameter theta2^4/theta3^4")
    a.add_argument("--q", required=True)

    f = sub.add_parser("pfq", parents=[common],
                       help="generalized hypergeometric series on [-1,1]")
    f.add_argument("--upper", type=_csv, required=True,
                   help="comma list, rationals allowed: 1/2,1/2")
    f.add_argument("--lower", type=_csv, required=True)
    f.add_argument("--z", required=True)

    k = sub.add_parser("kdf", parents=[common],
                       help="double hypergeometric series on [0,1]^2")
    for name in ("a", "c", "b", "d", "bp", "dp"):
        k.add_argument(f"--{name}", type=_csv, required=True)
    k.add_argument("--x", default="1")
    k.add_argument("--y", default="1")
    k.add_argument("--strategy", choices=KDF_STRATEGIES,
                   default="integral_reduction")

    lv = sub.add_parser("lvalue", parents=[common],
                        help="L-value of form f or g by a chosen route")
    lv.add_argument("--form", choices=FORMS, required=True)
    lv.add_argument("--s", required=True,
                    help="3 or 4; dirichlet_sum also takes rational s > 5/2")
    lv.add_argument("--method", choices=L_VALUE_METHODS, required=True)

    c = sub.add_parser("coeffs", parents=[common],
                       help="exact q-expansion coefficients")
    c.add_argument("--form", choices=FORMS, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--route", choices=("convolution", "lambert"),
                   default="convolution")

    v = sub.add_parser("verify", parents=[common],
                       help="run the identity registry")
    pick = v.add_mutually_exclusive_group()
    pick.add_argument("--id", type=_csv, default=None,
                      help="comma list of registry ids")
    pick.add_argument("--all", action="store_true",
                      help="run every identity (the default)")
    v.add_argument("--grid", type=_csv, default=None,
                   help="q sample grid for pointwise identities")
    v.add_argument("--target", type=int, default=None,
                   help="override every selected identity's target digits")
    v.add_argument("--strategy", choices=KDF_STRATEGIES,
                   default="integral_reduction",
                   help="double-series strategy for the reduction identities")
    v.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte-level determinism)")

    sub.add_parser("list", parents=[common], help="list registry identities")
    return p


def _ctx(args):
    digits = args.digits if args.digits is not None else _default_digits()
    kw = {}
    if getattr(args, "max_terms", None) is not None:
        kw["max_terms"] = args.max_terms
    return PrecisionContext(digits=digits, **kw)


def _emit(args, text_lines, payload):
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _nstr(x, digits):
    return mp.nstr(x, digits, strip_zeros=False)


def _cmd_theta(args):
    ctx = _ctx(args)
    if args.u is not None:
        if args.fn not in ("theta2", "theta3", "theta4"):
            raise DomainError("--u applies to the bare theta series only")
        which = int(args.fn[-1])
        val = theta_involution(args.u, which, ctx)
        where = ("u", args.u)
    else:
        val = _THETA_FNS[args.fn](args.q, ctx)
        where = ("q", args.q)
    s = _nstr(val, ctx.digits)
    _emit(args, [f"{args.fn}({where[0]}={where[1]}) = {s}"],
          {"fn": args.fn, where[0]: where[1], "digits": ctx.digits, "value": s})
    return 0


def _cmd_alpha(args):
    ctx = _ctx(args)
    a, ca = alpha_pair(args.q, ctx)
    sa, sc = _nstr(a, ctx.digits), _nstr(ca, ctx.digits)
    _emit(args, [f"alpha = {sa}", f"1-alpha = {sc}"],
          {"q": args.q, "digits": ctx.digits, "alpha": sa, "one_minus_alpha": sc})
    return 0


def _cmd_pfq(args):
    ctx = _ctx(args)
    spec = PFQSpec(args.upper, args.lower)
    val = pfq(spec, args.z, ctx).value
    s = _nstr(val, ctx.digits)
    _emit(args, [f"pFq = {s}"],
          {"upper": list(args.upper), "lower": list(args.lower), "z": args.z,
           "digits": ctx.digits, "value": s})
    return 0


def _cmd_kdf(args):
    ctx = _ctx(args)
    spec = KdFSpec(a=args.a, c=args.c, b=args.b, d=args.d, bp=args.bp,
                   dp=args.dp)
    report = kdf_converges(spec)
    res = kdf_full(spec, args.x, args.y, args.strategy, ctx)
    sv = _nstr(res.value, ctx.digits)
    se = _nstr(res.error_estimate, 3)
    margins = [str(m) for m in report.margins]
    _emit(args,
          [f"F({args.x}, {args.y}) = {sv}",
           f"error estimate <= {se}  [{args.strategy}]",
           f"margins = {', '.join(margins)}"],
          {"x": args.x, "y": args.y, "strategy": args.strategy,
           "digits": ctx.digits, "value": sv, "error_estimate": se,
           "margins": margins,
           "convergent_at_unit": report.convergent_at_unit})
    return 0


def _cmd_lvalue(args):
    ctx = _ctx(args)
    if args.method == "dirichlet_sum":
        # the one route open to non-integer exponents and term budgets
        n_terms = args.max_terms if args.max_terms is not None else 100_000
        res = dirichlet_sum(args.form, args.s, ctx, n_terms=n_terms)
    else:
        try:
            s_int = int(args.s)
        except ValueError:
            raise DomainError(
                f"method {args.method} takes integer s, got {args.s!r}"
            ) from None
        # one value read: a half-period route runs its own member alone
        res = l_value(args.form, s_int, args.method, ctx, shared=False)
    sv = _nstr(res.value, ctx.digits)
    se = _nstr(res.error_estimate, 3)
    _emit(args,
          [f"L({args.form}, {args.s}) [{args.method}] = {sv}",
           f"error estimate <= {se}"],
          {"form": args.form, "s": args.s, "method": args.method,
           "digits": ctx.digits, "value": sv, "error_estimate": se,
           "terms_or_levels_used": res.effort})
    return 0


def _cmd_coeffs(args):
    if args.n < 1:
        raise DomainError("need n >= 1")
    route = coeffs_lambert if args.route == "lambert" else coeffs_convolution
    stream = route(args.form, args.n)
    _emit(args, [" ".join(str(a) for a in stream.coeffs)],
          {"form": args.form, "n": args.n, "route": args.route,
           "coeffs": list(stream.coeffs)})
    return 0


def _cmd_verify(args):
    digits = args.digits if args.digits is not None else _default_digits()
    config = RunConfig(
        digits=digits,
        ids=args.id,
        grid=args.grid if args.grid is not None else DEFAULT_GRID,
        kdf_strategy=args.strategy,
        target_override=args.target,
        max_terms=args.max_terms,
    )
    reports = verify_all(config)
    failed = [r for r in reports if r.status == "fail"]
    if args.fmt == "json":
        print(reports_to_json(reports, timings=args.timings))
    else:
        for r in reports:
            name = REGISTRY[r.id].name
            line = (f"{r.status:4} {r.id:5} {name:14} "
                    f"agreed={r.digits_agreed:>3} target={r.target:>3}")
            if args.timings:
                line += f"  t={r.wall_time_s:6.2f}s"
            if r.status == "fail":
                line += f"  lhs={r.lhs} rhs={r.rhs}"
            print(line)
        print(f"{len(reports) - len(failed)} pass, {len(failed)} fail "
              f"of {len(reports)} at {digits} digits")
    return 1 if failed else 0


def _cmd_list(args):
    entries = [REGISTRY[i] for i in IDENTITY_IDS]
    if args.fmt == "json":
        print(json.dumps(
            [{"id": e.id, "name": e.name, "kind": e.kind,
              "description": e.description, "lhs_method": e.lhs_method,
              "rhs_method": e.rhs_method} for e in entries],
            indent=2))
    else:
        for e in entries:
            print(f"{e.id:5} {e.name:14} {e.kind:9} {e.description}")
    return 0


_COMMANDS = {
    "theta": _cmd_theta,
    "alpha": _cmd_alpha,
    "pfq": _cmd_pfq,
    "kdf": _cmd_kdf,
    "lvalue": _cmd_lvalue,
    "coeffs": _cmd_coeffs,
    "verify": _cmd_verify,
    "list": _cmd_list,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # numpy's ArrayMemoryError included
        print(f"error: not enough memory for this {args.command} request",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
