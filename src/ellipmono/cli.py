"""Command-line interface.

Subcommands
    coeffs      print coefficient tables (exact expressions or enclosures)
    certify     sign certificates for coefficient sequences
    verify      grid certification of the inequality families
    sharpness   refute an epsilon-perturbed bound to show a constant sharp
    eval        enclose a single function value
    constants   enclose the named constants

Exit codes: 0 on success (for ``certify``/``verify`` that means
``Certified``; for ``sharpness`` it means the perturbed bound was
``Refuted``), 1 when a certificate fails to reach the expected status,
2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional

from .intervals import DomainError, BudgetError
from .constants import CONSTANT_NAMES, enclose_constant
from .coefficients import shared_coefficients
from . import elliptic
from .certify import (
    BoundSpec,
    CertStatus,
    Certificate,
    FAMILIES,
    SEQUENCE_CLAIMS,
    SHARPNESS_FAMILIES,
    certify_sequence,
    default_grid,
    default_pair_grid,
    grid_verify,
    sharpness_probe,
    j_quotient_coefficients,
)

def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not an exact rational: {text!r}") from None


# Named exact parameter values accepted by --p (whitespace-insensitive):
# the sharp thresholds b_k/W_k they equal, by k.
_NAMED_PARAMS = {
    "exp(pi/2)": 0,
    "pi*exp(pi/2)/4": 1,
    "pi*(pi+9)*exp(pi/2)/48": 2,
}


def parse_param(text: str):
    """Parse --p: a named exact constant, threshold(k), or a rational."""
    key = text.strip().lower().replace(" ", "")
    if key in _NAMED_PARAMS:
        return shared_coefficients().threshold(_NAMED_PARAMS[key])
    if key.startswith("threshold(") and key.endswith(")"):
        try:
            k = int(key[len("threshold("):-1])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad threshold index in {text!r}") from None
        return shared_coefficients().threshold(k)
    try:
        return Fraction(key)
    except (ValueError, ZeroDivisionError):
        names = ", ".join(sorted(_NAMED_PARAMS))
        raise argparse.ArgumentTypeError(
            f"cannot parse parameter {text!r}; use a rational, "
            f"threshold(k), or one of: {names}") from None


def _emit_certificate(cert: Certificate, args) -> None:
    d = cert.to_json_dict()
    if args.no_timestamp:
        d["runtime_ms"] = 0.0
    else:
        d["generated_at"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps(d, indent=2))


def _cert_exit(cert: Certificate, want: CertStatus) -> int:
    return 0 if cert.status is want else 1


# ----------------------------------------------------------------------
# subcommands

def _cmd_coeffs(args) -> int:
    table = shared_coefficients()
    rows = []
    exact = not args.enclosure
    if args.kind == "q":
        quotient = j_quotient_coefficients(args.n_max + 1)
    for n in range(args.n_max + 1):
        if args.kind == "b":
            expr = table.b_coeff(n)
        elif args.kind == "u":
            expr = table.u_coeff(n)
        elif args.kind == "v":
            expr = table.v_coeff(n)
        elif args.kind == "q":
            expr = quotient[n]
        else:  # c
            if args.p is None:
                raise DomainError("--kind c needs --p")
            exact = False
            rows.append((n, table.c_coeff(n, args.p, args.precision)
                         .to_decimal(args.digits)))
            continue
        if exact:
            rows.append((n, expr.render()))
        else:
            rows.append((n, expr.evaluate(args.precision)
                         .to_decimal(args.digits)))
    col = "expression" if exact else "enclosure"
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "column": col,
            "rows": [{"n": n, col: s} for n, s in rows],
        }
        if args.kind == "c":
            payload["p"] = str(args.p)
        print(json.dumps(payload, indent=2))
    else:
        print(f"n,{col}")
        for n, s in rows:
            print(f'{n},"{s}"')
    return 0


def _cmd_certify(args) -> int:
    cert = certify_sequence(args.claim, args.n_start, args.n_end,
                            p=args.p, precision=args.precision,
                            max_precision=args.max_precision)
    _emit_certificate(cert, args)
    return _cert_exit(cert, CertStatus.CERTIFIED)


def _cmd_verify(args) -> int:
    spec = BoundSpec(args.family, args.order, args.p)
    if FAMILIES[args.family].pair_domain:
        grid = default_pair_grid(args.density)
    else:
        grid = default_grid(args.density)
    cert = grid_verify(spec, grid, precision=args.precision,
                       max_precision=args.max_precision)
    _emit_certificate(cert, args)
    return _cert_exit(cert, CertStatus.CERTIFIED)


def _cmd_sharpness(args) -> int:
    cert = sharpness_probe(args.family, args.epsilon, order=args.order,
                           max_steps=args.max_steps,
                           precision=args.precision,
                           max_precision=args.max_precision)
    _emit_certificate(cert, args)
    return _cert_exit(cert, CertStatus.REFUTED)


# eval targets that enclose one function of at most one point:
# --what -> (function in elliptic, the flag giving the point or None).
# Looked up by name at call time, so a wrapped function is the one run.
_EVAL_AT_POINT = {
    "expK": ("exp_K_agm", "x"),
    "g": ("g_eval", "x"),
    "g0": ("g0_eval", "x"),
    "G": ("G_eval", "x"),
    "G4": ("G4_eval", "x"),
    "H": ("H_eval", "x"),
    "ekd": ("ekd_eval", "x"),
    "defect": ("asymptotic_defect", "m"),
    "alpha": ("alpha_enclosure", None),
    "beta": ("beta_enclosure", None),
}


def _cmd_eval(args) -> int:
    what = args.what
    prec = args.precision

    def need(attr, flag):
        val = getattr(args, attr)
        if val is None:
            raise DomainError(f"eval --what {what} needs {flag}")
        return val

    if what in _EVAL_AT_POINT:
        name, arg = _EVAL_AT_POINT[what]
        point = (need(arg, f"--{arg}"),) if arg else ()
        iv = getattr(elliptic, name)(*point, prec)
    elif what == "K":
        if args.m is not None:
            iv = elliptic.agm_K_m(args.m, prec)
        else:
            iv = elliptic.agm_K(need("r", "--r or --m"), prec)
    elif what == "expK_series":
        ev = elliptic.exp_K(need("x", "--x"), prec, args.terms)
        iv = ev.enclosure
    elif what == "hyp":
        ev = elliptic.hyp_series(need("kind", "--kind"), need("x", "--x"),
                                 prec, args.terms)
        iv = ev.enclosure
    elif what == "lt":
        triple = need("triple", "--triple")
        parts = [Fraction(t) for t in triple.split(",")]
        if len(parts) != 3:
            raise DomainError("--triple expects a,b,c")
        iv = elliptic.lt_check(*parts, need("x", "--x"), prec)
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown eval target {what!r}")
    print(iv.to_decimal(args.digits))
    return 0


def _cmd_constants(args) -> int:
    names = (args.names.split(",") if args.names
             else list(CONSTANT_NAMES))
    rows = []
    for name in names:
        name = name.strip()
        if name not in CONSTANT_NAMES:
            raise DomainError(f"unknown constant {name!r}; "
                              f"known: {', '.join(CONSTANT_NAMES)}")
        rows.append((name, enclose_constant(name, args.precision)
                     .to_decimal(args.digits)))
    if args.format == "json":
        print(json.dumps({n: s for n, s in rows}, indent=2))
    else:
        print("name,enclosure")
        for n, s in rows:
            print(f'{n},"{s}"')
    return 0


# ----------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser, *, max_prec: bool = False,
                digits: bool = False, fmt: bool = False,
                timestamp: bool = False) -> None:
    p.add_argument("--precision", type=int, default=128,
                   help="working precision in bits (default 128)")
    if max_prec:
        p.add_argument("--max-precision", type=int, default=2048,
                       help="precision cap for escalation (default 2048)")
    if digits:
        p.add_argument("--digits", type=int, default=30,
                       help="decimal digits to display (default 30)")
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
    if timestamp:
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp and zero the runtime so "
                            "output is byte-reproducible")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ellipmono",
        description="certified coefficient tables, enclosures and "
                    "inequality certificates for the complete elliptic "
                    "integral of the first kind")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print coefficient tables")
    p.add_argument("--kind", choices=("b", "u", "v", "c", "q"), required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--p", type=parse_param, default=None,
                   help="series parameter for --kind c")
    p.add_argument("--enclosure", action="store_true",
                   help="print decimal enclosures instead of exact forms")
    _add_common(p, digits=True, fmt=True)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("certify", help="certify a coefficient-sequence claim")
    p.add_argument("--claim", choices=SEQUENCE_CLAIMS, required=True)
    p.add_argument("--n-start", type=int, default=0)
    p.add_argument("--n-end", type=int, required=True)
    p.add_argument("--p", type=parse_param, default=None)
    _add_common(p, max_prec=True, timestamp=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="certify an inequality family on a grid")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--order", type=int, default=0,
                   help="truncation order m of the correction sum")
    p.add_argument("--p", type=parse_param, default=None,
                   help="series parameter (defaults to the sharp constant)")
    p.add_argument("--density", type=int, default=200,
                   help="grid density (default 200)")
    _add_common(p, max_prec=True, timestamp=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sharpness",
                       help="refute an epsilon-perturbed bound")
    p.add_argument("--family", choices=SHARPNESS_FAMILIES, required=True)
    p.add_argument("--epsilon", type=parse_fraction, required=True)
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=40)
    _add_common(p, max_prec=True, timestamp=True)
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("eval", help="enclose one function value")
    p.add_argument("--what",
                   choices=("K", "expK", "expK_series", "hyp", "g", "g0",
                            "G", "G4", "H", "ekd", "defect", "alpha",
                            "beta", "lt"),
                   required=True)
    p.add_argument("--x", type=parse_fraction, default=None)
    p.add_argument("--m", type=parse_fraction, default=None)
    p.add_argument("--r", type=parse_fraction, default=None)
    p.add_argument("--kind", choices=sorted(elliptic.HYP_KINDS), default=None)
    p.add_argument("--triple", default=None,
                   help="a,b,c parameters for --what lt")
    p.add_argument("--terms", type=int, default=None,
                   help="series term cap")
    _add_common(p, digits=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("constants", help="enclose the named constants")
    p.add_argument("--names", default=None,
                   help="comma-separated subset (default: all)")
    _add_common(p, digits=True, fmt=True)
    p.set_defaults(func=_cmd_constants)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
