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
from itertools import chain
from typing import Optional

from .intervals import DomainError, BudgetError, Interval, check_precision
from .constants import CONSTANT_NAMES, enclose_constant
from .coefficients import shared_coefficients
from .pi_expr import PiExpression
from . import elliptic
from .certify import (
    BoundSpec,
    CertStatus,
    Certificate,
    FAMILIES,
    SEQUENCE_CLAIMS,
    SHARPNESS_FAMILIES,
    certify_sequence,
    grid_verify,
    sharpness_probe,
)

_table = shared_coefficients()


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
        return _table.threshold(_NAMED_PARAMS[key])
    if key.startswith("threshold(") and key.endswith(")"):
        try:
            k = int(key[len("threshold("):-1])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad threshold index in {text!r}") from None
        return _table.threshold(k)
    try:
        return Fraction(key)
    except (ValueError, ZeroDivisionError):
        names = ", ".join(sorted(_NAMED_PARAMS))
        raise argparse.ArgumentTypeError(
            f"cannot parse parameter {text!r}; use a rational, "
            f"threshold(k), or one of: {names}") from None


def _emit_certificate(cert: Certificate, args,
                      want: CertStatus = CertStatus.CERTIFIED) -> int:
    """Print the certificate; exit 0 if it has the status ``want``."""
    d = cert.to_json_dict()
    if args.no_timestamp:
        d["runtime_ms"] = 0.0
    else:
        d["generated_at"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps(d, indent=2))
    return 0 if cert.status is want else 1


# ----------------------------------------------------------------------
# subcommands

def _c_rows(args):
    if args.p is None:
        raise DomainError("--kind c needs --p")
    lo, hi = _table.c_coeffs(0, args.n_max, args.p, args.precision)
    return (Interval(a, b, args.precision) for a, b in zip(lo, hi))


def _each(reader: str):  # exact rows, read one at a time: they are big
    return lambda args: map(getattr(_table, reader), range(args.n_max + 1))


# coeffs --kind -> (flags it reads, args -> rows 0..n_max), exact
# PiExpressions or enclosures (c_n(p), printed as such without --enclosure)
_COEFF_ROWS = {
    "b": ((), _each("b_coeff")),
    "u": ((), _each("u_coeff")),
    "v": ((), _each("v_coeff")),
    "c": (("p",), _c_rows),
    "q": ((), _each("quotient_coeff")),
}


def _reader(args, table: dict, chosen: str, option: str):
    """The function of ``table[chosen]``; a flag that only other entries
    of the table read is a usage error."""
    reads, read = table[chosen]
    for flag in dict.fromkeys(f for r, _ in table.values() for f in r):
        if flag not in reads and getattr(args, flag) is not None:
            raise DomainError(f"{option} {chosen} takes no --{flag}")
    return read


def _cmd_coeffs(args) -> int:
    if args.n_max < 0:
        raise DomainError(f"n_max={args.n_max} is negative")
    read = _reader(args, _COEFF_ROWS, args.kind, "coeffs --kind")
    # None unless given here, so that exact forms reject them
    given = [f for f in ("digits", "precision")
             if getattr(args, f) is not None]
    args.digits = 30 if args.digits is None else args.digits
    args.precision = 128 if args.precision is None else args.precision
    values = read(args)
    first = next(values)
    exact = not args.enclosure and isinstance(first, PiExpression)
    if exact and given:
        raise DomainError(f"coeffs --kind {args.kind} takes --{given[0]} "
                          "only with --enclosure")

    def text(value) -> str:
        if exact:
            return value.render()
        if isinstance(value, PiExpression):
            value = value.evaluate(args.precision)
        return value.to_decimal(args.digits)

    rows = [text(v) for v in chain([first], values)]
    col = "expression" if exact else "enclosure"
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "column": col,
            "rows": [{"n": n, col: s} for n, s in enumerate(rows)],
        }
        if args.p is not None:
            payload["p"] = str(args.p)
        print(json.dumps(payload, indent=2))
    else:
        print(f"n,{col}")
        for n, s in enumerate(rows):
            print(f'{n},"{s}"')
    return 0


def _cmd_certify(args) -> int:
    cert = certify_sequence(args.claim, args.n_start, args.n_end,
                            p=args.p, precision=args.precision,
                            max_precision=args.max_precision)
    return _emit_certificate(cert, args)


def _cmd_verify(args) -> int:
    spec = BoundSpec(args.family, args.order, args.p)
    grid = (None if args.density is None
            else FAMILIES[args.family].grid(args.density))
    cert = grid_verify(spec, grid, precision=args.precision,
                       max_precision=args.max_precision)
    return _emit_certificate(cert, args)


def _cmd_sharpness(args) -> int:
    cert = sharpness_probe(args.family, args.epsilon, order=args.order,
                           max_steps=args.max_steps,
                           precision=args.precision,
                           max_precision=args.max_precision)
    return _emit_certificate(cert, args, CertStatus.REFUTED)


def _need(args, attr: str, flag: Optional[str] = None):
    """The value of a flag that the eval target needs."""
    value = getattr(args, attr)
    if value is None:
        raise DomainError(f"eval --what {args.what} needs "
                          f"{flag or '--' + attr}")
    return value


def _eval_K(args, prec: int):
    if args.m is None:
        return elliptic.agm_K(_need(args, "r", "--r or --m"), prec)
    if args.r is not None:
        raise DomainError("eval --what K takes --r or --m, not both")
    return elliptic.agm_K_m(args.m, prec)


def _eval_lt(args, prec: int):
    parts = [Fraction(t) for t in _need(args, "triple").split(",")]
    if len(parts) != 3:
        raise DomainError("--triple expects a,b,c")
    return elliptic.lt_check(*parts, _need(args, "x"), prec)


def _at(name: str, flag: str = "x"):
    """The _EVAL entry of a target whose one flag is its point."""
    return (flag,), lambda args, prec: getattr(elliptic, name)(
        _need(args, flag), prec)


# eval --what -> (flags it reads, (args, precision) -> enclosure); the
# functions are looked up on elliptic at call time, so wrappers run.
_EVAL = {
    "K": (("m", "r"), _eval_K),
    "expK": _at("exp_K_agm"),
    "expK_series": (("x", "terms"), lambda args, prec: elliptic.exp_K(
        _need(args, "x"), prec, args.terms).enclosure),
    "hyp": (("kind", "x", "terms"), lambda args, prec: elliptic.hyp_series(
        _need(args, "kind"), _need(args, "x"), prec, args.terms).enclosure),
    "g": _at("g_eval"),
    "g0": _at("g0_eval"),
    "G": _at("G_eval"),
    "G4": _at("G4_eval"),
    "H": _at("H_eval"),
    "ekd": _at("ekd_eval"),
    "defect": _at("asymptotic_defect", "m"),
    "alpha": ((), lambda args, prec: elliptic.alpha_enclosure(prec)),
    "beta": ((), lambda args, prec: elliptic.beta_enclosure(prec)),
    "lt": (("triple", "x"), _eval_lt),
}


def _cmd_eval(args) -> int:
    read = _reader(args, _EVAL, args.what, "eval --what")
    print(read(args, args.precision).to_decimal(args.digits))
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
    p.add_argument("--kind", choices=tuple(_COEFF_ROWS), required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--p", type=parse_param, default=None,
                   help="series parameter for --kind c")
    p.add_argument("--enclosure", action="store_true",
                   help="print decimal enclosures instead of exact forms")
    _add_common(p, digits=True, fmt=True)
    p.set_defaults(func=_cmd_coeffs, digits=None, precision=None)

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
    p.add_argument("--density", type=int, default=None,
                   help="grid density (default: the family's own grid)")
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
    p.add_argument("--what", choices=tuple(_EVAL), required=True)
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
        if args.precision is not None:  # None: coeffs without --precision
            check_precision(args.precision)
        return args.func(args)
    except (DomainError, BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
