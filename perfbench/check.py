"""Judge each operation's outcome against the paper and an mpmath reference.

References are recomputed here from the defining formulas (the Gauss
series, K through mpmath's ``ellipk``, the b_n recurrence with real
arithmetic), never from ellipmono, and only after the timed children have
finished.

A verdict separates two things.  ``ok`` says the result is the one the
paper states: the right certificate status, an enclosure that contains the
reference.  ``wrong`` says the result is false: a status that contradicts
the paper, a boundary zero that is not one, an enclosure that misses the
reference, an error.  ``Undecided`` where the paper has an answer is not
``ok`` but not ``wrong`` either: the library declined to decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import mpmath
from mpmath import mp

from workloads import Op

_REF_BITS = 640  # reference precision; requests go up to 280 bits
_RELATIVE_TOL = Fraction(1, 1 << 200)  # exact CLI rows against references


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool
    bits_requested: int = 0
    bits_achieved: Optional[float] = None  # enclosures only


def _hyp_triple(kind: str):
    return {"hh1": (0.5, 0.5, 1), "hh2": (0.5, 0.5, 2),
            "3h3h2": (1.5, 1.5, 2), "3h3h3": (1.5, 1.5, 3)}[kind]


def _F(a, b, c, x):
    return mpmath.hyp2f1(a, b, c, x)


@lru_cache(maxsize=None)
def _b_series(n_max: int) -> tuple:
    """b_0..b_n_max of exp(K(sqrt x)) from (n+1) b_{n+1} = n b_n
    + (pi/8) sum_k W_k^2/(k+1) b_{n-k}, in real arithmetic."""
    with mp.workprec(_REF_BITS + 64):
        w = [mpmath.mpf(1)]
        for k in range(1, n_max + 1):
            w.append(w[-1] * (2 * k - 1) / (2 * k))
        weight = [w[k] ** 2 / (k + 1) for k in range(n_max + 1)]
        b = [mpmath.exp(mp.pi / 2)]
        for n in range(n_max):
            s = mpmath.fsum(weight[k] * b[n - k] for k in range(n + 1))
            b.append((n * b[n] + mp.pi / 8 * s) / (n + 1))
        return tuple(b), tuple(w)


def _quotient(k_max: int):
    """q_k of (sum_{n>=1} b_n x^n) / (sum_{n>=1} W_n x^n) by long division."""
    b, w = _b_series(k_max + 1)
    with mp.workprec(_REF_BITS + 64):
        q = []
        for k in range(k_max + 1):
            acc = b[k + 1] - mpmath.fsum(q[j] * w[k + 1 - j] for j in range(k))
            q.append(acc / w[1])
        return q[k_max]


@lru_cache(maxsize=None)
def reference(ref: tuple):
    """The value an operation's result must contain, at _REF_BITS bits."""
    name, *args = ref
    with mp.workprec(_REF_BITS):
        if name in ("threshold", "b"):
            b, w = _b_series(args[0])
            k = args[0]
            return b[k] / w[k] if name == "threshold" else b[k]
        if name == "q":
            return _quotient(args[0])
        if name == "hyp":
            return _F(*_hyp_triple(args[0]), _mpq(args[1]))
        x = _mpq(args[0])
        if name == "exp_K":
            return mpmath.exp(mpmath.ellipk(x))
        if name == "g_eval":
            return (_F(1.5, 1.5, 3, x) + mp.pi * _F(1.5, 1.5, 2, x)
                    * _F(0.5, 0.5, 2, x) - 4 * _F(1.5, 1.5, 2, x))
        if name == "g0_eval":
            c = _F(0.5, 0.5, 2, x)
            return (1 - x) * _F(1.5, 1.5, 3, x) + mp.pi * c * c - 4 * c
        if name == "G_eval":
            return ((mp.pi / 8 * _F(0.5, 0.5, 2, x) - mpmath.mpf(1) / 2)
                    * mpmath.exp(mpmath.ellipk(x)))
    raise ValueError(f"no reference named {name!r}")


def _mpq(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _to_fraction(v) -> Fraction:
    # exact; mpf(v) would round to the default 53 bits, man_exp drops the sign
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _near(value: Fraction, ref, rel: Fraction) -> bool:
    r = _to_fraction(ref)
    return abs(value - r) <= rel * abs(r)


def _ref_interval(ref) -> tuple[Fraction, Fraction]:
    """The reference widened by its own possible error."""
    r = _to_fraction(ref)
    pad = abs(r) / (1 << (_REF_BITS - 40))
    return r - pad, r + pad


def achieved_bits(lo: Fraction, hi: Fraction, ref: Fraction) -> float:
    """log2(1 + |ref| / width): about -log2 of the relative width when the
    enclosure is tight, near 0 when it is wider than the value; never
    negative."""
    width = hi - lo
    if width == 0:
        return math.inf
    return math.log2(1 + abs(ref) / width)


def render_value(text: str):
    """mpmath value of a rendered PiExpression such as
    ``(pi^2 + 9*pi)/128 * exp(pi/2)``."""
    suffix = " * exp(pi/2)"
    scale = text.endswith(suffix)
    body = text[:-len(suffix)] if scale else text
    den = 1
    if body.startswith("(") and ")/" in body:
        body, den = body[1:body.rindex(")/")], int(body.rsplit("/", 1)[1])
    elif "/" in body:
        body, d = body.rsplit("/", 1)
        den = int(d)
    with mp.workprec(_REF_BITS):
        total = mpmath.mpf(0)
        for term in body.replace(" - ", " + -").split(" + "):
            coeff, has_pi, power = term.partition("pi")
            c = {"": 1, "-": -1}.get(coeff.rstrip("*"))
            c = int(coeff.rstrip("*")) if c is None else c
            j = (int(power[1:]) if power else 1) if has_pi else 0
            total += c * mp.pi ** j
        total /= den
        return total * mpmath.exp(mp.pi / 2) if scale else total


def judge(op: Op, out: dict) -> Verdict:
    if "error" in out:
        return Verdict(ok=False, wrong=True)
    if op.kind == "cert":
        status, zeros = out["status"], tuple(out["zeros"])
        if status == op.status and zeros == op.zeros:
            return Verdict(ok=True, wrong=False)
        # Undecided is a refusal to decide, not a false claim.
        return Verdict(ok=False, wrong=status != "Undecided")
    if op.kind == "cli":
        rows_ok = (out["exit"] == 0 and out["rows"] == op.rows
                   and tuple(out["head"]) == op.head)
        value = out["last"].split(",", 1)[1].strip('"') if rows_ok else ""
        ok = rows_ok and _near(_to_fraction(render_value(value)),
                               reference(op.ref), _RELATIVE_TOL)
        return Verdict(ok=ok, wrong=not ok)
    lo = Fraction(out["lo"], 1 << out["prec"])
    hi = Fraction(out["hi"], 1 << out["prec"])
    if op.kind == "residual":
        contains = lo <= 0 <= hi
        ok = contains and hi - lo < Fraction(1, 1 << op.bits)
        return Verdict(ok=ok, wrong=not contains)
    ref_lo, ref_hi = _ref_interval(reference(op.ref))
    contains = lo <= ref_hi and ref_lo <= hi
    return Verdict(ok=contains, wrong=not contains, bits_requested=op.bits,
                   bits_achieved=achieved_bits(lo, hi, (ref_lo + ref_hi) / 2))
