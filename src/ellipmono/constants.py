"""Certified enclosures of the fixed real constants the library needs.

Available names: ``pi``, ``exp_half_pi``, ``gamma_quarter``,
``gamma_three_quarter``, ``sqrt_pi``, ``sqrt_two``, ``ln2``.

Enclosures come from a shared, thread-safe table with two guarantees:

* width(enclose_constant(name, P)) <= 2**(-P + 2), and
* nesting: the enclosure at precision P + k is contained in the one at
  precision P.

Each answer is one fixed computation of (name, P) alone: the generator
at P + 16 bits gives [L, H], which is outward-rounded to the grid of
u = 2^-(P+3) and padded by one ulp, giving [a - u, b + u].  So an answer,
and every certificate built on it, does not depend on what was asked
before.  Nesting holds by construction.  The premise is that every
generator's width at P + 16 is below 2^-(P+3) (it is a few ulps at
P + 16).  For P' > P let u' = 2^-(P'+3) and c the constant: a <= c, and
the finer L' > c - u' >= a - u', a point of the finer grid, so its
rounding a' >= a - u' and the padded a' - u' >= a - 2u' >= a - u.  The
upper end is symmetric.  The width is at most 4u plus the generator's
width, which is below 2^(-P+2).

pi uses the Machin formula 16*atan(1/5) - 4*atan(1/239) with alternating
series tails; gamma_quarter comes from the quadratically convergent AGM
evaluation of the elliptic integral at modulus 1/sqrt(2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .intervals import (DomainError, Interval, _atan_inv_fp, _ln2_fp,
                        check_precision)

__all__ = ["ConstantTable", "enclose_constant", "CONSTANT_NAMES", "shared_table"]

_PAD = 16  # guard bits above the requested precision


def _machin_pi(prec: int) -> Interval:
    W = prec + _PAD
    a5, k5 = _atan_inv_fp(5, W, True)
    a239, k239 = _atan_inv_fp(239, W, True)
    s = 16 * a5 - 4 * a239
    # per arctangent: |rounding| <= k ulps, and |tail| < 1 ulp, since the
    # first omitted term floors to 0
    err = 16 * (k5 + 1) + 4 * (k239 + 1)
    return Interval(s - err, s + err, W).round_to(prec)


def _ln2(prec: int) -> Interval:
    W = prec + _PAD
    lo, hi = _ln2_fp(W)
    return Interval(lo, hi, W).round_to(prec)


def _sqrt_two(prec: int) -> Interval:
    return Interval.from_int(2, prec + _PAD).sqrt().round_to(prec)


def _sqrt_pi(prec: int) -> Interval:
    return _machin_pi(prec + _PAD).sqrt().round_to(prec)


def _exp_half_pi(prec: int) -> Interval:
    half_pi = _machin_pi(prec + _PAD).mul_scalar(Fraction(1, 2))
    return half_pi.exp().round_to(prec)


def _gamma_quarter(prec: int) -> Interval:
    # Gamma(1/4) = 2 * pi^(1/4) * sqrt(K(1/sqrt 2)), with K evaluated by
    # the AGM oracle at modulus-squared 1/2.
    from .elliptic import agm_K_m  # deferred: elliptic imports this module

    W = prec + _PAD
    k_val = agm_K_m(Fraction(1, 2), W)
    quarter_root_pi = _machin_pi(W + _PAD).sqrt().sqrt()
    out = (quarter_root_pi * k_val.sqrt()).mul_scalar(2)
    return out.round_to(prec)


def _gamma_three_quarter(prec: int) -> Interval:
    # Reflection: Gamma(1/4) * Gamma(3/4) = pi * sqrt(2).
    W = prec + _PAD
    num = _machin_pi(W) * _sqrt_two(W)
    return (num / _gamma_quarter(W)).round_to(prec)


_GENERATORS = {
    "pi": _machin_pi,
    "ln2": _ln2,
    "sqrt_two": _sqrt_two,
    "sqrt_pi": _sqrt_pi,
    "exp_half_pi": _exp_half_pi,
    "gamma_quarter": _gamma_quarter,
    "gamma_three_quarter": _gamma_three_quarter,
}

CONSTANT_NAMES = tuple(sorted(_GENERATORS))


class ConstantTable:
    """Cache of constant enclosures, one computation per (table, name,
    precision); see the module docstring for why they nest.  A typed,
    thread-safe ``lru_cache``: a float precision never reads an int's
    entry, an error is never cached, and two threads that miss at once
    may both compute an answer, with equal bits."""

    @lru_cache(maxsize=None, typed=True)
    def enclose(self, name: str, precision: int) -> Interval:
        if name not in _GENERATORS:
            raise DomainError(f"unknown constant {name!r}; "
                              f"known: {', '.join(CONSTANT_NAMES)}")
        check_precision(precision)
        return _GENERATORS[name](precision + _PAD).round_to(
            precision + 3).pad_ulp(1)


_shared = ConstantTable()


def shared_table() -> ConstantTable:
    return _shared


def enclose_constant(name: str, precision: int) -> Interval:
    """Enclosure of a named constant from the shared table."""
    return _shared.enclose(name, precision)
