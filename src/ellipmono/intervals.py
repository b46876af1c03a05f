"""Fixed-point interval arithmetic with explicit outward rounding.

An :class:`Interval` stores two big integers ``lo <= hi`` and a positive
``prec``; it represents the real interval

    [lo * 2**-prec,  hi * 2**-prec].

Every operation rounds outward (lower bounds toward -inf, upper bounds
toward +inf), so any real number contained in the inputs is contained in
the output.  There are no floats anywhere: results are reproducible
bit-for-bit across platforms.

``exp`` and ``ln`` are computed by argument reduction plus truncated
series whose rounding and truncation errors are accounted in ulps of the
working scale; the working scale carries guard bits so the returned
width stays within a few ulps of the requested precision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Union

__all__ = [
    "Interval",
    "DomainError",
    "BudgetError",
]

#: Hard ceiling on the bit length of any scaled endpoint.  Operations that
#: would blow past it (mainly exp of a large argument) raise BudgetError
#: instead of silently allocating huge integers.
BIT_BUDGET = 1 << 20

_GUARD = 48  # internal guard bits for exp/ln working scale


class DomainError(ValueError):
    """Argument outside an operation's domain (sqrt of negative, ln of
    nonpositive, division by an interval containing zero, ...)."""


def check_precision(precision: int) -> None:
    """The one error, wherever a precision is read, for one below 1 bit."""
    if precision < 1:
        raise DomainError(f"precision {precision} is below one bit")


class BudgetError(OverflowError):
    """Result would exceed the configured bit budget; raised loudly
    rather than degrading precision silently."""


def _shr_ceil(a: int, s: int) -> int:
    return -((-a) >> s)


def _div_ceil(a: int, b: int) -> int:
    return -((-a) // b)


def _isqrt_ceil(a: int) -> int:
    s = isqrt(a)
    return s if s * s == a else s + 1


_Rat = Union[int, Fraction]


def _exact(x) -> Fraction:
    """The one gate for a caller's rational: an int becomes a Fraction, a
    Fraction passes, and a float, string or Decimal raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Interval:
    """A closed real interval with dyadic endpoints ``[lo, hi] * 2**-prec``;
    never mutated, so the library's memos share one instance among callers.

    ``+ - * /`` combine two ``Interval``s at the finer precision; a
    rational enters through ``from_int``, ``from_fraction`` or
    ``mul_scalar`` as an int or ``Fraction`` (a float, string or
    ``Decimal`` raises TypeError)."""

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo: int, hi: int, prec: int):
        if prec <= 0:
            raise ValueError("prec must be a positive bit count")
        if lo > hi:
            raise ValueError("empty interval: lo > hi")
        self.lo = lo
        self.hi = hi
        self.prec = prec

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_fraction(cls, x: _Rat, prec: int) -> "Interval":
        """Tightest dyadic enclosure of an exact rational at ``prec`` bits."""
        x = _exact(x)
        n, d = x.numerator << prec, x.denominator
        return cls(n // d, _div_ceil(n, d), prec)

    @classmethod
    def from_int(cls, k: int, prec: int) -> "Interval":
        return cls(k << prec, k << prec, prec)

    # ------------------------------------------------------------------
    # inspection

    def lo_fraction(self) -> Fraction:
        return Fraction(self.lo, 1 << self.prec)

    def hi_fraction(self) -> Fraction:
        return Fraction(self.hi, 1 << self.prec)

    def mid(self) -> Fraction:
        return Fraction(self.lo + self.hi, 2 << self.prec)

    def width(self) -> Fraction:
        return Fraction(self.hi - self.lo, 1 << self.prec)

    def rad(self) -> Fraction:
        return Fraction(self.hi - self.lo, 2 << self.prec)

    def contains(self, x: _Rat) -> bool:
        return self.lo_fraction() <= _exact(x) <= self.hi_fraction()

    def encloses(self, other: "Interval") -> bool:
        return (self.lo_fraction() <= other.lo_fraction()
                and other.hi_fraction() <= self.hi_fraction())

    def overlaps(self, other: "Interval") -> bool:
        return (self.lo_fraction() <= other.hi_fraction()
                and other.lo_fraction() <= self.hi_fraction())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interval({self.to_decimal(12)} @{self.prec}b)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.lo_fraction() == other.lo_fraction()
                and self.hi_fraction() == other.hi_fraction())

    def __hash__(self):
        return hash((self.lo_fraction(), self.hi_fraction()))

    # ------------------------------------------------------------------
    # rounding / combination

    def round_to(self, prec: int) -> "Interval":
        """Outward-round to a (usually coarser) precision."""
        if prec == self.prec:
            return self
        if prec > self.prec:
            s = prec - self.prec
            return Interval(self.lo << s, self.hi << s, prec)
        s = self.prec - prec
        return Interval(self.lo >> s, _shr_ceil(self.hi, s), prec)

    def pad_ulp(self, n: int = 1) -> "Interval":
        return Interval(self.lo - n, self.hi + n, self.prec)

    def hull(self, other: "Interval") -> "Interval":
        p = max(self.prec, other.prec)
        a, b = self.round_to(p), other.round_to(p)
        return Interval(min(a.lo, b.lo), max(a.hi, b.hi), p)

    @staticmethod
    def _common(a: "Interval", b: "Interval"):
        p = max(a.prec, b.prec)
        return a.round_to(p), b.round_to(p), p

    # ------------------------------------------------------------------
    # arithmetic

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.prec)

    def __add__(self, other: "Interval") -> "Interval":
        a, b, p = self._common(self, other)
        return Interval(a.lo + b.lo, a.hi + b.hi, p)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":
        a, b, p = self._common(self, other)
        prods = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        return Interval(min(prods) >> p, _shr_ceil(max(prods), p), p)

    def mul_scalar(self, q: _Rat) -> "Interval":
        """Multiply by an exact rational with one directed rounding."""
        q = _exact(q)
        n, d = q.numerator, q.denominator
        if n >= 0:
            lo, hi = self.lo * n, self.hi * n
        else:
            lo, hi = self.hi * n, self.lo * n
        return Interval(lo // d, _div_ceil(hi, d), self.prec)

    def __truediv__(self, other: "Interval") -> "Interval":
        a, b, p = self._common(self, other)
        if b.lo <= 0 <= b.hi:
            raise DomainError("division by an interval containing zero")
        quots_lo = []
        quots_hi = []
        for num in (a.lo, a.hi):
            for den in (b.lo, b.hi):
                quots_lo.append((num << p) // den)
                quots_hi.append(_div_ceil(num << p, den))
        return Interval(min(quots_lo), max(quots_hi), p)

    def recip(self) -> "Interval":
        return Interval.from_int(1, self.prec) / self

    def square(self) -> "Interval":
        p = self.prec
        if self.lo >= 0:
            lo, hi = self.lo * self.lo, self.hi * self.hi
        elif self.hi <= 0:
            lo, hi = self.hi * self.hi, self.lo * self.lo
        else:
            lo, hi = 0, max(self.lo * self.lo, self.hi * self.hi)
        return Interval(lo >> p, _shr_ceil(hi, p), p)

    # ------------------------------------------------------------------
    # algebraic / transcendental

    def sqrt(self) -> "Interval":
        if self.lo < 0:
            raise DomainError("sqrt of an interval with negative lower bound")
        p = self.prec
        # sqrt(m * 2^-p) = sqrt(m * 2^p) * 2^-p
        return Interval(isqrt(self.lo << p), _isqrt_ceil(self.hi << p), p)

    def exp(self) -> "Interval":
        p = self.prec
        # magnitude guard: |result| ~ 2^(x*log2(e))
        top = max(abs(self.lo), abs(self.hi)) >> p
        if int(top * 1.5) + p > BIT_BUDGET:
            raise BudgetError("exp argument too large for bit budget")
        lo, _ = _exp_dyadic(self.lo, p)
        _, hi = _exp_dyadic(self.hi, p)
        return Interval(lo, hi, p)

    def ln(self) -> "Interval":
        if self.lo <= 0:
            raise DomainError("ln of an interval touching zero or below")
        p = self.prec
        lo, _ = _ln_dyadic(self.lo, p)
        _, hi = _ln_dyadic(self.hi, p)
        return Interval(lo, hi, p)

    # ------------------------------------------------------------------
    # rendering

    def to_decimal(self, digits: int = 20) -> str:
        """Render as ``midpoint ± radius`` with the radius rounded up;
        ``digits`` is the count of fractional digits of the midpoint."""
        if digits < 0:
            raise ValueError(f"digits={digits} is negative")
        mid = self.mid()
        rad = self.rad()
        if rad == 0:
            return f"{_fraction_to_decimal(mid, digits)} ± 0"
        return (f"{_fraction_to_decimal(mid, digits)}"
                f" ± {_fraction_to_decimal_up(rad, 2)}")


# ----------------------------------------------------------------------
# dyadic exp / ln kernels (integer only, validated against mpmath)


def _exp_dyadic(m: int, p: int) -> tuple[int, int]:
    """Enclosure of exp(m * 2^-p) as scaled ints at ``p`` bits."""
    W = p + _GUARD
    X = m << _GUARD
    # halve until |x| <= 1/4; floor-shift error <= 1 ulp total (geometric)
    s = 0
    bound = 1 << (W - 2)
    while abs(X) > bound:
        X >>= 1
        s += 1
    # Taylor sum_k x^k / k! with floor rounding; per-term error <= 2 ulp
    T = 1 << W
    S = T
    k = 0
    while T != 0:
        k += 1
        T = (T * X) >> W
        T //= k
        S += T
    err = 2 * k + 8  # term roundings + tail + halving propagation
    lo, hi = S - err, S + err
    for _ in range(s):
        lo = (lo * lo) >> W if lo >= 0 else 0
        hi = _shr_ceil(hi * hi, W)
    return lo >> _GUARD, _shr_ceil(hi, _GUARD)


def _atanh_series_fp(U: int, W: int) -> tuple[int, int]:
    """Fixed-point sum of u + u^3/3 + u^5/5 + ... for |U*2^-W| <= 1/4.

    Returns (sum, nterms); per-term rounding error <= 2 ulp.  The sum
    runs on |U| (floor shifts of a negative iterate would stall at -1)
    and uses oddness for the sign.
    """
    neg = U < 0
    if neg:
        U = -U
    U2 = (U * U) >> W
    V = U
    S = U
    k = 0
    while V != 0:
        k += 1
        V = (V * U2) >> W
        S += V // (2 * k + 1)
    return (-S if neg else S), k


@lru_cache(maxsize=64)
def _ln2_fp(W: int) -> tuple[int, int]:
    """Enclosure of ln 2 at scale 2^W via 2*atanh(1/3); a pure function of
    W, so ``ln`` reuses it for every argument at one working scale."""
    s = 0
    k = 0
    q = 3
    while True:
        t = (1 << W) // ((2 * k + 1) * q)
        if t == 0:
            break
        s += t
        q *= 9
        k += 1
    s *= 2
    err = 2 * k + 4
    return s - err, s + err


def _ln_dyadic(m: int, p: int) -> tuple[int, int]:
    """Enclosure of ln(m * 2^-p), m > 0, as scaled ints at ``p`` bits."""
    W = p + _GUARD
    e = m.bit_length() - p
    # z = m*2^-p = t*2^e with t in [1/2, 1); lift t into [2/3, 4/3]
    T = m << _GUARD
    zt = T >> e if e >= 0 else T << -e
    if 3 * zt < (1 << (W + 1)):  # t < 2/3: use t*2 and e-1
        e -= 1
        zt <<= 1
    num = zt - (1 << W)
    den = zt + (1 << W)
    U = (num << W) // den  # |u| <= 1/5; floor error <= 1 ulp
    S, k = _atanh_series_fp(U, W)
    S *= 2
    err = 4 * (k + 4)
    lo_ln2, hi_ln2 = _ln2_fp(W)
    if e >= 0:
        lo = S - err + e * lo_ln2
        hi = S + err + e * hi_ln2
    else:
        lo = S - err + e * hi_ln2
        hi = S + err + e * lo_ln2
    return lo >> _GUARD, _shr_ceil(hi, _GUARD)


# ----------------------------------------------------------------------
# decimal rendering helpers


def _fraction_to_decimal(x: Fraction, digits: int) -> str:
    """Round-to-nearest decimal string with ``digits`` fractional digits."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x * 10**digits
    q = scaled.numerator // scaled.denominator
    if 2 * (scaled - q) >= 1:
        q += 1
    whole, frac = divmod(q, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def _fraction_to_decimal_up(x: Fraction, sig: int) -> str:
    """Upper bound of |x| with ``sig`` significant digits, scientific form."""
    if x == 0:
        return "0"
    x = abs(x)
    # find decimal exponent: 10^e <= x < 10^(e+1)
    e = 0
    if x >= 1:
        while x >= 10**(e + 1):
            e += 1
    else:
        while x < 10**e:
            e -= 1
    shift = sig - 1 - e
    scaled = x * 10**shift if shift >= 0 else x / 10**(-shift)
    mant = _div_ceil(scaled.numerator, scaled.denominator)
    if mant >= 10**sig:  # rounding bumped the mantissa a decade up
        mant = _div_ceil(mant, 10)
        e += 1
    s = str(mant)
    if sig > 1:
        s = s[0] + "." + s[1:]
    return f"{s}e{e:+d}"

