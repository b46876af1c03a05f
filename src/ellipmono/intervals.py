"""Fixed-point interval arithmetic with explicit outward rounding.

An :class:`Interval` stores two big integers ``lo <= hi`` and a positive
``prec``; it represents the real interval

    [lo * 2**-prec,  hi * 2**-prec].

Every operation rounds outward (lower bounds toward -inf, upper bounds
toward +inf), so any real number contained in the inputs is contained in
the output.  There are no floats anywhere: results are reproducible
bit-for-bit across platforms.

``exp`` and ``ln`` sum series after argument reduction, with rounding and
truncation errors counted in ulps of the working scale W = P + 48, so a
result is a few ulps wide (times e^x, where e^x > 1).  exp reads x
exactly as x/2^s at scale W + s, |x|/2^s <= 2^-R, R = max(2, isqrt(W)/2),
and squares s times there (Brent & Zimmermann, *Modern Computer
Arithmetic*, 2010, sec. 4.3-4.4).  One series runs per interval, at its
lower end a; the upper end b is bounded from it (e^b <= e^a (1 + t + t^2),
t = b - a <= 1; ln b <= ln a + (b - a)/a) when the bound's excess is under
2^-40 ulps, else a second series runs at b.  So an end differs from two
series' only where its value lies within about 2^-40 ulps of the grid.
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
        if prec <= 0:  # the valid path pays one comparison and no call
            check_precision(prec)
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
        if 3 * top // 2 + p > BIT_BUDGET:
            raise BudgetError("exp argument too large for bit budget")
        lo, hi, g = _exp_fp(self.lo, p)
        lo >>= g
        d = self.hi - self.lo
        # a second series at b, unless t <= 1 and the bound below exceeds
        # e^b by under 2^-40 ulps (its excess is about e^b t^2 / 2)
        if d and (d.bit_length() > p
                  or hi.bit_length() - g + 2 * d.bit_length() >= 2 * p - 40):
            _, hi, g = _exp_fp(self.hi, p)
        else:  # e^b <= e^a (1 + t + t^2) for 0 <= t = (b - a) 2^-p <= 1
            hi += _shr_ceil(hi * d * ((1 << p) + d), 2 * p)
        return Interval(lo, _shr_ceil(hi, g), p)

    def ln(self) -> "Interval":
        if self.lo <= 0:
            raise DomainError("ln of an interval touching zero or below")
        p = self.prec
        a, d = self.lo, self.hi - self.lo
        lo, hi = _ln_fp(a, p)
        # a second series at b, unless the bound below exceeds ln b by
        # under 2^-40 ulps (its excess is about (d/a)^2 / 2)
        if d and 2 * (a.bit_length() - d.bit_length()) <= p + 42:
            _, hi = _ln_fp(self.hi, p)
        else:  # ln b <= ln a + (b - a)/a
            hi += _div_ceil(d << (p + _GUARD), a)
        return Interval(lo >> _GUARD, _shr_ceil(hi, _GUARD), p)

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


def _exp_fp(m: int, p: int) -> tuple[int, int, int]:
    """(lo, hi, g): exp(m * 2^-p) lies in [lo, hi] * 2^-(p + g), g = 48 + s.

    The Taylor sum at x/2^s, |x/2^s| <= 2^-R, floors each term (2 ulps a
    term; with the tail, 2k + 8 ulps for k terms); squaring s times then
    doubles the relative error s times, which the s extra bits absorb."""
    W = p + _GUARD
    s = max(0, m.bit_length() - p + max(2, isqrt(W) // 2))
    W += s
    X = m << _GUARD  # x / 2^s at scale 2^W, exactly
    T = S = 1 << W
    k = 0
    while T:
        k += 1
        T = (T * X >> W) // k
        S += T
    err = 2 * k + 8
    lo, hi = S - err, S + err
    for _ in range(s):
        lo = lo * lo >> W if lo >= 0 else 0
        hi = _shr_ceil(hi * hi, W)
    return lo, hi, _GUARD + s


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


def _atan_inv_fp(q: int, W: int, alternating: bool) -> tuple[int, int]:
    """(sum, k): atan(1/q) (``alternating``) or atanh(1/q) at scale 2^W
    to the first zero term, k the terms summed.  p = floor(2^W/q^(2k+1))
    steps by floor division by q^2, and floor(floor(a)/n) = floor(a/n) for
    an integer n, so each p // (2k+1) is the floor of the exact term."""
    s = k = 0
    p = (1 << W) // q
    while t := p // (2 * k + 1):
        s += -t if alternating and k & 1 else t
        p //= q * q
        k += 1
    return s, k


@lru_cache(maxsize=64)
def _ln2_fp(W: int) -> tuple[int, int]:
    """Enclosure of ln 2 at scale 2^W via 2*atanh(1/3); a pure function of
    W, so ``ln`` reuses it for every argument at one working scale."""
    s, k = _atan_inv_fp(3, W, False)
    err = 2 * k + 4
    return 2 * s - err, 2 * s + err


def _ln_fp(m: int, p: int) -> tuple[int, int]:
    """Enclosure of ln(m * 2^-p), m > 0, at scale 2^-(p + 48)."""
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
    return lo, hi


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
    """Upper bound of |x| != 0 with ``sig`` significant digits, scientific
    form (``to_decimal`` renders a zero radius itself)."""
    x, ten = abs(x), Fraction(10)
    # 10^e <= x < 10^(e+1): estimated from the bit lengths (log10 2 is
    # about 0.30103), then settled by exact comparisons
    bits = x.numerator.bit_length() - x.denominator.bit_length()
    e = bits * 30103 // 100000
    while x < ten**e:
        e -= 1
    while x >= ten**(e + 1):
        e += 1
    scaled = x * ten**(sig - 1 - e)
    mant = _div_ceil(scaled.numerator, scaled.denominator)
    if mant >= 10**sig:  # rounding bumped the mantissa a decade up
        mant = _div_ceil(mant, 10)
        e += 1
    s = str(mant)
    if sig > 1:
        s = s[0] + "." + s[1:]
    return f"{s}e{e:+d}"

