"""Exact closed forms: rational polynomials in pi, optionally times e^(pi/2).

Every coefficient in the power series of exp(K(sqrt(x))) — and every
derived quantity this library certifies — lives in the ring

    { q(pi) * e^(pi/2)  or  q(pi) : q a polynomial with rational coefficients }.

:class:`PiExpression` represents one element exactly.  Structural
equality is semantic equality: {pi^j} and {pi^j * e^(pi/2)} are linearly
independent over the rationals, so the canonical form (integer
numerators over their least common denominator, trailing zeros trimmed,
zero normalized) decides everything.

Addition is only defined between operands with the same ``exp_scale``
(the mixed sum is not an element of either ring); callers that need a
mixed combination evaluate to an :class:`~ellipmono.intervals.Interval`
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .intervals import Interval, _Rat, _exact
from .constants import enclose_constant

__all__ = ["PiExpression"]


@dataclass(frozen=True)
class PiExpression:
    """``sum_j nums[j] * pi**j / den``, times ``e**(pi/2)`` if ``exp_scale``.

    The constructor takes rational coefficients (over ``den``, default 1)
    and keeps the canonical form: integer ``nums`` with no trailing
    zeros and a positive ``den`` with gcd(den, *nums) = 1, so ``den`` is
    the least common denominator of the coefficients.  Zero is
    ``nums=()``, ``den=1`` and unscaled.  A rational, here or in ``of``
    and ``scale`` (the one rational product), is an int or a
    ``Fraction``; a float, string or ``Decimal`` raises TypeError.
    """

    nums: tuple[int, ...] = ()
    exp_scale: bool = False
    den: int = 1

    def __post_init__(self):
        nums, den = self.nums, self.den
        if den <= 0:
            raise ValueError("den must be a positive integer")
        if not all(isinstance(c, int) for c in nums):
            cs = [_exact(c) for c in nums]
            common = lcm(*(c.denominator for c in cs))
            nums = [c.numerator * (common // c.denominator) for c in cs]
            den *= common
        top = len(nums)
        while top and nums[top - 1] == 0:
            top -= 1
        nums = nums[:top]
        g = gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(c // g for c in nums))
        object.__setattr__(self, "den", den // g)
        if not nums:
            object.__setattr__(self, "exp_scale", False)

    # ------------------------------------------------------------------
    @classmethod
    def of(cls, p: "_Rat | PiExpression") -> "PiExpression":
        """p itself if it is an expression, else the rational p lifted
        to an unscaled constant."""
        return p if isinstance(p, PiExpression) else cls((p,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients nums[j]/den."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree in pi (-1 for the zero expression)."""
        return len(self.nums) - 1

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "PiExpression") -> "PiExpression":
        if self.nums and other.nums and self.exp_scale != other.exp_scale:
            raise ValueError(
                "cannot add expressions with different exp_scale; "
                "evaluate to intervals instead")
        den = lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [c * (den // other.den) for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for j, c in enumerate(b):
            a[j] += c
        return PiExpression(a, self.exp_scale or other.exp_scale, den)

    def __neg__(self) -> "PiExpression":
        return self.scale(-1)

    def __sub__(self, other: "PiExpression") -> "PiExpression":
        return self + (-other)

    def scale(self, q: _Rat) -> "PiExpression":
        q = _exact(q)
        return PiExpression(tuple(c * q.numerator for c in self.nums),
                            self.exp_scale, self.den * q.denominator)

    def __mul__(self, other: "PiExpression") -> "PiExpression":
        if self.exp_scale and other.exp_scale:
            raise ValueError(
                "product would carry exp(pi); outside the coefficient ring")
        prod = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            for j, b in enumerate(other.nums):
                prod[i + j] += a * b
        return PiExpression(prod, self.exp_scale or other.exp_scale,
                            self.den * other.den)

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, precision: int) -> Interval:
        """Certified enclosure at the given precision.

        Horner runs on the exact integer numerators, so only the
        enclosure of pi (and of e^(pi/2)) carries error, and the one
        division by the common denominator comes last.  A degree-d
        polynomial multiplies the error of pi at most d times, which the
        ``len(nums).bit_length()`` extra working bits absorb.  A constant
        gets the bits of ``Interval.from_fraction``: nested floors compose.
        """
        if self.is_zero:
            return Interval(0, 0, precision)
        nums, den = self.nums, self.den
        work = precision + 16 + len(nums).bit_length()
        pi = enclose_constant("pi", work)
        acc = Interval.from_int(nums[-1], work)
        for c in reversed(nums[:-1]):
            acc = acc * pi + Interval.from_int(c, work)
        acc = acc.mul_scalar(Fraction(1, den))
        if self.exp_scale:
            acc = acc * enclose_constant("exp_half_pi", work)
        return acc.round_to(precision)

    # ------------------------------------------------------------------
    # rendering

    def render(self) -> str:
        """Canonical human-readable form, e.g.

        ``(pi^3 + 27*pi^2 + 150*pi)/3072 * exp(pi/2)``
        """
        terms = [str(n) if j == 0 else
                 ("" if n == 1 else "-" if n == -1 else f"{n}*")
                 + ("pi" if j == 1 else f"pi^{j}")
                 for j, n in reversed(list(enumerate(self.nums))) if n]
        if not terms:
            return "0"
        body = " + ".join(terms).replace("+ -", "- ")
        # a sum is bracketed exactly when a factor follows it
        if len(terms) > 1 and (self.den != 1 or self.exp_scale):
            body = f"({body})"
        if self.den != 1:
            body = f"{body}/{self.den}"
        if self.exp_scale:
            body = f"{body} * exp(pi/2)"
        return body

    def __str__(self) -> str:
        return self.render()
