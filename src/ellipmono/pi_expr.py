"""Exact closed forms: rational polynomials in pi, optionally times e^(pi/2).

Every coefficient in the power series of exp(K(sqrt(x))) — and every
derived quantity this library certifies — lives in the ring

    { q(pi) * e^(pi/2)  or  q(pi) : q a polynomial with rational coefficients }.

:class:`PiExpression` represents one element exactly.  Structural
equality is semantic equality: {pi^j} and {pi^j * e^(pi/2)} are linearly
independent over the rationals, so canonical coefficients (trailing
zeros trimmed, zero normalized) decide everything.

Addition is only defined between operands with the same ``exp_scale``
(the mixed sum is not an element of either ring); callers that need a
mixed combination evaluate to an :class:`~ellipmono.intervals.Interval`
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

from .intervals import Interval
from .constants import enclose_constant

__all__ = ["PiExpression"]

_Rat = Union[int, Fraction]


@dataclass(frozen=True)
class PiExpression:
    """``sum_j coeffs[j] * pi**j``, times ``e**(pi/2)`` if ``exp_scale``."""

    coeffs: tuple[Fraction, ...] = ()
    exp_scale: bool = False

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)
        if not cs:
            object.__setattr__(self, "exp_scale", False)

    # ------------------------------------------------------------------
    @classmethod
    def from_rational(cls, q: _Rat, exp_scale: bool = False) -> "PiExpression":
        return cls((Fraction(q),), exp_scale)

    @classmethod
    def zero(cls) -> "PiExpression":
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree in pi (-1 for the zero expression)."""
        return len(self.coeffs) - 1

    # ------------------------------------------------------------------
    # ring operations

    def _check_scale(self, other: "PiExpression") -> bool:
        if self.is_zero:
            return other.exp_scale
        if other.is_zero:
            return self.exp_scale
        if self.exp_scale != other.exp_scale:
            raise ValueError(
                "cannot add expressions with different exp_scale; "
                "evaluate to intervals instead")
        return self.exp_scale

    def __add__(self, other: "PiExpression") -> "PiExpression":
        scale = self._check_scale(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return PiExpression(tuple(x + y for x, y in zip(a, b)), scale)

    def __neg__(self) -> "PiExpression":
        return PiExpression(tuple(-c for c in self.coeffs), self.exp_scale)

    def __sub__(self, other: "PiExpression") -> "PiExpression":
        return self + (-other)

    def scale(self, q: _Rat) -> "PiExpression":
        q = Fraction(q)
        if q == 0:
            return PiExpression.zero()
        return PiExpression(tuple(c * q for c in self.coeffs), self.exp_scale)

    def __mul__(self, q):
        if isinstance(q, (int, Fraction)):
            return self.scale(q)
        if isinstance(q, PiExpression):
            if self.is_zero or q.is_zero:
                return PiExpression.zero()
            if self.exp_scale and q.exp_scale:
                raise ValueError(
                    "product would carry exp(pi); outside the coefficient ring")
            prod = [Fraction(0)] * (len(self.coeffs) + len(q.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(q.coeffs):
                    prod[i + j] += a * b
            return PiExpression(tuple(prod), self.exp_scale or q.exp_scale)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, q: _Rat) -> "PiExpression":
        return self.scale(Fraction(1, 1) / Fraction(q))

    def mul_pi(self, power: int = 1) -> "PiExpression":
        """Multiply by pi**power (shift coefficients)."""
        if self.is_zero:
            return self
        return PiExpression((Fraction(0),) * power + self.coeffs, self.exp_scale)

    # ------------------------------------------------------------------
    # evaluation

    def _numerators(self) -> tuple[list[int], int]:
        """Integer numerators of the coefficients over their least common
        denominator, and that denominator."""
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

    def evaluate(self, precision: int) -> Interval:
        """Certified enclosure at the given precision.

        Horner runs on the exact integer numerators, so only the
        enclosure of pi (and of e^(pi/2)) carries error, and the one
        division by the common denominator comes last.  A degree-d
        polynomial multiplies the error of pi at most d times, which the
        ``len(nums).bit_length()`` extra working bits absorb.
        """
        if self.is_zero:
            return Interval(0, 0, precision)
        if len(self.coeffs) == 1 and not self.exp_scale:
            return Interval.from_fraction(self.coeffs[0], precision)
        nums, den = self._numerators()
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
        if self.is_zero:
            return "0"
        nums, den = self._numerators()
        terms = []
        for j in range(len(nums) - 1, -1, -1):
            n = nums[j]
            if n == 0:
                continue
            if j == 0:
                mono = ""
            elif j == 1:
                mono = "pi"
            else:
                mono = f"pi^{j}"
            if mono:
                coeff = "" if n == 1 else ("-" if n == -1 else f"{n}*")
                terms.append(f"{coeff}{mono}")
            else:
                terms.append(f"{n}")
        body = " + ".join(terms).replace("+ -", "- ")
        if len(terms) > 1 and den != 1:
            body = f"({body})"
        if den != 1:
            body = f"{body}/{den}"
        if self.exp_scale:
            if len(terms) > 1 and den == 1:
                body = f"({body})"
            body = f"{body} * exp(pi/2)"
        return body

    def __str__(self) -> str:
        return self.render()
