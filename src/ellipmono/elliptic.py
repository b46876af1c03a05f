"""Certified evaluation of the complete elliptic integral and relatives.

Everything here returns :class:`~ellipmono.intervals.Interval` enclosures.
The integral of the first kind is evaluated through the
arithmetic-geometric mean,

    K(m) = pi / (2 * AGM(1, sqrt(1-m)))      (m the parameter, m = r^2),

whose iterates bracket the limit from both sides, so outward-rounded
iteration gives a rigorous enclosure at any m in [0, 1).

Gauss series F(a,b;c;x) for the four parameter triples that occur in the
coefficient work are summed with exact rational term ratios and an
explicit geometric tail bound (:class:`SeriesEval`).  The exponential
series exp(K(sqrt(x))) = sum b_n x^n is summed from the certified
coefficient table with the tail dominated by e^(pi/2) sum_{n>N} W_n x^n.
That bound needs no sign claim about the b_n: it follows from

    exp(K(sqrt(x))) = e^(pi/2) exp((pi/2) sum_{k>=1} W_k^2 x^k)

and W_k^2 < 1/(pi k), so the inner series is dominated coefficientwise by
sum x^k/(2k) = -ln(1-x)/2, and b_n <= e^(pi/2) W_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import Interval, DomainError
from .constants import enclose_constant
from .coefficients import shared_coefficients

__all__ = [
    "SeriesEval",
    "agm_K_m",
    "agm_K",
    "exp_K_agm",
    "hyp_series",
    "HYP_KINDS",
    "exp_K",
    "g_eval",
    "g0_eval",
    "G_eval",
    "G4_eval",
    "H_eval",
    "ekd_eval",
    "asymptotic_defect",
    "alpha_enclosure",
    "beta_enclosure",
    "lt_check",
]

_GUARD = 32


@dataclass(frozen=True)
class SeriesEval:
    """A partial sum together with a certified tail enclosure."""

    terms_used: int
    partial: Interval
    tail_bound: Interval

    @property
    def enclosure(self) -> Interval:
        return self.partial + self.tail_bound


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# ----------------------------------------------------------------------
# AGM

def agm_K_m(m, precision: int) -> Interval:
    """Enclosure of K as a function of the parameter m in [0, 1)."""
    work = precision + _GUARD
    if isinstance(m, Interval):
        mi = m.round_to(work)
    else:
        mi = Interval.from_fraction(_as_fraction(m), work)
    if mi.lo_fraction() < 0 or mi.hi_fraction() >= 1:
        raise DomainError("parameter m must lie in [0, 1)")
    one = Interval.from_int(1, work)
    a = one
    b = (one - mi).sqrt()
    target = 1 << (_GUARD - 8)  # gap below 2^-(precision+8) in work ulps
    for _ in range(64):
        if a.hi - b.lo <= target:
            break
        a, b = (a + b).mul_scalar(Fraction(1, 2)), (a * b).sqrt()
    agm = Interval(min(b.lo, a.lo), max(a.hi, b.hi), work)
    pi = enclose_constant("pi", work)
    return (pi * agm.recip()).mul_scalar(Fraction(1, 2)).round_to(precision)


def agm_K(r, precision: int) -> Interval:
    """Enclosure of K at modulus r in [0, 1)."""
    rf = _as_fraction(r)
    if rf < 0:
        raise DomainError("modulus r must lie in [0, 1)")
    return agm_K_m(rf * rf, precision)


def exp_K_agm(m, precision: int) -> Interval:
    """Enclosure of exp(K) at parameter m, via AGM plus interval exp."""
    work = precision + 8
    return agm_K_m(m, work).exp().round_to(precision)


# ----------------------------------------------------------------------
# Gauss series

# the supported Gauss series by name: (a, b, c) of 2F1(a, b; c; x)
HYP_KINDS = {
    "hh1": (Fraction(1, 2), Fraction(1, 2), Fraction(1)),
    "hh2": (Fraction(1, 2), Fraction(1, 2), Fraction(2)),
    "3h3h2": (Fraction(3, 2), Fraction(3, 2), Fraction(2)),
    "3h3h3": (Fraction(3, 2), Fraction(3, 2), Fraction(3)),
}


def _hyp_params(kind) -> tuple[Fraction, Fraction, Fraction]:
    if isinstance(kind, str):
        try:
            return HYP_KINDS[kind]
        except KeyError:
            raise DomainError(f"unsupported series kind {kind!r}") from None
    a, b, c = (Fraction(t) for t in kind)
    for name, (ka, kb, kc) in HYP_KINDS.items():
        if (a, b, c) == (ka, kb, kc):
            return ka, kb, kc
    raise DomainError(f"unsupported parameter triple {kind!r}")


def _sup_tail_ratio(a: Fraction, b: Fraction, c: Fraction, n: int) -> Fraction:
    """sup_{k>=n} (a+k)(b+k)/((c+k)(1+k)) for the supported triples."""
    here = (a + n) * (b + n) / ((c + n) * (1 + n))
    return max(here, Fraction(1))


def hyp_series(kind, x, precision: int,
               max_terms: Optional[int] = None) -> SeriesEval:
    """Sum F(a,b;c;x) for a supported triple with a certified tail.

    ``x`` must be an exact rational in [0, 1).  The tail after the last
    summed term is bounded geometrically by the supremum of the term
    ratio, so the returned enclosure is rigorous however early the sum
    stops; ``max_terms`` merely caps the work.
    """
    a, b, c = _hyp_params(kind)
    xf = _as_fraction(x)
    if not 0 <= xf < 1:
        raise DomainError("series argument must lie in [0, 1)")
    work = precision + _GUARD
    cap = max_terms if max_terms is not None else max(256, 16 * precision)
    term = Interval.from_int(1, work)
    total = term
    n = 0
    tol = 4  # work-scale ulps
    while True:
        ratio = (a + n) * (b + n) / ((c + n) * (1 + n)) * xf
        nxt = term.mul_scalar(ratio)
        n += 1
        if xf == 0 or nxt.hi == 0:
            tail = Interval(0, 0, work)
            break
        q = _sup_tail_ratio(a, b, c, n) * xf
        if q < 1 and (n >= cap or (n % 16 == 0 or n < 16)):
            # certified tail: t_n <= tail <= t_n / (1 - q)
            tail_hi = nxt.hi_fraction() / (1 - q)
            if n >= cap or tail_hi <= Fraction(tol, 1 << work):
                tail = Interval.hull_of_fractions(
                    max(nxt.lo_fraction(), Fraction(0)), tail_hi, work)
                break
        if q >= 1 and n >= cap:
            raise DomainError(
                "term-ratio bound not below 1 within the term cap; "
                "increase max_terms or reduce x")
        term = nxt
        total = total + nxt
    return SeriesEval(terms_used=n, partial=total.round_to(precision),
                      tail_bound=tail.round_to(precision))


# ----------------------------------------------------------------------
# exp(K) power series

def exp_K(x, precision: int, n_terms: Optional[int] = None) -> SeriesEval:
    """Sum exp(K(sqrt(x))) = sum b_n x^n with a certified tail.

    The tail uses 0 <= sum_{n>N} b_n x^n <= e^(pi/2) (1/sqrt(1-x) -
    sum_{n<=N} W_n x^n), valid because b_n <= e^(pi/2) W_n for every n
    (see the module docstring); the upper end of the e^(pi/2) enclosure
    stands in for the constant.
    """
    xf = _as_fraction(x)
    if not 0 <= xf < 1:
        raise DomainError("series argument must lie in [0, 1)")
    work = precision + _GUARD
    table = shared_coefficients()
    ehp = enclose_constant("exp_half_pi", work)
    ehp_hi = ehp.hi_fraction()
    sup = (Interval.from_int(1, work)
           - Interval.from_fraction(xf, work)).sqrt().recip()
    cap = n_terms if n_terms is not None else max(128, 8 * precision)
    tol = Fraction(4, 1 << work)
    # exact partial sums of the Wallis series: S_n = sum_{k<=n} W_k x^k
    num, den = xf.numerator, xf.denominator
    wal_num, wal_den = 1, 1          # S_n = wal_num / wal_den
    binom, xpow = 1, 1
    n = 1
    while True:
        binom = binom * 2 * (2 * n - 1) // n
        xpow *= num
        wal_num = wal_num * 4 * den + binom * xpow
        wal_den *= 4 * den
        if n >= cap:
            break
        if n % 32 == 0 or xf == 0:
            # stop on the lower end of sup: sup is itself a few ulps
            # wide, so a test on its upper end would never pass; the
            # tail below still uses the upper end
            gap = sup.lo_fraction() - Fraction(wal_num, wal_den)
            if ehp_hi * gap <= tol or xf == 0:
                break
        n += 1
    terms = n
    tail_hi = ehp_hi * (sup.hi_fraction() - Fraction(wal_num, wal_den))
    tail = Interval.hull_of_fractions(Fraction(0), max(tail_hi, Fraction(0)),
                                      work)
    btilde = table.btilde_enclosures(terms, work)
    horner = btilde[terms]
    for k in range(terms - 1, -1, -1):
        horner = horner.mul_scalar(xf) + btilde[k]
    partial = horner * ehp
    return SeriesEval(terms_used=terms + 1, partial=partial.round_to(precision),
                      tail_bound=tail.round_to(precision))


# ----------------------------------------------------------------------
# derived functionals

def g_eval(x, precision: int) -> Interval:
    """Enclosure of g = F(3/2,3/2;3;x) + pi F(3/2,3/2;2;x) F(1/2,1/2;2;x)
    - 4 F(3/2,3/2;2;x), the generating function of the v-sequence."""
    work = precision + 16
    A = hyp_series("3h3h3", x, work).enclosure
    B = hyp_series("3h3h2", x, work).enclosure
    C = hyp_series("hh2", x, work).enclosure
    pi = enclose_constant("pi", work)
    return (A + pi * B * C - B.mul_scalar(4)).round_to(precision)


def g0_eval(x, precision: int) -> Interval:
    """Enclosure of g0 = (1-x) F(3/2,3/2;3;x) + pi F(1/2,1/2;2;x)^2
    - 4 F(1/2,1/2;2;x), the generating function of the u-sequence."""
    work = precision + 16
    xf = _as_fraction(x)
    A = hyp_series("3h3h3", xf, work).enclosure
    C = hyp_series("hh2", xf, work).enclosure
    pi = enclose_constant("pi", work)
    return (A.mul_scalar(1 - xf) + pi * C.square()
            - C.mul_scalar(4)).round_to(precision)


def G_eval(x, precision: int) -> Interval:
    """Enclosure of G = (pi/8 F(1/2,1/2;2;x) - 1/2) exp(K(sqrt(x)));
    its derivative is (pi/64) exp(K(sqrt(x))) g(x)."""
    work = precision + 16
    xf = _as_fraction(x)
    C = hyp_series("hh2", xf, work).enclosure
    pi = enclose_constant("pi", work)
    factor = pi.mul_scalar(Fraction(1, 8)) * C - Interval.from_fraction(
        Fraction(1, 2), work)
    return (factor * exp_K_agm(xf, work)).round_to(precision)


def G4_eval(x, precision: int) -> Interval:
    """Enclosure of exp(K(sqrt(x))) - 4/sqrt(1-x)."""
    work = precision + 16
    xf = _as_fraction(x)
    inv = (Interval.from_int(1, work)
           - Interval.from_fraction(xf, work)).sqrt().recip()
    return (exp_K_agm(xf, work) - inv.mul_scalar(4)).round_to(precision)


def H_eval(x, precision: int) -> Interval:
    """Enclosure of H(x) = (G4(x) - G4(1-x)) / (1 - 2x), x != 1/2."""
    xf = _as_fraction(x)
    if xf == Fraction(1, 2):
        raise DomainError("H is evaluated away from the symmetry point 1/2")
    work = precision + 16
    diff = G4_eval(xf, work) - G4_eval(1 - xf, work)
    return diff.mul_scalar(1 / (1 - 2 * xf)).round_to(precision)


def ekd_eval(x, precision: int) -> Interval:
    """Enclosure of exp(K(r)) - exp(K(r')) + 4/r - 4/r' at x = r^2."""
    work = precision + 16
    xf = _as_fraction(x)
    if not 0 < xf < 1:
        raise DomainError("x = r^2 must lie in (0, 1)")
    rx = Interval.from_fraction(xf, work).sqrt()
    ry = Interval.from_fraction(1 - xf, work).sqrt()
    return (exp_K_agm(xf, work) - exp_K_agm(1 - xf, work)
            + rx.recip().mul_scalar(4)
            - ry.recip().mul_scalar(4)).round_to(precision)


def asymptotic_defect(m, precision: int) -> Interval:
    """Enclosure of K - ln(4/sqrt(1-m)) at parameter m (tends to
    pi/2 - ln 4 as m -> 0 and to 0 as m -> 1)."""
    work = precision + 16
    mf = _as_fraction(m)
    if not 0 <= mf < 1:
        raise DomainError("parameter m must lie in [0, 1)")
    K = agm_K_m(mf, work)
    ln2 = enclose_constant("ln2", work)
    lnc = Interval.from_fraction(1 - mf, work).ln()
    return (K - ln2.mul_scalar(2) + lnc.mul_scalar(Fraction(1, 2))
            ).round_to(precision)


def alpha_enclosure(precision: int) -> Interval:
    """Enclosure of exp(pi/2) - 4, the limit of H at 0+ and 1-."""
    work = precision + 8
    return (enclose_constant("exp_half_pi", work)
            - Interval.from_int(4, work)).round_to(precision)


def beta_enclosure(precision: int) -> Interval:
    """Enclosure of 4 sqrt(2) - Gamma(3/4)^2/sqrt(pi)
    * exp(Gamma(1/4)^2/(4 sqrt(pi))), the midpoint value of H."""
    work = precision + 16
    g14 = enclose_constant("gamma_quarter", work)
    g34 = enclose_constant("gamma_three_quarter", work)
    spi = enclose_constant("sqrt_pi", work)
    s2 = enclose_constant("sqrt_two", work)
    expo = (g14.square() * spi.mul_scalar(4).recip()).exp()
    return (s2.mul_scalar(4) - g34.square() * spi.recip() * expo
            ).round_to(precision)


# ----------------------------------------------------------------------
# Euler-transformation residuals

def lt_check(a, b, c, x, precision: int) -> Interval:
    """Residual F(a,b;c;x) - (1-x)^(c-a-b) F(c-a,c-b;c;x) for supported
    triples; a correct implementation encloses zero."""
    af, bf, cf = Fraction(a), Fraction(b), Fraction(c)
    _hyp_params((af, bf, cf))          # validate the source triple
    ta, tb = cf - af, cf - bf
    _hyp_params((ta, tb, cf))          # transformed triple must be supported
    work = precision + 16
    xf = _as_fraction(x)
    lhs = hyp_series((af, bf, cf), xf, work).enclosure
    rhs = hyp_series((ta, tb, cf), xf, work).enclosure
    expo = cf - af - bf
    if expo == 0:
        factor = Interval.from_int(1, work)
    else:
        base = Interval.from_fraction(1 - xf, work)
        k = int(expo)
        if k != expo:
            raise DomainError("only integer transformation exponents occur")
        factor = base.pow_int(k) if k >= 0 else base.pow_int(-k).recip()
    return (lhs - factor * rhs).round_to(precision)
