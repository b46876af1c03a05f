"""Certified evaluation of the complete elliptic integral and relatives.

Everything here returns :class:`~ellipmono.intervals.Interval` enclosures.
The integral of the first kind is evaluated through the
arithmetic-geometric mean,

    K(m) = pi / (2 * AGM(1, sqrt(1-m)))      (m the parameter, m = r^2),

whose iterates bracket the limit from both sides, so outward-rounded
iteration gives a rigorous enclosure at any m in [0, 1).  The same loop
gives the integral of the second kind, E = K (1 - sum_{n>=0} 2^(n-1) c_n^2)
with c_0^2 = m and c_{n+1} = (a_n - b_n)/2 (Gauss-Legendre).

Gauss series F(a,b;c;x) for the four parameter triples that occur in the
coefficient work are summed term by term, each term the previous one
times the exact rational term ratio, with an explicit geometric tail
bound (:class:`SeriesEval`).  Both loops, the AGM and the series, run on
the bare integer endpoints at the work scale with the directed rounding
of :class:`Interval` arithmetic, so they give the enclosures the same
loops over ``Interval`` objects would, bit for bit.  The series slow down
and lose bits as x -> 1, so g, g0 and G do not read them: one reader,
:func:`_gauss`, gives all three the closed forms of their triples in K
and E from one AGM run per point, with more work bits near both ends of
[0, 1).  ``hyp_series`` and ``lt_check`` stay series-only, so
``lt_check`` cross-checks the closed forms.

The exponential series exp(K(sqrt(x))) = sum b_n x^n is the table's
``exp_partial_sum`` plus a tail below e^(pi/2) sum_{n>N} W_n x^n, summed
on integers.
That bound needs no sign claim about the b_n: it follows from

    exp(K(sqrt(x))) = e^(pi/2) exp((pi/2) sum_{k>=1} W_k^2 x^k)

and W_k^2 < 1/(pi k), so the inner series is dominated coefficientwise by
sum x^k/(2k) = -ln(1-x)/2, and b_n <= e^(pi/2) W_n.

K, the pair (K, E), exp(K) and r' = sqrt(1 - x) are memoized by the
type and value of (m, precision) in bounded typed LRU caches, so a float
never meets an equal Fraction's entry; an ``Interval`` m is memoized by
value.  alpha and beta once per precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Optional

from .intervals import Interval, DomainError, _exact, _isqrt_ceil
from .constants import enclose_constant
from .coefficients import C_REC, _next, shared_coefficients

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


@lru_cache(maxsize=4096, typed=True)
def _rprime(x: Fraction, precision: int) -> Interval:
    """Enclosure of r' = sqrt(1 - x) at ``precision`` bits."""
    return Interval.from_fraction(1 - x, precision).sqrt()


# ----------------------------------------------------------------------
# AGM

def _log2_inv(d: Fraction) -> int:
    """ceil(log2(1/d)) for a rational d in (0, 1]."""
    inv_ceil = -(-d.denominator // d.numerator)  # 2^k >= 1/d iff 2^k >= this
    return (inv_ceil - 1).bit_length()


def _near_one_bits(m: Fraction, precision: int) -> int:
    """Bits that widen the AGM's work scale precision + _GUARD at m near 1,
    L = ceil(log2(1/(1-m))): L - precision, so that 1 - m keeps its leading
    bits, and, for a 1 - m not exact at that scale, at least L - 24, since
    K magnifies its rounding about 2^L times (8 guard bits are left)."""
    if m >= 1:
        return 0
    d = 1 - m
    L = _log2_inv(d)
    bits = max(0, L - precision)
    if (d * (1 << (precision + _GUARD))).denominator != 1:
        bits = max(bits, L - (_GUARD - 8))
    return bits


def _agm_arg(m, precision: int) -> Interval:
    """m at the AGM's work scale: precision + _GUARD, widened near 1 for a
    rational m (:func:`_near_one_bits`); an ``Interval`` m is rounded."""
    if isinstance(m, Interval):
        mi = m.round_to(precision + _GUARD)
    else:
        m = _exact(m)
        mi = Interval.from_fraction(
            m, precision + _GUARD + _near_one_bits(m, precision))
    if mi.lo < 0 or mi.hi >= 1 << mi.prec:
        raise DomainError("parameter m must lie in [0, 1)")
    return mi


def _agm(mi: Interval) -> tuple[Interval, list[tuple[int, int]]]:
    """Enclosure of AGM(1, sqrt(1 - m)) at the scale of ``mi``, and the
    integer bounds (lo, hi) of each gap a_n - b_n the loop read.

    The iterates run on the integer endpoints at that scale: the
    arithmetic mean is a floor/ceil shift and the geometric mean takes
    floor/ceil square roots of the shifted endpoint products, the same
    directed rounding as ``Interval`` arithmetic.  The loop stops once
    a_n - b_n is below 2^-(work-24), or after 64 means; the gap of the
    last pair is recorded too.
    """
    work = mi.prec
    one = 1 << work
    # sqrt(t * 2^-work) = sqrt(t * 2^work) * 2^-work; endpoints stay >= 0
    a_lo = a_hi = one
    b_lo = isqrt((one - mi.hi) << work)
    b_hi = _isqrt_ceil((one - mi.lo) << work)
    target = 1 << (_GUARD - 8)  # gap below 2^-(work-24), in work ulps
    gaps = [(a_lo - b_hi, a_hi - b_lo)]
    for _ in range(64):
        if gaps[-1][1] <= target:
            break
        p_lo = (a_lo * b_lo) >> work
        p_hi = -((-(a_hi * b_hi)) >> work)
        a_lo, a_hi = (a_lo + b_lo) >> 1, -((-(a_hi + b_hi)) >> 1)
        b_lo, b_hi = isqrt(p_lo << work), _isqrt_ceil(p_hi << work)
        gaps.append((a_lo - b_hi, a_hi - b_lo))
    return Interval(min(b_lo, a_lo), max(a_hi, b_hi), work), gaps


def _legendre_sum(mi: Interval, gaps: list[tuple[int, int]]) -> Interval:
    """Enclosure of S = sum_{n>=0} 2^(n-1) c_n^2, c_0^2 = m and
    c_{n+1} = (a_n - b_n)/2, at the scale of ``mi``, from the AGM's gaps:
    E = K (1 - S).  The terms 2^(n-2) (a_n - b_n)^2 are summed exactly at
    scale 2^(2 work + 2) from the gap bounds, a_n - b_n >= 0 on the lower
    end.  The tail after the last gap N is at most term N: b_{n+1} >= b_n
    gives a_{n+1} - b_{n+1} <= (a_n - b_n)/2, so each later term is at
    most half the one before it."""
    work = mi.prec
    s_lo, s_hi = mi.lo << (work + 1), mi.hi << (work + 1)   # m/2
    for n, (lo, hi) in enumerate(gaps):
        s_lo += max(0, lo) ** 2 << n
        s_hi += hi ** 2 << n
    s_hi += gaps[-1][1] ** 2 << (len(gaps) - 1)             # the tail
    return Interval(s_lo >> (work + 2), -(-s_hi >> (work + 2)), work)


def _K_of(agm: Interval) -> Interval:
    """pi / (2 AGM) at the scale of ``agm``."""
    pi = enclose_constant("pi", agm.prec)
    return (pi * agm.recip()).mul_scalar(Fraction(1, 2))


@lru_cache(maxsize=4096, typed=True)
def agm_K_m(m, precision: int) -> Interval:
    """Enclosure of K as a function of the parameter m in [0, 1).

    The AGM runs on integer endpoints (:func:`_agm`); a rational m near 1
    widens the work scale (:func:`_near_one_bits`) so that K keeps
    ``precision`` bits whether or not 1 - m is exact there.
    """
    agm, _ = _agm(_agm_arg(m, precision))
    return _K_of(agm).round_to(precision)


@lru_cache(maxsize=4096, typed=True)
def _agm_KE(m, precision: int) -> tuple[Interval, Interval]:
    """Enclosures of K and of the complete integral of the second kind E
    at the parameter m in [0, 1), both from one AGM loop at the work scale
    of :func:`agm_K_m` (so K has its bits): E = K (1 - S) (Borwein &
    Borwein, *Pi and the AGM*, ch. 1)."""
    mi = _agm_arg(m, precision)
    agm, gaps = _agm(mi)
    K = _K_of(agm)
    E = K * (Interval.from_int(1, mi.prec) - _legendre_sum(mi, gaps))
    return K.round_to(precision), E.round_to(precision)


def agm_K(r, precision: int) -> Interval:
    """Enclosure of K at modulus r in [0, 1)."""
    rf = _exact(r)
    if not 0 <= rf < 1:
        raise DomainError("modulus r must lie in [0, 1)")
    return agm_K_m(rf * rf, precision)


@lru_cache(maxsize=2048, typed=True)
def exp_K_agm(m, precision: int) -> Interval:
    """Enclosure of exp(K) at parameter m, via AGM plus interval exp."""
    return agm_K_m(m, precision + 8).exp().round_to(precision)


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
    triple = tuple(_exact(t) for t in kind)
    if triple not in HYP_KINDS.values():
        raise DomainError(f"unsupported parameter triple {kind!r}")
    return triple


def _tail_ratio_ints(A: int, B: int, C: int, L: int, n: int,
                     xn: int, xd: int) -> tuple[int, int]:
    """(qn, qd) with qn/qd = max(r_n, 1) * xn/xd, r_k = (a+k)(b+k) /
    ((c+k)(1+k)) the term ratio at (a, b, c) = (A, B, C)/L; the L^2 of
    r_n cancels, and max(r_n, 1) is max(num, den)/den.

    max(r_n, 1) bounds sup_{k>=n} r_k for the triples in HYP_KINDS:
    r_k - 1 = (alpha k + beta)/((c+k)(1+k)) with alpha = a+b-c-1 and
    beta = ab-c sharing a sign, so r_k - 1 keeps one sign, and |r_k - 1|
    decreases for k^2 > c (the derivative's numerator is
    |alpha|(c - k^2) - |beta|(c+1+2k)).  The tests check both facts
    exactly for k <= 4096.
    """
    Ln = L * n
    num, den = (A + Ln) * (B + Ln), (C + Ln) * (L + Ln)
    return max(num, den) * xn, den * xd


def hyp_series(kind, x, precision: int,
               max_terms: Optional[int] = None) -> SeriesEval:
    """Sum F(a,b;c;x) for a supported triple with a certified tail.

    ``x`` must be an exact rational in [0, 1).  The terms run on integer
    endpoints at the work scale: with L the lcm of the denominators of
    a, b and c, term n+1 is term n times (La+Ln)(Lb+Ln) x_num over
    (Lc+Ln)(L+Ln) x_den, floored on the lower end and ceiled on the upper
    end, the directed rounding of ``Interval.mul_scalar`` by the exact
    term ratio.  The tail after the last summed term is bounded
    geometrically by the supremum of the term ratio, so the returned
    enclosure is rigorous however early the sum stops; ``max_terms``
    merely caps the work.  Near 1 the cap shows: at x = 99/100 and 128
    bits the default cap of 2048 terms keeps 37, 47, 29.7 and 35.9 bits
    of the value (hh1, hh2, 3h3h2, 3h3h3).  g, g0 and G read the closed
    forms instead (:func:`_gauss`).
    """
    a, b, c = _hyp_params(kind)
    xf = _exact(x)
    if not 0 <= xf < 1:
        raise DomainError("series argument must lie in [0, 1)")
    if max_terms is not None and max_terms < 0:
        raise DomainError(f"max_terms={max_terms} is negative")
    work = precision + _GUARD
    cap = max_terms if max_terms is not None else max(256, 16 * precision)
    L = lcm(a.denominator, b.denominator, c.denominator)
    A, B, C = int(L * a), int(L * b), int(L * c)
    xn, xd = xf.numerator, xf.denominator
    lo = hi = 1 << work                # the current term
    total_lo = total_hi = lo
    n = 0
    while True:
        Ln = L * n
        num = (A + Ln) * (B + Ln) * xn
        den = (C + Ln) * (L + Ln) * xd
        lo = lo * num // den
        hi = -(-hi * num // den)
        n += 1
        if n >= cap or n % 16 == 0 or n < 16:
            qn, qd = _tail_ratio_ints(A, B, C, L, n, xn, xd)
            if qn < qd:
                # certified tail t_n <= tail <= t_n/(1 - q), q = qn/qd
                if n >= cap or hi * qd <= 4 * (qd - qn):  # 4 ulps
                    tail = Interval(lo, -(-hi * qd // (qd - qn)), work)
                    break
            elif n >= cap:
                raise DomainError(
                    "term-ratio bound not below 1 within the term cap; "
                    "increase max_terms or reduce x")
        total_lo += lo
        total_hi += hi
    partial = Interval(total_lo, total_hi, work)
    return SeriesEval(terms_used=n, partial=partial.round_to(precision),
                      tail_bound=tail.round_to(precision))


# ----------------------------------------------------------------------
# exp(K) power series

def exp_K(x, precision: int, n_terms: Optional[int] = None) -> SeriesEval:
    """Sum exp(K(sqrt(x))) = sum b_n x^n with a certified tail.

    The tail uses 0 <= sum_{n>N} b_n x^n <= e^(pi/2) (1/sqrt(1-x) -
    sum_{n<=N} W_n x^n), valid because b_n <= e^(pi/2) W_n for every n
    (see the module docstring); the upper end of the e^(pi/2) enclosure
    stands in for the constant.  The Wallis sums are integers over
    scale = (4 x_den)^n, so the stop test and the tail run on integers.
    The partial sum is the coefficient table's ``exp_partial_sum``.
    """
    xf = _exact(x)
    if not 0 <= xf < 1:
        raise DomainError("series argument must lie in [0, 1)")
    if n_terms is not None and n_terms < 0:
        raise DomainError(f"n_terms={n_terms} is negative")
    work = precision + _GUARD
    ehp = enclose_constant("exp_half_pi", work)
    sup = _rprime(xf, work).recip()
    cap = n_terms if n_terms is not None else max(128, 8 * precision)
    # exact partial sums of the Wallis series: S_n = sum_{k<=n} W_k x^k
    num, den = xf.numerator, xf.denominator
    wal = scale = binom = xpow = 1   # S_n = wal / scale
    n = 0                            # n_terms = 0 sums b_0 alone
    for n in range(1, cap + 1):
        binom = _next(C_REC, n - 1, (binom,))
        xpow *= num
        wal = wal * 4 * den + binom * xpow
        scale *= 4 * den
        if n % 32 == 0 or xf == 0:
            # stop once e^(pi/2) (sup - S_n) <= 4 ulps on the lower end of
            # sup, itself a few ulps wide (its upper end would never pass);
            # the tail below uses the upper end (the gap is 0 at x = 0)
            gap = sup.lo * scale - (wal << work)
            if ehp.hi * gap <= scale << (ehp.prec + 2):
                break
    gap = max(0, sup.hi * scale - (wal << work))
    tail = Interval(0, -(-ehp.hi * gap // (scale << ehp.prec)), work)
    partial = shared_coefficients().exp_partial_sum(xf, n, precision)
    return SeriesEval(terms_used=n + 1, partial=partial,
                      tail_bound=tail.round_to(precision))


# ----------------------------------------------------------------------
# derived functionals

def _gauss(x, precision: int, *kinds: str
           ) -> tuple[Fraction, int, list[Interval]]:
    """x, checked to lie in [0, 1), the work scale of g, g0 and G, and
    F(a,b;c;x) at that scale for each named triple: 1 at x = 0, else the
    closed forms in K and E (DLMF 15.4, 19.8),

        F(1/2,1/2;2;x) = 4 (E - (1-x) K) / (pi x)
        F(3/2,3/2;2;x) = F(1/2,1/2;2;x) / (1-x)
        F(3/2,3/2;3;x) = 16 ((2-x) K - 2 E) / (pi x^2)

    at precision + 16 + ceil(log2(1/(1-x))) + 2 ceil(log2(1/x)) bits:
    pi F(1/2,1/2;2;x) - 4 tends to 0 as x -> 1, and as x -> 0 the forms
    divide by x and x^2 differences that vanish with them.
    """
    xf = _exact(x)
    if not 0 <= xf < 1:
        raise DomainError("series argument must lie in [0, 1)")
    work = precision + 16
    if xf == 0:
        return xf, work, [Interval.from_int(1, work) for _ in kinds]
    work += _log2_inv(1 - xf) + 2 * _log2_inv(xf)
    K, E = _agm_KE(xf, work)
    pi = enclose_constant("pi", work)

    def form(kind: str) -> Interval:
        if kind == "3h3h3":
            return (K.mul_scalar(2 - xf) - E.mul_scalar(2)).mul_scalar(
                16 / xf ** 2) / pi
        hh2 = (E - K.mul_scalar(1 - xf)).mul_scalar(4 / xf) / pi
        return hh2 if kind == "hh2" else hh2.mul_scalar(1 / (1 - xf))
    return xf, work, [form(kind) for kind in kinds]


def g_eval(x, precision: int) -> Interval:
    """Enclosure of g = F(3/2,3/2;3;x) + pi F(3/2,3/2;2;x) F(1/2,1/2;2;x)
    - 4 F(3/2,3/2;2;x), the generating function of the v-sequence."""
    xf, work, (A, B, C) = _gauss(x, precision, "3h3h3", "3h3h2", "hh2")
    pi = enclose_constant("pi", work)
    return (A + pi * B * C - B.mul_scalar(4)).round_to(precision)


def g0_eval(x, precision: int) -> Interval:
    """Enclosure of g0 = (1-x) F(3/2,3/2;3;x) + pi F(1/2,1/2;2;x)^2
    - 4 F(1/2,1/2;2;x), the generating function of the u-sequence."""
    xf, work, (A, C) = _gauss(x, precision, "3h3h3", "hh2")
    pi = enclose_constant("pi", work)
    return (A.mul_scalar(1 - xf) + pi * C.square()
            - C.mul_scalar(4)).round_to(precision)


def G_eval(x, precision: int) -> Interval:
    """Enclosure of G = (pi/8 F(1/2,1/2;2;x) - 1/2) exp(K(sqrt(x)));
    its derivative is (pi/64) exp(K(sqrt(x))) g(x)."""
    xf, work, (C,) = _gauss(x, precision, "hh2")
    pi = enclose_constant("pi", work)
    factor = pi.mul_scalar(Fraction(1, 8)) * C - Interval.from_fraction(
        Fraction(1, 2), work)
    return (factor * _agm_KE(xf, work)[0].exp()).round_to(precision)


def _g4(x: Fraction, work: int) -> Interval:
    """exp(K(sqrt(x))) - 4/sqrt(1-x) from ``work`` bits, not yet rounded;
    4/sqrt(1-x) magnifies the rounding of 1 - x about 2^(3L/2) times,
    L = ceil(log2(1/(1-x))), so both terms take ceil(3L/2) more bits."""
    if not 0 <= x < 1:
        raise DomainError("x = r^2 must lie in [0, 1)")
    work += (3 * _log2_inv(1 - x) + 1) // 2
    return exp_K_agm(x, work) - _rprime(x, work).recip().mul_scalar(4)


def G4_eval(x, precision: int) -> Interval:
    """Enclosure of exp(K(sqrt(x))) - 4/sqrt(1-x)."""
    return _g4(_exact(x), precision + 16).round_to(precision)


def H_eval(x, precision: int) -> Interval:
    """Enclosure of H(x) = (G4(x) - G4(1-x)) / (1 - 2x) = ekd / (1 - 2x)."""
    xf = _exact(x)
    if xf == Fraction(1, 2):
        raise DomainError("H is evaluated away from the symmetry point 1/2")
    work = precision + 16
    return ekd_eval(xf, work).mul_scalar(1 / (1 - 2 * xf)).round_to(precision)


def ekd_eval(x, precision: int) -> Interval:
    """Enclosure of exp(K(r)) - exp(K(r')) + 4/r - 4/r' at x = r^2,
    = G4(x) - G4(1 - x); r = sqrt(x) is r' at 1 - x."""
    work = precision + 16
    xf = _exact(x)
    if not 0 < xf < 1:
        raise DomainError("x = r^2 must lie in (0, 1)")
    return (_g4(xf, work) - _g4(1 - xf, work)).round_to(precision)


def asymptotic_defect(m, precision: int) -> Interval:
    """Enclosure of K - ln(4/sqrt(1-m)) at parameter m (tends to
    pi/2 - ln 4 as m -> 0 and to 0 as m -> 1); ln(1 - m) is taken from the
    AGM's own argument at its widened work scale (:func:`_agm_arg`), so the
    defect keeps ``precision`` bits."""
    work = precision + 16
    mf = _exact(m)
    K = agm_K_m(mf, work)
    ln2 = enclose_constant("ln2", work)
    mi = _agm_arg(mf, work)
    lnc = (Interval.from_int(1, mi.prec) - mi).ln().round_to(work)
    return (K - ln2.mul_scalar(2) + lnc.mul_scalar(Fraction(1, 2))
            ).round_to(precision)


@lru_cache(maxsize=16)
def alpha_enclosure(precision: int) -> Interval:
    """Enclosure of exp(pi/2) - 4, the limit of H at 0+ and 1-."""
    work = precision + 8
    return (enclose_constant("exp_half_pi", work)
            - Interval.from_int(4, work)).round_to(precision)


@lru_cache(maxsize=16)
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
    a, b, c = _hyp_params((a, b, c))
    xf = _exact(x)
    work = precision + 16
    lhs = hyp_series((a, b, c), xf, work).enclosure
    rhs = hyp_series((c - a, c - b, c), xf, work).enclosure
    factor = Interval.from_fraction((1 - xf) ** int(c - a - b), work)
    return (lhs - factor * rhs).round_to(precision)
