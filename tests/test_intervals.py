"""Containment and directed-rounding tests for the interval core.

mpmath (at a much higher working precision than the intervals under
test) serves as the independent oracle for the transcendental kernels.
"""

import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from ellipmono import intervals
from ellipmono.intervals import BudgetError, DomainError, Interval


def mp_value(iv):
    """Exact mpf endpoints of an interval (mp.prec must exceed bit sizes)."""
    lo = mpf(iv.lo) / mpf(2) ** iv.prec
    hi = mpf(iv.hi) / mpf(2) ** iv.prec
    return lo, hi


def assert_contains_mp(iv, oracle):
    lo, hi = mp_value(iv)
    assert lo <= oracle <= hi, (lo, oracle, hi)


def test_constructor_rejects_empty_and_zero_precision():
    with pytest.raises(ValueError, match="empty interval"):
        Interval(1, 0, 5)
    with pytest.raises(DomainError, match="precision 0 is below one bit"):
        Interval(0, 0, 0)


def test_from_fraction_outward_and_tight():
    iv = Interval.from_fraction(Fraction(1, 3), 16)
    assert iv.lo_fraction() <= Fraction(1, 3) <= iv.hi_fraction()
    assert iv.width() <= Fraction(1, 1 << 16)


def test_exact_dyadic_is_point():
    iv = Interval.from_fraction(Fraction(3, 8), 8)
    assert iv.lo == iv.hi
    assert iv.lo_fraction() == Fraction(3, 8)


def test_from_int():
    iv = Interval.from_int(7, 32)
    assert iv.lo == iv.hi and iv.mid() == 7


def test_arithmetic_containment_random():
    # seeded property check: interval results contain the exact rationals
    rng = random.Random(20240817)
    for _ in range(300):
        a = Fraction(rng.randint(-400, 400), rng.randint(1, 97))
        b = Fraction(rng.randint(-400, 400), rng.randint(1, 97))
        prec = rng.choice((24, 53, 96))
        ia = Interval.from_fraction(a, prec)
        ib = Interval.from_fraction(b, prec)
        assert (ia + ib).contains(a + b)
        assert (ia - ib).contains(a - b)
        assert (ia * ib).contains(a * b)
        assert ia.square().contains(a * a)
        if not ib.contains(0):
            assert (ia / ib).contains(a / b)


def test_square_straddling_zero_starts_at_zero():
    sq = Interval(-3, 5, 2).square()  # [-3/4, 5/4]^2 = [0, 25/16]
    assert (sq.lo, sq.hi, sq.prec) == (0, 7, 2)


def test_operators_take_only_intervals():
    # a rational enters through from_int, from_fraction or mul_scalar
    iv = Interval.from_fraction(Fraction(1, 3), 32)
    for op in (lambda: iv + 1, lambda: iv - Fraction(1, 2),
               lambda: iv * 2, lambda: 2 * iv, lambda: iv / 3,
               lambda: 1 / iv):
        with pytest.raises((AttributeError, TypeError)):
            op()


# ints and Fractions of both signs, the two kinds of rational a caller passes
RATIONALS = st.one_of(st.integers(-(1 << 200), 1 << 200),
                      st.fractions(max_denominator=1 << 100))


@settings(max_examples=300)
@given(q=RATIONALS, prec=st.integers(1, 300))
def test_from_fraction_is_the_floor_and_ceil_of_the_scaled_rational(q, prec):
    iv = Interval.from_fraction(q, prec)
    scaled = Fraction(q) * (1 << prec)
    assert (iv.lo, iv.hi, iv.prec) == (math.floor(scaled),
                                       math.ceil(scaled), prec)


@settings(max_examples=300)
@given(q=RATIONALS, prec=st.integers(1, 300), data=st.data())
def test_mul_scalar_is_the_floor_and_ceil_of_the_endpoint_products(q, prec,
                                                                   data):
    ends = st.integers(-(1 << (prec + 8)), 1 << (prec + 8))
    lo, hi = sorted((data.draw(ends), data.draw(ends)))
    iv = Interval(lo, hi, prec).mul_scalar(q)
    prods = sorted((lo * Fraction(q), hi * Fraction(q)))
    assert (iv.lo, iv.hi, iv.prec) == (math.floor(prods[0]),
                                       math.ceil(prods[1]), prec)


def test_mul_scalar_exact_rational():
    iv = Interval.from_fraction(Fraction(1, 3), 64)
    scaled = iv.mul_scalar(Fraction(-7, 5))
    assert scaled.contains(Fraction(-7, 15))
    assert scaled.width() <= 2 * iv.width()


def test_division_by_zero_spanning_interval():
    num = Interval.from_int(1, 32)
    den = Interval(-1, 1, 32)
    with pytest.raises(DomainError):
        num / den


def test_recip():
    iv = Interval.from_fraction(Fraction(4, 7), 64)
    assert iv.recip().contains(Fraction(7, 4))
    # the bits of 1 / iv with 1 taken at the interval's own precision
    rng = random.Random(20261020)
    for _ in range(200):
        prec = rng.choice((2, 24, 53, 96))
        lo = rng.randint(1, 1 << (prec + 4))
        iv = Interval(lo, lo + rng.randint(0, 1 << prec), prec)
        for x in (iv, -iv):
            r, q = x.recip(), Interval.from_fraction(1, prec) / x
            assert (r.lo, r.hi, r.prec) == (q.lo, q.hi, q.prec)


def test_sqrt_contains_and_domain():
    iv = Interval.from_fraction(Fraction(2), 80)
    mp.prec = 200
    assert_contains_mp(iv.sqrt(), mp.sqrt(2))
    assert Interval.from_int(9, 40).sqrt().contains(3)
    with pytest.raises(DomainError):
        Interval.from_int(-1, 40).sqrt()


def test_exp_budget_guard():
    # e^(2^21) has about 3.0e6 bits, past the 2^20-bit budget
    with pytest.raises(BudgetError):
        Interval.from_int(1 << 21, 64).exp()


def test_exp_budget_guard_past_the_float_range():
    # 1.5 * 2^1100 overflows a float; the guard stays in integers
    with pytest.raises(BudgetError):
        Interval.from_int(1 << 1100, 1).exp()


@pytest.mark.parametrize("x", [Fraction(-3), Fraction(-1, 4), Fraction(0),
                               Fraction(1, 3), Fraction(2), Fraction(7, 2)])
def test_exp_contains_mpmath(x):
    mp.prec = 400
    iv = Interval.from_fraction(x, 192).exp()
    assert_contains_mp(iv, mp.exp(mpf(x.numerator) / x.denominator))
    assert iv.width() <= Fraction(1, 1 << 160)


@pytest.mark.parametrize("x", [Fraction(1, 1000), Fraction(1, 3),
                               Fraction(999999, 1000000), Fraction(1),
                               Fraction(3, 2), Fraction(2), Fraction(10 ** 6)])
def test_ln_contains_mpmath(x):
    # includes arguments just below 1, where the series iterate is negative
    mp.prec = 400
    iv = Interval.from_fraction(x, 192).ln()
    assert_contains_mp(iv, mp.ln(mpf(x.numerator) / x.denominator))
    assert iv.width() <= Fraction(1, 1 << 160)


FAR_EXP = [Fraction(-700), Fraction(-100), Fraction(100), Fraction(700)]
FAR_LN = [Fraction(2) ** 1000, Fraction(2) ** -1000,
          3 * Fraction(2) ** 1000, 3 * Fraction(2) ** -1000]


@pytest.mark.parametrize("p", [1024, 4160, 8256])
def test_exp_ln_contain_mpmath_far_out(p):
    # past the |x| <= 64, 400-bit reach of the random tests; 3 * 2^k runs
    # ln's series, a power of two only its ln 2 part.  A fixed-point e^x
    # holds its error relative to e^x: e^700 has 1010 integer bits, so its
    # width is bounded relative to the value where that exceeds 1
    cases = ([(Interval.exp, mp.exp, x) for x in FAR_EXP]
             + [(Interval.ln, mp.ln, x) for x in FAR_LN])
    for kernel, fn, x in cases:
        iv = kernel(Interval.from_fraction(x, p))
        with mp.workprec(p + 1200):
            want = mp_fraction(fn(mpf(x.numerator) / x.denominator))
        assert iv.lo_fraction() <= want <= iv.hi_fraction(), x
        scale = max(1, want) if fn is mp.exp else 1
        assert iv.width() <= Fraction(4, 1 << p) * scale, x


def test_exp_of_a_wide_interval_sums_its_upper_end():
    # e^-700 is far below an ulp at 64 bits, so the bound e^a (1 + t + t^2)
    # would pass the size rule, but it holds only for t = b - a <= 1
    iv = Interval(-700 << 64, -10 << 64, 64).exp()
    with mp.workprec(400):
        assert iv.hi_fraction() >= mp_fraction(mp.exp(-10))


LN_ARGS = [Fraction(1, 1000), Fraction(1, 3), Fraction(999999, 1000000),
           Fraction(1), Fraction(2), Fraction(10 ** 6)]


def test_ln_bits_do_not_depend_on_the_ln2_cache():
    # ln 2 at each working scale is memoized; each ln on a cold cache, on
    # a warm one, and the uncached kernel give the same bits
    cases = [(x, p) for p in (16, 53, 128, 333) for x in LN_ARGS]

    def reading(x, p):
        iv = Interval.from_fraction(x, p).ln()
        return iv.lo, iv.hi, iv.prec

    cold = []
    for x, p in cases:
        intervals._ln2_fp.cache_clear()
        cold.append(reading(x, p))
    warm = [reading(x, p) for x, p in cases]
    assert intervals._ln2_fp.cache_info().hits >= len(cases)
    assert warm == cold
    for p in (16, 53, 128, 333):
        W = p + intervals._GUARD
        assert intervals._ln2_fp(W) == intervals._ln2_fp.__wrapped__(W)


def test_ln_exp_roundtrip():
    iv = Interval.from_fraction(Fraction(5, 3), 128)
    assert iv.exp().ln().contains(Fraction(5, 3))


def test_ln_domain_error():
    with pytest.raises(DomainError):
        Interval.from_int(0, 32).ln()
    with pytest.raises(DomainError):
        Interval(-1, 1, 32).ln()


def test_exp_ln_known_values():
    # ln 2 = 0.693147180559945309417232121458...
    iv = Interval.from_int(2, 160).ln()
    assert abs(iv.mid() - Fraction("0.693147180559945309417232121458")) \
        < Fraction(1, 10 ** 30)
    # e = 2.718281828459045235360287471352...
    iv = Interval.from_int(1, 160).exp()
    assert abs(iv.mid() - Fraction("2.718281828459045235360287471352")) \
        < Fraction(1, 10 ** 30)


def test_round_to_coarser_encloses():
    iv = Interval.from_fraction(Fraction(1, 3), 128)
    coarse = iv.round_to(40)
    assert coarse.encloses(iv)
    fine = coarse.round_to(128)  # exact rescale, no tightening
    assert fine.encloses(iv)


def test_width_shrinks_with_precision():
    w64 = Interval.from_fraction(Fraction(1, 3), 64).exp().width()
    w128 = Interval.from_fraction(Fraction(1, 3), 128).exp().width()
    assert w128 < w64


def test_intersect_hull():
    a = Interval.from_fraction(Fraction(1, 4), 32)
    b = Interval.from_fraction(Fraction(1, 3), 32)
    h = a.hull(b)
    assert h.contains(Fraction(1, 4)) and h.contains(Fraction(1, 3))
    assert h.encloses(a) and h.encloses(b)


def test_neg():
    iv = Interval(-(3 << 32), 1 << 32, 32)  # [-3, 1]
    assert (-iv).lo_fraction() == -1
    assert (-iv).hi_fraction() == 3
    assert (-iv).contains(2)


def test_to_decimal_format():
    s = Interval.from_fraction(Fraction(1, 3), 96).to_decimal(10)
    assert s.startswith("0.3333333333 ")
    assert "±" in s
    point = Interval.from_int(2, 32).to_decimal(4)
    assert point.startswith("2.0000")
    assert Interval(0, 40, 2).to_decimal(0) == "5 ± 5.0e+0"
    assert Interval(0, 400, 1).to_decimal(0) == "100 ± 1.0e+2"
    # radius 317/32 = 9.90625 rounds up to 10: the mantissa moves a decade
    assert Interval(0, 317, 4).to_decimal(2) == "9.91 ± 1.0e+1"


RADIUS = re.compile(r"^[1-9]\.[0-9]e[+-][0-9]+$")


@settings(max_examples=200)
@given(prec=st.integers(1, 8192), lo=st.integers(-(1 << 80), 1 << 80),
       width=st.integers(1, 1 << 80))
def test_radius_is_a_tight_upper_bound_at_any_precision(prec, lo, width):
    iv = Interval(lo, lo + width, prec)
    text = iv.to_decimal(3).split(" ± ")[1]
    assert RADIUS.match(text), text
    assert iv.rad() <= Fraction(text) < Fraction(11, 10) * iv.rad()


def test_radius_exponent_at_each_power_of_ten():
    up = intervals._fraction_to_decimal_up
    for e in range(-700, 701):
        ten = Fraction(10) ** e
        nudge = Fraction(10) ** (e - 40)
        assert up(ten, 2) == f"1.0e{e:+d}"
        assert up(ten + nudge, 2) == f"1.1e{e:+d}"
        # 9.99...e(e-1) rounds up to 10e(e-1) and moves a decade
        assert up(ten - nudge, 2) == f"1.0e{e:+d}"
        assert up(ten - nudge, 3) == f"1.00e{e:+d}"
        assert up(ten * 99 / 100, 2) == f"9.9e{e - 1:+d}"


def test_equality_and_hash_follow_the_endpoints():
    assert (Interval.from_int(1, 8) == 1) is False
    assert Interval(2, 2, 1) == Interval(4, 4, 2)
    assert hash(Interval(2, 2, 1)) == hash(Interval(4, 4, 2))


def test_to_decimal_rejects_negative_digits():
    with pytest.raises(ValueError):
        Interval.from_int(2, 32).to_decimal(-1)


def test_pad_ulp_grows_both_sides():
    iv = Interval.from_int(1, 32)
    padded = iv.pad_ulp(2)
    assert padded.encloses(iv)
    assert padded.width() == Fraction(4, 1 << 32)



# ----------------------------------------------------------------------
# exp, ln and sqrt on random dyadic intervals against mpmath


@st.composite
def dyadic_intervals(draw, top, low, max_prec=400):
    """Interval [lo, hi] * 2^-prec, prec in 1..max_prec, with integer ends
    of varied bit length in [low, 2^(prec+top)] (low None: its negative)."""
    prec = draw(st.integers(1, max_prec))
    ends = []
    for _ in range(2):
        bits = draw(st.integers(0, prec + top))
        least = -(1 << bits) if low is None else low
        ends.append(draw(st.integers(least, 1 << bits)))
    return Interval(min(ends), max(ends), prec)


def mp_fraction(v):
    """The exact value of an mpf (``man_exp`` drops the sign)."""
    man, exp = v.man_exp
    return (-1 if v < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def assert_image_contains_mp(iv, image, fn):
    # fn is monotone, so its values at the two ends span the image
    for end in (iv.lo_fraction(), iv.hi_fraction()):
        with mp.workprec(iv.prec + 200):
            want = mp_fraction(fn(mpf(end.numerator) / end.denominator))
        assert image.lo_fraction() <= want <= image.hi_fraction(), end


@settings(max_examples=200)
@given(dyadic_intervals(top=6, low=None))
def test_exp_contains_mpmath_on_random_intervals(iv):
    assert_image_contains_mp(iv, iv.exp(), mp.exp)


@settings(max_examples=200)
@given(dyadic_intervals(top=64, low=1))
def test_ln_contains_mpmath_on_random_intervals(iv):
    assert_image_contains_mp(iv, iv.ln(), mp.ln)


@settings(max_examples=200)
@given(dyadic_intervals(top=64, low=0))
def test_sqrt_contains_mpmath_on_random_intervals(iv):
    assert_image_contains_mp(iv, iv.sqrt(), mp.sqrt)


# ----------------------------------------------------------------------
# the exact operators on random dyadic intervals: each end is the floor or
# the ceiling of the exact extreme, which is containment and tightness

OPERANDS = dyadic_intervals(top=8, low=None, max_prec=300)


def assert_tight(result, extremes, prec):
    scale = 1 << prec
    assert (result.lo, result.hi, result.prec) == (
        math.floor(min(extremes) * scale), math.ceil(max(extremes) * scale),
        prec)


def ends(iv):
    return iv.lo_fraction(), iv.hi_fraction()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
@settings(max_examples=200)
@given(x=OPERANDS, y=OPERANDS)
def test_binary_operators_are_the_floor_and_ceil_of_the_exact_extremes(
        op, x, y):
    # each operator is monotone in each operand, so the corners span it
    if op is operator.truediv and y.lo <= 0 <= y.hi:
        return  # a divisor holding 0 raises; see the test above
    extremes = [op(a, b) for a in ends(x) for b in ends(y)]
    assert_tight(op(x, y), extremes, max(x.prec, y.prec))


@pytest.mark.parametrize("name", ["neg", "recip", "square"])
@settings(max_examples=200)
@given(x=OPERANDS)
def test_unary_operators_are_the_floor_and_ceil_of_the_exact_extremes(
        name, x):
    a, b = ends(x)
    if name == "neg":
        result, extremes = -x, [-a, -b]
    elif name == "recip":
        if a <= 0 <= b:
            return
        result, extremes = x.recip(), [1 / a, 1 / b]
    else:  # x^2 falls to 0 inside an interval straddling 0
        result, extremes = x.square(), [a * a, b * b] + [0] * (a < 0 < b)
    assert_tight(result, extremes, x.prec)


@settings(max_examples=200)
@given(x=OPERANDS, prec=st.integers(1, 300))
def test_round_to_is_the_floor_and_ceil_of_the_ends(x, prec):
    # coarser rounds outward; finer (and equal) is exact
    assert_tight(x.round_to(prec), ends(x), prec)


@settings(max_examples=200)
@given(x=OPERANDS, y=OPERANDS)
def test_hull_is_the_floor_and_ceil_of_the_outer_ends(x, y):
    assert_tight(x.hull(y), ends(x) + ends(y), max(x.prec, y.prec))
