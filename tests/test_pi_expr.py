"""Exact pi-polynomial values: ring laws, canonical form, evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from ellipmono.certify import j_quotient_coefficients
from ellipmono.coefficients import threshold
from ellipmono.pi_expr import PiExpression
from ellipmono.intervals import Interval

F = Fraction


def test_canonical_trailing_zeros_trimmed():
    e = PiExpression((F(1), F(2), F(0), F(0)))
    assert e.coeffs == (F(1), F(2))
    assert e.degree == 1


def test_zero_normalizes_scale():
    z = PiExpression((F(0),), exp_scale=True)
    assert z.is_zero and not z.exp_scale
    assert z == PiExpression()
    z = PiExpression((0, 0), exp_scale=True, den=7)
    assert (z.nums, z.den, z.exp_scale) == ((), 1, False)


def test_of_and_equality():
    assert PiExpression.of(F(3, 4)) == PiExpression((F(3, 4),))
    assert PiExpression.of(4) == PiExpression((4,))
    scaled = PiExpression((0, 1), exp_scale=True)
    assert PiExpression.of(scaled) is scaled
    assert PiExpression((0, 1)) == PiExpression((F(0), F(1)))


def test_addition_same_scale():
    a = PiExpression((F(1), F(2)))
    b = PiExpression((F(3), F(0), F(1)))
    assert (a + b).coeffs == (F(4), F(2), F(1))


def test_addition_mixed_scale_raises():
    plain = PiExpression((F(1),))
    scaled = PiExpression((F(1),), exp_scale=True)
    with pytest.raises(ValueError):
        plain + scaled
    # adding zero is always allowed
    assert (scaled + PiExpression()) == scaled


def test_scalar_ops():
    a = PiExpression((F(1), F(2)), exp_scale=True)
    assert a.scale(F(1, 2)).coeffs == (F(1, 2), F(1))
    assert a.scale(2).coeffs == (F(2), F(4))
    assert (-a).coeffs == (F(-1), F(-2))
    assert (a - a).is_zero
    # a rational factor goes through scale: * and / take no rational
    for op in (lambda: a * F(1, 2), lambda: 2 * a, lambda: a / 2):
        with pytest.raises((AttributeError, TypeError)):
            op()


def test_product_of_expressions():
    # (1 + pi)(2 + pi) = 2 + 3 pi + pi^2
    a = PiExpression((F(1), F(1)))
    b = PiExpression((F(2), F(1)))
    assert (a * b).coeffs == (F(2), F(3), F(1))


def test_product_scale_rules():
    plain = PiExpression((F(0), F(1)))
    scaled = PiExpression((F(1),), exp_scale=True)
    assert (plain * scaled).exp_scale
    with pytest.raises(ValueError):
        scaled * scaled
    assert (scaled * PiExpression()).is_zero


def test_mul_pi_shifts():
    # the product with pi^k shifts the coefficients k places up
    a = PiExpression((F(2), F(3)))
    assert (a * PiExpression((0, 1))).coeffs == (F(0), F(2), F(3))
    assert (a * PiExpression((0, 0, 1))).coeffs == (F(0), F(0), F(2), F(3))


def test_render():
    e = PiExpression((F(0), F(150, 3072), F(27, 3072), F(1, 3072)),
                     exp_scale=True)
    assert e.render() == "(pi^3 + 27*pi^2 + 150*pi)/3072 * exp(pi/2)"
    assert PiExpression((F(1),), exp_scale=True).render() == "1 * exp(pi/2)"
    assert PiExpression((F(-3), F(1))).render() == "pi - 3"
    assert PiExpression((1, 1), True).render() == "(pi + 1) * exp(pi/2)"
    assert PiExpression().render() == "0"
    assert str(PiExpression((F(1, 4),))) == "1/4"


def test_evaluate_plain_rational_is_point():
    iv = PiExpression((F(5, 8),)).evaluate(64)
    assert iv.lo == iv.hi and iv.mid() == F(5, 8)
    # a constant takes the Horner path too; its floors and ceilings by
    # powers of two compose to the tightest enclosure, from_fraction's
    for q in (F(5, 8), F(1, 3), F(-7, 5), F(2, 3 ** 50), F(-10 ** 30 - 1, 7)):
        for precision in (1, 2, 7, 64, 333):
            iv = PiExpression.of(q).evaluate(precision)
            ref = Interval.from_fraction(q, precision)
            assert (iv.lo, iv.hi, iv.prec) == (ref.lo, ref.hi, ref.prec)


def test_evaluate_contains_oracle():
    mp.prec = 300
    # pi^2/6 = 1.644934066848226436472415...
    e = PiExpression((F(0), F(0), F(1, 6)))
    iv = e.evaluate(160)
    lo = mpf(iv.lo) / mpf(2) ** iv.prec
    hi = mpf(iv.hi) / mpf(2) ** iv.prec
    assert lo <= mp.pi ** 2 / 6 <= hi
    # (pi/8) e^{pi/2} = 1.889070050037577230183290742...
    e = PiExpression((F(0), F(1, 8)), exp_scale=True)
    assert abs(e.evaluate(160).mid()
               - F("1.889070050037577230183290742441")) < F(1, 10 ** 29)


def mp_value(e):
    """Value of e in the current mpmath precision."""
    total = mpf(0)
    for j, c in enumerate(e.coeffs):
        total += mpf(c.numerator) / c.denominator * mp.pi ** j
    return total * mp.exp(mp.pi / 2) if e.exp_scale else total


def assert_encloses(e, iv, ref_bits):
    """iv contains the value of e, computed by mpmath at ref_bits bits
    (its own error is padded away)."""
    with mp.workprec(ref_bits):
        ref = mp_value(e)
        size = sum(abs(mpf(c.numerator) / c.denominator) * 4 ** j
                   for j, c in enumerate(e.coeffs)) * 5 + 1
        pad = size * mpf(2) ** (40 - ref_bits)
        lo = mpf(iv.lo) / mpf(2) ** iv.prec
        hi = mpf(iv.hi) / mpf(2) ** iv.prec
        assert lo - pad <= ref <= hi + pad


@pytest.mark.parametrize("precision", [64, 128, 256])
def test_evaluate_keeps_requested_bits_thresholds(precision):
    # threshold(k) has degree k in pi: per-coefficient rounding lost about
    # log2(pi) bits per degree; Horner on the integer numerators does not
    for k in range(66):
        iv = threshold(k).evaluate(precision)
        assert iv.prec == precision and iv.hi - iv.lo <= 4, k
        assert_encloses(threshold(k), iv, 4 * precision + 200)


def test_evaluate_keeps_requested_bits_quotient():
    for k, q in enumerate(j_quotient_coefficients(100)):
        iv = q.evaluate(128)
        assert iv.hi - iv.lo <= 4, k
        assert_encloses(q, iv, 800)


_coefficient = st.tuples(st.integers(-2 ** 200, 2 ** 200),
                         st.integers(1, 2 ** 80))


@settings(max_examples=150)
@given(terms=st.lists(_coefficient, min_size=1, max_size=30),
       exp_scale=st.booleans(), precision=st.integers(8, 320))
def test_evaluate_contains_random_polynomials(terms, exp_scale, precision):
    e = PiExpression(tuple(F(n, d) for n, d in terms), exp_scale)
    iv = e.evaluate(precision)
    assert iv.prec == precision
    assert_encloses(e, iv, 2000)


def test_evaluate_zero_is_exact():
    iv = PiExpression().evaluate(96)
    assert iv.lo == iv.hi and iv.mid() == 0


def test_structural_equality_is_semantic():
    # {pi^j} and {pi^j e^{pi/2}} are independent over Q, so equal values
    # must have identical coefficient tuples
    a = PiExpression((F(1, 3), F(2)))
    b = PiExpression((F(2, 6), F(2)))
    assert a == b and hash(a) == hash(b)
    assert a != PiExpression((F(1, 3), F(2)), exp_scale=True)


# ----------------------------------------------------------------------
# canonical form: integer numerators over one least common denominator

def lcm_numerators(coeffs):
    """Integer numerators of reduced rational coefficients over their
    least common denominator, and that denominator (the lcm form the
    renderer used to rebuild from Fraction coefficients)."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


_rational = st.fractions(min_value=-10 ** 12, max_value=10 ** 12,
                         max_denominator=10 ** 9)


@settings(max_examples=300)
@given(coeffs=st.lists(_rational, max_size=12), exp_scale=st.booleans())
def test_canonical_form_is_the_lcm_form(coeffs, exp_scale):
    e = PiExpression(tuple(coeffs), exp_scale)
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    assert (e.nums, e.den) == lcm_numerators(trimmed)
    assert all(type(c) is int for c in e.nums) and e.den > 0
    assert math.gcd(e.den, *e.nums) == 1
    assert e.coeffs == tuple(trimmed)
    assert PiExpression(e.coeffs, exp_scale) == e
    assert e.exp_scale == (exp_scale and bool(trimmed))


@settings(max_examples=200)
@given(nums=st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=10),
       den=st.integers(1, 10 ** 20))
def test_integer_numerators_over_den(nums, den):
    e = PiExpression(tuple(nums), den=den)
    assert e == PiExpression(tuple(F(c, den) for c in nums))
    assert e.coeffs == tuple(F(c, den) for c in nums)[:e.degree + 1]


def test_den_and_rational_construction_agree():
    a = PiExpression((2, 4), den=6)
    b = PiExpression((F(1, 3), F(2, 3)))
    assert a == b and hash(a) == hash(b)
    assert (a.nums, a.den) == ((1, 2), 3)


@pytest.mark.parametrize("den", [0, -3])
def test_nonpositive_den_raises(den):
    with pytest.raises(ValueError):
        PiExpression((1, 2), den=den)
