"""Certified-constant table: oracle containment and nesting discipline.

Every named constant is checked against mpmath at a working precision
far above the enclosure under test, plus a handful of frozen decimal
pins so a wholesale oracle mix-up cannot slip through.
"""

import concurrent.futures
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from ellipmono import constants, intervals
from ellipmono.constants import (_GENERATORS, _PAD, CONSTANT_NAMES,
                                 ConstantTable, enclose_constant,
                                 shared_table)
from ellipmono.intervals import DomainError, Interval

# 30-digit pins (mpmath, dps=45, truncated)
PINS = {
    "pi": Fraction("3.141592653589793238462643383279"),
    "ln2": Fraction("0.693147180559945309417232121458"),
    "sqrt_two": Fraction("1.414213562373095048801688724209"),
    "sqrt_pi": Fraction("1.772453850905516027298167483341"),
    "exp_half_pi": Fraction("4.810477380965351655473035666703"),
    "gamma_quarter": Fraction("3.625609908221908311930685155867"),
    "gamma_three_quarter": Fraction("1.225416702465177645129098303362"),
}


def mp_oracle(name):
    mp.prec = 500
    return {
        "pi": mp.pi,
        "ln2": mp.ln(2),
        "sqrt_two": mp.sqrt(2),
        "sqrt_pi": mp.sqrt(mp.pi),
        "exp_half_pi": mp.exp(mp.pi / 2),
        "gamma_quarter": mp.gamma(mpf(1) / 4),
        "gamma_three_quarter": mp.gamma(mpf(3) / 4),
    }[name]


@pytest.mark.parametrize("name", CONSTANT_NAMES)
def test_contains_mp_oracle(name):
    iv = enclose_constant(name, 256)
    oracle = mp_oracle(name)
    lo = mpf(iv.lo) / mpf(2) ** iv.prec
    hi = mpf(iv.hi) / mpf(2) ** iv.prec
    assert lo <= oracle <= hi


@pytest.mark.parametrize("name", sorted(PINS))
def test_decimal_pins(name):
    iv = enclose_constant(name, 192)
    assert abs(iv.mid() - PINS[name]) < Fraction(1, 10 ** 29)


@pytest.mark.parametrize("name", CONSTANT_NAMES)
@pytest.mark.parametrize("precision", [64, 128, 333])
def test_width_bound(name, precision):
    iv = enclose_constant(name, precision)
    assert iv.width() <= Fraction(4, 1 << precision)


def test_nesting_coarse_encloses_fine():
    table = ConstantTable()
    coarse = table.enclose("pi", 80)
    fine = table.enclose("pi", 160)
    mid = table.enclose("pi", 120)
    again = table.enclose("pi", 80)
    assert coarse.encloses(mid) and mid.encloses(fine)
    assert coarse.encloses(again) and again.encloses(fine)


def test_nesting_fine_first():
    table = ConstantTable()
    fine = table.enclose("exp_half_pi", 200)
    coarse = table.enclose("exp_half_pi", 90)
    assert coarse.encloses(fine)
    # adjacent precisions queried out of order
    a = table.enclose("exp_half_pi", 141)
    b = table.enclose("exp_half_pi", 140)
    assert b.encloses(a)


def test_exp_half_pi_consistent_with_interval_exp():
    # independent route: exp of the pi enclosure halved
    direct = enclose_constant("exp_half_pi", 160)
    via_exp = enclose_constant("pi", 200).mul_scalar(Fraction(1, 2)).exp()
    assert direct.overlaps(via_exp)


def test_gamma_reflection():
    # Gamma(1/4) * Gamma(3/4) = pi * sqrt(2)
    prec = 160
    product = (enclose_constant("gamma_quarter", prec)
               * enclose_constant("gamma_three_quarter", prec))
    rhs = enclose_constant("pi", prec) * enclose_constant("sqrt_two", prec)
    assert product.overlaps(rhs)
    assert product.width() < Fraction(1, 1 << 140)


def test_sqrt_constants_square_back():
    two = enclose_constant("sqrt_two", 160).square()
    assert two.contains(2)
    pi_sq = enclose_constant("sqrt_pi", 160).square()
    assert pi_sq.overlaps(enclose_constant("pi", 160))


def test_unknown_name_raises():
    with pytest.raises(DomainError, match="unknown constant 'feigenbaum'; "
                       "known: exp_half_pi, gamma_quarter"):
        enclose_constant("feigenbaum", 64)


def test_enclose_constant_reads_the_shared_table():
    table = shared_table()
    assert table is shared_table() and isinstance(table, ConstantTable)
    assert enclose_constant("pi", 88) is table.enclose("pi", 88)


def test_threaded_queries_stay_nested():
    table = ConstantTable()
    precisions = [64, 96, 128, 72, 160, 80, 144] * 3
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as ex:
        results = list(ex.map(lambda p: (p, table.enclose("pi", p)),
                              precisions))
    for p1, iv1 in results:
        alone = ConstantTable().enclose("pi", p1)
        assert (iv1.lo, iv1.hi, iv1.prec) == (alone.lo, alone.hi, alone.prec)
        for p2, iv2 in results:
            if p1 < p2:
                assert iv1.encloses(iv2)


# ----------------------------------------------------------------------
# one computation per (name, precision): answers do not depend on history

def test_a_float_precision_never_reads_an_int_answer():
    # (name, 64.0) and (name, 64) are equal keys; the typed cache keeps
    # them apart, so the float raises whatever was asked before
    table = ConstantTable()
    with pytest.raises(TypeError):
        table.enclose("pi", 64.0)
    table.enclose("pi", 64)
    with pytest.raises(TypeError):
        table.enclose("pi", 64.0)


@settings(max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(CONSTANT_NAMES),
                          st.integers(2, 400)), min_size=1, max_size=10))
def test_answers_do_not_depend_on_the_order_of_requests(requests):
    table = ConstantTable()
    got = [(name, precision, table.enclose(name, precision))
           for name, precision in requests]
    for name, precision, iv in got:
        alone = ConstantTable().enclose(name, precision)
        assert (iv.lo, iv.hi, iv.prec) == (alone.lo, alone.hi, precision + 3)
        assert iv.width() <= Fraction(4, 1 << precision)
    for name, p1, coarse in got:
        for other, p2, fine in got:
            if name == other and p1 <= p2:
                assert coarse.encloses(fine)


@pytest.mark.parametrize("name", CONSTANT_NAMES)
def test_generator_width_premise_and_adjacent_nesting(name):
    # nesting by construction rests on each generator's width at P + 16
    # being below 2^-(P+3); adjacent nesting for every P then chains
    table = ConstantTable()
    previous = table.enclose(name, 1)
    for precision in range(2, 601):
        iv = _GENERATORS[name](precision + _PAD)
        assert iv.width() < Fraction(1, 1 << (precision + 3))
        answer = table.enclose(name, precision)
        assert previous.encloses(answer)
        previous = answer


# ----------------------------------------------------------------------
# one arctangent kernel for pi and ln 2, against the loops it replaced

def machin_pi_oracle(prec):
    """The former ``_machin_pi``, with its nested ``atan_inv``."""
    W = prec + _PAD

    def atan_inv(q):
        s = 0
        k = 0
        p = (1 << W) // q
        q2 = q * q
        while True:
            t = p // (2 * k + 1)
            if t == 0:
                break
            s += -t if (k & 1) else t
            p //= q2
            k += 1
        return s, k + 1

    a5, e5 = atan_inv(5)
    a239, e239 = atan_inv(239)
    s = 16 * a5 - 4 * a239
    err = 16 * e5 + 4 * e239
    return Interval(s - err, s + err, W).round_to(prec)


def ln2_oracle(W):
    """The former body of ``intervals._ln2_fp``."""
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


@pytest.mark.parametrize("P", [1, 2, 7, 64, 128, 333, 1024, 4096])
def test_arctangent_kernel_keeps_the_bits_of_pi_and_ln2(P):
    got, want = constants._machin_pi(P), machin_pi_oracle(P)
    assert (got.lo, got.hi, got.prec) == (want.lo, want.hi, want.prec)
    assert intervals._ln2_fp.__wrapped__(P) == ln2_oracle(P)


@settings(max_examples=100)
@given(st.integers(1, 3000))
def test_arctangent_kernel_encloses_pi_and_ln2(W):
    pi = constants._machin_pi(W)
    lo, hi = intervals._ln2_fp(W)
    with mp.workprec(W + 200):
        pi_man, pi_exp = (+mp.pi).man_exp
        ln2_man, ln2_exp = (+mp.ln2).man_exp
    assert pi.lo_fraction() <= pi_man * Fraction(2) ** pi_exp \
        <= pi.hi_fraction()
    assert lo <= ln2_man * Fraction(2) ** (ln2_exp + W) <= hi
