"""Coefficient tables against independent oracles.

The production code builds b_n through an integer-polynomial recurrence
and u_n/v_n through a three-term integer recurrence; the oracles here
recompute both from their defining formulas (plain Fractions, or the
integer convolution that defines P_n) and compare exactly, then pin a few decimal values computed separately (mpmath,
dps=45).
"""

import decimal
import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest

import ellipmono.coefficients as coefficients
from ellipmono.coefficients import (
    CoefficientTable,
    b_coeff,
    c_coeff,
    c_exact,
    ratio,
    ratio_gap,
    shared_coefficients,
    threshold,
    u_coeff,
    v_coeff,
    wallis,
)
from ellipmono.constants import enclose_constant
from ellipmono.intervals import DomainError, Interval
from ellipmono.pi_expr import PiExpression

F = Fraction

# mpmath oracle pins (dps=45, truncated to 30 digits)
B1 = F("1.889070050037577230183290742441")
RATIO1 = F("3.778140100075154460366581484883")
RATIO2 = F("3.822719840275458469067997196209")
C1_OF_4 = F("-0.110929949962422769816709257558")
V1 = F("0.176990816987241548078304229099")
EXP_HALF_PI = F("4.810477380965351655473035666703")
TOL = F(1, 10 ** 28)


def wallis_by_comb(n):
    return F(math.comb(2 * n, n), 4 ** n)


def wallis_by_double_factorial(n):
    num = den = 1
    for k in range(1, n + 1):
        num *= 2 * k - 1
        den *= 2 * k
    return F(num, den)


@pytest.mark.parametrize("n", range(0, 40))
def test_wallis_three_forms_agree(n):
    w = wallis(n)
    assert w == wallis_by_comb(n) == wallis_by_double_factorial(n)


def test_b_closed_forms_exact():
    assert b_coeff(0) == PiExpression((F(1),), exp_scale=True)
    assert b_coeff(1) == PiExpression((F(0), F(1, 8)), exp_scale=True)
    assert b_coeff(2) == PiExpression((F(0), F(9, 128), F(1, 128)),
                                      exp_scale=True)
    assert b_coeff(3) == PiExpression(
        (F(0), F(150, 3072), F(27, 3072), F(1, 3072)), exp_scale=True)


def direct_b_recurrence(n_max):
    """b-recurrence on PiExpressions straight from its analytic form."""
    bs = [PiExpression((F(1),), exp_scale=True)]
    for n in range(n_max):
        conv = PiExpression.zero()
        for k in range(n + 1):
            w = wallis(k)
            conv = conv + bs[n - k] * (w * w / (k + 1))
        nxt = bs[n] * F(n, n + 1) + conv.mul_pi() / (8 * (n + 1))
        bs.append(nxt)
    return bs


def test_b_matches_direct_recurrence():
    bs = direct_b_recurrence(12)
    for n in range(13):
        assert b_coeff(n) == bs[n], n


def test_b1_decimal_pin():
    assert abs(b_coeff(1).evaluate(128).mid() - B1) < TOL


def direct_u(n):
    """u_n from its defining formula, independent of the integer form."""
    s = F(0)
    for k in range(n + 1):
        wk, wl = wallis(k), wallis(n - k)
        s += wk * wk * wl * wl / ((k + 1) * (n - k + 1))
    wn = wallis(n)
    rational = F(6 * (2 * n + 1), (n + 2) * (n + 1)) * wn * wn
    return PiExpression((-rational, s))


@pytest.mark.parametrize("n", range(0, 26))
def test_u_matches_definition(n):
    assert u_coeff(n) == direct_u(n)


def test_u_closed_forms():
    assert u_coeff(0) == PiExpression((F(-3), F(1)))          # pi - 3
    assert u_coeff(1) == PiExpression((F(-3, 4), F(1, 4)))    # (pi - 3)/4


def test_v_is_partial_sum_and_difference_identity():
    acc = PiExpression.zero()
    for n in range(30):
        acc = acc + u_coeff(n)
        assert v_coeff(n) == acc
        if n:
            assert v_coeff(n) - v_coeff(n - 1) == u_coeff(n)


def convolution_P(n_max):
    """P_n = sum_k E_k E_{n-k}, E_k = C(2k,k)^2/(k+1), for n <= n_max."""
    E = [math.comb(2 * k, k) ** 2 // (k + 1) for k in range(n_max + 1)]
    return [sum(E[k] * E[n - k] for k in range(n + 1))
            for n in range(n_max + 1)]


def table_P(table, n):
    # u_n = (pi P_n - R_n) / 16^n
    return table.u_coeff(n).coeffs[1] * 16 ** n


def test_P_recurrence_matches_convolution():
    table = CoefficientTable()
    for n, P in enumerate(convolution_P(400)):
        assert table_P(table, n) == P, n


@pytest.mark.parametrize("n", [1000, 2000, 4000])
def test_P_recurrence_matches_single_sum(n):
    E, binom = [], 1
    for k in range(n + 1):
        E.append(binom * binom // (k + 1))
        binom = binom * 2 * (2 * k + 1) // (k + 1)
    P = sum(E[k] * E[n - k] for k in range(n + 1))
    assert table_P(shared_coefficients(), n) == P


def test_exact_div_raises_on_remainder():
    assert coefficients._exact_div(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        coefficients._exact_div(7, 2)


def test_v1_value():
    assert v_coeff(1) == PiExpression((F(-15, 4), F(5, 4)))   # 5(pi-3)/4
    assert abs(v_coeff(1).evaluate(128).mid() - V1) < TOL


@pytest.mark.parametrize("n", range(1, 7))
def test_gap_identity_exact(n):
    # (n+1) b_{n+1} - (n+1/2) b_n = (pi/(64 n)) sum_j b_j v_{n-1-j}
    table = shared_coefficients()
    conv = PiExpression.zero()
    for j in range(n):
        conv = conv + b_coeff(j) * v_coeff(n - 1 - j)
    rhs = conv.mul_pi() / (64 * n)
    assert table.gap_exact(n) == rhs


def test_ratio_pins():
    assert abs(ratio(1, 128).mid() - RATIO1) < TOL
    assert abs(ratio(2, 128).mid() - RATIO2) < TOL
    assert abs(ratio(0, 128).mid() - EXP_HALF_PI) < TOL


def test_ratio_gap_positive_small():
    for n in range(1, 30):
        assert ratio_gap(n, 128).lo_fraction() > 0


def test_threshold_exact():
    assert threshold(0) == PiExpression((F(1),), exp_scale=True)
    assert threshold(1) == PiExpression((F(0), F(1, 4)), exp_scale=True)
    assert threshold(2) == PiExpression((F(0), F(9, 48), F(1, 48)),
                                        exp_scale=True)


def test_c_exact_boundary_zeros():
    table = shared_coefficients()
    assert c_exact(1, threshold(1)).is_zero
    assert c_exact(0, threshold(0)).is_zero
    assert not c_exact(2, threshold(1)).is_zero
    assert table.c_is_exactly_zero(1, threshold(1))
    assert not table.c_is_exactly_zero(2, threshold(1))
    assert not table.c_is_exactly_zero(1, F(4))  # rational p never cancels


def test_c_exact_requires_matching_scale():
    for p in (PiExpression((F(4),)), F(4), 4):  # unscaled p of any type
        with pytest.raises(ValueError):
            c_exact(1, p)


def mp_b(n_max):
    """b_0..b_n_max from exp(K(sqrt(x))) = exp((pi/2) sum W_k^2 x^k):
    (n+1) b_{n+1} = (pi/2) sum_{j<=n} (j+1) W_{j+1}^2 b_{n-j}."""
    mp.mp.prec = 400
    w = [mp.binomial(2 * k, k) / mp.mpf(4) ** k for k in range(n_max + 1)]
    b = [mp.exp(mp.pi / 2)]
    for n in range(n_max):
        s = mp.fsum((j + 1) * w[j + 1] ** 2 * b[n - j] for j in range(n + 1))
        b.append(mp.pi / 2 * s / (n + 1))
    return b, w


def test_c_coeff_values():
    assert abs(c_coeff(1, F(4), 128).mid() - C1_OF_4) < TOL
    # c_0(4) = e^{pi/2} - 4
    assert abs(c_coeff(0, F(4), 128).mid() - (EXP_HALF_PI - 4)) < TOL
    # exact-parameter path agrees with the rational path at p = 4
    exactish = c_coeff(2, PiExpression((F(4),)), 128)
    assert exactish.overlaps(c_coeff(2, F(4), 128))
    # a non-dyadic rational p: its enclosure is rounded before scaling
    b, w = mp_b(20)
    for n in range(21):
        iv = c_coeff(n, F(1, 3), 128)
        lo, hi = iv.lo_fraction(), iv.hi_fraction()
        ref = b[n] - w[n] / 3
        assert mp.mpf(lo.numerator) / lo.denominator <= ref
        assert ref <= mp.mpf(hi.numerator) / hi.denominator


def test_c_coeff_encloses_p_once_per_precision(monkeypatch):
    table = CoefficientTable()
    p = threshold(3)
    first = [table.c_coeff(n, p, 128) for n in range(3, 40)]
    calls = []
    real = PiExpression.evaluate

    def counting(self, precision):
        calls.append(precision)
        return real(self, precision)

    monkeypatch.setattr(PiExpression, "evaluate", counting)
    assert [table.c_coeff(n, p, 128) for n in range(3, 40)] == first
    assert calls == []
    table.c_coeff(3, p, 256)
    table.c_coeff(4, p, 256)
    assert calls == [256 + coefficients._VALUE_GUARD]


def test_value_table_consistent_with_exact():
    table = CoefficientTable()
    for n in range(0, 121, 10):
        enc = table.b_enclosure(n, 160)
        exa = table.b_coeff(n).evaluate(160)
        assert enc.overlaps(exa), n
        assert enc.width() < F(1, 1 << 100), n


def test_value_table_growth_is_idempotent():
    table = CoefficientTable()
    a = table.btilde_enclosure(50, 96)
    table.ensure_values(200, 96)
    b = table.btilde_enclosure(50, 96)
    assert a == b


READERS = {
    "btilde": lambda t, n, prec: t.btilde_enclosure(n, prec),
    "b": lambda t, n, prec: t.b_enclosure(n, prec),
    "ratio": lambda t, n, prec: t.ratio(n, prec),
    "ratio_gap": lambda t, n, prec: t.ratio_gap(n, prec),
    "c(threshold(1))": lambda t, n, prec: t.c_coeff(n, threshold(1), prec),
    "c(4)": lambda t, n, prec: t.c_coeff(n, F(4), prec),
}


def test_value_table_readers_keep_the_requested_bits():
    # the table runs _VALUE_GUARD bits finer than asked, and each reader
    # rounds once, so its width stays within 2 ulps up to n = 4000
    table = CoefficientTable()
    table.ensure_values(4001, 128)
    for name, read in READERS.items():
        for n in list(range(0, 4000, 97)) + [4000]:
            iv = read(table, n, 128)
            assert iv.prec == 128 and iv.hi - iv.lo <= 2, (name, n)
    assert list(table._values) == [128]


def bits(iv):
    return iv.lo, iv.hi, iv.prec


def btilde(table, n, precision):
    """b~_n at the value table's scale, unrounded."""
    table.ensure_values(n, precision)
    st = table._values[precision]
    return Interval(st["blo"][n], st["bhi"][n],
                    precision + coefficients._VALUE_GUARD)


def test_wallis_readers_match_the_fraction_formula():
    # ratio and c_coeff scale by the integer C(2n,n) and a 2n-bit shift;
    # their bits are those of mul_scalar by the Fraction W_n
    table = CoefficientTable()
    for n in list(range(0, 4001, 97)) + [4001]:
        w = F(math.comb(2 * n, n), 4 ** n)
        for precision in (64, 128):
            bt = btilde(table, n, precision)
            e = enclose_constant("exp_half_pi", bt.prec)
            assert bits(table.ratio(n, precision)) == bits(
                (bt.mul_scalar(1 / w) * e).round_to(precision)), n
            for p in (F(4), F(399, 100), threshold(1)):
                p_w = PiExpression.of(p).evaluate(bt.prec).mul_scalar(w)
                assert bits(table.c_coeff(n, p, precision)) == bits(
                    (bt * e - p_w).round_to(precision)), (n, p)


@pytest.mark.parametrize("precision", [64, 128])
def test_ratio_gap_encloses_the_exact_gap(precision):
    table = CoefficientTable()
    for n in range(61):
        exact = table.gap_exact(n).evaluate(precision + 64)
        assert table.ratio_gap(n, precision).encloses(exact), n


def loop_values(n, precision):
    """Bounds of b~_0..b~_n from the term-by-term interval recurrence, each
    convolution summed in index order (the reference for the
    divide-and-conquer table)."""
    W = precision
    pi = enclose_constant("pi", W).round_to(W)
    pi_lo, pi_hi = pi.lo, pi.hi
    wlo = []
    for k in range(n + 1):
        c = math.comb(2 * k, k)
        wlo.append((c * c << W) // ((k + 1) << (4 * k)))
    whi = [q + 1 for q in wlo]
    blo, bhi = [1 << W], [1 << W]
    for m in range(n):
        slo = shi = 0
        for k in range(m + 1):
            slo += wlo[k] * blo[m - k]
            shi += whi[k] * bhi[m - k]
        slo >>= W
        shi = -((-shi) >> W)
        t2lo = ((pi_lo * slo) >> W) // (8 * (m + 1))
        x = -((-(pi_hi * shi)) >> W)
        t2hi = -((-x) // (8 * (m + 1)))
        blo.append((m * blo[m]) // (m + 1) + t2lo)
        bhi.append(-((-(m * bhi[m])) // (m + 1)) + t2hi)
    return list(zip(blo, bhi))


VALUE_N = 600
_loop_cache = {}


def loop_reference(precision):
    """The loop's bounds at the scale the table for ``precision`` runs at."""
    if precision not in _loop_cache:
        _loop_cache[precision] = loop_values(
            VALUE_N, precision + coefficients._VALUE_GUARD)
    return _loop_cache[precision]


def value_bounds(table, n, precision):
    """The raw bounds of the table kept for ``precision``, unrounded."""
    st = table._values[precision]
    return list(zip(st["blo"], st["bhi"]))[:n + 1]


BASE = coefficients._DIRECT_STEPS


def seeded_extensions(seed):
    """Lengths growing by random steps: single, short and long ones."""
    rng = random.Random(seed)
    n, out = 0, []
    while n < VALUE_N:
        step = rng.choice([1, rng.randrange(2, BASE + 1),
                           rng.randrange(BASE + 1, 5 * BASE)])
        n = min(VALUE_N, n + step)
        out.append(n)
    return out


GROWTH_PATTERNS = {
    "from_empty": [VALUE_N],
    "by_one": list(range(1, 2 * BASE + 4)) + [VALUE_N],
    # growths of exactly BASE steps sum directly, of BASE + 1 split
    "across_base": [BASE, BASE + 1, 2 * BASE + 1, 3 * BASE + 2,
                    4 * BASE + 3, VALUE_N],
    "empty_past_base": [BASE + 1, VALUE_N],
    "seeded": seeded_extensions(2405),
}


# _product_slice packs small products into an int and large ones into a
# Decimal; these settings of its crossover force one path or keep the real one
PRODUCT_PATHS = {"int": math.inf, "decimal": 0,
                 "crossover": coefficients._NTT_DIGITS}


@pytest.mark.parametrize("precision", [64, 96, 128, 136, 312])
@pytest.mark.parametrize("pattern", sorted(GROWTH_PATTERNS))
def test_value_table_matches_term_by_term_loop(pattern, precision,
                                               monkeypatch):
    ref = loop_reference(precision)
    for path, ntt_digits in PRODUCT_PATHS.items():
        monkeypatch.setattr(coefficients, "_NTT_DIGITS", ntt_digits)
        table = CoefficientTable()
        for n in GROWTH_PATTERNS[pattern]:
            table.ensure_values(n, precision)
            assert value_bounds(table, n, precision) == ref[:n + 1], (
                path, pattern, n)


def test_seeded_growth_pattern_has_long_and_short_steps():
    steps = GROWTH_PATTERNS["seeded"]
    gaps = [b - a for a, b in zip([0] + steps, steps)]
    assert min(gaps) == 1 and BASE < max(gaps)
    assert any(1 < g <= BASE for g in gaps)


def schoolbook(a, c):
    return [sum(a[i] * c[m - i] for i in range(len(a)) if 0 <= m - i < len(c))
            for m in range(len(a) + len(c) - 1)]


def random_entries(rng, count, max_bits):
    return [rng.getrandbits(rng.randrange(1, max_bits)) for _ in range(count)]


# entries of < 200 bits take slots of about 120 decimal digits, so the
# shorter list packs into about 4 500 digits in the short case and 32 000 in
# the long one: one on each side of _NTT_DIGITS
SHORT_CASE = (random_entries(random.Random(7), 37, 200),
              random_entries(random.Random(8), 51, 200) + [0])
LONG_CASE = (random_entries(random.Random(9), 260, 200),
             random_entries(random.Random(10), 300, 200))


class CountingContext(decimal.Context):
    """The exact context of _product_slice, counting its multiplies."""

    def multiply(self, a, b):
        self.calls += 1
        return super().multiply(a, b)


def test_packed_product_matches_schoolbook(monkeypatch):
    ones = [(1 << 16) - 1] * 40
    for path, ntt_digits in PRODUCT_PATHS.items():
        monkeypatch.setattr(coefficients, "_NTT_DIGITS", ntt_digits)
        for a, c in (SHORT_CASE, LONG_CASE):
            full = schoolbook(a, c)
            assert coefficients._product_slice(a, c, 0, len(full)) == full
            assert coefficients._product_slice(a, c, 36, 52) == full[36:52]
        # entries with every bit set: each product coefficient is as large
        # as its length allows, so a slot without room for the carries
        # overflows
        assert coefficients._product_slice(ones, ones, 0, 79) == [
            min(m + 1, 79 - m) * ones[0] ** 2 for m in range(79)], path


def counting_context(monkeypatch):
    exact = coefficients._EXACT
    counting = CountingContext(prec=exact.prec, Emax=exact.Emax,
                               Emin=exact.Emin, traps=[
                                   s for s, on in exact.traps.items() if on])
    counting.calls = 0
    monkeypatch.setattr(coefficients, "_EXACT", counting)
    return counting


def test_packed_product_takes_decimal_above_the_crossover(monkeypatch):
    counting = counting_context(monkeypatch)
    coefficients._product_slice(*SHORT_CASE, 0, 5)
    assert counting.calls == 0
    coefficients._product_slice(*LONG_CASE, 0, 5)
    assert counting.calls == 1


def test_packed_product_rejects_negative_entries(monkeypatch):
    for path in ("int", "decimal"):
        monkeypatch.setattr(coefficients, "_NTT_DIGITS", PRODUCT_PATHS[path])
        # a leading '-' would still parse as a Decimal: both must raise
        for a in ([3, -1], [-3, 1]):
            with pytest.raises(OverflowError):
                coefficients._product_slice(a, [1, 2], 0, 3)
            with pytest.raises(OverflowError):
                coefficients._product_slice([1, 2], a, 0, 3)


def test_packed_product_takes_entries_past_the_int_str_limit(monkeypatch):
    # 16 000-bit entries need slots of over 9 600 decimal digits, past the
    # default 4 300-digit limit on int/str conversion: such a slot stays on
    # the int path even with the crossover at 0, and the limit is untouched
    def refuse(_):
        raise AssertionError("the int/str digit limit was changed")

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    counting = counting_context(monkeypatch)
    monkeypatch.setattr(coefficients, "_NTT_DIGITS", 0)
    rng = random.Random(16)
    a = [rng.getrandbits(16_000) for _ in range(3)]
    c = [rng.getrandbits(16_000) for _ in range(4)]
    assert coefficients._product_slice(a, c, 0, 6) == schoolbook(a, c)
    assert counting.calls == (0 if 0 < limit < 9_600 else 1)


@pytest.mark.parametrize("precision", [0, -20])
def test_value_table_rejects_precision_below_one_bit(precision):
    table = CoefficientTable()
    with pytest.raises(DomainError):
        table.ensure_values(10, precision)
    with pytest.raises(DomainError):
        table.btilde_enclosure(5, precision)
    assert table._values == {}


def test_negative_index_rejected():
    table = CoefficientTable()
    readers = (wallis, b_coeff, u_coeff, v_coeff, table.quotient_coeff,
               lambda n: table.btilde_enclosure(n, 128))
    for read in readers:
        with pytest.raises(DomainError):
            read(-1)


def test_module_readers_read_the_shared_table():
    for read in (wallis, b_coeff, u_coeff, v_coeff, c_coeff, c_exact,
                 ratio, ratio_gap, threshold):
        assert read.__self__ is shared_coefficients()


# ----------------------------------------------------------------------
# the integer recurrence records

def record_terms(rec, start, n):
    a = [start]
    coefficients._grow(rec, a, n)
    return a


def closed_form_R(n_max):
    """R_n = 6(2n+1) C(2n,n)^2/((n+1)(n+2)), the rational part of u_n."""
    return [6 * (2 * n + 1) * math.comb(2 * n, n) ** 2 // ((n + 1) * (n + 2))
            for n in range(n_max + 1)]


def test_records_match_their_closed_forms():
    n = 300
    C = [math.comb(2 * m, m) for m in range(n + 1)]
    assert record_terms(coefficients.C_REC, 1, n) == C
    assert record_terms(coefficients.E_REC, 1, n) == [
        c * c // (m + 1) for m, c in enumerate(C)]
    assert record_terms(coefficients.R_REC, 3, n) == closed_form_R(n)
    assert record_terms(coefficients.P_REC, 1, n) == convolution_P(n)
    assert record_terms(coefficients.D_REC, 1, n) == [
        16 ** m * math.factorial(m) for m in range(n + 1)]


FRESH_READERS = ("wallis", "b_coeff", "u_coeff", "v_coeff", "quotient_coeff")


@pytest.mark.parametrize("name", FRESH_READERS)
def test_fresh_table_reads_match_the_shared_table(name):
    shared = getattr(shared_coefficients(), name)
    for n in (0, 1, 2):  # the first read of a new table, at each n
        assert getattr(CoefficientTable(), name)(n) == shared(n), n
    read = getattr(CoefficientTable(), name)
    for n in (0, 5, 3):  # grow, then read back inside the grown range
        assert read(n) == shared(n), n


MUTATION_STEPS = 60


def mutated_records(rec):
    """rec with one coefficient changed by +1 or -1, every such way."""
    for i, poly in enumerate(rec):
        for j in range(len(poly)):
            for delta in (1, -1):
                changed = list(poly)
                changed[j] += delta
                yield rec[:i] + (tuple(changed),) + rec[i + 1:]


def uv_readings(table):
    """(P_n, R_n) for n <= MUTATION_STEPS, read through u_n."""
    out = []
    for n in range(MUTATION_STEPS + 1):
        R, P = (c * 16 ** n for c in table.u_coeff(n).coeffs)
        out.append((P, -R))
    return out


@pytest.mark.parametrize("name", ["P_REC", "R_REC"])
def test_a_one_coefficient_change_of_a_record_is_caught(monkeypatch, name):
    expected = list(zip(convolution_P(MUTATION_STEPS),
                        closed_form_R(MUTATION_STEPS)))
    assert uv_readings(CoefficientTable()) == expected
    record, caught = getattr(coefficients, name), 0
    for rec in mutated_records(record):
        monkeypatch.setattr(coefficients, name, rec)
        try:
            caught += uv_readings(CoefficientTable()) != expected
        except ArithmeticError:
            caught += 1
    assert caught == 2 * sum(map(len, record))
