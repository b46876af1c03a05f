"""Elliptic integral enclosures and series against mpmath oracles."""

import random
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from ellipmono.coefficients import (shared_coefficients, u_coeff, v_coeff,
                                    wallis)
from ellipmono.constants import enclose_constant
from ellipmono import elliptic
from ellipmono.elliptic import (
    _tail_ratio_ints,
    HYP_KINDS,
    G4_eval,
    G_eval,
    H_eval,
    SeriesEval,
    agm_K,
    agm_K_m,
    alpha_enclosure,
    asymptotic_defect,
    beta_enclosure,
    ekd_eval,
    exp_K,
    exp_K_agm,
    g0_eval,
    g_eval,
    hyp_series,
    lt_check,
)
from ellipmono.intervals import DomainError, Interval

F = Fraction

# mpmath oracle pins (dps=45, truncated to 30 digits)
K_QUARTER = F("1.685750354812596042871203657799")       # m = 1/4
K_81_100 = F("2.280549138422770204613751944555")        # m = 81/100
K_TINY = F("1.570796719494199211342330228041")          # m = 1e-6
K_LEMNISCATE = F("1.854074677301371918433850347195")    # m = 1/2
HH1_HALF = F("1.180340599016096226045337940558")        # F(.5,.5;1;.5)
HH2_HALF = F("1.078705202376758713335871444711")        # F(.5,.5;2;.5)
ALPHA = F("0.810477380965351655473035666703")           # e^{pi/2} - 4
BETA = F("0.246732283017036227597332294663")
DEFECT_LIMIT = F("0.184501965675006000396857448723")    # pi/2 - ln 4
TOL = F(1, 10 ** 28)


def mp_contains(iv: Interval, value: mp.mpf) -> bool:
    return (mp.mpf(iv.lo_fraction().numerator) / iv.lo_fraction().denominator
            <= value
            <= mp.mpf(iv.hi_fraction().numerator)
            / iv.hi_fraction().denominator)


def test_agm_contains_the_hypergeometric_series():
    # K = pi/2 F(1/2,1/2;1;m), summed by mpmath's series rather than an AGM
    with mp.workprec(300):
        for m in (F(1 + 4 * k, 100) for k in range(25)):   # 0.01 .. 0.97
            k_series = mp.pi / 2 * mp.hyp2f1(0.5, 0.5, 1, mp_of(m))
            assert mp_contains(agm_K_m(m, 192), k_series), m


@pytest.mark.parametrize("m, pin", [
    (F(1, 4), K_QUARTER),
    (F(81, 100), K_81_100),
    (F(1, 10 ** 6), K_TINY),
    (F(1, 2), K_LEMNISCATE),
])
def test_agm_pins(m, pin):
    iv = agm_K_m(m, 160)
    assert abs(iv.mid() - pin) < TOL
    assert iv.width() < F(1, 1 << 150)


def test_agm_contains_mpmath():
    mp.mp.prec = 300
    rng = random.Random(7)
    for _ in range(20):
        m = F(rng.randrange(1, 10 ** 6), 10 ** 6)
        iv = agm_K_m(m, 192)
        assert mp_contains(iv, mp.ellipk(mp.mpf(m.numerator) / m.denominator))


def test_agm_K_modulus_form():
    # K(r) with r^2 = m agrees with the parameter form
    for r in (F(1, 10), F(1, 2), F(9, 10)):
        assert agm_K(r, 128).overlaps(agm_K_m(r * r, 128))


def test_agm_small_m_limit():
    # K(m) -> pi/2 as m -> 0, with |K(m) - pi/2| = O(m)
    iv = agm_K_m(F(1, 1 << 60), 128)
    assert abs(iv.mid() - F("1.5707963267948966192313216916397")) < F(1, 1 << 58)


def test_agm_domain_errors():
    with pytest.raises(DomainError):
        agm_K_m(F(-1, 10), 64)
    with pytest.raises(DomainError):
        agm_K_m(F(1), 64)
    with pytest.raises(DomainError):
        agm_K_m(F(11, 10), 64)
    for r in (F(-1, 2), F(1), F(3, 2)):
        with pytest.raises(DomainError, match="modulus r must lie in"):
            agm_K(r, 64)


@pytest.mark.parametrize("fn, x, message", [
    (exp_K, F(1), "series argument must lie in"),
    (ekd_eval, F(0), r"x = r\^2 must lie in"),
    (asymptotic_defect, F(1), "parameter m must lie in"),
])
def test_domain_errors_at_the_interval_ends(fn, x, message):
    with pytest.raises(DomainError, match=message):
        fn(x, 64)


def loop_agm_K_m(m, precision, work=None):
    """The AGM over ``Interval`` objects at the work scale ``work``
    (default precision + 32), one interval operation per step and no
    near-1 widening of its own: the reference for the integer-endpoint
    loop, given the scale that loop widens to near m = 1."""
    work = precision + 32 if work is None else work
    if isinstance(m, Interval):
        mi = m.round_to(work)
    else:
        mi = Interval.from_fraction(m, work)
    if mi.lo_fraction() < 0 or mi.hi_fraction() >= 1:
        raise DomainError("parameter m must lie in [0, 1)")
    one = Interval.from_int(1, work)
    a = one
    b = (one - mi).sqrt()
    for _ in range(64):
        if a.hi - b.lo <= 1 << 24:
            break
        a, b = (a + b).mul_scalar(F(1, 2)), (a * b).sqrt()
    agm = Interval(min(b.lo, a.lo), max(a.hi, b.hi), work)
    pi = enclose_constant("pi", work)
    return (pi * agm.recip()).mul_scalar(F(1, 2)).round_to(precision)


def outcome(fn, *args, **kwargs):
    """The endpoints of fn's enclosure (and terms, for a series), or the
    message of the DomainError it raised."""
    try:
        r = fn(*args, **kwargs)
    except DomainError as exc:
        return str(exc)
    if isinstance(r, SeriesEval):
        return (r.terms_used, (r.partial.lo, r.partial.hi, r.partial.prec),
                (r.tail_bound.lo, r.tail_bound.hi, r.tail_bound.prec))
    return (r.lo, r.hi, r.prec)


@pytest.mark.parametrize("precision", [8, 64, 128, 272])
def test_agm_matches_interval_loop(precision):
    # a rational m widens the work scale by L - 24 bits, L =
    # ceil(log2(1/(1-m))), whether 1 - m is exact there (1 - 2^-precision)
    # or not (1 - 1/(3 * 2^(precision-2))): both have L = precision
    inexact = 1 - F(1, 3 << (precision - 2))
    ms = [F(0), F(1, 1 << 60), F(1, 10 ** 6), F(1, 4), F(1, 2), F(81, 100),
          F(99, 100), F(1023, 1024), 1 - F(1, 1 << precision), inexact,
          F(-1, 10), F(1)]
    for m in ms:
        L = elliptic._log2_inv(1 - m) if m < 1 else 0
        work = precision + 32 + max(0, L - 24)
        assert outcome(agm_K_m, m, precision) == outcome(
            loop_agm_K_m, m, precision, work), m
        for prec in (precision // 2, precision + 40):
            iv = Interval.from_fraction(m, prec).pad_ulp(3)
            assert outcome(agm_K_m, iv, precision) == outcome(
                loop_agm_K_m, iv, precision), (m, prec)


@settings(max_examples=150)
@given(m=st.fractions(0, 1, max_denominator=1 << 24).filter(lambda m: m < 1),
       precision=st.integers(24, 320))
def test_agm_matches_interval_loop_at_random_rationals(m, precision):
    assert outcome(agm_K_m, m, precision) == outcome(
        loop_agm_K_m, m, precision)


@settings(max_examples=150)
@given(prec=st.integers(1, 320), data=st.data(),
       precision=st.integers(1, 320))
def test_agm_matches_interval_loop_on_intervals(prec, data, precision):
    # endpoints a few ulps either side of [0, 1) exercise the domain test
    lo = data.draw(st.integers(-3, (1 << prec) + 3))
    hi = lo + data.draw(st.integers(0, 1 << prec))
    m = Interval(lo, hi, prec)
    assert outcome(agm_K_m, m, precision) == outcome(
        loop_agm_K_m, m, precision)


@pytest.mark.parametrize("e", [95, 97, 200])
def test_agm_near_one_keeps_requested_bits(e):
    # 1 - m = 2^-e below 2^-64: the work scale widens by e - 64 bits, so
    # the enclosure contains K and keeps the requested 64 bits
    m = 1 - F(1, 1 << e)
    iv = agm_K_m(m, 64)
    with mp.workprec(2 * e + 128):
        assert mp_contains(iv, mp.ellipk(1 - mp.mpf(2) ** -e))
    assert iv.width() <= F(1, 1 << 63)


def test_asymptotic_defect_near_one_keeps_requested_bits():
    m = 1 - F(1, 1 << 200)
    iv = asymptotic_defect(m, 64)
    with mp.workprec(600):
        mm = 1 - mp.mpf(2) ** -200
        ref = mp.ellipk(mm) - mp.log(4 / mp.sqrt(1 - mm))
        assert mp_contains(iv, ref)
    assert iv.width() <= F(1, 1 << 63)


# values d = 1 - m that are not exact at the 96-bit work scale, where K
# and the defect used to lose bits (K kept 35 of 64 at d = 1/(3*2^60));
# the last is dyadic, but longer than the work scale
NEAR_ONE_INEXACT = [F(1, 3 << 30), F(1, 3 << 60), F(1, 3 << 95),
                    F((1 << 100) - 1, 1 << 150)]
NEAR_ONE_IDS = ["1/(3*2^30)", "1/(3*2^60)", "1/(3*2^95)", "(2^100-1)/2^150"]


@pytest.mark.parametrize("d", NEAR_ONE_INEXACT, ids=NEAR_ONE_IDS)
def test_agm_near_one_inexact_keeps_requested_bits(d):
    iv = agm_K_m(1 - d, 64)
    with mp.workprec(600):
        ref = mp.ellipk(1 - mp.mpf(d.numerator) / d.denominator)
        assert mp_contains(iv, ref)
    assert iv.width() <= F(1, 1 << 63)


@pytest.mark.parametrize("d", NEAR_ONE_INEXACT, ids=NEAR_ONE_IDS)
def test_asymptotic_defect_near_one_inexact_keeps_requested_bits(d):
    iv = asymptotic_defect(1 - d, 64)
    with mp.workprec(600):
        dd = mp.mpf(d.numerator) / d.denominator
        assert mp_contains(iv, mp.ellipk(1 - dd) - mp.log(4 / mp.sqrt(dd)))
    assert iv.width() <= F(1, 1 << 63)


# the AGM reads sqrt(1 - m), irrational at these points even where 1 - m
# is exact (odd k, or the factor 3), and K magnifies its rounding about
# 2^k times
@pytest.mark.parametrize("precision", [128, 256])
def test_K_and_defect_keep_their_bits_where_1_minus_m_is_exact(precision):
    with mp.workprec(4 * precision + 256):
        for k in (precision - 7, precision - 3, precision + 23):
            for d in (F(1, 1 << k), F(3, 1 << k)):
                dd = mp.mpf(d.numerator) / d.denominator
                K = mp.ellipk(1 - dd)
                want = {agm_K_m: K, asymptotic_defect:
                        K - mp.log(4 / mp.sqrt(dd))}
                for fn, value in want.items():
                    iv = fn(1 - d, precision)
                    assert mp_contains(iv, value), (fn.__name__, k, d)
                    assert iv.hi - iv.lo <= 2, (fn.__name__, k, iv.hi - iv.lo)


@pytest.mark.parametrize("precision", [8, 64, 256])
def test_exp_K_agm_keeps_its_bits_near_one(precision):
    # e^K < 2^(L/2 + 2) magnifies the rounding of K, L = log2(1/(1 - m))
    with mp.workprec(2 * precision + 512):
        for k in (10, 20, 40, 100, 200):
            for d in (F(1, 1 << k), F(1, 3 << k)):
                iv = exp_K_agm(1 - d, precision)
                value = mp.exp(mp.ellipk(1 - mp.mpf(d.numerator)
                                         / d.denominator))
                assert mp_contains(iv, value), (k, d)
                assert iv.hi - iv.lo <= 2, (k, d, iv.hi - iv.lo)


def test_lemniscate_closed_form():
    # K(m=1/2) = Gamma(1/4)^2 / (4 sqrt(pi))
    from ellipmono.constants import enclose_constant
    g = enclose_constant("gamma_quarter", 200)
    rhs = g.square() / enclose_constant("sqrt_pi", 200).mul_scalar(4)
    assert agm_K_m(F(1, 2), 192).overlaps(rhs)


# ----------------------------------------------------------------------
# hypergeometric series

@pytest.mark.parametrize("kind, pin", [
    ("hh1", HH1_HALF),
    ("hh2", HH2_HALF),
])
def test_hyp_pins_at_half(kind, pin):
    ev = hyp_series(kind, F(1, 2), 160)
    assert abs(ev.enclosure.mid() - pin) < TOL


def test_hyp_contains_mpmath_all_kinds():
    mp.mp.prec = 300
    for kind, (a, b, c) in HYP_KINDS.items():
        for x in (F(1, 10), F(3, 5), F(19, 20)):
            ev = hyp_series(kind, x, 128)
            ref = mp.hyp2f1(mp.mpf(a.numerator) / a.denominator,
                            mp.mpf(b.numerator) / b.denominator,
                            mp.mpf(c.numerator) / c.denominator,
                            mp.mpf(x.numerator) / x.denominator)
            assert mp_contains(ev.enclosure, ref), (kind, x)


def test_hyp_accepts_explicit_triple():
    direct = hyp_series((F(1, 2), F(1, 2), F(2)), F(1, 3), 96)
    named = hyp_series("hh2", F(1, 3), 96)
    assert direct.enclosure == named.enclosure


def test_hyp_tail_properties():
    ev = hyp_series("3h3h2", F(1, 2), 96)
    assert ev.tail_bound.lo_fraction() >= 0
    assert ev.enclosure == ev.partial + ev.tail_bound
    # capping the term count leaves a wider but still valid enclosure
    coarse = hyp_series("3h3h2", F(1, 2), 96, max_terms=20)
    assert coarse.terms_used <= 20
    assert coarse.enclosure.width() > ev.enclosure.width()
    assert coarse.enclosure.overlaps(ev.enclosure)


def test_hyp_domain_errors():
    with pytest.raises(DomainError):
        hyp_series("hh1", F(-1, 10), 64)
    with pytest.raises(DomainError):
        hyp_series("hh1", F(1), 64)
    with pytest.raises(DomainError):
        hyp_series("nope", F(1, 2), 64)
    with pytest.raises(DomainError):
        hyp_series((F(1), F(1), F(2)), F(1, 2), 64)
    # 3h3h2's term ratio exceeds 1, so near x = 1 one term bounds no tail
    with pytest.raises(DomainError, match="term-ratio bound"):
        hyp_series("3h3h2", F(99, 100), 64, max_terms=1)


def test_negative_term_cap_rejected():
    with pytest.raises(DomainError, match="max_terms=-3 is negative"):
        hyp_series("hh1", F(1, 2), 64, max_terms=-3)
    with pytest.raises(DomainError, match="n_terms=-3 is negative"):
        exp_K(F(1, 2), 64, n_terms=-3)
    # a zero cap stays valid: the certified tail covers every term
    assert hyp_series("hh1", F(1, 2), 64, max_terms=0).enclosure.contains(
        hyp_series("hh1", F(1, 2), 64).enclosure.mid())


def test_euler_relation_between_kinds():
    # F(3/2,3/2;2;x) = (1-x)^(-1) F(1/2,1/2;2;x)
    x = F(1, 2)
    lhs = hyp_series("3h3h2", x, 128).enclosure
    rhs = hyp_series("hh2", x, 128).enclosure.mul_scalar(1 / (1 - x))
    assert lhs.overlaps(rhs)


def loop_hyp_series(kind, x, precision, max_terms=None):
    """hyp_series over ``Interval`` objects, each term times the reduced
    Fraction term ratio and the tail ratio bound q computed after every
    term: the reference for the integer-endpoint loop."""
    a, b, c = HYP_KINDS[kind]
    if not 0 <= x < 1:
        raise DomainError("series argument must lie in [0, 1)")
    work = precision + 32
    cap = max_terms if max_terms is not None else max(256, 16 * precision)
    term = Interval.from_int(1, work)
    total = term
    n = 0
    while True:
        ratio = (a + n) * (b + n) / ((c + n) * (1 + n)) * x
        nxt = term.mul_scalar(ratio)
        n += 1
        if x == 0 or nxt.hi == 0:
            tail = Interval(0, 0, work)
            break
        q = max((a + n) * (b + n) / ((c + n) * (1 + n)), F(1)) * x
        if q < 1 and (n >= cap or (n % 16 == 0 or n < 16)):
            tail_hi = nxt.hi_fraction() / (1 - q)
            if n >= cap or tail_hi <= F(4, 1 << work):
                tail = Interval.from_fraction(
                    max(nxt.lo_fraction(), F(0)), work).hull(
                    Interval.from_fraction(tail_hi, work))
                break
        if q >= 1 and n >= cap:
            raise DomainError(
                "term-ratio bound not below 1 within the term cap; "
                "increase max_terms or reduce x")
        term = nxt
        total = total + nxt
    return SeriesEval(terms_used=n, partial=total.round_to(precision),
                      tail_bound=tail.round_to(precision))


HYP_XS = [F(0), F(1, 3), F(1, 2), F(9, 10), F(99, 100), F(877, 1024),
          F(1023, 1024)]


@pytest.mark.parametrize("precision", [64, 128, 272])
@pytest.mark.parametrize("kind", sorted(HYP_KINDS))
def test_hyp_matches_interval_loop(kind, precision):
    for x in HYP_XS:
        for cap in (None, 0, 1, 20):
            assert outcome(hyp_series, kind, x, precision, cap) == outcome(
                loop_hyp_series, kind, x, precision, cap), (x, cap)


@settings(max_examples=60)
@given(kind=st.sampled_from(sorted(HYP_KINDS)),
       x=st.fractions(0, 1, max_denominator=1 << 12).filter(lambda x: x < 1),
       precision=st.integers(1, 160),
       cap=st.one_of(st.none(), st.integers(0, 40)))
def test_hyp_matches_interval_loop_at_random_points(kind, x, precision, cap):
    assert outcome(hyp_series, kind, x, precision, cap) == outcome(
        loop_hyp_series, kind, x, precision, cap)


@pytest.mark.parametrize("kind", sorted(HYP_KINDS))
def test_hyp_series_at_zero_is_one_term_with_no_tail(kind):
    for precision in (1, 2, 7, 64, 128, 333):
        for cap in (None, 0, 1, 2, 40):
            ev = hyp_series(kind, F(0), precision, cap)
            assert ev.terms_used == 1
            assert (ev.partial.lo, ev.partial.hi, ev.partial.prec) == (
                1 << precision, 1 << precision, precision)
            assert (ev.tail_bound.lo, ev.tail_bound.hi,
                    ev.tail_bound.prec) == (0, 0, precision)


def _sup_tail_ratio(a, b, c, n):
    """max(r_n, 1), r_k = (a+k)(b+k)/((c+k)(1+k)): the oracle for the
    tail-ratio bound that ``hyp_series`` takes on integers."""
    return max((a + n) * (b + n) / ((c + n) * (1 + n)), F(1))


@pytest.mark.parametrize("kind", sorted(HYP_KINDS))
def test_tail_ratio_bound_holds(kind):
    # max(r_n, 1) bounds every later ratio r_k because r_k stays on one
    # side of 1 and moves towards it; checked exactly for k <= 4096
    a, b, c = HYP_KINDS[kind]
    r = [(a + k) * (b + k) / ((c + k) * (1 + k)) for k in range(4097)]
    for k, rk in enumerate(r):
        assert rk - 1 == ((a + b - c - 1) * k + a * b - c) / ((c + k) * (1 + k))
    above = r[0] > 1
    assert all(rk != 1 and (rk > 1) == above for rk in r)
    assert all((s < t) == above and s != t for t, s in zip(r, r[1:]))
    sup = F(0)
    for n in range(4096, 0, -1):
        sup = max(sup, r[n])
        assert sup <= _sup_tail_ratio(a, b, c, n), n


@pytest.mark.parametrize("kind", sorted(HYP_KINDS))
def test_integer_stop_test_matches_the_fraction_test(kind):
    # qn/qd is max(r_n, 1) x exactly, so q < 1 iff qn < qd, and the tail
    # t_n / (1 - q) is at most 4 ulps iff hi qd <= 4 (qd - qn)
    a, b, c = HYP_KINDS[kind]
    L = lcm(a.denominator, b.denominator, c.denominator)
    A, B, C = int(L * a), int(L * b), int(L * c)
    tol = F(4, 1 << 64)
    for x in (F(0), F(1, 3), F(1, 2), F(9, 10), F(99, 100), F(1023, 1024)):
        for n in range(1, 4097):
            qn, qd = _tail_ratio_ints(A, B, C, L, n, x.numerator,
                                      x.denominator)
            q = _sup_tail_ratio(a, b, c, n) * x
            assert F(qn, qd) == q and (qn < qd) == (q < 1), (x, n)
            if q < 1 and n % 64 == 0:
                edge = 4 * (qd - qn) // qd  # the largest hi that stops
                for hi in (0, edge, edge + 1, 1 << 64):
                    assert (hi * qd <= 4 * (qd - qn)) == (
                        F(hi, 1 << 64) / (1 - q) <= tol), (x, n, hi)


# ----------------------------------------------------------------------
# exp(K) series

@pytest.mark.parametrize("x", [F(1, 10), F(1, 2), F(9, 10)])
def test_exp_K_contains_oracle_and_agm(x):
    mp.mp.prec = 300
    ev = exp_K(x, 128)
    ref = mp.exp(mp.ellipk(mp.mpf(x.numerator) / x.denominator))
    assert mp_contains(ev.enclosure, ref)
    assert ev.enclosure.overlaps(exp_K_agm(x, 128))


def test_exp_K_tail_shrinks_with_terms():
    x = F(1, 2)
    widths = [exp_K(x, 96, n_terms=n).tail_bound.width() for n in (8, 16, 32)]
    assert widths[0] > widths[1] > widths[2]
    for n in (8, 16, 32):
        assert exp_K(x, 96, n_terms=n).tail_bound.lo_fraction() >= 0


def exp_K_summed_to(x, precision, terms):
    """exp_K's enclosure with the sum run to b_terms: the exp_K tail bound
    e^(pi/2) (1/sqrt(1-x) - sum_{n<=terms} W_n x^n), no stopping test.
    The b~_n are rounded reads of the value table kept for precision + 32
    bits, a finer table than exp_K itself reads."""
    work = precision + 32
    sup = (Interval.from_int(1, work)
           - Interval.from_fraction(x, work)).sqrt().recip()
    # W_n x^n = C(2n,n) (p/q)^n with p/q = x/4
    p, q = x.numerator, 4 * x.denominator
    num, binom, pn = 0, 1, 1
    for n in range(terms + 1):
        num = num * q + binom * pn
        binom = binom * 2 * (2 * n + 1) // (n + 1)
        pn *= p
    wal = F(num, q ** terms)
    ehp_hi = enclose_constant("exp_half_pi", work).hi_fraction()
    tail = Interval.from_fraction(0, work).hull(Interval.from_fraction(
        max(ehp_hi * (sup.hi_fraction() - wal), F(0)), work))
    horner = Interval.from_int(0, work)
    table = shared_coefficients()
    for k in range(terms, -1, -1):
        horner = horner.mul_scalar(x) + table.btilde_enclosure(k, work)
    partial = horner * enclose_constant("exp_half_pi", work)
    return partial.round_to(precision) + tail.round_to(precision)


@pytest.mark.parametrize("r", [F(1, 10), F(3, 10), F(1, 2), F(7, 10),
                               F(9, 10)])
def test_exp_K_stops_early_with_the_capped_enclosure(r):
    # the criterion-05 points at 280 bits: stopping once the Wallis tail
    # is below tolerance gives the enclosure of the full 8*280-term sum,
    # at 1669 terms in all (the sequence workload's exp_K terms)
    x = r * r
    ev = exp_K(x, 280)
    full = exp_K_summed_to(x, 280, 8 * 280)
    assert ev.terms_used == {F(1, 10): 65, F(3, 10): 97, F(1, 2): 161,
                             F(7, 10): 321, F(9, 10): 1025}[r]
    assert (ev.enclosure.lo, ev.enclosure.hi, ev.enclosure.prec) == (
        full.lo, full.hi, full.prec)


@pytest.mark.parametrize("x", [F(0), F(1, 100), F(1, 3), F(1, 2),
                               F(81, 100), 1 - F(1, 1 << 10)])
def test_exp_K_stop_test_on_integers_is_the_fraction_test(monkeypatch, x):
    # exp_K's former test on Fractions, at each n <= 4096 that the loop
    # tests (multiples of 32; every n at x = 0): stop once e^(pi/2) (sup -
    # S_n) <= 4 ulps at the work scale, on the upper end of e^(pi/2) and
    # the lower end s of sup = 1/sqrt(1-x), S_n = sum_{k<=n} W_k x^k.
    # exp_K must stop where it first stops: at sup's own s, and, with sup
    # replaced, at the largest s that stops at n and at the one above it,
    # where a test one shift too strict or too loose would not.
    p, q = x.numerator, 4 * x.denominator  # W_k x^k = C(2k,k) (p/q)^k
    sums, wal, binom, pn = {}, 1, 1, 1
    for n in range(1, 4097):
        binom = binom * 2 * (2 * n - 1) // n
        pn *= p
        wal = wal * q + binom * pn
        if n % 32 == 0 or x == 0:
            sums[n] = F(wal, q ** n)
    # the partial sum plays no part in where the sum stops
    monkeypatch.setattr(type(shared_coefficients()), "exp_partial_sum",
                        lambda self, x, terms, precision:
                        Interval(0, 0, precision))
    rprime = elliptic._rprime
    for precision in (1, 64, 280):
        work = precision + 32
        e = enclose_constant("exp_half_pi", work).hi_fraction()
        tol = F(4, 1 << work)
        sup = rprime(x, work).recip()
        runs = [(sup, 4096)]
        for n in (32, 64, 1024):
            edge = (tol / e + sums[n]) * (1 << work)
            edge = edge.numerator // edge.denominator
            runs += [(Interval(s, s, work), n + 32) for s in (edge, edge + 1)]
        for sup, cap in runs:
            monkeypatch.setattr(elliptic, "_rprime", lambda x, prec, sup=sup:
                                SimpleNamespace(recip=lambda: sup))
            first = next((n for n, S in sums.items() if n <= cap and
                          e * (F(sup.lo, 1 << work) - S) <= tol), cap)
            assert exp_K(x, precision, n_terms=cap).terms_used - 1 == first


@pytest.mark.parametrize("terms", [0, 1, 2, 3, 8, 32])
def test_exp_K_capped_tail_uses_the_independent_bound(terms):
    # a capped sum keeps a wide tail, so the constant in front of the
    # Wallis remainder shows: e^(pi/2), not the paper's 4; n_terms = N
    # sums b_0..b_N, N = 0 included
    ev = exp_K(F(1, 2), 96, n_terms=terms)
    assert ev.terms_used == terms + 1
    full = exp_K_summed_to(F(1, 2), 96, terms)
    assert (ev.enclosure.lo, ev.enclosure.hi) == (full.lo, full.hi)
    mp.mp.prec = 200
    assert mp_contains(ev.enclosure, mp.exp(mp.ellipk(mp.mpf(1) / 2)))


def test_exp_K_zero():
    assert exp_K(F(0), 128).enclosure.overlaps(
        enclose_constant("exp_half_pi", 128))


def test_wallis_square_below_one_over_pi_k():
    # W_k^2 < 1/(pi k), exactly, with W_k = C(2k,k)/4^k and pi rounded up:
    # the inequality that bounds the exp_K tail by e^(pi/2) W_n
    pi_hi = enclose_constant("pi", 64).hi_fraction()
    binom = 1
    for k in range(1, 4001):
        binom = binom * 2 * (2 * k - 1) // k
        assert pi_hi.numerator * k * binom ** 2 < pi_hi.denominator * 16 ** k


# ----------------------------------------------------------------------
# derived functionals

@pytest.mark.parametrize("x", [F(1, 8), F(1, 2), F(3, 4)])
def test_g0_is_one_minus_x_times_g(x):
    lhs = g0_eval(x, 128)
    rhs = g_eval(x, 128).mul_scalar(1 - x)
    assert lhs.overlaps(rhs)


def test_u_series_sums_to_g0():
    x = F(1, 3)
    acc = Interval.from_fraction(F(0), 200)
    xp = F(1)
    for n in range(61):
        acc = acc + u_coeff(n).evaluate(200).mul_scalar(xp)
        xp *= x
    assert abs(acc.mid() - g0_eval(x, 200).mid()) < F(1, 10 ** 25)


def test_v_series_sums_to_g():
    x = F(1, 3)
    acc = Interval.from_fraction(F(0), 200)
    xp = F(1)
    for n in range(61):
        acc = acc + v_coeff(n).evaluate(200).mul_scalar(xp)
        xp *= x
    assert abs(acc.mid() - g_eval(x, 200).mid()) < F(1, 10 ** 25)


def test_g0_positive_near_one():
    for k in range(4, 9):
        x = 1 - F(1, 1 << k)
        assert g0_eval(x, 96).lo > 0, k


def test_G_derivative_matches_series_form():
    # d/dx G = (pi/64) exp(K(sqrt(x))) g(x); central differences with
    # Richardson elimination of the h^2 term.
    from ellipmono.constants import enclose_constant
    x = F(2, 5)
    h = F(1, 1 << 14)
    d1 = (G_eval(x + h, 256) - G_eval(x - h, 256)).mul_scalar(F(1) / (2 * h))
    d2 = (G_eval(x + h / 2, 256) - G_eval(x - h / 2, 256)).mul_scalar(F(1) / h)
    rich = d2.mul_scalar(F(4, 3)) - d1.mul_scalar(F(1, 3))
    direct = (enclose_constant("pi", 256).mul_scalar(F(1, 64))
              * exp_K_agm(x, 256) * g_eval(x, 256))
    assert abs(rich.mid() - direct.mid()) < F(1, 10 ** 12)


def test_G4_and_H_relations():
    # H is symmetric about 1/2 and collapses the ekd difference
    x = F(3, 10)
    assert H_eval(x, 128).overlaps(H_eval(1 - x, 128))
    prod = H_eval(x, 128).mul_scalar(1 - 2 * x)
    assert prod.overlaps(ekd_eval(x, 128))
    # endpoint and midpoint limits
    assert abs(H_eval(F(1, 1 << 20), 160).mid() - ALPHA) < F(1, 100)
    assert abs(H_eval(F(1, 2) - F(1, 1 << 20), 160).mid() - BETA) < F(1, 10 ** 6)
    with pytest.raises(DomainError):
        H_eval(F(1, 2), 96)


def H_by_G4(x, precision):
    """H by its defining formula, two G4 enclosures rounded to the work
    scale and then subtracted (the oracle for :func:`H_eval`)."""
    work = precision + 16
    diff = G4_eval(x, work) - G4_eval(1 - x, work)
    return diff.mul_scalar(1 / (1 - 2 * x)).round_to(precision)


H_POINTS = ([F(k, 200) for k in range(1, 200, 7) if k != 100]
            + [F(1, 1 << 20), 1 - F(1, 1 << 20), F(1, 2) - F(1, 1 << 30),
               F(1, 2) + F(1, 1 << 30), F(1, 2) - F(1, 1 << 60)])


@pytest.mark.parametrize("precision", [6, 53, 128, 384])
def test_H_eval_lies_inside_its_G4_form(precision):
    # H_eval skips the rounding of the two G4 enclosures, so it can only
    # be tighter than the defining formula
    for x in H_POINTS:
        assert H_by_G4(x, precision).encloses(H_eval(x, precision)), x


def test_alpha_beta_pins():
    assert abs(alpha_enclosure(160).mid() - ALPHA) < TOL
    assert abs(beta_enclosure(160).mid() - BETA) < TOL


def test_beta_is_the_slope_of_ekd_at_one_half():
    # H(1/2) = -ekd'(1/2)/2, by mpmath's numerical derivative of ekd
    def ekd(x):
        return (mp.exp(mp.ellipk(x)) - mp.exp(mp.ellipk(1 - x))
                + 4 / mp.sqrt(x) - 4 / mp.sqrt(1 - x))
    with mp.workdps(80):
        slope = mp.diff(ekd, mp.mpf(1) / 2)
        mid = beta_enclosure(128).mid()
        assert abs(-slope / 2 - mp.mpf(mid.numerator) / mid.denominator) \
            < mp.mpf(10) ** -30


def test_asymptotic_defect_limit_and_decay():
    near0 = asymptotic_defect(F(1, 1 << 40), 160)
    assert abs(near0.mid() - DEFECT_LIMIT) < F(1, 1 << 35)
    vals = [asymptotic_defect(m, 128).mid()
            for m in (F(1, 10), F(1, 2), F(9, 10), F(99, 100))]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)
    tight = asymptotic_defect(1 - F(1, 1 << 16), 128)
    assert tight.hi_fraction() < F(1, 1000)


def test_lt_residual_encloses_zero():
    triples = [(F(1, 2), F(1, 2), F(1)), (F(1, 2), F(1, 2), F(2)),
               (F(3, 2), F(3, 2), F(2)), (F(3, 2), F(3, 2), F(3))]
    for a, b, c in triples:
        for x in (F(1, 10), F(3, 5), F(9, 10)):
            res = lt_check(a, b, c, x, 128)
            assert res.contains(F(0)), (a, b, c, x)
            assert res.width() < F(1, 1 << 90)


def test_lt_exact_at_zero():
    res = lt_check(F(1, 2), F(1, 2), F(2), F(0), 96)
    assert res.contains(F(0))


def test_lt_rejects_unsupported_triple():
    with pytest.raises(DomainError):
        lt_check(F(1), F(1), F(2), F(1, 2), 96)


def test_series_eval_is_frozen():
    ev = hyp_series("hh1", F(1, 4), 64)
    assert isinstance(ev, SeriesEval)
    with pytest.raises(AttributeError):
        ev.terms_used = 0


# ----------------------------------------------------------------------
# memos of the point functions

MEMO_MS = [F(0), F(1, 3), F(1, 2)] + [1 - F(1, 1 << k) for k in range(2, 41)]
MEMO_PRECISIONS = [2, 7, 64, 96, 192, 1024]


def ends(iv):
    return iv.lo, iv.hi, iv.prec


@pytest.mark.parametrize("precision", MEMO_PRECISIONS)
def test_memoized_point_functions_equal_their_uncached_cores(precision):
    for memo in (agm_K_m, exp_K_agm):
        memo.cache_clear()
        for m in MEMO_MS:
            want = ends(memo.__wrapped__(m, precision))
            assert ends(memo(m, precision)) == want, m  # a miss
            assert ends(memo(m, precision)) == want, m  # a hit
        assert memo.cache_info().hits == len(MEMO_MS)
    for fn in (alpha_enclosure, beta_enclosure):
        fn.cache_clear()
        want = ends(fn.__wrapped__(precision))
        assert ends(fn(precision)) == ends(fn(precision)) == want


def test_memo_keys_by_type_and_value():
    # an int and an equal Fraction hold separate entries with equal bits
    for memo in (agm_K_m, exp_K_agm):
        k_int, k_frac = memo(0, 64), memo(F(0), 64)
        assert k_int is not k_frac and ends(k_int) == ends(k_frac)
        assert memo(0, 64) is k_int and memo(F(0), 64) is k_frac
    # a domain error is raised at every call, never cached
    for _ in range(2):
        with pytest.raises(DomainError):
            agm_K_m(F(1), 64)


def test_a_float_is_refused_where_an_equal_fraction_is_cached():
    # 0.5 == F(1, 2) and they hash alike, so only a typed key keeps the
    # float from being served the Fraction's entry
    agm_K_m(F(1, 2), 64)
    exp_K_agm(F(1, 2), 64)
    with pytest.raises(TypeError):
        agm_K_m(0.5, 64)
    with pytest.raises(TypeError):
        exp_K_agm(0.5, 64)


def test_an_interval_parameter_is_memoized_by_value():
    coarse = Interval.from_fraction(F(1, 3), 64)
    fine = coarse.round_to(200)
    assert coarse == fine and coarse.prec != fine.prec
    for memo in (agm_K_m, exp_K_agm):
        k = memo(coarse, 96)
        assert memo(fine, 96) is k
        assert ends(k) == ends(memo.__wrapped__(fine, 96))


# ----------------------------------------------------------------------
# one error for a precision below one bit, wherever it is read

@pytest.mark.parametrize("call", [
    lambda: agm_K_m(F(1, 2), 0),
    lambda: agm_K_m(F(1, 2), -5),
    lambda: hyp_series("hh1", F(1, 2), 0),
    lambda: g_eval(F(1, 3), 0),
    lambda: asymptotic_defect(F(1, 2), 0),
    lambda: alpha_enclosure(0),
    lambda: beta_enclosure(0),
    lambda: shared_coefficients().threshold(3).evaluate(0),
], ids=["agm_K_m", "agm_K_m_negative", "hyp_series", "g_eval",
        "asymptotic_defect", "alpha", "beta", "threshold_evaluate"])
def test_a_precision_below_one_bit_is_one_domain_error(call):
    # each of these meets the precision first in the Interval constructor
    with pytest.raises(DomainError, match="below one bit"):
        call()


# ----------------------------------------------------------------------
# E from the AGM, and the closed forms of g, g0 and G on all of [0, 1)

E_POINTS = [F(0), F(1, 3), F(1, 2), F(9, 10), F(99, 100), 1 - F(1, 1 << 10),
            1 - F(1, 1 << 20), 1 - F(1, 1 << 200)]
CLOSED_POINTS = [F(1, 1 << 20), F(1, 256), F(1, 10), F(1, 3), F(1, 2),
                 F(5, 8), F(3, 4), F(9, 10), F(99, 100), F(1023, 1024),
                 1 - F(1, 1 << 20)]


def mp_of(x: F) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


def kept_bits(iv: Interval) -> float:
    """-log2 of the width: the bits after the binary point the enclosure
    keeps, the library's fixed-point reading of a precision."""
    w = iv.width()
    return float("inf") if w == 0 else -mp.log(mp_of(w), 2)


def series_functionals(x: F, precision: int) -> dict:
    """g, g0 and G built from the Gauss series alone at precision + 16
    work bits, and G's exp(K) from ``exp_K_agm``: the oracle that the
    closed forms match bit for bit below x = 1/2."""
    work = precision + 16
    A, B, C = (hyp_series(kind, x, work).enclosure
               for kind in ("3h3h3", "3h3h2", "hh2"))
    pi = enclose_constant("pi", work)
    factor = pi.mul_scalar(F(1, 8)) * C - Interval.from_fraction(F(1, 2),
                                                                 work)
    return {
        g_eval: A + pi * B * C - B.mul_scalar(4),
        g0_eval: A.mul_scalar(1 - x) + pi * C.square() - C.mul_scalar(4),
        G_eval: factor * exp_K_agm(x, work),
    }


def mp_functionals(x: F) -> dict:
    """g, g0 and G from mpmath's hypergeometric series at the current
    working precision."""
    xm = mp_of(x)
    A = mp.hyp2f1(1.5, 1.5, 3, xm)
    B = mp.hyp2f1(1.5, 1.5, 2, xm)
    C = mp.hyp2f1(0.5, 0.5, 2, xm)
    return {
        g_eval: A + mp.pi * B * C - 4 * B,
        g0_eval: (1 - xm) * A + mp.pi * C * C - 4 * C,
        G_eval: (mp.pi / 8 * C - mp.mpf(1) / 2) * mp.exp(mp.ellipk(xm)),
    }


@pytest.mark.parametrize("precision", [64, 256, 1000])
def test_agm_E_contains_mpmath_and_keeps_its_bits(precision):
    # mpmath's ellipe cancels about 2 log2(1/(1-m)) bits near m = 1
    mp.mp.prec = precision + 1024
    for m in E_POINTS:
        E = elliptic._agm_KE(m, precision)[1]
        assert mp_contains(E, mp.ellipe(mp_of(m))), m
        assert kept_bits(E) >= precision - 2, m


@pytest.mark.parametrize("m", [F(1, 3), F(1, 2), F(9, 10), F(99, 100)])
def test_legendre_sum_tail_holds_at_every_stop(m):
    # stopping the AGM after 0, 1, 2, ... means leaves a tail of the sum
    # S = 1 - E/K that only its bound covers
    mp.mp.prec = 400
    S = 1 - mp.ellipe(mp_of(m)) / mp.ellipk(mp_of(m))
    mi = elliptic._agm_arg(m, 128)
    full = elliptic._agm(mi)[1]
    for steps in range(8):
        gaps = full[:steps + 1]
        assert mp_contains(elliptic._legendre_sum(mi, gaps), S), steps


def test_legendre_relation_at_the_lemniscate():
    # E K' + E' K - K K' = pi/2, and at m = 1/2 K' = K and E' = E
    K, E = elliptic._agm_KE(F(1, 2), 200)
    assert ((E * K).mul_scalar(2) - K.square()).overlaps(
        enclose_constant("pi", 200).mul_scalar(F(1, 2)))


def test_agm_KE_bits_and_domain():
    # one loop gives K and E; its K has agm_K_m's bits
    KE = elliptic._agm_KE
    assert [ends(v) for v in KE(0, 64)] == [ends(v) for v in KE(F(0), 64)]
    for m in (F(1, 3), F(1, 2), 1 - F(1, 1 << 20)):
        assert ends(KE(m, 96)[0]) == ends(agm_K_m(m, 96))
    with pytest.raises(TypeError):
        KE(0.5, 64)
    for m in (F(1), F(-1, 10)):
        with pytest.raises(DomainError, match="parameter m must lie in"):
            KE(m, 64)


def test_g_g0_G_closed_forms_contain_mpmath():
    mp.mp.dps = 120
    for x in CLOSED_POINTS:
        for fn, value in mp_functionals(x).items():
            iv = fn(x, 256)
            assert mp_contains(iv, value), (fn.__name__, x)
            assert kept_bits(iv) >= 250, (fn.__name__, x)


@pytest.mark.parametrize("x", [F(1, 1 << 20), F(1, 256), F(1, 10), F(1, 3),
                               F(5, 8), F(9, 10)])
def test_closed_forms_overlap_the_series(x):
    # where the series are tight, each triple and each functional agrees
    kinds = ("hh2", "3h3h2", "3h3h3")
    for kind, form in zip(kinds, elliptic._gauss(x, 256, *kinds)[3]):
        assert form.overlaps(hyp_series(kind, x, 256).enclosure), kind
    for fn, series in series_functionals(x, 256).items():
        assert fn(x, 256).overlaps(series), fn.__name__


@pytest.mark.parametrize("x", [F(0), F(1, 10), F(1, 3), F(1, 2) - F(1, 1024)])
def test_below_one_half_the_closed_forms_give_the_series_bits(x):
    for precision in (8, 128):
        for fn, series in series_functionals(x, precision).items():
            assert ends(fn(x, precision)) == ends(series.round_to(precision))


def spy(monkeypatch, name: str) -> list:
    """Record the arguments of each call of ``elliptic.<name>``."""
    calls = []
    real = getattr(elliptic, name)
    monkeypatch.setattr(elliptic, name,
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_g_g0_G_run_no_series_and_G_one_agm(monkeypatch):
    # every x reads the closed forms, and G takes exp(K) from the K of the
    # AGM run that gave the closed form's K and E
    series, agms = spy(monkeypatch, "hyp_series"), spy(monkeypatch, "_agm")
    for x in (F(0), F(1, 1 << 20), F(1, 4), F(1, 2) - F(1, 1024), F(3, 4)):
        for fn in (g_eval, g0_eval, G_eval):
            fn(x, 64)
    assert series == []
    for kinds in (("hh2",), ("3h3h3", "3h3h2", "hh2")):
        assert [ends(f) for f in elliptic._gauss(0, 64, *kinds)[3]] == [
            ends(Interval.from_int(1, 80))] * len(kinds)
    agms.clear()
    G_eval(F(4321, 8192), 77)
    assert len(agms) == 1
    # the K beside the forms is that run's K, at the forms' work scale
    _, work, K, _ = elliptic._gauss(F(4321, 8192), 77)
    assert ends(K) == ends(agm_K_m(F(4321, 8192), work))


def mp_g4(t):
    return mp.exp(mp.ellipk(t)) - 4 / mp.sqrt(1 - t)


# 1 - x is not dyadic at these points, and near 1 4/sqrt(1 - x) magnifies
# its rounding about 2^(3L/2) times, L = ceil(log2(1/(1 - x)))
G4_END_POINTS = [y for k in (3, 10, 20, 30, 41, 60, 100, 200)
                 for y in (F(1, 3 << k), 1 - F(1, 3 << k))]


@pytest.mark.parametrize("precision", [8, 64, 256])
def test_G4_ekd_H_keep_their_bits_at_both_ends(precision):
    with mp.workprec(912):          # 1 - x and the cancellation keep 512 bits
        for x in G4_END_POINTS:
            t = mp_of(x)
            ekd = mp_g4(t) - mp_g4(1 - t)
            want = {G4_eval: mp_g4(t), ekd_eval: ekd, H_eval: ekd / (1 - 2 * t)}
            for fn, value in want.items():
                iv = fn(x, precision)
                assert mp_contains(iv, value), (fn.__name__, x)
                assert iv.hi - iv.lo <= 2, (fn.__name__, x, iv.hi - iv.lo)


@pytest.mark.parametrize("precision", [8, 64, 256])
def test_H_keeps_its_bits_near_one_half(precision):
    # H divides ekd by 1 - 2x, which magnifies ekd's rounding
    with mp.workprec(912):
        for k in (3, 10, 20, 40, 60, 100, 200):
            for x in (F(1, 2) - F(1, 3 << k), F(1, 2) + F(1, 3 << k)):
                t = mp_of(x)
                iv = H_eval(x, precision)
                ekd = mp_g4(t) - mp_g4(1 - t)
                assert mp_contains(iv, ekd / (1 - 2 * t)), x
                assert iv.hi - iv.lo <= 2, (x, iv.hi - iv.lo)


@pytest.mark.parametrize("fn", [g_eval, g0_eval, G_eval])
def test_functional_domain_errors(fn):
    for x in (F(1, 3), F(3, 4)):
        with pytest.raises(DomainError, match="below one bit"):
            fn(x, 0)
    for x in (F(1), F(-1, 10)):
        with pytest.raises(DomainError, match="series argument must lie in"):
            fn(x, 64)


def test_rprime_memo_is_typed_and_equals_its_formula():
    for x in (F(0), F(1, 3), 1 - F(1, 1 << 40)):
        for precision in (8, 96):
            want = Interval.from_fraction(1 - x, precision).sqrt()
            assert ends(elliptic._rprime(x, precision)) == ends(want)
            assert elliptic._rprime(x, precision) is elliptic._rprime(
                x, precision)
    assert elliptic._rprime(0, 64) is not elliptic._rprime(F(0), 64)
