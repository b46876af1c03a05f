"""The readers of the coefficient table against the Interval formulas
they replaced, compared bit for bit on the lo/hi integers.

Each oracle below is a reader's former body: b~_n read at the value
table's scale W = P + 32, scaled and multiplied there by the enclosure of
e^(pi/2), then rounded once to P; u_n and v_n by ``PiExpression.evaluate``;
the partial sum of ``exp_K`` by an Interval Horner loop over b~_n.  The
ends of ``ratios``, ``ratio_gaps`` and ``c_coeffs`` are also compared at
the table's scale, before that rounding, which can hide an ulp there.
"""

import functools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ellipmono import certify, coefficients, elliptic
from ellipmono.certify import certify_sequence
from ellipmono.coefficients import (CoefficientTable, shared_coefficients,
                                    threshold)
from ellipmono.constants import enclose_constant
from ellipmono.intervals import Interval
from ellipmono.pi_expr import PiExpression

# the ranges below cross n = 256 and 512, the cut points of a scan in
# blocks of 256 indices
BLOCK = 256


def btilde(t, n, prec):
    """b~_n at the value table's scale W = P + 32, unrounded."""
    t.ensure_values(n, prec)
    st = t._values[prec]
    return Interval(st["blo"][n], st["bhi"][n], prec + 32)


def times_e(iv, prec):
    """An interval at the table's scale times e^(pi/2), rounded to P."""
    return (iv * enclose_constant("exp_half_pi", iv.prec)).round_to(prec)


def scaled_ratio(t, n, prec):
    """b~_n 4^n / C(2n,n) at the table's scale, before e^(pi/2)."""
    c, bt = t._central(n), btilde(t, n, prec)
    return Interval((bt.lo << 2 * n) // c, -((-bt.hi << 2 * n) // c), bt.prec)


def oracle_ratio(t, n, prec):
    return times_e(scaled_ratio(t, n, prec), prec)


def scaled_ratio_gap(t, n, prec):
    """(n+1) b~_{n+1} - (n+1/2) b~_n at the table's scale."""
    return (btilde(t, n + 1, prec).mul_scalar(n + 1)
            - btilde(t, n, prec).mul_scalar(F(2 * n + 1, 2)))


def oracle_ratio_gap(t, n, prec):
    return times_e(scaled_ratio_gap(t, n, prec), prec)


@functools.lru_cache(maxsize=None)
def p_enclosure(p, work):
    return PiExpression.of(p).evaluate(work)


def scaled_p_wallis(t, n, p, prec):
    """p W_n at the table's scale, the part of c_n(p) subtracted there."""
    c, pe = t._central(n), p_enclosure(p, prec + 32)
    return Interval((pe.lo * c) >> 2 * n, -((-pe.hi * c) >> 2 * n), pe.prec)


def oracle_c(t, n, p, prec):
    bt = btilde(t, n, prec)
    b = bt * enclose_constant("exp_half_pi", bt.prec)
    return (b - scaled_p_wallis(t, n, p, prec)).round_to(prec)


def ends(ivs):
    ivs = list(ivs)
    return [iv.lo for iv in ivs], [iv.hi for iv in ivs]


def bits(iv):
    return iv.lo, iv.hi, iv.prec


def kernel_ends(call):
    """call()'s result, and the endpoint lists its kernel hands to
    ``_times_ehp``: the ends at the table's scale P + 32, before the
    product with e^(pi/2) and the shift to P, whose rounding can hide a
    kernel's wrong rounding direction by an ulp or two."""
    made = []
    real = coefficients._times_ehp

    def recording(lo, hi, precision, sub=None):
        lo, hi = list(lo), list(hi)
        if sub is not None:
            sub = tuple(map(list, sub))
        made.append(((lo, hi), sub))
        return real(lo, hi, precision, sub)

    with mock.patch.object(coefficients, "_times_ehp", recording):
        got = call()
    ((scaled, sub),) = made
    return got, scaled, sub


def check_block(t, n0, n1, prec, ps):
    ns = range(n0, n1 + 1)
    for kernel, scaled_oracle in ((t.ratios, scaled_ratio),
                                  (t.ratio_gaps, scaled_ratio_gap)):
        got, scaled, _ = kernel_ends(lambda: kernel(n0, n1, prec))
        want = [scaled_oracle(t, n, prec) for n in ns]
        assert scaled == ends(want), kernel
        assert got == ends(times_e(iv, prec) for iv in want), kernel
    assert t.u_values(n0, n1, prec) == ends(t.u_coeff(n).evaluate(prec)
                                            for n in ns)
    assert t.v_values(n0, n1, prec) == ends(t.v_coeff(n).evaluate(prec)
                                            for n in ns)
    for p in ps:
        got, scaled, sub = kernel_ends(lambda: t.c_coeffs(n0, n1, p, prec))
        assert scaled == ends(btilde(t, n, prec) for n in ns), p
        assert sub == ends(scaled_p_wallis(t, n, p, prec) for n in ns), p
        assert got == ends(oracle_c(t, n, p, prec) for n in ns), p


PARAMS = (F(4), F(399, 100), F(-1, 3), threshold(0), threshold(1),
          threshold(40))


@pytest.mark.parametrize("prec", [2, 7, 64, 128, 333, 8192])
def test_kernels_match_the_interval_formulas(prec):
    t = CoefficientTable()
    # at 8192 bits a short range: the table costs O(M(N P) log N)
    n1, cut = (40, 20) if prec == 8192 else (2 * BLOCK + 20, BLOCK)
    check_block(t, 0, n1, prec, PARAMS)         # crosses the block cuts
    check_block(t, cut - 3, cut + 3, prec, PARAMS)
    for n in (0, 1, cut, n1):                   # one-index reads
        check_block(t, n, n, prec, PARAMS)


@pytest.mark.parametrize("prec", [2, 7, 64, 128, 333, 8192])
def test_one_index_readers_are_the_kernels(prec):
    t = CoefficientTable()
    for n in (0, 1, 2, 39, 40):
        for reader, scaled_oracle in ((t.ratio, scaled_ratio),
                                      (t.ratio_gap, scaled_ratio_gap)):
            got, scaled, _ = kernel_ends(lambda: reader(n, prec))
            want = scaled_oracle(t, n, prec)
            assert scaled == ends([want])
            assert bits(got) == bits(times_e(want, prec))
        for p in PARAMS:
            got, scaled, sub = kernel_ends(lambda: t.c_coeff(n, p, prec))
            assert scaled == ends([btilde(t, n, prec)])
            assert sub == ends([scaled_p_wallis(t, n, p, prec)])
            assert bits(got) == bits(oracle_c(t, n, p, prec))


def oracle_btilde_enclosure(t, n, prec):
    return btilde(t, n, prec).round_to(prec)


def oracle_b_enclosure(t, n, prec):
    bt = btilde(t, n, prec)
    return (bt * enclose_constant("exp_half_pi", bt.prec)).round_to(prec)


@pytest.mark.parametrize("prec", [2, 7, 64, 128, 333])
def test_enclosure_readers_match_the_interval_formulas(prec):
    t = CoefficientTable()
    for n in [0, 1, 2, 3, 39, 40, BLOCK - 1, BLOCK, 500, 999, 1000]:
        assert bits(t.btilde_enclosure(n, prec)) == bits(
            oracle_btilde_enclosure(t, n, prec)), n
        assert bits(t.c_coeff(n, 0, prec)) == bits(
            oracle_b_enclosure(t, n, prec)), n


def oracle_horner(x, prec, terms):
    """exp_K's former Interval Horner loop over b~_0..b~_terms, at the
    value table's scale."""
    t = shared_coefficients()
    horner = btilde(t, terms, prec)
    for k in range(terms - 1, -1, -1):
        horner = horner.mul_scalar(x) + btilde(t, k, prec)
    return horner


@pytest.mark.parametrize("prec", [2, 7, 64, 128, 280, 333])
@pytest.mark.parametrize("x", [F(0), F(1, 100), F(1, 2), F(81, 100),
                               1 - F(1, 1 << 10)])
@pytest.mark.parametrize("n_terms", [None, 60])
def test_exp_K_horner_matches_the_interval_loop(monkeypatch, prec, x,
                                                n_terms):
    # the rounding to P hides a few ulps at the table's scale, so the
    # Horner ends are compared there too: the last Interval that exp_K
    # builds holds them
    made = []

    class Recording(Interval):
        def __init__(self, lo, hi, p):
            super().__init__(lo, hi, p)
            made.append((lo, hi, p))

    monkeypatch.setattr(elliptic, "Interval", Recording)
    got = elliptic.exp_K(x, prec, n_terms)
    horner = oracle_horner(x, prec, got.terms_used - 1)
    assert made[-1] == bits(horner)
    assert bits(got.partial) == bits(
        (horner * enclose_constant("exp_half_pi", prec + 32)).round_to(prec))


def test_an_empty_block_is_empty():
    t = CoefficientTable()
    assert t.ratios(5, 4, 64) == t.c_coeffs(5, 4, F(4), 64) == ([], [])


_shared_for_hypothesis = CoefficientTable()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n0=st.integers(0, 300), length=st.integers(0, 300),
       prec=st.integers(1, 300),
       p=st.fractions(min_value=-8, max_value=8, max_denominator=1000))
def test_kernels_match_on_random_blocks(n0, length, prec, p):
    check_block(_shared_for_hypothesis, n0, n0 + length, prec, (p,))


# The per-index margins of the sequence claims before the block scan: the
# oracle formulas above, one index and precision at a time, folded with
# Fraction keys.
_t = shared_coefficients()
ORACLE_MARGINS = {
    "u_signs": lambda n, p, prec: (_t.u_coeff(n).evaluate(prec) if n < 2
                                   else -_t.u_coeff(n).evaluate(prec)),
    "v_positive": lambda n, p, prec: _t.v_coeff(n).evaluate(prec),
    "ratio_increasing": lambda n, p, prec: (oracle_ratio(_t, n + 1, prec)
                                            - oracle_ratio(_t, n, prec)),
    "ratio_below_4": lambda n, p, prec: (Interval.from_int(4, prec)
                                         - oracle_ratio(_t, n, prec)),
    "gap_positive": lambda n, p, prec: oracle_ratio_gap(_t, n, prec),
    "c_nonneg": lambda n, p, prec: oracle_c(_t, n, p, prec),
    "c_nonpos": lambda n, p, prec: -oracle_c(_t, n, p, prec),
}


def oracle_certificate(claim, n_start, n_end, p, precision, max_precision):
    p = None if p is None else PiExpression.of(p)

    def evaluate(n, prec):
        margin = ORACLE_MARGINS[claim](n, p, prec)
        if (p is not None and margin.lo <= 0 <= margin.hi
                and n <= certify._EXACT_ZERO_CAP
                and _t.c_is_exactly_zero(n, p)):
            return None
        return margin

    scope = {"claim": claim} if p is None else {"claim": claim,
                                                "p": p.render()}
    return certify._fold(
        claim, f"n={n_start}..{n_end}",
        ((f"n={n}", functools.partial(evaluate, n))
         for n in range(n_start, n_end + 1)),
        ("smallest margin", "sign provably violated",
         "sign undecided at precision cap"),
        t0=0.0, precision=precision, max_precision=max_precision,
        scope=scope, key=Interval.lo_fraction)


def body(cert):
    d = cert.to_json_dict()
    del d["runtime_ms"]
    return d


@pytest.mark.parametrize("claim,p", [
    (claim, None) for claim in certify.SEQUENCE_CLAIMS if claim[0] != "c"
] + [("c_nonneg", threshold(1)), ("c_nonneg", threshold(40)),
     ("c_nonpos", F(4)), ("c_nonpos", threshold(0)),
     ("c_nonneg", F(-1, 3))])
@pytest.mark.parametrize("precision,max_precision", [
    (128, 8192), (7, 8192), (3, 40), (64, 32)])
def test_block_scan_is_the_per_index_fold(claim, p, precision,
                                          max_precision):
    # low starting precisions escalate many indices, so the witness is
    # picked among margins at several precisions
    n_end = BLOCK + 60
    assert body(certify_sequence(claim, 0, n_end, p, precision,
                                 max_precision)) == body(
        oracle_certificate(claim, 0, n_end, p, precision, max_precision))


def _between_ratios(n):
    """A rational p with ratio(n) < p < ratio(n + 1): c_nonpos at p holds
    up to n and is refuted at n + 1."""
    t = shared_coefficients()
    below = t.ratio(n, 128).hi_fraction()
    above = t.ratio(n + 1, 128).lo_fraction()
    return (below + above) / 2


@pytest.mark.parametrize("claim,p,precision,status", [
    # n = 2974..3000 are undecided at 24 bits and decide at 48; n = 3001
    # is refuted at 48 bits
    ("c_nonpos", 3000, 24, ("Refuted", 48, "n=3001",
                            "-0.000000001106384317495212599169 ± 1.8e-15")),
    # refuted at the first index of a range read whole
    ("c_nonneg", F(4), 128, ("Refuted", 128, "n=1",
                             "-0.110929949962422769816709257558 ± 1.5e-39")),
])
def test_whole_range_scan_keeps_late_and_early_refutations(claim, p,
                                                          precision, status):
    if isinstance(p, int):
        p = _between_ratios(p)
    got = body(certify_sequence(claim, 1, 4000, p, precision))
    assert got == body(oracle_certificate(claim, 1, 4000, p, precision, 8192))
    (witness,) = got["witnesses"]
    assert (got["status"], got["precision_used"], witness["location"],
            witness["value"]) == status
