"""The block kernels of the coefficient table against the Interval
formulas they replaced, compared bit for bit on the lo/hi integers.

Each oracle below is a reader's former body: b~_n read at the value
table's scale W = P + 32, scaled and multiplied there by the enclosure of
e^(pi/2), then rounded once to P; u_n and v_n by ``PiExpression.evaluate``.
"""

import functools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ellipmono import certify
from ellipmono.certify import certify_sequence
from ellipmono.coefficients import (CoefficientTable, shared_coefficients,
                                    threshold)
from ellipmono.constants import enclose_constant
from ellipmono.intervals import Interval
from ellipmono.pi_expr import PiExpression

# the ranges below cross the scan's block boundaries
BLOCK = certify._BLOCK


def oracle_ratio(t, n, prec):
    c, bt = t._central(n), t._btilde(n, prec)
    bt = Interval((bt.lo << 2 * n) // c, -((-bt.hi << 2 * n) // c), bt.prec)
    return (bt * enclose_constant("exp_half_pi", bt.prec)).round_to(prec)


def oracle_ratio_gap(t, n, prec):
    hi = t._btilde(n + 1, prec).mul_scalar(n + 1)
    lo = t._btilde(n, prec).mul_scalar(F(2 * n + 1, 2))
    return ((hi - lo) * enclose_constant("exp_half_pi", hi.prec)
            ).round_to(prec)


@functools.lru_cache(maxsize=None)
def p_enclosure(p, work):
    return PiExpression.of(p).evaluate(work)


def oracle_c(t, n, p, prec):
    c, bt = t._central(n), t._btilde(n, prec)
    b = bt * enclose_constant("exp_half_pi", bt.prec)
    pe = p_enclosure(p, bt.prec)
    p_w = Interval((pe.lo * c) >> 2 * n, -((-pe.hi * c) >> 2 * n), pe.prec)
    return (b - p_w).round_to(prec)


def ends(ivs):
    ivs = list(ivs)
    return [iv.lo for iv in ivs], [iv.hi for iv in ivs]


def bits(iv):
    return iv.lo, iv.hi, iv.prec


def check_block(t, n0, n1, prec, ps):
    ns = range(n0, n1 + 1)
    assert t.ratios(n0, n1, prec) == ends(oracle_ratio(t, n, prec)
                                          for n in ns)
    assert t.ratio_gaps(n0, n1, prec) == ends(oracle_ratio_gap(t, n, prec)
                                              for n in ns)
    assert t.u_values(n0, n1, prec) == ends(t.u_coeff(n).evaluate(prec)
                                            for n in ns)
    assert t.v_values(n0, n1, prec) == ends(t.v_coeff(n).evaluate(prec)
                                            for n in ns)
    for p in ps:
        assert t.c_coeffs(n0, n1, p, prec) == ends(oracle_c(t, n, p, prec)
                                                   for n in ns), p


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
        assert bits(t.ratio(n, prec)) == bits(oracle_ratio(t, n, prec))
        assert bits(t.ratio_gap(n, prec)) == bits(
            oracle_ratio_gap(t, n, prec))
        for p in PARAMS:
            assert bits(t.c_coeff(n, p, prec)) == bits(
                oracle_c(t, n, p, prec))


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
        scope=scope)


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
