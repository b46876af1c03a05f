"""Certification machinery: sequence claims, grids, probes, quotients."""

import itertools
import math
import random
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import pytest

from ellipmono import certify, coefficients, elliptic
from ellipmono.certify import (
    FAMILIES,
    SEQUENCE_CLAIMS,
    SHARPNESS_FAMILIES,
    BoundSpec,
    Certificate,
    CertStatus,
    Family,
    Witness,
    certify_sequence,
    default_grid,
    default_pair_grid,
    grid_verify,
    h_monotonicity,
    j_quotient_coefficients,
    j_truncation_check,
    resolve_spec,
    sharpness_probe,
)
from ellipmono.coefficients import (CoefficientTable, b_coeff, threshold,
                                    wallis)
from ellipmono.constants import enclose_constant
from ellipmono.intervals import DomainError, Interval
from ellipmono.pi_expr import PiExpression

F = Fraction

SMALL_GRID = [F(k, 17) for k in range(1, 17)] + [F(1, 64), 1 - F(1, 64)]
SMALL_PAIRS = default_pair_grid(8)


def small_grid(family):
    """A small grid of the family's point shape."""
    pairs = FAMILIES[family].grid is default_pair_grid
    return SMALL_PAIRS if pairs else SMALL_GRID


def test_cert_status_strings():
    assert CertStatus.CERTIFIED.value == "Certified"
    assert CertStatus.REFUTED.value == "Refuted"
    assert CertStatus.UNDECIDED.value == "Undecided"
    assert CertStatus.CERTIFIED == "Certified"  # str-enum comparison


def test_certificate_json_schema_order():
    cert = certify_sequence("u_signs", 0, 10)
    d = cert.to_json_dict()
    assert list(d)[:6] == ["claim", "range", "status", "precision_used",
                           "witnesses", "runtime_ms"]
    assert d["status"] == "Certified"
    assert isinstance(d["runtime_ms"], (int, float))


def test_witness_json():
    w = Witness(location="n=3", value="1/2", note="margin")
    assert w.to_json_dict() == {"location": "n=3", "value": "1/2",
                                "note": "margin"}


# ----------------------------------------------------------------------
# sequence claims

@pytest.mark.parametrize("claim, lo, hi", [
    ("u_signs", 0, 40),
    ("v_positive", 2, 60),
    ("ratio_increasing", 1, 100),
    ("ratio_below_4", 1, 100),
    ("gap_positive", 1, 100),
])
def test_sequence_claims_certify(claim, lo, hi):
    assert claim in SEQUENCE_CLAIMS
    cert = certify_sequence(claim, lo, hi)
    assert cert.status is CertStatus.CERTIFIED, cert.to_json_dict()


def test_sequence_claims_keep_their_order():
    # the order of the CLI's --claim choices and of its --help
    assert SEQUENCE_CLAIMS == ("u_signs", "v_positive", "ratio_increasing",
                               "ratio_below_4", "gap_positive", "c_nonneg",
                               "c_nonpos")


def test_c_nonneg_with_boundary_zero():
    cert = certify_sequence("c_nonneg", 0, 50, p=threshold(1))
    assert cert.status is CertStatus.CERTIFIED
    assert cert.boundary_zeros == ["n=1"]


def test_c_nonpos_with_boundary_zero():
    cert = certify_sequence("c_nonpos", 0, 50, p=threshold(0))
    assert cert.status is CertStatus.CERTIFIED
    assert cert.boundary_zeros == ["n=0"]


def test_c_nonpos_rational_four():
    cert = certify_sequence("c_nonpos", 1, 50, p=F(4))
    assert cert.status is CertStatus.CERTIFIED
    assert not cert.boundary_zeros


def test_c_nonneg_refuted_at_four():
    cert = certify_sequence("c_nonneg", 1, 5, p=F(4))
    assert cert.status is CertStatus.REFUTED
    assert cert.witnesses
    assert cert.witnesses[0].location == "n=1"


def test_sequence_domain_errors():
    with pytest.raises(DomainError, match="unknown sequence claim"):
        certify_sequence("nope", 0, 1)
    for claim in ("c_nonneg", "c_nonpos"):
        with pytest.raises(DomainError, match="needs the parameter p"):
            certify_sequence(claim, 0, 5)


# ----------------------------------------------------------------------
# grid families

@pytest.mark.parametrize("family, order", [
    ("P1_lower", 0),
    ("P1_lower", 1),
    ("P1_upper", 0),
    ("P1_upper", 1),
    ("P2_lower", 0),
    ("P2_upper", 0),
    ("EKDIFF_upper", 0),
    ("EKDIFF_lower", 0),
    ("RMK4_QI", 0),
    ("RMK4_YI", 0),
])
def test_scalar_families_certify(family, order):
    cert = grid_verify(BoundSpec(family, order), SMALL_GRID)
    assert cert.status is CertStatus.CERTIFIED, cert.to_json_dict()


@pytest.mark.parametrize("family, order", [
    ("P3_lower", 1),
    ("P3_lower", 2),
    ("P3_upper", 1),
    ("P3_upper", 2),
    ("CP3_lower", 0),
    ("CP3_upper", 0),
])
def test_pair_families_certify(family, order):
    cert = grid_verify(BoundSpec(family, order), SMALL_PAIRS)
    assert cert.status is CertStatus.CERTIFIED, cert.to_json_dict()


@pytest.mark.parametrize("x", [F(1, 1 << 12), F(1, 10), F(1, 3), F(1, 2),
                               F(9, 10), 1 - F(1, 1 << 12)])
def test_rmk4_yi_margin_contains_its_factored_form(x):
    # the margin is (1 - r')^2 L(r') / (8 r') with L = (pi e + 4e - 32)
    # + (pi e - 16) r' and e = e^(pi/2), derived by hand from the two bounds
    spec = resolve_spec(BoundSpec("RMK4_YI"))
    margin = FAMILIES["RMK4_YI"].margin(spec, x, 128)
    with mp.workdps(60):
        r = mp.sqrt(1 - mp.mpf(x.numerator) / x.denominator)
        e = mp.exp(mp.pi / 2)
        L = (mp.pi * e + 4 * e - 32) + (mp.pi * e - 16) * r
        want = (1 - r) ** 2 * L / (8 * r)
        lo, hi = margin.lo_fraction(), margin.hi_fraction()
        assert (mp.mpf(lo.numerator) / lo.denominator <= want
                <= mp.mpf(hi.numerator) / hi.denominator), x


# ----------------------------------------------------------------------
# mpmath oracles: each margin transcribed from its family's stated
# inequality, with no call into the library.  K(sqrt(x)) is mp.ellipk(x)

def mp_q(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


def mp_c(n: int, p) -> mp.mpf:
    """c_n(p) = b_n - p W_n, with b_n the coefficients of exp(K(sqrt(x)))
    = exp(sum_k a_k x^k), a_0 = pi/2 and a_k = (pi/2) W_k^2, by the
    power-series exponential k b_k = sum_{j=1}^k j a_j b_{k-j}."""
    W = [mp.binomial(2 * k, k) / mp.mpf(4) ** k for k in range(n + 1)]
    a = [mp.pi / 2 * w * w for w in W]
    b = [mp.exp(mp.pi / 2)]
    for k in range(1, n + 1):
        b.append(mp.fsum(j * a[j] * b[k - j] for j in range(1, k + 1)) / k)
    return b[n] - p * W[n]


def mp_threshold(k: int) -> mp.mpf:
    """The sharp parameter b_k/W_k, where c_k(p) vanishes."""
    return mp_c(k, 0) / (mp.binomial(2 * k, k) / mp.mpf(4) ** k)


def mp_ekd(x):
    """e^K(x) - e^K(1-x) + 4/sqrt(x) - 4/sqrt(1-x), K(x) = K(sqrt(x))."""
    return (mp.exp(mp.ellipk(x)) - mp.exp(mp.ellipk(1 - x))
            + 4 / mp.sqrt(x) - 4 / mp.sqrt(1 - x))


def mp_margin(family: str, order: int, pt):
    """The margin by which the family's inequality holds at ``pt``."""
    K, e = mp.ellipk, mp.exp(mp.pi / 2)
    if family in ("CP3_lower", "CP3_upper", "P3_lower", "P3_upper"):
        x, y = map(mp_q, pt)
        # at order 2 the bounds subtract c_2(p) (x^2 + y^2 - w z^2)
        p = mp_threshold(2) if family == "P3_lower" else 4
        c2 = mp_c(2, p) if order >= 2 else 0
        if family.endswith("lower"):  # K(x) + K(y) - 2 K((x+y)/2) > corr
            z = (x + y) / 2
            return K(x) + K(y) - 2 * K(z) - c2 * (x ** 2 + y ** 2 - 2 * z ** 2)
        z = x + y                     # K(x) + K(y) - K(x+y) - corr < pi/2
        return mp.pi / 2 - (K(x) + K(y) - K(z)
                            - c2 * (x ** 2 + y ** 2 - z ** 2))
    x = mp_q(pt)
    r = mp.sqrt(1 - x)
    if family == "RMK4_QI":         # alpha - (2 - pi e/8) x < alpha
        return (2 - mp.pi * e / 8) * x
    if family == "P1_lower":        # K > ln(p/r' + sum_{n<=m} c_n(p) x^n)
        p = mp_threshold(order + 1)
        arg = p / r + mp.fsum(mp_c(n, p) * x ** n for n in range(order + 1))
        return K(x) - mp.ln(arg)
    if family == "P1_upper":        # K < ln(4/r' + sum_{n<=m} c_n(4) x^n)
        arg = 4 / r + mp.fsum(mp_c(n, 4) * x ** n for n in range(order + 1))
        return mp.ln(arg) - K(x)
    if family == "P2_lower":
        # K > ln(4/r' + sum_{n<=m} c_n(4) (x^n - x^(m+1)))
        arg = 4 / r + mp.fsum(mp_c(n, 4) * (x ** n - x ** (order + 1))
                              for n in range(order + 1))
        return K(x) - mp.ln(arg)
    if family == "P2_upper":        # K < ln(4/r' + sum_{n<=m+1} c_n(4) x^n)
        arg = 4 / r + mp.fsum(mp_c(n, 4) * x ** n for n in range(order + 2))
        return mp.ln(arg) - K(x)
    if family == "M1_identity":
        # the sharp P1_lower arguments of orders 1 and 0 differ by
        # pi (pi - 3) e x^2 (x + 3) / (96 r' (2 + (x + 2) r'))
        p1, p2 = mp_threshold(1), mp_threshold(2)
        gap = (p2 / r + mp_c(0, p2) + mp_c(1, p2) * x) - (p1 / r + mp_c(0, p1))
        return gap - (mp.pi * (mp.pi - 3) * e * x ** 2 * (x + 3)
                      / (96 * r * (2 + (x + 2) * r)))
    s = 1 - 2 * x                   # beta < H = ekd/(1 - 2x) < alpha
    H = mp_ekd(x) / s
    if family == "EKDIFF_upper":
        return abs(s) * (e - 4 - H)
    beta = -mp.diff(mp_ekd, mp.mpf(1) / 2) / 2
    return abs(s) * (H - beta)


ORACLE_POINTS = [F(1, 1 << 12), F(1, 10), F(1, 3), F(3, 5), F(9, 10),
                 1 - F(1, 1 << 12)]
ORACLE_PAIRS = [(F(1, 64), F(1, 32)), (F(1, 10), F(1, 5)), (F(1, 4), F(1, 3)),
                (F(1, 3), F(1, 2)), (F(1, 100), F(9, 10)),
                (F(2, 5), F(59, 100))]


@pytest.mark.parametrize("family, order", [
    ("CP3_lower", 0), ("CP3_upper", 0), ("RMK4_QI", 0), ("P1_lower", 0),
    ("P1_lower", 1), ("P1_upper", 0), ("P1_upper", 1), ("P2_lower", 0),
    ("P2_lower", 1), ("P2_upper", 0), ("P2_upper", 1), ("P3_lower", 2),
    ("P3_upper", 2), ("EKDIFF_upper", 0), ("EKDIFF_lower", 0),
    ("M1_identity", 0)])
def test_margin_contains_its_mpmath_transcription(family, order):
    spec = resolve_spec(BoundSpec(family, order))
    pairs = FAMILIES[family].grid is default_pair_grid
    for pt in ORACLE_PAIRS if pairs else ORACLE_POINTS:
        margin = FAMILIES[family].margin(spec, pt, 128)
        with mp.workdps(60):
            want = mp_margin(family, order, pt)
            assert (mp_q(margin.lo_fraction()) <= want
                    <= mp_q(margin.hi_fraction())), pt
            if FAMILIES[family].identity:   # the closed form holds
                assert abs(want) < mp.mpf(10) ** -50, pt


@pytest.mark.parametrize("precision", [64, 128, 1100, 8192])
def test_alpha_contains_its_mpmath_value(precision):
    # alpha = H(0+) = e^(pi/2) - 4; at 8192 bits e^(pi/2) runs exp's
    # reduction by 2^-45
    alpha = elliptic.alpha_enclosure(precision)
    with mp.workprec(precision + 64):
        want = mp.exp(mp.pi / 2) - 4
        assert (mp_q(alpha.lo_fraction()) <= want
                <= mp_q(alpha.hi_fraction()))


def test_identity_family_certifies():
    grid = [F(k, 23) for k in range(1, 23)]
    cert = grid_verify(BoundSpec("M1_identity", 0), grid)
    assert cert.status is CertStatus.CERTIFIED


def test_overshooting_parameter_is_refuted():
    # raising the parameter above its sharp value breaks the lower bound
    # for small x, and the verifier must find the violation, not hide it
    spec = BoundSpec("P1_lower", 0, param_offset=F(1, 2))
    cert = grid_verify(spec, [F(1, 256), F(1, 64), F(1, 16)])
    assert cert.status is CertStatus.REFUTED
    assert cert.witnesses


@pytest.mark.parametrize("family", list(FAMILIES))
def test_a_start_precision_too_low_to_evaluate_escalates(family):
    # at 8 bits and below, 1 - x rounds to [0, 2^-P] at x = 1 - 2^-12, so
    # 1/sqrt(1 - x) divides by an interval holding zero; like an undecided
    # sign, that doubles the precision instead of ending the run
    for bits in (1, 2, 4, 8):
        cert = grid_verify(BoundSpec(family), precision=bits)
        assert cert.status is CertStatus.CERTIFIED, (bits, cert)
        assert cert.precision_used > bits


@pytest.mark.parametrize("family", SHARPNESS_FAMILIES)
def test_a_probe_from_too_few_bits_escalates(family):
    eps = F(1, 100) if family.startswith("P1") else F(1, 1000)
    for bits in (1, 2, 8):
        cert = sharpness_probe(family, eps, precision=bits)
        assert cert.status is CertStatus.REFUTED, (bits, cert)


@pytest.mark.parametrize("cap", [0, -5])
@pytest.mark.parametrize("driver", [
    lambda cap: grid_verify(BoundSpec("P1_lower"), [F(1, 3)],
                            max_precision=cap),
    lambda cap: certify_sequence("u_signs", 0, 3, max_precision=cap),
    lambda cap: sharpness_probe("P1_lower", F(1, 100), max_precision=cap),
    lambda cap: h_monotonicity([F(1, 3), F(2, 5)], max_precision=cap),
    lambda cap: j_truncation_check(5, max_precision=cap),
], ids=["grid_verify", "certify_sequence", "sharpness_probe",
        "h_monotonicity", "j_truncation_check"])
def test_a_cap_below_one_bit_is_refused_before_any_table_work(
        monkeypatch, driver, cap):
    # with no table to read, any table work would raise AttributeError
    monkeypatch.setattr(certify, "_table", None)
    with pytest.raises(DomainError,
                       match=f"max_precision {cap} is below one bit"):
        driver(cap)


def test_a_domain_error_at_the_cap_still_raises():
    # a point outside the margin's domain fails at every precision
    for family in ("EKDIFF_upper", "EKDIFF_lower"):
        with pytest.raises(DomainError, match="degenerates at x = 1/2"):
            grid_verify(BoundSpec(family), [F(1, 4), F(1, 2)], precision=2)
    for spec, pt in ((BoundSpec("CP3_upper"), (F(1, 2), F(3, 4))),
                     (BoundSpec("P3_upper", 2), (F(1, 2), F(1, 2)))):
        with pytest.raises(DomainError, match=r"needs x \+ y < 1"):
            grid_verify(spec, [pt], precision=2)
    # and a cap too low to evaluate the point gives the kernel's error
    with pytest.raises(DomainError, match="interval containing zero"):
        grid_verify(BoundSpec("P1_lower"), [1 - F(1, 1 << 12)],
                    precision=2, max_precision=8)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_a_grid_point_outside_the_unit_interval_raises_first(family,
                                                             monkeypatch):
    # a margin outside its domain can refute a true bound (RMK4_QI at
    # x = -1) or certify one (at x = 2), so the point is rejected before
    # the spec is resolved (which grows the exact table) or any point runs
    monkeypatch.setattr(certify, "resolve_spec", None)
    pair = FAMILIES[family].grid is default_pair_grid
    good = (F(1, 8), F(1, 4)) if pair else F(1, 4)
    for bad in (-1, 0, 1, F(3, 2)):
        pt = (F(1, 4), bad) if pair else bad
        with pytest.raises(DomainError, match=re.escape(
                f"grid point {certify._pt_str(pt)} lies outside (0, 1)")):
            grid_verify(BoundSpec(family), [good, pt])
    # so is a point that is not an int or Fraction: RMK4_QI at the float
    # 0.1 certified its margin at 0.1000000000000000055..., and P1_lower
    # raised mid-scan
    for bad in (0.1, "1/3", Decimal("0.1")):
        pt = (F(1, 4), bad) if pair else bad
        with pytest.raises(TypeError, match="expected an exact rational"):
            grid_verify(BoundSpec(family), [good, pt])


@pytest.mark.parametrize("family,pt", [
    ("P3_lower", F(1, 3)),
    ("P1_lower", (F(1, 4), F(1, 3))),
    ("RMK4_QI", (F(1, 4), F(1, 3))),
    ("CP3_upper", (F(1, 4),)),
    ("CP3_lower", (F(1, 8), F(1, 4), F(1, 3))),
])
def test_a_grid_point_of_the_wrong_shape_raises_first(family, pt,
                                                      monkeypatch):
    # each failed inside a margin, with a different error each time
    monkeypatch.setattr(certify, "resolve_spec", None)
    with pytest.raises(DomainError, match=f"{family} takes (a pair|one x)"):
        grid_verify(BoundSpec(family), [pt])


@pytest.mark.parametrize("family",
                         ["RMK4_QI", "RMK4_YI", "CP3_upper", "P3_upper"])
def test_margins_finer_than_the_cap_fold(family):
    # these margins read enclose_constant, which answers at P + 3 bits,
    # finer than a cap of P, so the fold orders values finer than its
    # integer scale
    at_cap = grid_verify(BoundSpec(family), precision=128, max_precision=128)
    assert at_cap.status is CertStatus.CERTIFIED
    assert at_cap.witnesses == grid_verify(BoundSpec(family),
                                           precision=128).witnesses


def _fold_witness(values):
    """The witness location of a fold over items whose margins are
    ``values``, (name, Interval) pairs, each decided at once."""
    cert = certify._fold("claim", "range",
                         ((loc, lambda prec, iv=iv: iv) for loc, iv in values),
                         ("smallest", "negative", "undecided"), t0=0.0,
                         precision=7, max_precision=333, scope={})
    assert cert.status is CertStatus.CERTIFIED
    return cert.witnesses[0].location


def test_fold_orders_witnesses_across_precisions():
    # 336 bits is finer than the fold's max_precision, as a margin on
    # enclose_constant (P + 3 bits) is at the cap
    bits = (7, 64, 333, 336)
    # equal values at three precisions: the first item is the witness
    for order in itertools.permutations(bits):
        items = [(f"at {b}", Interval.from_fraction(F(3, 4), b))
                 for b in order]
        assert _fold_witness(items) == f"at {order[0]}"
    # distinct values: the first smallest lower end, as Fraction keys pick
    # it; at 7 bits many of these lower ends coincide
    rng = random.Random(24)
    for _ in range(50):
        items = [(f"item {i}", Interval.from_fraction(
                  1 + F(rng.randint(1, 999), rng.randint(1, 999)), b))
                 for i, b in enumerate(rng.choice(bits) for _ in range(5))]
        least = min(items, key=lambda item: item[1].lo_fraction())
        assert _fold_witness(items) == least[0]
    # lower ends tied across precisions: the earlier item wins
    coarse = Interval(96, 97, 7)                    # [3/4, 97/128]
    fine = Interval(96 << 57, (96 << 57) + 1, 64)   # [3/4, 3/4 + 2^-64]
    assert _fold_witness([("coarse", coarse), ("fine", fine)]) == "coarse"
    assert _fold_witness([("fine", fine), ("coarse", coarse)]) == "fine"


def test_resolve_spec_defaults():
    spec = resolve_spec(BoundSpec("P1_lower", 0))
    assert spec.param == threshold(1)
    spec = resolve_spec(BoundSpec("P1_upper", 3))
    assert spec.param == F(4)
    described = BoundSpec("P1_lower", 1, threshold(2)).describe()
    assert described["family"] == "P1_lower"
    assert described["order"] == 1
    assert "exp(pi/2)" in described["param"]


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        grid_verify(BoundSpec("P9_upper", 0), SMALL_GRID)


@pytest.mark.parametrize("family", ["P1_lower", "P2_upper", "CP3_lower"])
def test_negative_order_rejected(family):
    with pytest.raises(DomainError, match="order=-1 is negative"):
        grid_verify(BoundSpec(family, -1), small_grid(family))


def test_sharpness_probe_rejects_negative_order():
    with pytest.raises(DomainError, match="order=-1 is negative"):
        sharpness_probe("P1_lower", F(1, 100), order=-1)


# ----------------------------------------------------------------------
# grids

def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) >= 200
    assert all(0 < x < 1 for x in grid)
    assert F(1, 1 << 12) in grid and 1 - F(1, 1 << 12) in grid
    assert grid == sorted(grid)


@pytest.mark.parametrize("density", list(range(65)) + [400, 1000])
def test_default_grid_integer_key_is_the_fraction_order(density):
    # the same points as a set, and the order sorted() gives the Fractions
    pts = {F(k, density + 1) for k in range(1, density + 1)}
    pts |= {F(1, 1 << j) for j in range(2, 13)}
    pts |= {1 - F(1, 1 << j) for j in range(2, 13)}
    assert default_grid(density) == sorted(pts)


def test_default_pair_grid_shape():
    pairs = default_pair_grid()
    assert len(pairs) >= 200
    cap = 1 - F(1, 1 << 10)
    assert all(0 < x < y < 1 and x + y <= cap for x, y in pairs)


@pytest.mark.parametrize("build", [default_grid, default_pair_grid])
def test_negative_grid_density_rejected(build):
    with pytest.raises(DomainError, match="grid density -1 is negative"):
        build(-1)
    # zero is a density: no uniform points, only default_grid's dyadic ones
    assert len(build(0)) == (22 if build is default_grid else 0)


@pytest.mark.parametrize("family", ["EKDIFF_upper", "EKDIFF_lower"])
def test_difference_bound_grid_leaves_out_the_half(family):
    # both sides of the bound vanish at x = 1/2, which default_grid holds
    # at every odd density
    build = FAMILIES[family].grid
    for density in (0, 1, 3, 59, 60, 200):
        assert build(density) == [x for x in default_grid(density)
                                  if x != F(1, 2)]
    assert build() == default_grid()
    # an explicit grid is taken as given
    with pytest.raises(DomainError, match="degenerates at x = 1/2"):
        grid_verify(BoundSpec(family), [F(1, 4), F(1, 2)])


# ----------------------------------------------------------------------
# sharpness probes

@pytest.mark.parametrize("family", SHARPNESS_FAMILIES)
def test_sharpness_probes_refute(family):
    eps = F(1, 100) if family.startswith("P1") else F(1, 1000)
    cert = sharpness_probe(family, eps)
    assert cert.status is CertStatus.REFUTED, cert.to_json_dict()
    assert cert.witnesses
    assert "x=" in cert.witnesses[0].location


def test_sharpness_probe_gives_up_honestly():
    cert = sharpness_probe("EKDIFF_upper", F(1, 1000), max_steps=3)
    assert cert.status is CertStatus.UNDECIDED


def test_sharpness_probe_rejects_a_zero_epsilon():
    with pytest.raises(DomainError, match="epsilon must be positive"):
        sharpness_probe("P1_lower", F(0))


def test_sharpness_probe_rejects_unknown_family():
    with pytest.raises(DomainError):
        sharpness_probe("RMK4_QI", F(1, 100))


# ----------------------------------------------------------------------
# symmetrized difference quotient

def test_h_monotone_certifies():
    xs = [F(k, 10) for k in (1, 2, 3, 4)] + [F(k, 10) for k in (6, 7, 8, 9)]
    cert = h_monotonicity(xs)
    assert cert.status is CertStatus.CERTIFIED


def test_h_monotone_rejects_midpoint():
    with pytest.raises(DomainError):
        h_monotonicity([F(1, 4), F(1, 2), F(3, 4)])


def test_h_monotone_rejects_repeated_points():
    # a repeated point makes a step x=a..a whose difference encloses zero
    # at every precision: it would escalate to the cap and read Undecided
    with pytest.raises(DomainError, match="distinct"):
        h_monotonicity([F(1, 4), F(1, 4), F(1, 3)])


# ----------------------------------------------------------------------
# formal quotient coefficients

def test_j_quotient_closed_forms():
    qs = j_quotient_coefficients(2)
    assert qs[0] == PiExpression((F(0), F(1, 4)), exp_scale=True)
    assert qs[1] == PiExpression((F(0), F(-3, 64), F(1, 64)), exp_scale=True)


def long_division_quotient(count):
    """q_0..q_{count-1} by Fraction long division of sum b_n x^n by
    sum W_n x^n (both from n = 1), independent of the integer table."""
    w1 = wallis(1)
    qs = []
    for k in range(count):
        acc = b_coeff(k + 1)
        for j, qj in enumerate(qs):
            acc = acc - qj.scale(wallis(k + 1 - j))
        qs.append(acc.scale(1 / w1))
    return qs


def test_j_quotient_matches_long_division():
    assert j_quotient_coefficients(60) == long_division_quotient(60)


QUOTIENT_N = 200


def numerators(e, n):
    """The integer pi^j coefficients of e e^(-pi/2) 16^n n!, for e a
    pi-polynomial times e^(pi/2) whose denominator divides 16^n n!."""
    scale = 16 ** n * math.factorial(n) // e.den
    return [c * scale for c in e.nums]


@lru_cache(maxsize=None)
def integer_long_division(count):
    """Q_0..Q_{count-1}, q_k e^(-pi/2) 16^(k+1) (k+1)! as integer lists,
    by the recursion the quotient table used to run: the long division
    q_k = (b_{k+1} - sum_{j<k} q_j W_{k+1-j}) / W_1 in integers,

        Q_k = 2 B_{k+1} - 2 sum_{j<k} C(2(k+1-j), k+1-j) 4^(k-j-1)
                                      (k+1)!/(j+1)! Q_j.
    """
    Q = []
    for k in range(count):
        acc = [0] * (k + 2)
        fact = 1  # (k+1)!/(j+1)!
        for j in range(k - 1, -1, -1):
            fact *= j + 2
            d = k - j
            mult = (math.comb(2 * d + 2, d + 1) * fact) << (2 * (d - 1))
            for i, c in enumerate(Q[j]):
                acc[i] += mult * c
        Q.append([2 * (b - a)
                  for b, a in zip(numerators(b_coeff(k + 1), k + 1), acc)])
    return Q


def quotient_rows(table, count):
    return [numerators(table.quotient_coeff(k), k + 1) for k in range(count)]


def test_quotient_rows_match_the_integer_long_division():
    Q = integer_long_division(QUOTIENT_N)
    # a fresh table grown one k at a time by its reads ...
    assert quotient_rows(CoefficientTable(), QUOTIENT_N) == Q
    # ... and one grown at once by its last read
    table = CoefficientTable()
    table.quotient_coeff(QUOTIENT_N - 1)
    assert quotient_rows(table, QUOTIENT_N) == Q


def test_a_changed_tau_is_caught(monkeypatch):
    count = 60
    Q = integer_long_division(QUOTIENT_N)[:count]
    table = CoefficientTable()
    table.ensure_exact(count)  # the mutants below change no G entry
    assert quotient_rows(table, count) == Q
    tau, caught = coefficients._tau, 0
    for m in range(31):
        for delta in (1, -1):
            def mutant(C, n, m=m, delta=delta):
                t = tau(C, n)
                if m <= n:
                    t[m] += delta
                return t
            monkeypatch.setattr(coefficients, "_tau", mutant)
            caught += quotient_rows(table, count) != Q
    assert caught == 62
    # the divisor 2m+1 in place of 2m-1 makes a division inexact
    monkeypatch.setattr(coefficients, "_tau", tau)
    exact_div = coefficients._exact_div
    monkeypatch.setattr(coefficients, "_exact_div",
                        lambda num, den: exact_div(num, den + 2))
    with pytest.raises(ArithmeticError):
        quotient_rows(table, count)


def test_j_quotient_reconstructs_b():
    # sum_{j<=k} q_j W_{k+1-j} must rebuild b_{k+1} exactly
    qs = j_quotient_coefficients(100)
    for k in list(range(9)) + [37, 64, 99]:
        acc = PiExpression()
        for j in range(k + 1):
            acc = acc + qs[j].scale(wallis(k + 1 - j))
        assert acc == b_coeff(k + 1), k


def test_j_quotient_prefix_is_reused():
    table = CoefficientTable()
    first = [table.quotient_coeff(k) for k in range(12)]
    table.quotient_coeff(29)  # grows the G table the reads share
    assert [table.quotient_coeff(k) for k in range(12)] == first
    assert j_quotient_coefficients(12) == first  # the shared table agrees


def test_j_truncation_check():
    cert, qs = j_truncation_check(12)
    assert cert.status is CertStatus.CERTIFIED
    assert len(qs) == 12
    assert isinstance(cert, Certificate)


# ----------------------------------------------------------------------
# family registry

def test_ekdiff_offset_shifts_the_constant():
    # beta + 1/1000 is past the sharp constant: the grid must refute it
    spec = BoundSpec("EKDIFF_lower", 0, None, F(1, 1000))
    cert = grid_verify(spec)
    assert cert.status is CertStatus.REFUTED, cert.to_json_dict()
    assert cert.witnesses[0].location == "x=91/201"
    assert cert.scope["param_offset"] == "1/1000"


def test_identity_witness_is_the_widest_residual():
    spec = BoundSpec("M1_identity", 0)
    grid = default_grid()
    cert = grid_verify(spec, grid)
    assert cert.status is CertStatus.CERTIFIED
    assert cert.precision_used == 96  # every point decided at 96 bits
    residual = FAMILIES["M1_identity"].margin
    widths = {x: residual(spec, x, 96).width() for x in grid}
    widest = max(grid, key=widths.__getitem__)
    assert widest == F(2047, 2048)
    assert cert.witnesses[0].location == f"x={widest}"
    assert cert.witnesses[0].note == "widest residual"


def test_identity_family_reports_its_failures(monkeypatch):
    spec, grid = BoundSpec("M1_identity"), default_grid(4)
    cert = grid_verify(spec, grid, precision=24, max_precision=24)
    assert cert.status is CertStatus.UNDECIDED
    assert cert.witnesses[0].note == "residual enclosure too wide"
    # a wrong constant in the closed form: the residual excludes zero
    real = certify._identity_values

    def shifted(precision):
        *values, scale = real(precision)
        return (*values,
                scale + Interval.from_fraction(F(1, 1 << 20), precision))

    monkeypatch.setattr(certify, "_identity_values", shifted)
    cert = grid_verify(spec, grid)
    assert cert.status is CertStatus.REFUTED
    assert cert.witnesses[0].location == "x=1/4096"
    assert cert.witnesses[0].note == "residual excludes zero"


def test_sharpness_families_come_from_the_registry():
    assert SHARPNESS_FAMILIES == ("P1_lower", "P1_upper", "EKDIFF_upper",
                                  "EKDIFF_lower")
    assert all(FAMILIES[f].probe for f in SHARPNESS_FAMILIES)


def test_readme_family_example_certifies(monkeypatch):
    # the "Adding a bound family" example runs as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Adding a bound family", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.setattr(certify, "FAMILIES", dict(FAMILIES))
    exec(example, {"Fraction": Fraction, "Family": Family,
                   "FAMILIES": certify.FAMILIES, "elliptic": elliptic,
                   "enclose_constant": enclose_constant})
    cert = grid_verify(BoundSpec("K_above_half_pi"), SMALL_GRID)
    assert cert.status is CertStatus.CERTIFIED, cert.to_json_dict()
    assert cert.scope["points"] == len(SMALL_GRID)


# ----------------------------------------------------------------------
# empty scans certify nothing

def test_grid_verify_rejects_an_empty_grid():
    # a pair grid of density 1 has no pair x < y
    assert default_pair_grid(1) == []
    with pytest.raises(DomainError):
        grid_verify(BoundSpec("P3_lower", 0), default_pair_grid(1))


def test_certify_sequence_rejects_an_empty_range():
    with pytest.raises(DomainError):
        certify_sequence("gap_positive", 5, 3)


def test_sharpness_probe_rejects_zero_steps():
    with pytest.raises(DomainError):
        sharpness_probe("P1_lower", F(1, 100), max_steps=0)


def test_h_monotonicity_rejects_a_single_point():
    with pytest.raises(DomainError):
        h_monotonicity([F(1, 4)])


def test_j_truncation_check_rejects_zero_count():
    with pytest.raises(DomainError):
        j_truncation_check(0)


def test_scan_of_only_boundary_zeros_certifies():
    cert = certify_sequence("c_nonneg", 1, 1, p=threshold(1))
    assert cert.status is CertStatus.CERTIFIED
    assert cert.boundary_zeros == ["n=1"] and cert.witnesses == []


def test_certify_sequence_rejects_negative_n_end():
    with pytest.raises(DomainError, match="nothing to certify"):
        certify_sequence("gap_positive", 0, -3)


@pytest.mark.parametrize("claim, p", [("gap_positive", None),
                                      ("c_nonneg", threshold(1)),
                                      ("c_nonpos", F(4))])
def test_certify_sequence_builds_the_value_table_once(monkeypatch, claim, p):
    # one extension of both bounds to the scan's last index: a scan that
    # grew the table index by index would extend it hundreds of times
    calls = []
    extend = coefficients._extend_online
    monkeypatch.setattr(certify, "_table", CoefficientTable())
    monkeypatch.setattr(coefficients, "_extend_online",
                        lambda *args: calls.append(args[3]) or extend(*args))
    certify_sequence(claim, 1, 300, p=p, precision=333)
    assert len(calls) == 1 and calls[0] >= 300


def test_value_table_claims_read_one_table_per_precision(monkeypatch):
    # every claim on the value table reads the one table kept for the
    # precision it asks for, whatever guard bits that read needs
    table = CoefficientTable()
    monkeypatch.setattr(certify, "_table", table)
    for claim, p in [("gap_positive", None), ("ratio_below_4", None),
                     ("ratio_increasing", None), ("c_nonneg", threshold(1)),
                     ("c_nonpos", F(4))]:
        cert = certify_sequence(claim, 1, 300, p=p, precision=128)
        assert cert.status is CertStatus.CERTIFIED, claim
        assert cert.precision_used == 128, claim
    assert list(table._values) == [128]


def test_sequence_run_builds_value_tables_at_the_requested_keys(monkeypatch):
    # exp_K at 280 bits reads the table kept for 280 bits, as the claims
    # read the one for 128; it adds no guard bits of its own on top
    table = CoefficientTable()
    monkeypatch.setattr(certify, "_table", table)
    monkeypatch.setattr(elliptic, "shared_coefficients", lambda: table)
    for claim, p in [("gap_positive", None), ("ratio_increasing", None),
                     ("c_nonneg", threshold(1))]:
        cert = certify_sequence(claim, 1, 300, p=p, precision=128)
        assert cert.status is CertStatus.CERTIFIED, claim
    elliptic.exp_K(F(81, 100), 280)
    assert sorted(table._values) == [128, 280]


@pytest.mark.parametrize("claim", ["u_signs", "v_positive",
                                   "ratio_increasing", "ratio_below_4",
                                   "gap_positive"])
def test_claim_without_p_rejects_one(claim):
    with pytest.raises(DomainError, match=f"'{claim}' takes no parameter p"):
        certify_sequence(claim, 0, 3, p=F(4))


@pytest.mark.parametrize("family", [name for name, family in FAMILIES.items()
                                    if family.default_param is None])
def test_family_without_default_param_rejects_one(family):
    with pytest.raises(DomainError, match="takes no parameter"):
        resolve_spec(BoundSpec(family, 0, F(7)))


# ----------------------------------------------------------------------
# the spec fields each family's margin reads besides the point

READS = {
    **dict.fromkeys(("P1_lower", "P1_upper", "P2_lower", "P2_upper",
                     "P3_lower", "P3_upper"),
                    ("order", "param", "param_offset")),
    **dict.fromkeys(("EKDIFF_upper", "EKDIFF_lower"), ("param_offset",)),
    **dict.fromkeys(("CP3_lower", "CP3_upper", "RMK4_QI", "RMK4_YI",
                     "M1_identity"), ()),
}
NONZERO = {"order": 1, "param": F(7), "param_offset": F(1, 1000)}


def test_every_family_states_the_fields_it_reads():
    assert sorted(READS) == sorted(FAMILIES)


@pytest.mark.parametrize("family, field", [
    (family, field) for family, reads in READS.items()
    for field in NONZERO if field not in reads])
def test_a_field_the_margin_never_reads_is_rejected(family, field):
    spec = replace(BoundSpec(family), **{field: NONZERO[field]})
    with pytest.raises(DomainError, match="takes no"):
        resolve_spec(spec)
    with pytest.raises(DomainError, match="takes no"):
        grid_verify(spec, small_grid(family))


def _margin_at_one_point(spec):
    spec = resolve_spec(spec)
    family = FAMILIES[spec.family]
    pt = (F(1, 5), F(1, 3)) if family.grid is default_pair_grid else F(1, 3)
    iv = family.margin(spec, pt, 96)
    return iv.lo, iv.hi


@pytest.mark.parametrize("family, field", [
    (family, field) for family, reads in READS.items() for field in reads])
def test_a_field_the_family_accepts_changes_its_margin(family, field):
    # the comparison is made at orders 2 and 3 where the family takes an
    # order: the P3 correction sums start at n = 2, so below order 2 they
    # read no p
    order = 2 if "order" in READS[family] else 0
    base = resolve_spec(BoundSpec(family, order))
    changed = ({"order": 3} if field == "order" else
               {"param": F(5)} if field == "param" else
               {"param_offset": F(1, 1000)})
    assert (_margin_at_one_point(base)
            != _margin_at_one_point(replace(base, **changed)))


@pytest.mark.parametrize("family", ["P3_lower", "P3_upper"])
@pytest.mark.parametrize("order", [0, 1])
def test_p3_below_order_two_takes_no_parameter(family, order):
    # the n = 1 weight x + y - w z of the correction sum is identically 0
    assert resolve_spec(BoundSpec(family, order)).param is None
    for field in ("param", "param_offset"):
        spec = replace(BoundSpec(family, order), **{field: NONZERO[field]})
        with pytest.raises(DomainError,
                           match=f"at order {order} takes no {field}"):
            resolve_spec(spec)
    with pytest.raises(DomainError, match="takes no parameter"):
        grid_verify(BoundSpec(family, order, 4), SMALL_PAIRS)


# ----------------------------------------------------------------------
# each value computed once: the memos of elliptic and certify

def test_the_agm_core_runs_once_per_distinct_parameter(monkeypatch):
    calls = []
    public = elliptic.agm_K_m

    def recording(m, precision):
        calls.append((m, precision))
        return public(m, precision)

    monkeypatch.setattr(elliptic, "agm_K_m", recording)
    public.cache_clear()
    cert = grid_verify(BoundSpec("P3_lower"), SMALL_PAIRS)
    assert cert.status is CertStatus.CERTIFIED
    # the pairs share their x, y and midpoints
    assert public.cache_info().misses == len(set(calls))
    assert len(set(calls)) < len(calls) // 2


def test_spec_values_are_read_once_whatever_the_grid(monkeypatch):
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PiExpression, "evaluate",
                        counting("evaluate", PiExpression.evaluate))
    monkeypatch.setattr(CoefficientTable, "c_coeffs",
                        counting("c_coeffs", CoefficientTable.c_coeffs))
    seen = []
    for density in (5, 50):
        counts.update(evaluate=0, c_coeffs=0)
        monkeypatch.setattr(certify, "_table", CoefficientTable())
        certify._spec_values.cache_clear()
        cert = grid_verify(BoundSpec("P2_upper"), default_grid(density))
        assert cert.status is CertStatus.CERTIFIED
        assert cert.precision_used == 96
        seen.append(dict(counts))
    # c_0..c_1 at p = 4 from one kernel call, which encloses p once, and
    # p itself, once for the spec
    assert seen[0] == seen[1] == {"evaluate": 2, "c_coeffs": 1}


def test_a_grid_run_leaves_the_memoized_intervals_unchanged():
    grid = default_grid(20)
    held = [elliptic.agm_K_m(x, 96) for x in grid]
    held += [elliptic.exp_K_agm(x, 112) for x in grid]
    held += [elliptic.alpha_enclosure(96), elliptic.beta_enclosure(96)]
    before = [(iv.lo, iv.hi, iv.prec) for iv in held]
    for family in ("P1_lower", "P2_upper", "EKDIFF_upper", "EKDIFF_lower",
                   "M1_identity"):
        grid_verify(BoundSpec(family), FAMILIES[family].grid(20))
    assert [(iv.lo, iv.hi, iv.prec) for iv in held] == before
    # and the memos still hand out those very objects
    assert all(elliptic.agm_K_m(x, 96) is iv for x, iv in zip(grid, held))
    assert elliptic.beta_enclosure(96) is held[-1]
