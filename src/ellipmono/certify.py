"""Sign certificates for coefficient sequences and functional inequalities.

Every check here ends in a :class:`Certificate` with one of three
statuses:

* ``Certified`` — interval arithmetic proved the claim at every checked
  point/index (strict inequalities shown with positive margin; identity
  residuals shown to enclose zero within tolerance);
* ``Refuted`` — some point provably violates the claim (the witness
  records where and by how much);
* ``Undecided`` — enclosures were still too wide at the precision cap.

Precision escalates automatically: points that fail to decide at the
starting precision are retried with doubled working precision up to a
cap, and exact-cancellation cases (coefficient parameters hitting a
sharp threshold) are recognized symbolically and reported as boundary
zeros rather than ground for refutation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .intervals import Interval, DomainError
from .constants import enclose_constant
from .coefficients import CoefficientTable, shared_coefficients
from .pi_expr import PiExpression
from . import elliptic

__all__ = [
    "CertStatus",
    "Witness",
    "Certificate",
    "BoundSpec",
    "FAMILIES",
    "SEQUENCE_CLAIMS",
    "default_grid",
    "default_pair_grid",
    "grid_verify",
    "certify_sequence",
    "sharpness_probe",
    "SHARPNESS_FAMILIES",
    "h_monotonicity",
    "j_quotient_coefficients",
    "j_truncation_check",
]

_Point = Union[Fraction, tuple]
_DIGITS = 30


class CertStatus(str, Enum):
    CERTIFIED = "Certified"
    REFUTED = "Refuted"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class Witness:
    location: str
    value: str
    note: str = ""

    def to_json_dict(self) -> dict:
        d = {"location": self.location, "value": self.value}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class Certificate:
    claim: str
    range: str
    status: CertStatus
    precision_used: int
    witnesses: list[Witness] = field(default_factory=list)
    runtime_ms: float = 0.0
    scope: Optional[dict] = None
    boundary_zeros: list[str] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.status is CertStatus.CERTIFIED

    def to_json_dict(self) -> dict:
        d = {
            "claim": self.claim,
            "range": self.range,
            "status": self.status.value,
            "precision_used": self.precision_used,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "runtime_ms": round(self.runtime_ms, 3),
        }
        if self.scope:
            d["scope"] = self.scope
        if self.boundary_zeros:
            d["boundary_zeros"] = list(self.boundary_zeros)
        return d


def _param_str(p) -> str:
    if p is None:
        return ""
    if isinstance(p, PiExpression):
        return p.render()
    return str(p)


# ======================================================================
# inequality families on grids

@dataclass(frozen=True)
class BoundSpec:
    """An instance of a named inequality family.

    ``order`` is the truncation order m of the correction sum where the
    family has one; ``param`` is the series parameter p (exact
    :class:`PiExpression` or rational), shifted by ``param_offset``
    (used by sharpness probes to step just past a sharp constant).
    """

    family: str
    order: int = 0
    param: object = None
    param_offset: Fraction = Fraction(0)

    def describe(self) -> dict:
        d = {"family": self.family, "order": self.order}
        if self.param is not None:
            d["param"] = _param_str(self.param)
        if self.param_offset:
            d["param_offset"] = str(self.param_offset)
        return d


def _param_interval(spec: BoundSpec, precision: int) -> Interval:
    p = spec.param
    if p is None:
        raise DomainError(f"family {spec.family!r} needs a parameter")
    if isinstance(p, PiExpression):
        base = p.evaluate(precision)
    else:
        base = Interval.from_fraction(Fraction(p), precision)
    if spec.param_offset:
        base = base + Interval.from_fraction(spec.param_offset, precision)
    return base


def _c_interval(table: CoefficientTable, n: int, spec: BoundSpec,
                precision: int) -> Interval:
    """Enclosure of c_n at the (possibly offset) parameter."""
    base = table.c_coeff(n, spec.param, precision)
    if spec.param_offset:
        off = spec.param_offset * table.wallis(n)
        return base - Interval.from_fraction(off, precision)
    return base


def _inv_rprime(x: Fraction, precision: int) -> Interval:
    return (Interval.from_int(1, precision)
            - Interval.from_fraction(x, precision)).sqrt().recip()


def _log_arg_margin(spec: BoundSpec, x: Fraction, precision: int,
                    upper: bool, extrapolated: bool,
                    table: CoefficientTable) -> Interval:
    """Margin of the truncated-logarithm bounds at a single x.

    lower families return K - ln(arg); upper families ln(arg) - K.
    ``extrapolated`` switches to the variant whose correction sum is
    closed off with a matching x^(m+1) term (lower) or extended one
    order (upper), fixing the parameter at 4.
    """
    m = spec.order
    inv = _inv_rprime(x, precision)
    p_iv = _param_interval(spec, precision)
    arg = p_iv * inv
    if extrapolated and not upper:
        total = Interval.from_int(0, precision)
        xp = Fraction(1)
        for n in range(m + 1):
            cn = _c_interval(table, n, spec, precision)
            total = total + cn
            arg = arg + cn.mul_scalar(xp)
            xp *= x
        arg = arg - total.mul_scalar(x ** (m + 1))
    else:
        top = m + 1 if (extrapolated and upper) else m
        xp = Fraction(1)
        for n in range(top + 1):
            arg = arg + _c_interval(table, n, spec, precision).mul_scalar(xp)
            xp *= x
    K = elliptic.agm_K_m(x, precision)
    if arg.lo <= 0:
        raise DomainError("log argument not certified positive; "
                          "raise the working precision")
    L = arg.ln()
    return (L - K) if upper else (K - L)


def _sum_rule_margin(spec: BoundSpec, pt: tuple, precision: int,
                     upper: bool, table: CoefficientTable) -> Interval:
    """Margin of the two-point comparison bounds (order 0 = bare case)."""
    x, y = pt
    m = spec.order
    K = lambda t: elliptic.agm_K_m(t, precision)
    corr = Interval.from_int(0, precision)
    if m >= 1:
        if upper:
            s = x + y
            for n in range(1, m + 1):
                cn = _c_interval(table, n, spec, precision)
                corr = corr + cn.mul_scalar(x ** n + y ** n - s ** n)
        else:
            mid = (x + y) / 2
            for n in range(1, m + 1):
                cn = _c_interval(table, n, spec, precision)
                corr = corr + cn.mul_scalar(x ** n + y ** n - 2 * mid ** n)
    if upper:
        if not x + y < 1:
            raise DomainError("upper comparison bound needs x + y < 1")
        pi = enclose_constant("pi", precision)
        return (K(x + y) + pi.mul_scalar(Fraction(1, 2)) + corr
                - K(x) - K(y))
    mid = (x + y) / 2
    return K(x) + K(y) - K(mid).mul_scalar(2) - corr


def _ekd_margin(x: Fraction, precision: int, upper: bool) -> Interval:
    s = 1 - 2 * x
    if s == 0:
        raise DomainError("the difference bound degenerates at x = 1/2")
    e = elliptic.ekd_eval(x, precision)
    if upper:
        bound = elliptic.alpha_enclosure(precision).mul_scalar(s)
        return (bound - e) if s > 0 else (e - bound)
    bound = elliptic.beta_enclosure(precision).mul_scalar(s)
    return (e - bound) if s > 0 else (bound - e)


def _linear_refinement_margin(x: Fraction, precision: int) -> Interval:
    """Margin of the linear-in-x refinement over the constant-shift bound."""
    pi = enclose_constant("pi", precision)
    ehp = enclose_constant("exp_half_pi", precision)
    slope = Interval.from_int(2, precision) - (pi * ehp).mul_scalar(
        Fraction(1, 8))
    return slope.mul_scalar(x)


def _vs_weighted_margin(x: Fraction, precision: int) -> Interval:
    """Margin of the r'-weighted two-term bound over the linear refinement."""
    pi = enclose_constant("pi", precision)
    ehp = enclose_constant("exp_half_pi", precision)
    inv = _inv_rprime(x, precision)
    rprime = (Interval.from_int(1, precision)
              - Interval.from_fraction(x, precision)).sqrt()
    a_yi = ((pi + 4) * ehp).mul_scalar(Fraction(1, 8)) * inv \
        + (Interval.from_fraction(Fraction(1, 2), precision)
           - pi.mul_scalar(Fraction(1, 8))) * ehp * rprime
    slope = Interval.from_int(2, precision) - (pi * ehp).mul_scalar(
        Fraction(1, 8))
    a_new = inv.mul_scalar(4) + ehp - Interval.from_int(4, precision) \
        - slope.mul_scalar(x)
    return a_yi - a_new


def _first_order_identity_residual(x: Fraction, precision: int,
                                   table: CoefficientTable) -> Interval:
    """Residual of the closed form for the gap between the order-1 and
    order-0 sharp truncated-logarithm arguments."""
    p1 = table.threshold(1)
    p2 = table.threshold(2)
    inv = _inv_rprime(x, precision)
    lhs = (p2.evaluate(precision) - p1.evaluate(precision)) * inv \
        + table.c_coeff(0, p2, precision) \
        + table.c_coeff(1, p2, precision).mul_scalar(x) \
        - table.c_coeff(0, p1, precision)
    pi = enclose_constant("pi", precision)
    ehp = enclose_constant("exp_half_pi", precision)
    rp = (Interval.from_int(1, precision)
          - Interval.from_fraction(x, precision)).sqrt()
    den = rp * (Interval.from_int(2, precision)
                + rp.mul_scalar(x + 2))
    num = (pi * (pi - Interval.from_int(3, precision)) * ehp
           ).mul_scalar(Fraction(x * x * (x + 3), 96))
    rhs = num * den.recip()
    return lhs - rhs


def _dispatch(spec: BoundSpec, pt: _Point, precision: int,
              table: CoefficientTable) -> Interval:
    fam = spec.family
    if fam == "P1_lower":
        return _log_arg_margin(spec, pt, precision, upper=False,
                               extrapolated=False, table=table)
    if fam == "P1_upper":
        return _log_arg_margin(spec, pt, precision, upper=True,
                               extrapolated=False, table=table)
    if fam == "P2_lower":
        return _log_arg_margin(spec, pt, precision, upper=False,
                               extrapolated=True, table=table)
    if fam == "P2_upper":
        return _log_arg_margin(spec, pt, precision, upper=True,
                               extrapolated=True, table=table)
    if fam == "P3_lower":
        return _sum_rule_margin(spec, pt, precision, upper=False, table=table)
    if fam == "P3_upper":
        return _sum_rule_margin(spec, pt, precision, upper=True, table=table)
    if fam == "CP3_lower":
        return _sum_rule_margin(BoundSpec("P3_lower", 0), pt, precision,
                                upper=False, table=table)
    if fam == "CP3_upper":
        return _sum_rule_margin(BoundSpec("P3_upper", 0), pt, precision,
                                upper=True, table=table)
    if fam == "EKDIFF_upper":
        return _ekd_margin(pt, precision, upper=True)
    if fam == "EKDIFF_lower":
        return _ekd_margin(pt, precision, upper=False)
    if fam == "RMK4_QI":
        return _linear_refinement_margin(pt, precision)
    if fam == "RMK4_YI":
        return _vs_weighted_margin(pt, precision)
    if fam == "M1_identity":
        return _first_order_identity_residual(pt, precision, table)
    raise DomainError(f"unknown family {fam!r}")


# family name -> (is_pair_domain, is_identity)
FAMILIES: dict[str, tuple[bool, bool]] = {
    "P1_lower": (False, False),
    "P1_upper": (False, False),
    "P2_lower": (False, False),
    "P2_upper": (False, False),
    "P3_lower": (True, False),
    "P3_upper": (True, False),
    "CP3_lower": (True, False),
    "CP3_upper": (True, False),
    "EKDIFF_upper": (False, False),
    "EKDIFF_lower": (False, False),
    "RMK4_QI": (False, False),
    "RMK4_YI": (False, False),
    "M1_identity": (False, True),
}

# families whose parameter defaults to the sharp constant of the order
_DEFAULT_PARAM: dict[str, Callable[[BoundSpec, CoefficientTable], object]] = {
    "P1_lower": lambda s, t: t.threshold(s.order + 1),
    "P1_upper": lambda s, t: Fraction(4),
    "P2_lower": lambda s, t: Fraction(4),
    "P2_upper": lambda s, t: Fraction(4),
    "P3_lower": lambda s, t: t.threshold(2),
    "P3_upper": lambda s, t: Fraction(4),
}


def resolve_spec(spec: BoundSpec,
                 table: Optional[CoefficientTable] = None) -> BoundSpec:
    """Fill in the family's sharp default parameter when none is given."""
    table = table or shared_coefficients()
    if spec.param is None and spec.family in _DEFAULT_PARAM:
        return BoundSpec(spec.family, spec.order,
                         _DEFAULT_PARAM[spec.family](spec, table),
                         spec.param_offset)
    return spec


def default_grid(density: int = 200) -> list[Fraction]:
    """Uniform grid joined with dyadic points crowding both endpoints."""
    pts = {Fraction(k, density + 1) for k in range(1, density + 1)}
    pts |= {Fraction(1, 1 << j) for j in range(2, 13)}
    pts |= {1 - Fraction(1, 1 << j) for j in range(2, 13)}
    return sorted(pts)

def default_pair_grid(density: int = 32) -> list[tuple[Fraction, Fraction]]:
    """Off-diagonal pairs x < y with x + y bounded away from 1."""
    base = [Fraction(k, density + 1) for k in range(1, density + 1)]
    cap = 1 - Fraction(1, 1 << 10)
    return [(x, y) for i, x in enumerate(base)
            for y in base[i + 1:] if x + y <= cap]


def _pt_str(pt: _Point) -> str:
    if isinstance(pt, tuple):
        return f"x={pt[0]}, y={pt[1]}"
    return f"x={pt}"


def grid_verify(spec: BoundSpec,
                grid: Optional[Sequence[_Point]] = None,
                precision: int = 96,
                max_precision: int = 1024,
                table: Optional[CoefficientTable] = None) -> Certificate:
    """Certify a strict inequality family (or identity residual) on a grid.

    Inequality families must show a positive margin at every point;
    the identity family must enclose zero tightly at every point.
    """
    t0 = time.perf_counter()
    table = table or shared_coefficients()
    spec = resolve_spec(spec, table)
    if spec.family not in FAMILIES:
        raise DomainError(f"unknown family {spec.family!r}")
    pair_domain, identity = FAMILIES[spec.family]
    if grid is None:
        grid = default_pair_grid() if pair_domain else default_grid()
    grid = list(grid)
    claim = (f"{spec.family} residual encloses zero" if identity
             else f"{spec.family} margin positive")
    scope = spec.describe()
    scope["points"] = len(grid)
    hi_prec = precision
    worst: Optional[tuple[Fraction, _Point, Interval]] = None
    status = CertStatus.CERTIFIED
    witnesses: list[Witness] = []

    for pt in grid:
        prec = precision
        while True:
            margin = _dispatch(spec, pt, prec, table)
            hi_prec = max(hi_prec, prec)
            if identity:
                tol = Fraction(1, 1 << max(32, prec // 2))
                if margin.width() <= tol:
                    break
            else:
                if margin.lo_fraction() > 0 or margin.hi_fraction() < 0:
                    break
            if prec >= max_precision:
                break
            prec = min(2 * prec, max_precision)
        if identity:
            if not margin.contains(Fraction(0)):
                status = CertStatus.REFUTED
                witnesses = [Witness(_pt_str(pt), margin.to_decimal(_DIGITS),
                                     "residual excludes zero")]
                break
            if margin.width() > Fraction(1, 1 << 32):
                status = CertStatus.UNDECIDED
                witnesses = [Witness(_pt_str(pt), margin.to_decimal(_DIGITS),
                                     "residual enclosure too wide")]
                break
            key = margin.width()
        else:
            if margin.hi_fraction() < 0:
                status = CertStatus.REFUTED
                witnesses = [Witness(_pt_str(pt), margin.to_decimal(_DIGITS),
                                     "margin provably negative")]
                break
            if margin.lo_fraction() <= 0:
                status = CertStatus.UNDECIDED
                witnesses = [Witness(_pt_str(pt), margin.to_decimal(_DIGITS),
                                     "sign undecided at precision cap")]
                break
            key = margin.lo_fraction()
        if worst is None or key < worst[0]:
            worst = (key, pt, margin)

    if status is CertStatus.CERTIFIED and worst is not None:
        note = ("widest residual" if identity else "smallest margin")
        witnesses = [Witness(_pt_str(worst[1]), worst[2].to_decimal(_DIGITS),
                             note)]
    cert = Certificate(
        claim=claim,
        range=f"{len(grid)} grid points",
        status=status,
        precision_used=hi_prec,
        witnesses=witnesses,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        scope=scope,
    )
    return cert


# ======================================================================
# coefficient-sequence claims

SEQUENCE_CLAIMS = (
    "u_signs",
    "v_positive",
    "ratio_increasing",
    "ratio_below_4",
    "gap_positive",
    "c_nonneg",
    "c_nonpos",
)

_EXACT_ZERO_CAP = 64


def _sequence_margin(claim: str, n: int, p, precision: int,
                     table: CoefficientTable) -> Interval:
    """Positive iff the claim holds at index n."""
    if claim == "u_signs":
        val = table.u_coeff(n).evaluate(precision)
        return val if n < 2 else -val
    if claim == "v_positive":
        return table.v_coeff(n).evaluate(precision)
    if claim == "ratio_increasing":
        a = table.btilde_enclosure(n + 1, precision).mul_scalar(
            1 / table.wallis(n + 1))
        b = table.btilde_enclosure(n, precision).mul_scalar(
            1 / table.wallis(n))
        return a - b  # positive e^(pi/2) factor dropped; sign unchanged
    if claim == "ratio_below_4":
        return Interval.from_int(4, precision) - table.ratio(n, precision)
    if claim == "gap_positive":
        return table.ratio_gap(n, precision)
    if claim == "c_nonneg":
        return table.c_coeff(n, p, precision)
    if claim == "c_nonpos":
        return -table.c_coeff(n, p, precision)
    raise DomainError(f"unknown sequence claim {claim!r}")


def certify_sequence(claim: str, n_start: int, n_end: int,
                     p=None,
                     precision: int = 128,
                     max_precision: int = 8192,
                     table: Optional[CoefficientTable] = None) -> Certificate:
    """Certify a sign claim for every index n in [n_start, n_end].

    The two c-claims allow exact cancellation: indices where c_n(p)
    vanishes symbolically are recorded as boundary zeros, not failures.
    """
    t0 = time.perf_counter()
    table = table or shared_coefficients()
    if claim not in SEQUENCE_CLAIMS:
        raise DomainError(f"unknown sequence claim {claim!r}")
    if claim in ("c_nonneg", "c_nonpos") and p is None:
        raise DomainError(f"claim {claim!r} needs the parameter p")
    zeros: list[str] = []
    hi_prec = precision
    worst: Optional[tuple[Fraction, int, Interval]] = None
    status = CertStatus.CERTIFIED
    witnesses: list[Witness] = []

    # warm the shared tables once at base precision
    if claim in ("ratio_increasing", "ratio_below_4", "gap_positive"):
        table.ensure_values(
            n_end + (0 if claim == "ratio_below_4" else 1), precision)
    elif claim in ("c_nonneg", "c_nonpos"):
        table.ensure_values(n_end, precision + 8)

    for n in range(n_start, n_end + 1):
        prec = precision
        decided = False
        while True:
            margin = _sequence_margin(claim, n, p, prec, table)
            hi_prec = max(hi_prec, prec)
            if margin.lo_fraction() > 0:
                decided = True
                break
            if margin.hi_fraction() < 0:
                break
            if (claim in ("c_nonneg", "c_nonpos")
                    and n <= _EXACT_ZERO_CAP
                    and table.c_is_exactly_zero(n, p)):
                zeros.append(f"n={n}")
                decided = True
                margin = None
                break
            if prec >= max_precision:
                break
            prec = min(2 * prec, max_precision)
        if margin is None:
            continue
        if decided:
            key = margin.lo_fraction()
            if worst is None or key < worst[0]:
                worst = (key, n, margin)
            continue
        if margin.hi_fraction() < 0:
            status = CertStatus.REFUTED
            witnesses = [Witness(f"n={n}", margin.to_decimal(_DIGITS),
                                 "sign provably violated")]
        else:
            status = CertStatus.UNDECIDED
            witnesses = [Witness(f"n={n}", margin.to_decimal(_DIGITS),
                                 "sign undecided at precision cap")]
        break

    if status is CertStatus.CERTIFIED and worst is not None:
        witnesses = [Witness(f"n={worst[1]}", worst[2].to_decimal(_DIGITS),
                             "smallest margin")]
    scope = {"claim": claim}
    if p is not None:
        scope["p"] = _param_str(p)
    cert = Certificate(
        claim=claim,
        range=f"n={n_start}..{n_end}",
        status=status,
        precision_used=hi_prec,
        witnesses=witnesses,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        scope=scope,
        boundary_zeros=zeros,
    )
    return cert


# ======================================================================
# sharpness probes

SHARPNESS_FAMILIES = ("P1_lower", "P1_upper", "EKDIFF_upper", "EKDIFF_lower")


def sharpness_probe(family: str, epsilon: Fraction,
                    order: int = 0,
                    max_steps: int = 40,
                    precision: int = 96,
                    max_precision: int = 1024,
                    table: Optional[CoefficientTable] = None) -> Certificate:
    """Show a constant is sharp by refuting the epsilon-perturbed bound.

    The perturbed family is scanned along a dyadic approach to the
    blow-up point; success is a ``Refuted`` certificate whose witness
    is the violating point.  ``Undecided`` means no violation was found
    within the scan range — i.e. the probe failed.
    """
    t0 = time.perf_counter()
    table = table or shared_coefficients()
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    if family == "P1_lower":
        spec = BoundSpec("P1_lower", order, table.threshold(order + 1), eps)
        points = [Fraction(1, 1 << (2 * k)) for k in range(1, max_steps + 1)]
    elif family == "P1_upper":
        spec = BoundSpec("P1_upper", order, Fraction(4), -eps)
        points = [1 - Fraction(1, 1 << k) for k in range(1, max_steps + 1)]
    elif family == "EKDIFF_upper":
        spec = BoundSpec("EKDIFF_upper", 0, None, -eps)
        points = [Fraction(1, 1 << (2 * k)) for k in range(1, max_steps + 1)]
    elif family == "EKDIFF_lower":
        spec = BoundSpec("EKDIFF_lower", 0, None, eps)
        points = [Fraction(1, 2) - Fraction(1, 1 << k)
                  for k in range(2, max_steps + 2)]
    else:
        raise DomainError(f"no sharpness probe for family {family!r}")

    hi_prec = precision
    status = CertStatus.UNDECIDED
    witnesses: list[Witness] = []
    for pt in points:
        prec = precision
        while True:
            margin = _probe_margin(spec, pt, prec, table)
            hi_prec = max(hi_prec, prec)
            if margin.lo_fraction() > 0 or margin.hi_fraction() < 0:
                break
            if prec >= max_precision:
                break
            prec = min(2 * prec, max_precision)
        if margin.hi_fraction() < 0:
            status = CertStatus.REFUTED
            witnesses = [Witness(_pt_str(pt), margin.to_decimal(_DIGITS),
                                 "perturbed bound provably violated")]
            break
    if status is CertStatus.UNDECIDED:
        witnesses = [Witness(_pt_str(points[-1]), "",
                             "no violation found within scan range")]
    return Certificate(
        claim=f"{family} constant sharp within epsilon={eps}",
        range=f"{len(points)} dyadic probe points",
        status=status,
        precision_used=hi_prec,
        witnesses=witnesses,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        scope={"family": family, "epsilon": str(eps), "order": order},
    )


def _probe_margin(spec: BoundSpec, pt: Fraction, precision: int,
                  table: CoefficientTable) -> Interval:
    if spec.family in ("EKDIFF_upper", "EKDIFF_lower"):
        # rebuild the margin with the perturbed constant
        s = 1 - 2 * pt
        e = elliptic.ekd_eval(pt, precision)
        off = Interval.from_fraction(spec.param_offset, precision)
        if spec.family == "EKDIFF_upper":
            bound = (elliptic.alpha_enclosure(precision) + off).mul_scalar(s)
            return (bound - e) if s > 0 else (e - bound)
        bound = (elliptic.beta_enclosure(precision) + off).mul_scalar(s)
        return (e - bound) if s > 0 else (bound - e)
    return _dispatch(spec, pt, precision, table)


# ======================================================================
# symmetrized-difference monotonicity

def h_monotonicity(xs: Sequence[Fraction],
                   precision: int = 96,
                   max_precision: int = 1024) -> Certificate:
    """Certify the symmetrized difference quotient H decreases left of
    1/2 and increases right of it, over consecutive points of ``xs``."""
    t0 = time.perf_counter()
    half = Fraction(1, 2)
    pts = sorted(Fraction(x) for x in xs)
    if any(x <= 0 or x >= 1 or x == half for x in pts):
        raise DomainError("points must lie in (0,1) away from 1/2")
    left = [x for x in pts if x < half]
    right = [x for x in pts if x > half]
    pairs = [(a, b, True) for a, b in zip(left, left[1:])]
    pairs += [(a, b, False) for a, b in zip(right, right[1:])]
    hi_prec = precision
    status = CertStatus.CERTIFIED
    witnesses: list[Witness] = []
    worst = None
    for a, b, decreasing in pairs:
        prec = precision
        while True:
            ha = elliptic.H_eval(a, prec)
            hb = elliptic.H_eval(b, prec)
            diff = (ha - hb) if decreasing else (hb - ha)
            hi_prec = max(hi_prec, prec)
            if diff.lo_fraction() > 0 or diff.hi_fraction() < 0:
                break
            if prec >= max_precision:
                break
            prec = min(2 * prec, max_precision)
        loc = f"x={a}..{b}"
        if diff.hi_fraction() < 0:
            status = CertStatus.REFUTED
            witnesses = [Witness(loc, diff.to_decimal(_DIGITS),
                                 "monotonicity provably violated")]
            break
        if diff.lo_fraction() <= 0:
            status = CertStatus.UNDECIDED
            witnesses = [Witness(loc, diff.to_decimal(_DIGITS),
                                 "undecided at precision cap")]
            break
        if worst is None or diff.lo_fraction() < worst[0]:
            worst = (diff.lo_fraction(), loc, diff)
    if status is CertStatus.CERTIFIED and worst is not None:
        witnesses = [Witness(worst[1], worst[2].to_decimal(_DIGITS),
                             "smallest step")]
    return Certificate(
        claim="symmetrized difference quotient is V-shaped about 1/2",
        range=f"{len(pairs)} adjacent pairs",
        status=status,
        precision_used=hi_prec,
        witnesses=witnesses,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        scope={"points": len(pts)},
    )


# ======================================================================
# quotient-series nonnegativity

def j_quotient_coefficients(count: int,
                            table: Optional[CoefficientTable] = None
                            ) -> list[PiExpression]:
    """First ``count`` exact coefficients of the formal quotient
    (sum_{n>=1} b_n x^n) / (sum_{n>=1} W_n x^n).

    They are read from the table's integer quotient polynomials
    Q_k = q_k e^(-pi/2) 16^(k+1) (k+1)!, built by

        Q_k = 2 B_{k+1} - 2 sum_{j<k} C(2(k+1-j), k+1-j) 4^(k-j-1)
                                      (k+1)!/(j+1)! Q_j

    (long division by sum W_n x^n cleared of denominators; see
    :meth:`CoefficientTable.ensure_quotient`).  A later call reuses the
    prefix built by an earlier one.
    """
    table = table or shared_coefficients()
    return [table.quotient_coeff(k) for k in range(count)]


def j_truncation_check(count: int = 50,
                       precision: int = 128,
                       max_precision: int = 2048,
                       table: Optional[CoefficientTable] = None
                       ) -> tuple[Certificate, list[PiExpression]]:
    """Certify the first ``count`` quotient coefficients are nonnegative."""
    t0 = time.perf_counter()
    table = table or shared_coefficients()
    qs = j_quotient_coefficients(count, table)
    hi_prec = precision
    status = CertStatus.CERTIFIED
    witnesses: list[Witness] = []
    zeros: list[str] = []
    worst = None
    for k, q in enumerate(qs):
        if q.is_zero:
            zeros.append(f"n={k}")
            continue
        prec = precision
        while True:
            val = q.evaluate(prec)
            hi_prec = max(hi_prec, prec)
            if val.lo_fraction() > 0 or val.hi_fraction() < 0:
                break
            if prec >= max_precision:
                break
            prec = min(2 * prec, max_precision)
        if val.hi_fraction() < 0:
            status = CertStatus.REFUTED
            witnesses = [Witness(f"n={k}", val.to_decimal(_DIGITS),
                                 "coefficient provably negative")]
            break
        if val.lo_fraction() <= 0:
            status = CertStatus.UNDECIDED
            witnesses = [Witness(f"n={k}", val.to_decimal(_DIGITS),
                                 "sign undecided at precision cap")]
            break
        if worst is None or val.lo_fraction() < worst[0]:
            worst = (val.lo_fraction(), k, val)
    if status is CertStatus.CERTIFIED and worst is not None:
        witnesses = [Witness(f"n={worst[1]}", worst[2].to_decimal(_DIGITS),
                             "smallest coefficient")]
    cert = Certificate(
        claim="quotient-series coefficients nonnegative",
        range=f"n=0..{count - 1}",
        status=status,
        precision_used=hi_prec,
        witnesses=witnesses,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        scope={"count": count},
        boundary_zeros=zeros,
    )
    return cert, qs
