"""Sign certificates for coefficient sequences and functional inequalities.

Every check here ends in a :class:`Certificate` with one of three
statuses:

* ``Certified`` — interval arithmetic proved the claim at every checked
  point/index (strict inequalities shown with positive margin; identity
  residuals shown to enclose zero within tolerance);
* ``Refuted`` — some point provably violates the claim (the witness
  records where and by how much);
* ``Undecided`` — enclosures were still too wide at the precision cap.

Precision escalates automatically: points that fail to decide (or to
evaluate at all) at the starting precision are retried with doubled
working precision up to a cap, and exact-cancellation cases (coefficient
parameters hitting a sharp threshold) are recognized symbolically and
reported as boundary zeros rather than ground for refutation.

Grid margins compute the values no point changes (p, the c_n, the
identity's constants) once per (spec, precision), bit for bit as before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Optional, Sequence, Union

from .intervals import Interval, DomainError, _exact, check_precision
from .constants import enclose_constant
from .coefficients import shared_coefficients
from .pi_expr import PiExpression
from . import elliptic

__all__ = [
    "CertStatus",
    "Witness",
    "Certificate",
    "BoundSpec",
    "Family",
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

# the one coefficient table every check reads; call its methods through
# it, not through readers bound at import, so that a wrapper installed on
# a CoefficientTable method sees every call
_table = shared_coefficients()


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


# ======================================================================
# one escalation engine and one sign-scan fold

def _escalate(evaluate: Callable[[int], object], precision: int,
              max_precision: int, done: Callable[[object, int], bool]):
    """Evaluate at ``precision``, doubling it up to ``max_precision``
    until ``done(value, prec)``; returns the last value and precision.
    A DomainError below the cap (a precision too low to evaluate at all)
    doubles it too; at the cap it propagates."""
    prec = precision
    while True:
        try:
            value = evaluate(prec)
        except DomainError:
            if prec >= max_precision:
                raise
        else:
            if done(value, prec) or prec >= max_precision:
                return value, prec
        prec = min(2 * prec, max_precision)


def _sign_known(iv: Optional[Interval], prec: int) -> bool:
    return iv is None or iv.lo > 0 or iv.hi < 0


def _sign_failure(iv: Interval) -> Optional[CertStatus]:
    if iv.hi < 0:
        return CertStatus.REFUTED
    if iv.lo <= 0:
        return CertStatus.UNDECIDED
    return None


def _fold(claim: str, range_: str,
          items: Iterable[tuple[str, Callable[[int], Optional[Interval]]]],
          notes: tuple[str, str, str], *, t0: float, precision: int,
          max_precision: int, scope: dict,
          done=_sign_known, failure=_sign_failure,
          key=None) -> Certificate:
    """Scan ``items``, (location, evaluate) pairs, into a certificate.

    Each item escalates until ``done``; a value of None is an exact
    boundary zero.  An empty scan raises DomainError rather than certify
    nothing.  The first value ``failure`` gives a status ends the scan and
    is the witness; if none does, the witness is the first value of least
    ``key``, by default the exact lower end: an integer at the scale top =
    max(precision, max_precision), a Fraction for a finer value.  ``notes``
    are the witness notes of the statuses Certified, Refuted, Undecided.
    """
    top = max(precision, max_precision)
    key = key or (lambda iv: iv.lo << (top - iv.prec) if iv.prec <= top
                  else Fraction(iv.lo, 1 << (iv.prec - top)))
    status = CertStatus.CERTIFIED
    hi_prec = precision
    zeros: list[str] = []
    witness = smallest = None
    for loc, evaluate in items:
        iv, prec = _escalate(evaluate, precision, max_precision, done)
        hi_prec = max(hi_prec, prec)
        if iv is None:
            zeros.append(loc)
            continue
        failed = failure(iv)
        if failed is not None:
            status, witness = failed, (loc, iv)
            break
        k = key(iv)
        if smallest is None or k < smallest:
            smallest, witness = k, (loc, iv)
    if witness is None and not zeros:  # every item leaves one or the other
        raise DomainError(f"{claim}: nothing to certify over {range_}")
    witnesses = []
    if witness is not None:
        note = dict(zip(CertStatus, notes))[status]
        witnesses.append(Witness(witness[0], witness[1].to_decimal(_DIGITS),
                                 note))
    return Certificate(
        claim=claim,
        range=range_,
        status=status,
        precision_used=hi_prec,
        witnesses=witnesses,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        scope=scope,
        boundary_zeros=zeros,
    )


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
            d["param"] = PiExpression.of(self.param).render()
        if self.param_offset:
            d["param_offset"] = str(self.param_offset)
        return d


@lru_cache(maxsize=64)
def _spec_values(spec: BoundSpec, top: int,
                 precision: int) -> tuple[Interval, tuple[Interval, ...]]:
    """p + offset and c_0..c_top at that offset parameter: the values of a
    spec that no point changes, computed once per (spec, top, precision)."""
    off = spec.param_offset
    p = (PiExpression.of(spec.param).evaluate(precision)
         + Interval.from_fraction(off, precision))
    lo, hi = _table.c_coeffs(0, top, spec.param, precision)
    return p, tuple(Interval(a, b, precision)
                    - Interval.from_fraction(off * _table.wallis(n), precision)
                    for n, (a, b) in enumerate(zip(lo, hi)))


def _log_arg_margin(spec: BoundSpec, x: Fraction, precision: int, *,
                    upper: bool, extrapolated: bool) -> Interval:
    """Margin of the truncated-logarithm bounds at a single x.

    arg = p/r' + sum_{n<=top} c_n x^n with r' = sqrt(1-x); lower families
    return K - ln(arg), upper ones ln(arg) - K.  ``extrapolated`` (default
    p = 4) extends the sum to top = m + 1 (upper) or subtracts
    (sum_{n<=m} c_n) x^(m+1) from it (lower); otherwise top = m.
    """
    m = spec.order
    top = m + 1 if (extrapolated and upper) else m
    p, cs = _spec_values(spec, top, precision)
    arg = p * elliptic._rprime(x, precision).recip()
    for n, cn in enumerate(cs):
        arg = arg + cn.mul_scalar(x ** n)
    if extrapolated and not upper:
        total = sum(cs, Interval.from_int(0, precision))
        arg = arg - total.mul_scalar(x ** (m + 1))
    K = elliptic.agm_K_m(x, precision)
    L = arg.ln()
    return (L - K) if upper else (K - L)


def _sum_rule_margin(spec: BoundSpec, pt: tuple, precision: int, *,
                     upper: bool) -> Interval:
    """Margin of the two-point comparison bounds (order < 2 = bare case):
    gap = K(x) + K(y) - w K(z) - sum_{2<=n<=m} c_n (x^n + y^n - w z^n) at
    z = (x + y)/2, w = 2 (lower, margin gap) or z = x + y, w = 1 (upper,
    margin pi/2 - gap).  The sum starts at n = 2 because the n = 1 weight
    x + y - w z is identically 0."""
    x, y = pt
    if upper and not x + y < 1:
        raise DomainError("upper comparison bound needs x + y < 1")
    z, w = (x + y, 1) if upper else ((x + y) / 2, 2)
    corr = Interval.from_int(0, precision)
    if spec.order >= 2:  # below order 2 the spec has no p to read
        cs = _spec_values(spec, spec.order, precision)[1]
        for n in range(2, spec.order + 1):
            corr = corr + cs[n].mul_scalar(x ** n + y ** n - w * z ** n)
    K = lambda t: elliptic.agm_K_m(t, precision)
    gap = K(x) + K(y) - K(z).mul_scalar(w) - corr
    if upper:
        pi = enclose_constant("pi", precision)
        return pi.mul_scalar(Fraction(1, 2)) - gap
    return gap


def _ekd_margin(spec: BoundSpec, x: Fraction, precision: int, *,
                upper: bool) -> Interval:
    """Margin of the difference bound with constant alpha (upper) or
    beta (lower), shifted by the spec's ``param_offset``."""
    s = 1 - 2 * x
    if s == 0:
        raise DomainError("the difference bound degenerates at x = 1/2")
    e = elliptic.ekd_eval(x, precision)
    const = (elliptic.alpha_enclosure(precision) if upper
             else elliptic.beta_enclosure(precision))
    bound = (const + Interval.from_fraction(spec.param_offset, precision)
             ).mul_scalar(s)
    gap = (bound - e) if upper else (e - bound)
    return gap if s > 0 else -gap


def _linear_refinement_margin(spec: BoundSpec, x: Fraction,
                              precision: int) -> Interval:
    """Margin of the linear-in-x refinement over the constant-shift bound."""
    pi = enclose_constant("pi", precision)
    ehp = enclose_constant("exp_half_pi", precision)
    slope = Interval.from_int(2, precision) - (pi * ehp).mul_scalar(
        Fraction(1, 8))
    return slope.mul_scalar(x)


def _vs_weighted_margin(spec: BoundSpec, x: Fraction,
                        precision: int) -> Interval:
    """Margin of the r'-weighted two-term bound over the linear refinement."""
    pi = enclose_constant("pi", precision)
    ehp = enclose_constant("exp_half_pi", precision)
    rprime = elliptic._rprime(x, precision)
    inv = rprime.recip()
    four = Interval.from_int(4, precision)
    a_yi = ((pi + four) * ehp).mul_scalar(Fraction(1, 8)) * inv \
        + (Interval.from_fraction(Fraction(1, 2), precision)
           - pi.mul_scalar(Fraction(1, 8))) * ehp * rprime
    a_new = inv.mul_scalar(4) + ehp - four \
        - _linear_refinement_margin(spec, x, precision)
    return a_yi - a_new


@lru_cache(maxsize=16)
def _identity_values(precision: int) -> tuple[Interval, ...]:
    """The x-free values of the order-1 identity, the gap between the
    sharp ``P1_lower`` arguments of orders 0 and 1 (p_k = threshold(k)):
    p_2 - p_1, c_0(p_2) - c_0(p_1), c_1(p_2) and pi (pi - 3) e^(pi/2)."""
    (p1, (c0_1,)), (p2, (c0_2, c1_2)) = (
        _spec_values(resolve_spec(BoundSpec("P1_lower", m)), m, precision)
        for m in (0, 1))
    pi = enclose_constant("pi", precision)
    return (p2 - p1, c0_2 - c0_1, c1_2,
            pi * (pi - Interval.from_int(3, precision))
            * enclose_constant("exp_half_pi", precision))


def _first_order_identity_residual(spec: BoundSpec, x: Fraction,
                                   precision: int) -> Interval:
    """Residual of the closed form for the gap between the order-1 and
    order-0 sharp truncated-logarithm arguments."""
    dp, dc0, c1, scale = _identity_values(precision)
    rp = elliptic._rprime(x, precision)
    lhs = dp * rp.recip() + dc0 + c1.mul_scalar(x)
    den = rp * (Interval.from_int(2, precision)
                + rp.mul_scalar(x + 2))
    num = scale.mul_scalar(x * x * (x + 3) / 96)
    rhs = num * den.recip()
    return lhs - rhs


def default_grid(density: int = 200) -> list[Fraction]:
    """Uniform grid joined with dyadic points crowding both endpoints."""
    if density < 0:
        raise DomainError(f"grid density {density} is negative")
    pts = {Fraction(k, density + 1) for k in range(1, density + 1)}
    pts |= {Fraction(1, 1 << j) for j in range(2, 13)}
    pts |= {1 - Fraction(1, 1 << j) for j in range(2, 13)}
    return sorted(pts)


def _grid_off_half(density: int = 200) -> list[Fraction]:
    """:func:`default_grid` without x = 1/2 (held when density + 1 is
    even), where both sides of the difference bound vanish."""
    return [x for x in default_grid(density) if x != Fraction(1, 2)]


def default_pair_grid(density: int = 32) -> list[tuple[Fraction, Fraction]]:
    """Off-diagonal pairs x < y with x + y bounded away from 1."""
    if density < 0:
        raise DomainError(f"grid density {density} is negative")
    base = [Fraction(k, density + 1) for k in range(1, density + 1)]
    cap = 1 - Fraction(1, 1 << 10)
    return [(x, y) for i, x in enumerate(base)
            for y in base[i + 1:] if x + y <= cap]


@dataclass(frozen=True)
class Family:
    """One inequality family that :func:`grid_verify` certifies.

    ``margin(spec, point, precision)`` encloses a quantity that is
    positive where the bound holds, or for an ``identity`` family a
    residual that must enclose zero.  ``grid(density)`` builds its points,
    x (:func:`default_grid`, or it without x = 1/2 for ``EKDIFF_*``) or
    pairs (x, y) (:func:`default_pair_grid`).
    ``default_param(spec)`` gives the sharp parameter used when the spec
    names none, or None at an order whose margin reads no parameter.
    ``probe`` makes the family a sharpness family: (offset sign, k -> k-th
    probe point), and :func:`sharpness_probe` shifts the constant by
    sign * epsilon.  A family without ``default_param`` takes no nonzero
    ``order``.  Where it has none or it gives None, the spec takes no
    parameter, and without a ``probe`` no nonzero ``param_offset``.
    """

    margin: Callable[[BoundSpec, _Point, int], Interval]
    grid: Callable[..., list] = default_grid
    identity: bool = False
    default_param: Optional[Callable[[BoundSpec], object]] = None
    probe: Optional[tuple[int, Callable[[int], Fraction]]] = None


FAMILIES: dict[str, Family] = {
    "P1_lower": Family(
        partial(_log_arg_margin, upper=False, extrapolated=False),
        default_param=lambda s: _table.threshold(s.order + 1),
        probe=(1, lambda k: Fraction(1, 1 << (2 * k)))),
    "P1_upper": Family(
        partial(_log_arg_margin, upper=True, extrapolated=False),
        default_param=lambda s: Fraction(4),
        probe=(-1, lambda k: 1 - Fraction(1, 1 << k))),
    "P2_lower": Family(
        partial(_log_arg_margin, upper=False, extrapolated=True),
        default_param=lambda s: Fraction(4)),
    "P2_upper": Family(
        partial(_log_arg_margin, upper=True, extrapolated=True),
        default_param=lambda s: Fraction(4)),
    # the correction sums start at n = 2, so orders 0 and 1 read no p
    "P3_lower": Family(
        partial(_sum_rule_margin, upper=False), grid=default_pair_grid,
        default_param=lambda s: _table.threshold(2) if s.order >= 2
        else None),
    "P3_upper": Family(
        partial(_sum_rule_margin, upper=True), grid=default_pair_grid,
        default_param=lambda s: Fraction(4) if s.order >= 2 else None),
    # the bare comparison bounds: no parameter, so no correction sum
    "CP3_lower": Family(partial(_sum_rule_margin, upper=False),
                        grid=default_pair_grid),
    "CP3_upper": Family(partial(_sum_rule_margin, upper=True),
                        grid=default_pair_grid),
    "EKDIFF_upper": Family(
        partial(_ekd_margin, upper=True), grid=_grid_off_half,
        probe=(-1, lambda k: Fraction(1, 1 << (2 * k)))),
    "EKDIFF_lower": Family(
        partial(_ekd_margin, upper=False), grid=_grid_off_half,
        probe=(1, lambda k: Fraction(1, 2) - Fraction(1, 1 << (k + 1)))),
    "RMK4_QI": Family(_linear_refinement_margin),
    "RMK4_YI": Family(_vs_weighted_margin),
    "M1_identity": Family(_first_order_identity_residual, identity=True),
}


def resolve_spec(spec: BoundSpec) -> BoundSpec:
    """Check the spec's fields against those its family reads, and fill in
    the family's sharp default parameter when none is given."""
    family = FAMILIES.get(spec.family)
    if family is None:
        raise DomainError(f"unknown family {spec.family!r}")
    if spec.order < 0:
        raise DomainError(f"order={spec.order} is negative")
    if family.default_param is None and spec.order:
        raise DomainError(f"family {spec.family!r} takes no order")
    default = family.default_param and family.default_param(spec)
    if default is not None:
        return spec if spec.param is not None else replace(spec, param=default)
    who = f"family {spec.family!r}" + (
        f" at order {spec.order}" if family.default_param else "")
    if spec.param is not None:
        raise DomainError(f"{who} takes no parameter")
    if spec.param_offset and family.probe is None:
        raise DomainError(f"{who} takes no param_offset")
    return spec


def _pt_str(pt: _Point) -> str:
    if isinstance(pt, tuple):
        return f"x={pt[0]}, y={pt[1]}"
    return f"x={pt}"


def _margin_items(family: Family, spec: BoundSpec, points: Sequence[_Point]):
    return ((_pt_str(pt), partial(family.margin, spec, pt)) for pt in points)


def _residual_tight(iv: Interval, prec: int) -> bool:
    return iv.width() <= Fraction(1, 1 << max(32, prec // 2))


def _residual_failure(iv: Interval) -> Optional[CertStatus]:
    if not iv.contains(Fraction(0)):
        return CertStatus.REFUTED
    if iv.width() > Fraction(1, 1 << 32):
        return CertStatus.UNDECIDED
    return None


def grid_verify(spec: BoundSpec,
                grid: Optional[Sequence[_Point]] = None,
                precision: int = 96,
                max_precision: int = 1024) -> Certificate:
    """Certify a strict inequality family (or identity residual) on a grid.

    Inequality families must show a positive margin at every point;
    the identity family must enclose zero tightly at every point.  A point
    with a coordinate outside (0, 1) raises DomainError before any work.
    """
    t0 = time.perf_counter()
    check_precision(precision)
    grid = None if grid is None else list(grid)
    for pt in grid or ():
        if not all(0 < _exact(t) < 1
                   for t in (pt if isinstance(pt, tuple) else [pt])):
            raise DomainError(f"grid point {_pt_str(pt)} lies outside (0, 1)")
    spec = resolve_spec(spec)
    family = FAMILIES[spec.family]
    grid = family.grid() if grid is None else grid
    scope = spec.describe()
    scope["points"] = len(grid)
    if family.identity:
        what = "residual encloses zero"
        notes = ("widest residual", "residual excludes zero",
                 "residual enclosure too wide")
        rules = dict(done=_residual_tight, failure=_residual_failure,
                     key=lambda iv: -iv.width())
    else:
        what, rules = "margin positive", {}
        notes = ("smallest margin", "margin provably negative",
                 "sign undecided at precision cap")
    return _fold(f"{spec.family} {what}", f"{len(grid)} grid points",
                 _margin_items(family, spec, grid), notes, t0=t0,
                 precision=precision, max_precision=max_precision,
                 scope=scope, **rules)


# ======================================================================
# coefficient-sequence claims

@dataclass(frozen=True)
class _Claim:
    """One sign claim that :func:`certify_sequence` scans over n.

    ``kernel(n0, n1, p, precision)`` gives integer endpoint lists (lo, hi)
    at ``precision`` bits of a margin, positive iff the claim holds at n,
    over n0..n1.  Only a ``needs_p`` claim takes the parameter p, so
    c_n(p) may vanish exactly; such indices are boundary zeros.
    """

    kernel: Callable[[int, int, Optional[PiExpression], int],
                     tuple[list[int], list[int]]]
    needs_p: bool = False


def _minus(ends: tuple[list[int], list[int]], start: int = 0, c: int = 0):
    lo, hi = ends  # c - x for the entries x from index ``start`` on
    return (lo[:start] + [c - b for b in hi[start:]],
            hi[:start] + [c - a for a in lo[start:]])


def _ratio_increasing(n0: int, n1: int, p, prec: int):
    lo, hi = _table.ratios(n0, n1 + 1, prec)  # ratio(n+1) - ratio(n)
    return ([a - b for a, b in zip(lo[1:], hi)],
            [b - a for a, b in zip(lo, hi[1:])])


_CLAIMS: dict[str, _Claim] = {
    "u_signs": _Claim(lambda n0, n1, p, prec: _minus(  # u_n < 0 from n = 2
        _table.u_values(n0, n1, prec), max(0, 2 - n0))),
    "v_positive": _Claim(
        lambda n0, n1, p, prec: _table.v_values(n0, n1, prec)),
    "ratio_increasing": _Claim(_ratio_increasing),
    "ratio_below_4": _Claim(lambda n0, n1, p, prec: _minus(
        _table.ratios(n0, n1, prec), 0, 4 << prec)),
    "gap_positive": _Claim(
        lambda n0, n1, p, prec: _table.ratio_gaps(n0, n1, prec)),
    "c_nonneg": _Claim(lambda n0, n1, p, prec:
                       _table.c_coeffs(n0, n1, p, prec), needs_p=True),
    "c_nonpos": _Claim(lambda n0, n1, p, prec: _minus(
        _table.c_coeffs(n0, n1, p, prec)), needs_p=True),
}

SEQUENCE_CLAIMS = tuple(_CLAIMS)

_EXACT_ZERO_CAP = 64


def certify_sequence(claim: str, n_start: int, n_end: int,
                     p=None,
                     precision: int = 128,
                     max_precision: int = 8192) -> Certificate:
    """Certify a sign claim for every index n in [n_start, n_end].

    The claim's kernel reads the whole range in one call.  The fold sees,
    in index order, each margin that is not positive and the first
    smallest positive one: no other can fail or be the witness.  An
    undecided index escalates alone, by the kernel over [n, n].  The
    c-claims take the parameter p; where c_n(p) vanishes symbolically the
    index is a boundary zero, not a failure.
    """
    t0 = time.perf_counter()
    check_precision(precision)
    record = _CLAIMS.get(claim)
    if record is None:
        raise DomainError(f"unknown sequence claim {claim!r}")
    if record.needs_p != (p is not None):
        raise DomainError(f"claim {claim!r} needs the parameter p"
                          if record.needs_p else
                          f"claim {claim!r} takes no parameter p")
    if n_start < 0:
        raise DomainError(f"n_start={n_start} is negative")
    scope = {"claim": claim}
    if p is not None:
        p = PiExpression.of(p)
        scope["p"] = p.render()

    def evaluate(n: int, lo: int, hi: int, prec: int) -> Optional[Interval]:
        if prec != precision:
            (lo,), (hi,) = record.kernel(n, n, p, prec)
        if (record.needs_p and lo <= 0 <= hi and n <= _EXACT_ZERO_CAP
                and _table.c_is_exactly_zero(n, p)):
            return None
        return Interval(lo, hi, prec)

    def items():
        if n_start > n_end:
            return
        lo, hi = record.kernel(n_start, n_end, p, precision)
        positive = [a for a in lo if a > 0]
        first = n_start + lo.index(min(positive)) if positive else -1
        for n, a, b in zip(range(n_start, n_end + 1), lo, hi):
            if a <= 0 or n == first:
                yield f"n={n}", partial(evaluate, n, a, b)

    return _fold(claim, f"n={n_start}..{n_end}", items(),
                 ("smallest margin", "sign provably violated",
                  "sign undecided at precision cap"),
                 t0=t0, precision=precision, max_precision=max_precision,
                 scope=scope)


# ======================================================================
# sharpness probes

SHARPNESS_FAMILIES = tuple(name for name, family in FAMILIES.items()
                           if family.probe is not None)


def _violated(iv: Interval) -> Optional[CertStatus]:
    return CertStatus.REFUTED if iv.hi < 0 else None


def sharpness_probe(family: str, epsilon: Fraction,
                    order: int = 0,
                    max_steps: int = 40,
                    precision: int = 96,
                    max_precision: int = 1024) -> Certificate:
    """Show a constant is sharp by refuting the epsilon-perturbed bound.

    The perturbed family is scanned along a dyadic approach to the
    blow-up point; success is a ``Refuted`` certificate whose witness
    is the violating point.  ``Undecided`` means no violation was found
    within the scan range — i.e. the probe failed.
    """
    t0 = time.perf_counter()
    check_precision(precision)
    eps = _exact(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    if family not in SHARPNESS_FAMILIES:
        raise DomainError(f"no sharpness probe for family {family!r}")
    record = FAMILIES[family]
    sign, point = record.probe
    spec = resolve_spec(BoundSpec(family, order, None, sign * eps))
    points = [point(k) for k in range(1, max_steps + 1)]
    cert = _fold(f"{family} constant sharp within epsilon={eps}",
                 f"{len(points)} dyadic probe points",
                 _margin_items(record, spec, points),
                 ("", "perturbed bound provably violated", ""),
                 failure=_violated, t0=t0, precision=precision,
                 max_precision=max_precision,
                 scope={"family": family, "epsilon": str(eps),
                        "order": order})
    if cert.status is CertStatus.CERTIFIED:  # nothing refuted the bound
        cert.status = CertStatus.UNDECIDED
        cert.witnesses = [Witness(_pt_str(points[-1]), "",
                                  "no violation found within scan range")]
    return cert


# ======================================================================
# symmetrized-difference monotonicity

def h_monotonicity(xs: Sequence[Fraction],
                   precision: int = 96,
                   max_precision: int = 1024) -> Certificate:
    """Certify the symmetrized difference quotient H decreases left of
    1/2 and increases right of it, over consecutive points of ``xs``."""
    t0 = time.perf_counter()
    check_precision(precision)
    half = Fraction(1, 2)
    pts = sorted(_exact(x) for x in xs)
    if any(x <= 0 or x >= 1 or x == half for x in pts):
        raise DomainError("points must lie in (0,1) away from 1/2")
    if len(set(pts)) < len(pts):
        raise DomainError("points must be distinct")
    left = [x for x in pts if x < half]
    right = [x for x in pts if x > half]
    pairs = [(a, b, True) for a, b in zip(left, left[1:])]
    pairs += [(a, b, False) for a, b in zip(right, right[1:])]

    def step(a: Fraction, b: Fraction, decreasing: bool,
             prec: int) -> Interval:
        ha = elliptic.H_eval(a, prec)
        hb = elliptic.H_eval(b, prec)
        return (ha - hb) if decreasing else (hb - ha)

    return _fold("symmetrized difference quotient is V-shaped about 1/2",
                 f"{len(pairs)} adjacent pairs",
                 ((f"x={a}..{b}", partial(step, a, b, decreasing))
                  for a, b, decreasing in pairs),
                 ("smallest step", "monotonicity provably violated",
                  "undecided at precision cap"),
                 t0=t0, precision=precision, max_precision=max_precision,
                 scope={"points": len(pts)})


# ======================================================================
# quotient-series nonnegativity

def j_quotient_coefficients(count: int) -> list[PiExpression]:
    """First ``count`` exact coefficients of the formal quotient
    (sum_{n>=1} b_n x^n) / (sum_{n>=1} W_n x^n), each read from the
    table's G columns (see :meth:`CoefficientTable.quotient_coeff`).
    """
    return [_table.quotient_coeff(k) for k in range(count)]


def j_truncation_check(count: int = 50,
                       precision: int = 128,
                       max_precision: int = 2048
                       ) -> tuple[Certificate, list[PiExpression]]:
    """Certify the first ``count`` quotient coefficients are nonnegative."""
    t0 = time.perf_counter()
    check_precision(precision)
    qs = j_quotient_coefficients(count)
    cert = _fold("quotient-series coefficients nonnegative",
                 f"n=0..{count - 1}",
                 ((f"n={k}", (lambda prec: None) if q.is_zero else q.evaluate)
                  for k, q in enumerate(qs)),
                 ("smallest coefficient", "coefficient provably negative",
                  "sign undecided at precision cap"),
                 t0=t0, precision=precision, max_precision=max_precision,
                 scope={"count": count})
    return cert, qs
