"""Exact and enclosed coefficient tables for the exp(K) power series.

Wallis ratios
    W_n = (2n-1)!!/(2n)!! = C(2n,n)/4^n,   1/sqrt(1-x) = sum W_n x^n.

Series coefficients b_n of  exp(K(sqrt(x))) = sum b_n x^n  satisfy

    b_0 = e^(pi/2),
    (n+1) b_{n+1} = n b_n + (pi/8) * sum_{k=0}^{n} (W_k^2/(k+1)) b_{n-k}.

The exact table takes them from K(sqrt(x)) = (pi/2) sum_k W_k^2 x^k
instead.  With W_0 = 1 and W_k^2 = C(2k,k)^2/16^k,

    exp(K(sqrt(x))) = e^(pi/2) exp((pi/2) H_1(x/16)),
    H_1(y) = sum_{k>=1} C(2k,k)^2 y^k.

C(2k,k) is even for k >= 1, so G = H_1/4 = sum_{k>=1} (C(2k,k)/2)^2 y^k
has integer coefficients too, and with its powers G_j = G^j = H_1^j/4^j
(G_j[n] = 0 for n < j)

    b_n = e^(pi/2) sum_{j<=n} (2 pi)^j/j! G_j[n]/16^n
        = B_n(pi) / (16^n n!) * e^(pi/2),   B_n[j] = 2^j (n!/j!) G_j[n],

an integer polynomial read from the G_j[n] by products alone.  The
table holds the G_j[n], not B_n.  The coefficients of y^n in
y G_j' = j G_{j-1} y G'  give the row recurrence

    n G_j[n] = j sum_{k=1}^{n-j+1} k (C(2k,k)/2)^2 G_{j-1}[n-k],   G_0 = 1,

whose division by n is exact, G_j being an integer series.  Row n reads
only earlier rows, so the table grows on demand one index at a time; its
N rows are O(N^3) products of O(N)-bit integers.
Its entries have about 4n bits (789 at n = 200, where B_n has up to
2036) and its weights k (C(2k,k)/2)^2 about 4k; the falling-factorial
recurrence for B_n that this replaced multiplied integers of about 10n
bits.  The integer form keeps the exact table free of per-coefficient
gcd work.

The table also maintains, per precision P, an interval-valued run of
the same recurrence on  b~_n = b_n / e^(pi/2)  with pi enclosed and every
step outward-rounded, at P + _VALUE_GUARD = P + 32 bits; every interval
reader rounds to P once, which keeps P bits for n <= 4000.  Those
enclosures contain the exact values, so sign certificates derived from
them are sound.  The convolution sums of that run are exact integers,
so they are evaluated in an online divide-and-conquer order whose block
products are single big-number multiplies (Kronecker substitution):
N terms cost O(M(N P) log N) for P-bit bounds instead of N^2/2 products,
M(s) being the cost of one s-digit multiply.  One pass builds both ends
(lo, hi): the upper weights are the lower ones plus one, so with the
width d = hi - lo the upper sum is the lower one plus a product of d,
whose few-bit entries nearly halve its slots, plus a running sum of hi.
Every sum is exact and each end rounds only after its sum, so the split
does not change a bit.  A small product packs its
entries into byte slots of an ``int`` (Karatsuba, M(s) = O(s^1.59)); one
whose shorter operand reaches _NTT_DIGITS decimal digits packs them into
decimal slots of a ``Decimal``, whose C implementation (libmpdec)
multiplies by a number-theoretic transform, M(s) = O(s log s).  Both
give the same exact sums, so the table's bits do not depend on the
path.  Only this module reads the table's lists, each reader in one call:
the kernels ``ratios``, ``ratio_gaps``, ``c_coeffs`` (``u_values``,
``v_values`` for u and v) and ``exp_partial_sum``, exp_K's Horner sum,
round once through ``_times_ehp``; ``ratio``, ``ratio_gap``,
``btilde_enclosure`` and ``c_coeff`` (b_n is c_coeff(n, 0)) read one n.

The difference sequence  c_n(p) = b_n - p W_n,  enclosed with one
evaluation of p per ``c_coeffs`` call, is exactly zero only at
p = threshold(n) (``c_is_exactly_zero``); the auxiliary exact sequences

    u_n = pi * sum_k W_k^2 W_{n-k}^2 /((k+1)(n-k+1))
          - 6(2n+1)/((n+2)(n+1)) * W_n^2,
    v_n = sum_{k<=n} u_k

are provided with integer numerators over 16^n (u_n = (pi P_n - R_n)/16^n).
P_n = sum_k E_k E_{n-k} with E_k = C(2k,k)^2/(k+1) is not summed term by
term: it obeys the three-term recurrence P_REC, so each term costs O(1)
big-integer operations.  Derivation: F(y) = 2F1(1/2,1/2;2;y) =
sum W_k^2/(k+1) y^k satisfies y(1-y)F'' + 2(1-y)F' - F/4 = 0.  Products
of D-finite series are D-finite (Stanley, "Differentiably finite power
series", 1980); the symmetric square G = F^2 satisfies

    2y^2(1-y)^2 G''' + 12y(1-y)^2 G'' + 2(7y-6)(y-1) G' + (2y-3) G = 0,

and P_n = 16^n [y^n] G, so the coefficients of that equation give the
recurrence.

Each exact integer sequence -- C(2k,k), E_k, P_n, R_n, D_n = 16^n n! --
is a module-level record (C_REC, ...) stepped by :func:`_next`, the single
statement of its recurrence; the tables and ``exp_K`` read it.  A table
holds one integer list per sequence: ``wallis``, the kernels and the
weights of the G rows read C(2n,n) from the same list.

The formal quotient (sum_{n>=1} b_n x^n) / (sum_{n>=1} W_n x^n) is read
from the same G columns.  Its divisor is 1/sqrt(1-x) - 1, whose
reciprocal (1 - x + sqrt(1-x))/x has the coefficients tau_m/16^m with
the integers tau_m = 2, -24, then -4^m C(2m,m)/(2m-1); so q_k over
D_{k+1} has the pi^j coefficient 2^j ((k+1)!/j!) sum_i tau_i G_j[k+1-i]
for j >= 1, and 0 for j = 0 (:meth:`CoefficientTable.quotient_coeff`).
"""

from __future__ import annotations

import decimal
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from operator import mul

from .intervals import DomainError, Interval, check_precision
from .constants import enclose_constant
from .pi_expr import PiExpression

__all__ = [
    "wallis",
    "CoefficientTable",
    "shared_coefficients",
    "b_coeff",
    "u_coeff",
    "v_coeff",
    "c_coeff",
    "c_exact",
    "ratio",
    "ratio_gap",
    "threshold",
]

# Runs of at most this many recurrence steps sum their convolutions
# directly; longer runs split in two (see _extend_online).
_DIRECT_STEPS = 32

# The value table for P bits runs P + _VALUE_GUARD bits: b~_n is at most
# 1.6 (n+1) ulps wide there (measured for n <= 4000, 5327 ulps at n = 4000
# and 128 bits; tests pin 2(n+1) for n <= 600), so its readers keep P bits
# for n <= 4000.
_VALUE_GUARD = 32


# A packed product multiplies as Decimal once its shorter operand has at
# least this many decimal digits: the crossover measured against int on the
# value table's shapes (CHANGES.md).  The pure-Python decimal module
# multiplies no faster than int, so without _decimal every product is int.
try:
    import _decimal  # noqa: F401
except ImportError:
    _NTT_DIGITS = float("inf")
else:
    _NTT_DIGITS = 20_000

# Exact integer products: a lost digit raises instead of rounding.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow,
           decimal.InvalidOperation])


def _product_slice(a: list[int], c: list[int], start: int,
                   stop: int) -> list[int]:
    """Coefficients start..stop-1 of the product of the polynomials whose
    coefficient lists are a and c, all entries nonnegative integers.

    Kronecker substitution: each list is packed into one number, one
    slot per entry, with slots wide enough (``bits``) that no coefficient
    of the product reaches into the next slot; one big-number multiply
    then forms every coefficient.  Small products pack into byte slots
    of an ``int``.  Once the shorter list packs into _NTT_DIGITS decimal
    digits, the lists pack into slots of d decimal digits (10^d > 2^bits)
    of a ``Decimal``, entry 0 in the most significant slot, so that
    coefficient m is the m-th slot of the product's digits; the exact
    context _EXACT raises on any lost digit.  A slot wider than the
    int/str digit limit (``sys.get_int_max_str_digits``) stays on the
    ``int`` path, whose byte slots have no limit; at those widths the
    decimal conversions cost more than the transform saves.  A negative
    entry raises OverflowError on either path.
    """
    bits = (max(a).bit_length() + max(c).bit_length()
            + min(len(a), len(c)).bit_length() + 1)
    digits = bits * 30103 // 100000 + 1  # 10^digits > 2^bits
    slots = len(a) + len(c) - 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
    if min(len(a), len(c)) * digits < _NTT_DIGITS or 0 < limit < digits:
        size = (bits + 7) // 8
        pa = int.from_bytes(b"".join(x.to_bytes(size, "little") for x in a),
                            "little")
        pc = int.from_bytes(b"".join(x.to_bytes(size, "little") for x in c),
                            "little")
        raw = (pa * pc).to_bytes(size * slots, "little")
        return [int.from_bytes(raw[i:i + size], "little")
                for i in range(start * size, stop * size, size)]
    if min(a) < 0 or min(c) < 0:
        # format would write its '-' into a slot
        raise OverflowError("negative entry in a packed product")
    slot = f"0{digits}d"
    pa = Decimal("".join([format(x, slot) for x in a]))
    pc = Decimal("".join([format(x, slot) for x in c]))
    raw = str(_EXACT.multiply(pa, pc)).zfill(digits * slots)
    return [int(raw[i:i + digits])
            for i in range(start * digits, stop * digits, digits)]


def _extend_online(lo: list[int], hi: list[int], w: list[int], n: int,
                   step) -> None:
    """Append lo_L..lo_n to lo and hi_L..hi_n to hi (L = len(lo)), where
    (lo_{m+1}, hi_{m+1}) = step(m, lo_m, hi_m, S_m, T_m) with

        S_m = sum_{k<=m} w_k lo_{m-k},   T_m = sum_{k<=m} (w_k + 1) hi_{m-k}.

    With d = hi - lo (never negative: _product_slice raises on a negative
    entry),  T_m = S_m + sum_{k<=m} w_k d_{m-k} + sum_{i<=m} hi_i,  so the
    upper sums need no product of their own as wide as S's: the one of d
    has slots about as wide as w alone, and the last sum is a running
    total.  The sums are exact, so any evaluation order gives the same
    bits.  The weights are all known, only lo and hi are produced online:
    ``solve(l, r)`` produces terms l+1..r given the pending sums of S and
    of the d part (m in [l, r)) holding every term i <= l.  It solves the
    left half, adds terms l+1..mid to the pending sums of m in [mid, r)
    with one packed product each of lo and d, then solves the right half.
    Growth first adds terms 0..L-1 with one prefix product each; a growth
    of at most _DIRECT_STEPS steps sums directly instead.
    """
    first = len(lo) - 1
    d = [h - l for l, h in zip(lo, hi)]
    total = sum(hi)  # sum_{i<=m} hi_i for the next step m
    pending = [[0] * (n - first), [0] * (n - first)]  # of S and of w*d

    def direct(l, r, frm):
        nonlocal total
        for m in range(l, r):
            rw = w[:m + 1 - frm][::-1]
            s = pending[0][m - first] + sum(map(mul, lo[frm:m + 1], rw))
            t = (s + total + pending[1][m - first]
                 + sum(map(mul, d[frm:m + 1], rw)))
            a, b = step(m, lo[m], hi[m], s, t)
            lo.append(a)
            hi.append(b)
            d.append(b - a)
            total += b

    def solve(l, r):
        if r - l <= _DIRECT_STEPS:
            direct(l, r, l + 1)
            return
        mid = (l + r) // 2
        solve(l, mid)
        for pend, x in zip(pending, (lo, d)):
            extra = _product_slice(x[l + 1:mid + 1], w[:r - l - 1],
                                   mid - l - 1, r - l - 1)
            for i, s in enumerate(extra, mid - first):
                pend[i] += s
        solve(mid, r)

    if n - first <= _DIRECT_STEPS:
        direct(first, n, 0)
    else:
        pending[:] = [_product_slice(x, w[:n], first, n) for x in (lo, d)]
        solve(first, n)


def _check_index(n: int) -> None:
    if n < 0:
        raise DomainError(f"index {n} is negative")


def _exact_div(num: int, den: int) -> int:
    """num / den for a division the algebra says is exact; raises if not."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division by {den} in an integer "
                              "recurrence")
    return q


# Exact integer recurrences as data.  A record (lead, c_1, c_2, ...) of
# integer polynomials in m, each a coefficient tuple from the highest power
# down, states  lead(m) a_{m+1} = sum_i c_i(m) a_{m+1-i}.
C_REC = ((1, 1), (4, 2))                  # C_m = C(2m,m), C_0 = 1
E_REC = ((1, 3, 2), (16, 16, 4))          # E_m = C_m^2/(m+1), E_0 = 1
R_REC = ((1, 4, 3), (16, 32, 12))         # R_m = 6(2m+1)E_m/(m+2), R_0 = 3
P_REC = ((2, 12, 22, 12), (64, 192, 160, 48),
         (-512, 0, 0, 0))                 # P_m = sum_k E_k E_{m-k}, P_0 = 1
D_REC = ((1,), (16, 16))                  # D_m = 16^m m!, D_0 = 1


def _poly(c: tuple[int, ...], m: int) -> int:
    """The polynomial with coefficient tuple c (highest power first) at m."""
    v = 0
    for x in c:
        v = v * m + x
    return v


def _next(rec, m: int, prev) -> int:
    """a_{m+1} by the record rec from prev = [..., a_{m-1}, a_m] (terms
    before a_0 count as zero); the division by lead(m) must be exact."""
    lead, *rest = rec
    s = sum(_poly(c, m) * a for c, a in zip(rest, reversed(prev)))
    return _exact_div(s, _poly(lead, m))


def _grow(rec, a: list[int], n: int) -> None:
    """Extend a = [a_0, a_1, ...] by the record rec until a_n is there."""
    while len(a) <= n:
        a.append(_next(rec, len(a) - 1, a))


def _pi_row(n: int, g: list[int]) -> list[int]:
    """[2^j (n!/j!) g_j for j <= n], the pi^j coefficients over D_n of
    sum_j (2 pi)^j/j! g_j/16^n: B_n for g_j = G_j[n], Q_{n-1} for
    g_j = (tau * G_j)[n]."""
    row, fall = [0] * (n + 1), 1  # fall = n!/j!
    for j in range(n, -1, -1):
        row[j] = (fall * g[j]) << j
        fall *= j
    return row


def _tau(C: list[int], n: int) -> list[int]:
    """tau_0..tau_n of quotient_coeff from the C(2m,m) list C; the
    division is exact, -4^m C(2m,m)/(2m-1) being -2 4^m Catalan(m-1)."""
    return [2, -24, *(-_exact_div(C[m] << 2 * m, 2 * m - 1)
                      for m in range(2, n + 1))]


def _times_ehp(lo, hi, precision: int, sub=None):
    """(Interval(lo, hi, W) * e - sub).round_to(P) as lists, for endpoint
    iterables at the table's scale W and e = e^(pi/2) at W: e > 0 picks
    each product's end, and all is exact at e.prec until one shift."""
    W = precision + _VALUE_GUARD
    e = enclose_constant("exp_half_pi", W)
    elo, ehi, s = e.lo, e.hi, e.prec + W - precision
    slo, shi = sub or (repeat(0), repeat(0))
    return ([(a * (elo if a >= 0 else ehi) - (b << e.prec)) >> s
             for a, b in zip(lo, shi)],
            [-((-a * (ehi if a >= 0 else elo) + (b << e.prec)) >> s)
             for a, b in zip(hi, slo)])


class CoefficientTable:
    """Growable store of exact and enclosed series coefficients."""

    def __init__(self):
        self._lock = threading.RLock()
        # exact b: column j holds G_j[j], G_j[j+1], ... (G_j[n] = 0 below
        # n = j); B_n is read from them over D_n = 16^n * n!
        self._G: list[list[int]] = [[1]]
        self._D: list[int] = [1]
        # the record sequences, each from its start term a_0
        self._C: list[int] = [1]
        self._P: list[int] = [1]
        self._R: list[int] = [3]
        # exact v: integer pairs over 16^n
        self._VP: list[int] = []
        self._VR: list[int] = []
        # interval value tables, keyed by precision
        self._values: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Wallis ratios

    def _central(self, n: int) -> int:
        """C(2n,n), read from the one table of them that C_REC grows."""
        _check_index(n)
        with self._lock:
            _grow(C_REC, self._C, n)
            return self._C[n]

    def wallis(self, n: int) -> Fraction:
        """W_n = (2n-1)!!/(2n)!! = C(2n,n)/4^n, a view of the C(2n,n) table."""
        return Fraction(self._central(n), 1 << (2 * n))

    # ------------------------------------------------------------------
    # exact b-polynomials

    def ensure_exact(self, n: int) -> None:
        """Grow the exact table so b_0..b_n are available.

        The table holds G_j[m] = [y^m] G(y)^j, G(y) = sum_{k>=1}
        (C(2k,k)/2)^2 y^k, for j <= m <= n, one row m at a time by

            m G_j[m] = j sum_{k=1}^{m-j+1} k (C(2k,k)/2)^2 G_{j-1}[m-k],

        G_0 = 1: the coefficients of y^m in y G_j' = j G_{j-1} y G'.
        Each division by m is exact, and ``_exact_div`` raises if one is
        not.  Row m costs O(m^2) products of about 4k- by 4m-bit
        integers; ``_pi_row`` reads B_n from row n.
        """
        with self._lock:
            G = self._G
            if len(G) > n:
                return
            _grow(C_REC, self._C, n)
            w = [k * (c >> 1) ** 2
                 for k, c in enumerate(self._C[1:n + 1], 1)]
            for m in range(len(G), n + 1):
                G.append([])
                # j descending: column j-1 still ends at G_{j-1}[m-1]
                for j in range(m, 0, -1):
                    s = sum(map(mul, w, reversed(G[j - 1])))
                    G[j].append(_exact_div(j * s, m))
                G[0].append(0)
            _grow(D_REC, self._D, n)

    def b_coeff(self, n: int) -> PiExpression:
        """Exact b_n as a pi-polynomial times e^(pi/2)."""
        _check_index(n)
        self.ensure_exact(n)
        with self._lock:
            G = self._G
            g = [G[j][n - j] for j in range(n + 1)]
            return PiExpression(_pi_row(n, g), exp_scale=True, den=self._D[n])

    def gap_exact(self, n: int) -> PiExpression:
        """Exact (n+1) b_{n+1} - (n+1/2) b_n."""
        return self.b_coeff(n + 1).scale(n + 1) - self.b_coeff(n).scale(
            Fraction(2 * n + 1, 2))

    # ------------------------------------------------------------------
    # formal quotient (sum_{n>=1} b_n x^n) / (sum_{n>=1} W_n x^n)

    def quotient_coeff(self, k: int) -> PiExpression:
        """Exact coefficient q_k of the formal quotient, a pi-polynomial
        times e^(pi/2): q_k = sum_{n=1}^{k+1} b_n tau_{k+1-n}/16^(k+1-n),
        tau_m = 16^m [x^m] (1 - x + sqrt(1-x)) = 2, -24, then
        -4^m C(2m,m)/(2m-1) (``_tau``).  Over D_{k+1} its pi^j coefficient is

            Q_k[j] = 2^j ((k+1)!/j!) sum_i tau_i G_j[k+1-i]   (j >= 1),

        and Q_k[0] = 0: b_0, the j = 0 column, is not in the dividend.
        """
        _check_index(k)
        n = k + 1
        self.ensure_exact(n)  # grows C(2n,n) to n too
        with self._lock:
            tau, G = _tau(self._C, n), self._G
            g = [0] + [sum(map(mul, tau, reversed(G[j][:n + 1 - j])))
                       for j in range(1, n + 1)]
            return PiExpression(_pi_row(n, g), exp_scale=True, den=self._D[n])

    # ------------------------------------------------------------------
    # exact u/v

    def ensure_uv(self, n: int) -> None:
        """Grow the u/v tables so u_0..u_n and v_0..v_n are available.

        P_m and R_m come from the records P_REC and R_REC, the single
        statement of each recurrence (P_REC replaces the convolution
        sum_k E_k E_{m-k}; its derivation is in the module docstring).
        """
        _check_index(n)
        with self._lock:
            VP, VR = self._VP, self._VR
            if len(VP) > n:
                return
            _grow(P_REC, self._P, n)
            _grow(R_REC, self._R, n)
            for m in range(len(VP), n + 1):
                VP.append((16 * VP[-1] if m else 0) + self._P[m])
                VR.append((16 * VR[-1] if m else 0) + self._R[m])

    def u_coeff(self, n: int) -> PiExpression:
        """Exact u_n = (pi * P_n - R_n)/16^n (degree one in pi)."""
        self.ensure_uv(n)
        return PiExpression((-self._R[n], self._P[n]), den=1 << (4 * n))

    def v_coeff(self, n: int) -> PiExpression:
        """Exact v_n = sum_{k<=n} u_k (degree one in pi)."""
        self.ensure_uv(n)
        return PiExpression((-self._VR[n], self._VP[n]), den=1 << (4 * n))

    def _pi_line(self, a, r, n0: int, n1: int, precision: int):
        """(pi a_n - r_n) / 16^n, a_n > 0, for n0..n1: the bits of
        ``evaluate``, exact at pi's scale (P + 18 + 3) but for one division
        by the gcd-reduced 16^n, which floors as 16^n would: one shift."""
        _check_index(n0)
        self.ensure_uv(n1)
        pi = enclose_constant("pi", precision + 18)
        S, ns = pi.prec, range(n0, n1 + 1)
        return ([(a[n] * pi.lo - (r[n] << S)) >> (4 * n + S - precision)
                 for n in ns],
                [-((-a[n] * pi.hi + (r[n] << S)) >> (4 * n + S - precision))
                 for n in ns])

    def u_values(self, n0: int, n1: int, precision: int):
        """Endpoint lists of u_n for n0..n1, as u_coeff(n).evaluate."""
        return self._pi_line(self._P, self._R, n0, n1, precision)

    def v_values(self, n0: int, n1: int, precision: int):
        """Endpoint lists of v_n for n0..n1, as v_coeff(n).evaluate."""
        return self._pi_line(self._VP, self._VR, n0, n1, precision)

    # ------------------------------------------------------------------
    # interval value table (b~_n = b_n / e^(pi/2))

    def ensure_values(self, n: int, precision: int) -> None:
        """Run the interval recurrence so enclosures of b~_0..b~_n exist.

        The table for ``precision`` = P holds fixed-point integers at
        W = P + _VALUE_GUARD bits; its readers round to P once.  Each
        step floors (lower bound) or ceils (upper bound) only after its
        exact convolution sum, so the divide-and-conquer order of
        :func:`_extend_online` gives the bits of a term-by-term loop.
        The weights W_k^2/(k+1) = E_k/16^k floor to wlo_k = (E_k << W)
        >> 4k, with the integer E_k = C(2k,k)^2/(k+1) carried from step
        to step by E_REC: one running integer per precision, not a list.
        The upper bound sums over wlo_k + 1, which no list holds: one
        online pass forms that sum exactly from the lower one, a product
        of the width d_n = bhi_n - blo_n (about 13 bits at n = 4000, so
        about half as wide as blo's) and a running sum of bhi.
        """
        _check_index(n)
        check_precision(precision)
        W = precision + _VALUE_GUARD
        with self._lock:
            st = self._values.get(precision)
            if st is None:
                pi = enclose_constant("pi", W).round_to(W)
                st = self._values[precision] = {
                    "pi": (pi.lo, pi.hi), "blo": [1 << W], "bhi": [1 << W],
                    "wlo": [],
                    "E": 1}   # E_k of E_REC for the next weight index k
            blo, bhi = st["blo"], st["bhi"]
            if len(blo) > n:
                return
            wlo = st["wlo"]
            while len(wlo) <= n:
                k = len(wlo)
                E = st["E"]
                wlo.append((E << W) >> (4 * k))
                st["E"] = _next(E_REC, k, (E,))
            pi_lo, pi_hi = st["pi"]

            # b~_{m+1} = (m b~_m + (pi/8) S_m) / (m+1): the lower bound
            # floors every division of its sum S over wlo, the upper bound
            # ceils every division of its sum T over wlo + 1
            def step(m, lo, hi, s, t):
                t = -((-t) >> W)
                x = -((-(pi_hi * t)) >> W)
                return ((m * lo) // (m + 1)
                        + ((pi_lo * (s >> W)) >> W) // (8 * (m + 1)),
                        -((-(m * hi)) // (m + 1)) - ((-x) // (8 * (m + 1))))

            _extend_online(blo, bhi, wlo, n, step)

    # Block kernels: the endpoint lists (lo, hi) of a reader over n0..n1
    # at P bits; the one-index readers are calls over [n, n].

    def _rows(self, n0: int, n1: int, precision: int):
        _check_index(n0)
        self.ensure_values(n1, precision)
        st = self._values[precision]
        return range(n0, n1 + 1), st["blo"], st["bhi"]

    def btilde_enclosure(self, n: int, precision: int) -> Interval:
        """Enclosure of b_n / e^(pi/2)."""
        _, blo, bhi = self._rows(n, n, precision)
        return Interval(blo[n], bhi[n], precision + _VALUE_GUARD
                        ).round_to(precision)

    def ratios(self, n0: int, n1: int, precision: int):
        """b_n / W_n: b~_n 4^n / C(2n,n) floored and ceiled once."""
        ns, blo, bhi = self._rows(n0, n1, precision)
        self._central(n1)  # after the table, whose peak need not hold C too
        C = self._C
        return _times_ehp(((blo[n] << 2 * n) // C[n] for n in ns),
                          (-((-bhi[n] << 2 * n) // C[n]) for n in ns),
                          precision)

    def ratio_gaps(self, n0: int, n1: int, precision: int):
        """(n+1) b_{n+1} - (n+1/2) b_n; the half floors (ceils) once."""
        ns, blo, bhi = self._rows(n0, n1 + 1, precision)
        return _times_ehp(
            ((n + 1) * blo[n + 1] - ((2 * n + 1) * bhi[n] + 1 >> 1)
             for n in ns[:-1]),
            ((n + 1) * bhi[n + 1] - ((2 * n + 1) * blo[n] >> 1)
             for n in ns[:-1]), precision)

    def exp_partial_sum(self, x: Fraction, terms: int, precision: int):
        """sum_{n<=terms} b_n x^n, x >= 0: Horner's rule on the b~_n with
        the roundings of ``Interval.mul_scalar(x)``, then e^(pi/2) once."""
        _, blo, bhi = self._rows(0, terms, precision)
        num, den = x.numerator, x.denominator
        lo, hi = blo[terms], bhi[terms]
        for k in range(terms - 1, -1, -1):
            lo = lo * num // den + blo[k]
            hi = -(-hi * num // den) + bhi[k]
        (lo,), (hi,) = _times_ehp((lo,), (hi,), precision)
        return Interval(lo, hi, precision)

    def ratio(self, n: int, precision: int) -> Interval:
        """Enclosure of b_n / W_n."""
        (lo,), (hi,) = self.ratios(n, n, precision)
        return Interval(lo, hi, precision)

    def ratio_gap(self, n: int, precision: int) -> Interval:
        """Enclosure of (n+1) b_{n+1} - (n+1/2) b_n."""
        (lo,), (hi,) = self.ratio_gaps(n, n, precision)
        return Interval(lo, hi, precision)

    # ------------------------------------------------------------------
    # difference sequence c_n(p) = b_n - p W_n

    def c_exact(self, n: int, p) -> PiExpression:
        """Exact c_n(p) for p in the e^(pi/2)-scaled ring; an unscaled
        nonzero p raises the ring's mixed-scale ValueError."""
        p = PiExpression.of(p)  # first, so a float p raises before table work
        return self.b_coeff(n) - p.scale(self.wallis(n))

    def c_coeffs(self, n0: int, n1: int, p, precision: int):
        """c_n(p) for a rational or :class:`PiExpression` p, enclosed once a
        call; p C(2n,n) / 4^n floors and ceils once (``mul_scalar(W_n)``)."""
        pe = PiExpression.of(p).evaluate(precision + _VALUE_GUARD)
        ns, blo, bhi = self._rows(n0, n1, precision)
        self._central(n1)
        C = self._C
        return _times_ehp((blo[n] for n in ns), (bhi[n] for n in ns),
                          precision,
                          (((pe.lo * C[n]) >> 2 * n for n in ns),
                           (-((-pe.hi * C[n]) >> 2 * n) for n in ns)))

    def c_coeff(self, n: int, p, precision: int) -> Interval:
        """Enclosure of c_n(p); :meth:`c_is_exactly_zero` decides zeros."""
        (lo,), (hi,) = self.c_coeffs(n, n, p, precision)
        return Interval(lo, hi, precision)

    def c_is_exactly_zero(self, n: int, p) -> bool:
        """True iff c_n(p) cancels exactly.  b_n is e^(pi/2) times a
        pi-polynomial of degree exactly n and pi is transcendental, so only
        p = threshold(n) cancels it; the exact table grows to n at most."""
        p = PiExpression.of(p)
        return p.exp_scale and p.degree == n and p == self.threshold(n)

    # ------------------------------------------------------------------

    def threshold(self, k: int) -> PiExpression:
        """Exact ratio b_k / W_k (the sharp parameter thresholds)."""
        return self.b_coeff(k).scale(1 / self.wallis(k))


_shared = CoefficientTable()


def shared_coefficients() -> CoefficientTable:
    return _shared


# the module-level readers read the shared table; a separate
# CoefficientTable offers the same methods on its own state
wallis = _shared.wallis
b_coeff = _shared.b_coeff
u_coeff = _shared.u_coeff
v_coeff = _shared.v_coeff
c_coeff = _shared.c_coeff
c_exact = _shared.c_exact
ratio = _shared.ratio
ratio_gap = _shared.ratio_gap
threshold = _shared.threshold
