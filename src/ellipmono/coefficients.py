"""Exact and enclosed coefficient tables for the exp(K) power series.

Wallis ratios
    W_n = (2n-1)!!/(2n)!! = C(2n,n)/4^n,   1/sqrt(1-x) = sum W_n x^n.

Series coefficients b_n of  exp(K(sqrt(x))) = sum b_n x^n  satisfy

    b_0 = e^(pi/2),
    (n+1) b_{n+1} = n b_n + (pi/8) * sum_{k=0}^{n} (W_k^2/(k+1)) b_{n-k},

and each b_n is exactly  B_n(pi) / (16^n n!) * e^(pi/2)  for an
integer-coefficient polynomial B_n with the recurrence

    B_{n+1} = 16 n B_n + pi * sum_k [2 C(2k,k)^2/(k+1)] * fall(n,k) * B_{n-k}

(fall is the falling factorial).  The integer form keeps the exact table
free of per-coefficient gcd work.

The table also maintains, per precision P, an interval-valued run of
the same recurrence on  b~_n = b_n / e^(pi/2)  with pi enclosed and every
step outward-rounded, at P + _VALUE_GUARD = P + 32 bits; every interval
reader rounds to P once, which keeps P bits for n <= 4000.  Those
enclosures contain the exact values, so sign certificates derived from
them are sound.  The convolution sums of that run are exact integers,
so they are evaluated in an online divide-and-conquer order whose block
products are single big-number multiplies (Kronecker substitution):
N terms cost O(M(N P) log N) for P-bit bounds instead of N^2/2 products,
M(s) being the cost of one s-digit multiply.  A small product packs its
entries into byte slots of an ``int`` (Karatsuba, M(s) = O(s^1.59)); one
whose shorter operand reaches _NTT_DIGITS decimal digits packs them into
decimal slots of a ``Decimal``, whose C implementation (libmpdec)
multiplies by a number-theoretic transform, M(s) = O(s log s).  Both
give the same exact sums, so the table's bits do not depend on the
path.  The exact polynomial table is O(N^3) big-integer work and is
only grown on demand.
Every reader takes the table's integer endpoint lists in one call: the
block kernels ``ratios``, ``ratio_gaps`` and ``c_coeffs`` (``u_values``,
``v_values`` for u and v) give whole ranges, ``exp_K`` runs Horner's rule
on the lists, and ``ratio``, ``ratio_gap``, ``c_coeff``,
``btilde_enclosure`` and ``b_enclosure`` (= c_n(0)) are one-index reads.

The difference sequence  c_n(p) = b_n - p W_n  and the auxiliary exact
sequences

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
holds one integer list per sequence: ``wallis`` and the kernels read
C(2n,n) from the list that ``ensure_quotient`` grows.

The formal quotient (sum_{n>=1} b_n x^n) / (sum_{n>=1} W_n x^n) is kept
as integer pi-polynomials too (see :meth:`CoefficientTable.ensure_quotient`).
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

# The value table for P bits runs P + _VALUE_GUARD bits: b~_n widens about
# 6.4 n ulps there, so its readers keep P bits for n <= 4000.
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


def _extend_online(b: list[int], w: list[int], n: int, step) -> None:
    """Append b_L..b_n to b (L = len(b)), where
    b_{m+1} = step(m, b_m, sum_{k<=m} w_k b_{m-k}).

    The sums are exact, so any evaluation order gives the same bits.
    The weights are all known, only b is produced online: ``solve(l, r)``
    produces b_{l+1..r} given the pending sums S_m (m in [l, r)) holding
    every b_i with i <= l.  It solves the left half, adds b_{l+1..mid} to
    S_m for m in [mid, r) with one packed product, then solves the right
    half.  Growth first adds b_0..b_{L-1} with one prefix product; a
    growth of at most _DIRECT_STEPS steps sums directly instead.
    """
    first = len(b) - 1
    pending = [0] * (n - first)

    def direct(l, r, frm):
        for m in range(l, r):
            s = pending[m - first] + sum(
                map(mul, b[frm:m + 1], reversed(w[:m + 1 - frm])))
            b.append(step(m, b[m], s))

    def solve(l, r):
        if r - l <= _DIRECT_STEPS:
            direct(l, r, l + 1)
            return
        mid = (l + r) // 2
        solve(l, mid)
        extra = _product_slice(b[l + 1:mid + 1], w[:r - l - 1],
                               mid - l - 1, r - l - 1)
        for i, s in enumerate(extra, mid - first):
            pending[i] += s
        solve(mid, r)

    if n - first <= _DIRECT_STEPS:
        direct(first, n, 0)
    else:
        pending[:] = _product_slice(b, w[:n], first, n)
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
        # exact b: integer polynomials over D_n = 16^n * n!
        self._B: list[list[int]] = [[1]]
        self._D: list[int] = [1]
        # the record sequences, each from its start term a_0
        self._C: list[int] = [1]
        self._E: list[int] = [1]
        self._P: list[int] = [1]
        self._R: list[int] = [3]
        # formal quotient: integer polynomials Q_k over D_{k+1}
        self._Q: list[list[int]] = []
        # exact v: integer pairs over 16^n
        self._VP: list[int] = []
        self._VR: list[int] = []
        # interval value tables, keyed by precision
        self._values: dict[int, dict] = {}
        # enclosures of the parameter p of c_n(p), keyed by (p, precision)
        self._p_enclosures: dict[tuple[PiExpression, int], Interval] = {}

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
        """Grow the exact polynomial table so b_0..b_n are available.

        Cost grows cubically with n (degree-n polynomials with Theta(n)-bit
        integer coefficients); a few hundred terms take seconds.
        """
        with self._lock:
            if len(self._B) > n:
                return
            _grow(E_REC, self._E, n)
            while len(self._B) <= n:
                m = len(self._B) - 1  # recurrence step m -> m+1
                new = [16 * m * c for c in self._B[m]] + [0]
                fall = 1
                for k in range(m + 1):
                    mult = 2 * self._E[k] * fall
                    Bk = self._B[m - k]
                    for j in range(m - k + 1):
                        new[j + 1] += mult * Bk[j]
                    fall *= (m - k)
                self._B.append(new)
            _grow(D_REC, self._D, n)

    def b_coeff(self, n: int) -> PiExpression:
        """Exact b_n as a pi-polynomial times e^(pi/2)."""
        _check_index(n)
        self.ensure_exact(n)
        with self._lock:
            return PiExpression(self._B[n], exp_scale=True, den=self._D[n])

    def gap_exact(self, n: int) -> PiExpression:
        """Exact (n+1) b_{n+1} - (n+1/2) b_n."""
        return self.b_coeff(n + 1).scale(n + 1) - self.b_coeff(n).scale(
            Fraction(2 * n + 1, 2))

    # ------------------------------------------------------------------
    # formal quotient (sum_{n>=1} b_n x^n) / (sum_{n>=1} W_n x^n)

    def ensure_quotient(self, count: int) -> None:
        """Grow the quotient table so q_0..q_{count-1} are available.

        With Q_k = q_k e^(-pi/2) 16^(k+1) (k+1)!, the long division
        q_k = (b_{k+1} - sum_{j<k} q_j W_{k+1-j}) / W_1 becomes

            Q_k = 2 B_{k+1} - 2 sum_{j<k} C(2(k+1-j), k+1-j) 4^(k-j-1)
                                          (k+1)!/(j+1)! Q_j,

        integer polynomials in pi throughout (4^(k-j-1) is integral since
        j <= k-1), so no rational arithmetic runs.
        """
        with self._lock:
            if len(self._Q) >= count:
                return
            self.ensure_exact(count)
            _grow(C_REC, self._C, count)
            Q = self._Q
            while len(Q) < count:
                k = len(Q)
                acc = [0] * (k + 2)
                fact = 1  # (k+1)!/(j+1)!
                for j in range(k - 1, -1, -1):
                    fact *= j + 2
                    d = k - j
                    mult = (self._C[d + 1] * fact) << (2 * (d - 1))
                    for i, c in enumerate(Q[j]):
                        acc[i] += mult * c
                Q.append([2 * (b - a) for b, a in zip(self._B[k + 1], acc)])

    def quotient_coeff(self, k: int) -> PiExpression:
        """Exact coefficient q_k of the formal quotient, a pi-polynomial
        times e^(pi/2)."""
        _check_index(k)
        self.ensure_quotient(k + 1)
        with self._lock:
            return PiExpression(self._Q[k], exp_scale=True,
                                den=self._D[k + 1])

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
        The weights W_k^2/(k+1) = E_k/16^k floor to (E_k << W) >> 4k,
        with the integer E_k = C(2k,k)^2/(k+1) carried from step to step
        by E_REC: one running integer per precision, not a list.
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
                    "wlo": [], "whi": [],
                    "E": 1}   # E_k of E_REC for the next weight index k
            blo, bhi = st["blo"], st["bhi"]
            if len(blo) > n:
                return
            wlo, whi = st["wlo"], st["whi"]
            while len(wlo) <= n:
                k = len(wlo)
                E = st["E"]
                q = (E << W) >> (4 * k)
                wlo.append(q)
                whi.append(q + 1)
                st["E"] = _next(E_REC, k, (E,))
            pi_lo, pi_hi = st["pi"]

            # b~_{m+1} = (m b~_m + (pi/8) S_m) / (m+1): the lower bound
            # floors every division, the upper bound ceils it
            def step_lo(m, bm, s):
                t2 = ((pi_lo * (s >> W)) >> W) // (8 * (m + 1))
                return (m * bm) // (m + 1) + t2

            def step_hi(m, bm, s):
                s = -((-s) >> W)
                x = -((-(pi_hi * s)) >> W)
                return -((-(m * bm)) // (m + 1)) - ((-x) // (8 * (m + 1)))

            _extend_online(blo, wlo, n, step_lo)
            _extend_online(bhi, whi, n, step_hi)

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

    def b_enclosure(self, n: int, precision: int) -> Interval:
        """Enclosure of b_n = c_n(0)."""
        return self.c_coeff(n, 0, precision)

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
        return self.b_coeff(n) - PiExpression.of(p).scale(self.wallis(n))

    def c_coeffs(self, n0: int, n1: int, p, precision: int):
        """c_n(p) for a rational or :class:`PiExpression` p, enclosed once a
        call; p C(2n,n) / 4^n floors and ceils once (``mul_scalar(W_n)``)."""
        ns, blo, bhi = self._rows(n0, n1, precision)
        self._central(n1)
        C = self._C
        pe = self._p_enclosure(PiExpression.of(p), precision + _VALUE_GUARD)
        return _times_ehp((blo[n] for n in ns), (bhi[n] for n in ns),
                          precision,
                          (((pe.lo * C[n]) >> 2 * n for n in ns),
                           (-((-pe.hi * C[n]) >> 2 * n) for n in ns)))

    def c_coeff(self, n: int, p, precision: int) -> Interval:
        """Enclosure of c_n(p); :meth:`c_is_exactly_zero` decides zeros."""
        (lo,), (hi,) = self.c_coeffs(n, n, p, precision)
        return Interval(lo, hi, precision)

    def _p_enclosure(self, p: PiExpression, work: int) -> Interval:
        """Enclosure of p (with its e^(pi/2) factor, if it has one) at
        ``work`` bits; computed once per value of p and ``work``."""
        key = (p, work)
        with self._lock:
            hit = self._p_enclosures.get(key)
            if hit is None:
                hit = self._p_enclosures[key] = p.evaluate(work)
            return hit

    def c_is_exactly_zero(self, n: int, p) -> bool:
        """True iff c_n(p) cancels exactly.  b_n is a nonzero multiple of
        e^(pi/2), so only a scaled p can cancel it."""
        p = PiExpression.of(p)
        return p.exp_scale and self.c_exact(n, p).is_zero

    # ------------------------------------------------------------------

    def threshold(self, k: int) -> PiExpression:
        """Exact ratio b_k / W_k (the sharp parameter thresholds)."""
        return self.b_coeff(k) / self.wallis(k)


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
