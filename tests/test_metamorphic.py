"""Metamorphic relations of the sequence certificates.

The tests elsewhere pin single certificates; these check how certificates
must relate to each other, whatever their values:

* range splitting -- ``_fold`` stops at the first failure in index order,
  so [a, c] has the status and witness of [a, b] unless that is
  ``Certified``, and else those of [b+1, c]; when both are ``Certified``
  the witness is the smaller margin, and the boundary zeros concatenate.
  Splits at n = 256 and 512, where a scan in blocks of 256 would cut
  the range, check that the range is read as one;
* monotone in p -- c_n(p) decreases in p, so ``c_nonneg`` certified at p
  stays ``Certified``, with no boundary zero, at any p' < p, and
  ``c_nonpos`` likewise at p' > p;
* start precision -- the starting precision may change
  ``precision_used``, never a status other than ``Undecided``;
* sub-grids -- an inequality family certified on a grid stays
  ``Certified`` on every subset of it, with a smallest margin no smaller.
"""

from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ellipmono.certify import (FAMILIES, BoundSpec, CertStatus, _pt_str,
                               certify_sequence, default_pair_grid,
                               grid_verify)
from ellipmono.coefficients import ratio, threshold

CERTIFIED = CertStatus.CERTIFIED
BLOCK = 256  # the cut points of a scan in blocks of 256 indices
N = 2 * BLOCK + 150  # scans from n = 1 cross two of them


def _between_ratios(n):
    """A rational p with ratio(n) < p < ratio(n + 1)."""
    below, above = ratio(n, 128).hi_fraction(), ratio(n + 1, 128).lo_fraction()
    assert below < above
    return (below + above) / 2


# (claim, p, start, extra keyword arguments); the scans cover Certified
# with and without boundary zeros, refutations at the last index of the
# first block (n = 256) and inside the second (n = 301), and an Undecided
# at the cap (c_65 at threshold(65) is exactly zero, and past
# _EXACT_ZERO_CAP nothing says so)
SCANS = {
    "u_signs": ("u_signs", None, 0, {}),
    "v_positive": ("v_positive", None, 0, {}),
    "ratio_increasing": ("ratio_increasing", None, 1, {}),
    "ratio_below_4": ("ratio_below_4", None, 1, {}),
    "gap_positive": ("gap_positive", None, 1, {}),
    "c_nonneg/threshold(1)": ("c_nonneg", threshold(1), 1, {}),
    "c_nonneg/-1/3": ("c_nonneg", F(-1, 3), 0, {}),
    "c_nonpos/4": ("c_nonpos", F(4), 1, {}),
    "c_nonpos/threshold(0)": ("c_nonpos", threshold(0), 0, {}),
    "c_nonpos/refuted_at_256": ("c_nonpos", BLOCK - 1, 1, {}),
    "c_nonpos/refuted_at_301": ("c_nonpos", 300, 1, {}),
    "c_nonpos/threshold(65)/cap_128": ("c_nonpos", threshold(65), 1,
                                       {"max_precision": 128}),
}


def scan(name, a, c, **kw):
    claim, p, _, extra = SCANS[name]
    if isinstance(p, int):  # refuted at n = p + 1
        p = _between_ratios(p)
    return certify_sequence(claim, a, c, p=p, **{**extra, **kw})


def mid(witness):
    return Decimal(witness.value.split(" ± ")[0])


def check_split(name, a, b, c):
    whole, left, right = scan(name, a, c), scan(name, a, b), scan(
        name, b + 1, c)
    if left.status is not CERTIFIED:
        assert (whole.status, whole.witnesses, whole.boundary_zeros,
                whole.precision_used) == (left.status, left.witnesses,
                                          left.boundary_zeros,
                                          left.precision_used)
        return
    assert whole.status is right.status
    assert whole.boundary_zeros == left.boundary_zeros + right.boundary_zeros
    assert whole.precision_used == max(left.precision_used,
                                       right.precision_used)
    if right.status is not CERTIFIED or not left.witnesses:
        assert whole.witnesses == right.witnesses
    elif not right.witnesses:
        assert whole.witnesses == left.witnesses
    else:
        (lw,), (rw,) = left.witnesses, right.witnesses
        # 30 printed digits order two 128-bit margins unless they print
        # equal, and then either may be the first smallest
        if mid(lw) != mid(rw):
            assert whole.witnesses == [min(lw, rw, key=mid)]
        else:
            assert whole.witnesses[0] in (lw, rw)


@pytest.mark.parametrize("name", sorted(SCANS))
def test_range_splitting_at_block_boundaries(name):
    a = SCANS[name][2]
    for b in (a, a + BLOCK - 2, a + BLOCK - 1, a + BLOCK, 300, 301,
              a + 2 * BLOCK - 1, N - 1):
        check_split(name, a, b, N)


@settings(max_examples=20)
@given(name=st.sampled_from(sorted(SCANS)), cut=st.floats(0, 1),
       a=st.integers(0, 40))
def test_range_splitting_anywhere(name, cut, a):
    a = max(a, SCANS[name][2])
    check_split(name, a, a + int(cut * (N - 1 - a)), N)


@settings(max_examples=12)
@given(below=st.fractions(0, 10, max_denominator=1000).filter(bool))
def test_certified_c_claims_are_monotone_in_p(below):
    # c_nonneg at threshold(1) holds with the one zero n = 1
    at = certify_sequence("c_nonneg", 1, N, p=threshold(1))
    assert at.status is CERTIFIED and at.boundary_zeros == ["n=1"]
    lower = certify_sequence("c_nonneg", 1, N, p=F(3) - below)
    assert lower.status is CERTIFIED and not lower.boundary_zeros
    for p in (F(4), threshold(0)):
        assert certify_sequence("c_nonpos", 1, N, p=p).status is CERTIFIED
        higher = certify_sequence("c_nonpos", 1, N, p=F(5) + below)
        assert higher.status is CERTIFIED and not higher.boundary_zeros


@pytest.mark.parametrize("name", sorted(SCANS))
def test_start_precision_changes_only_undecided(name):
    a = SCANS[name][2]
    at_64, at_128 = scan(name, a, N, precision=64), scan(name, a, N)
    if CertStatus.UNDECIDED not in (at_64.status, at_128.status):
        assert at_64.status is at_128.status
        assert at_64.boundary_zeros == at_128.boundary_zeros


# inequality families (the identity family's witness is its widest
# residual, not a smallest margin) on small grids
GRID_FAMILIES = sorted(name for name, family in FAMILIES.items()
                       if not family.identity)


def small_grid(name):
    build = FAMILIES[name].grid
    return build(6 if build is default_pair_grid else 4)


def rad(witness):
    return Decimal(witness.value.split(" ± ")[1])


@settings(max_examples=25)
@given(name=st.sampled_from(GRID_FAMILIES), data=st.data())
def test_a_certified_grid_stays_certified_on_its_subsets(name, data):
    grid = small_grid(name)
    keep = data.draw(st.sets(st.integers(0, len(grid) - 1), min_size=1))
    sub = [pt for i, pt in enumerate(grid) if i in keep]
    whole = grid_verify(BoundSpec(name), grid)
    part = grid_verify(BoundSpec(name), sub)
    assert whole.status is CERTIFIED and part.status is CERTIFIED
    (w,), (s,) = whole.witnesses, part.witnesses
    if w.location in {_pt_str(pt) for pt in sub}:
        assert s == w  # the first smallest margin of the grid is kept
    else:
        # lo(s) >= lo(w) > mid(w) - rad(w); mids print to 30 places
        assert mid(s) >= mid(w) - rad(w) - Decimal("1e-30")
