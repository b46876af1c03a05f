"""Golden certificates: every driver's JSON output, byte for byte.

``tests/golden/certificates.json`` maps a case name to the certificate's
``to_json_dict()`` with ``runtime_ms`` zeroed.  The cases cover every
grid family, every sequence claim (boundary zeros, a refutation and an
``Undecided`` at the precision cap), escalation from a low starting
precision, the sharpness probes, H monotonicity and the quotient check.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden.py``
only when a change of output is intended, and say which entries changed.
"""

import json
import pathlib
from fractions import Fraction as F

import pytest

from ellipmono import certify, constants, elliptic
from ellipmono.certify import (
    FAMILIES,
    BoundSpec,
    certify_sequence,
    default_pair_grid,
    grid_verify,
    h_monotonicity,
    j_truncation_check,
    sharpness_probe,
)
from ellipmono.coefficients import threshold

GOLDEN = pathlib.Path(__file__).with_name("golden") / "certificates.json"

H_POINTS = [F(k, 10) for k in (1, 2, 3, 4, 6, 7, 8, 9)]


def _grid(family, order=0, param=None, offset=F(0), **kw):
    def run():
        spec = BoundSpec(family, order, param, offset)
        build = FAMILIES[family].grid
        # the golden density: 12 for pairs, 60 for the x grids
        return grid_verify(spec, build(12 if build is default_pair_grid
                                       else 60), **kw)
    return run


def _cases():
    cases = {f"grid/{fam}/0": _grid(fam) for fam in FAMILIES}
    for fam in ("P1_lower", "P1_upper", "P2_lower", "P2_upper",
                "P3_lower", "P3_upper"):
        for order in (1, 2):
            cases[f"grid/{fam}/{order}"] = _grid(fam, order)
    cases.update({
        "grid/P1_lower/over_threshold": _grid("P1_lower", offset=F(1, 2)),
        "grid/P1_upper/p=4-1/100": _grid("P1_upper", param=4 - F(1, 100)),
        "grid/P1_lower/from_32_bits": _grid("P1_lower", precision=32),
        # 1 - x rounds to 0 at x = 1 - 2^-12: the point escalates
        "grid/P1_lower/from_8_bits": _grid("P1_lower", precision=8),
        "grid/M1_identity/from_32_bits": _grid("M1_identity", precision=32),
        "seq/u_signs": lambda: certify_sequence("u_signs", 0, 40),
        "seq/v_positive": lambda: certify_sequence("v_positive", 2, 60),
        "seq/ratio_increasing":
            lambda: certify_sequence("ratio_increasing", 1, 200),
        "seq/ratio_below_4": lambda: certify_sequence("ratio_below_4", 1, 200),
        "seq/gap_positive": lambda: certify_sequence("gap_positive", 1, 200),
        "seq/c_nonneg/threshold(1)":
            lambda: certify_sequence("c_nonneg", 0, 50, p=threshold(1)),
        "seq/c_nonpos/threshold(0)":
            lambda: certify_sequence("c_nonpos", 0, 50, p=threshold(0)),
        "seq/c_nonneg/threshold(40)":
            lambda: certify_sequence("c_nonneg", 40, 80, p=threshold(40)),
        "seq/c_nonpos/4": lambda: certify_sequence("c_nonpos", 1, 50, p=F(4)),
        "seq/c_nonneg/4": lambda: certify_sequence("c_nonneg", 1, 5, p=F(4)),
        "seq/c_nonneg/threshold(65)":
            lambda: certify_sequence("c_nonneg", 65, 70, p=threshold(65)),
        "probe/P1_lower": lambda: sharpness_probe("P1_lower", F(1, 100)),
        "probe/P1_upper": lambda: sharpness_probe("P1_upper", F(1, 100)),
        "probe/EKDIFF_upper":
            lambda: sharpness_probe("EKDIFF_upper", F(1, 1000)),
        "probe/EKDIFF_lower":
            lambda: sharpness_probe("EKDIFF_lower", F(1, 1000)),
        "probe/P1_lower/order_1":
            lambda: sharpness_probe("P1_lower", F(1, 100), order=1),
        "probe/EKDIFF_upper/max_steps_3":
            lambda: sharpness_probe("EKDIFF_upper", F(1, 1000), max_steps=3),
        "h/96": lambda: h_monotonicity(H_POINTS),
        "h/6": lambda: h_monotonicity(H_POINTS, precision=6),
        "j/60": lambda: j_truncation_check(60)[0],
        "j/30/precision_4": lambda: j_truncation_check(30, precision=4)[0],
    })
    return cases


CASES = _cases()


def _fresh(name):
    d = CASES[name]().to_json_dict()
    d["runtime_ms"] = 0.0
    return d


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_certificate(name):
    want = json.loads(GOLDEN.read_text())[name]
    assert json.dumps(_fresh(name), indent=2) == json.dumps(want, indent=2)


def test_certificate_bytes_do_not_depend_on_earlier_constants(monkeypatch):
    # a shared table that already answered finer precisions gives the same
    # certificate bytes as a fresh one, and both give the golden file's
    name = "grid/RMK4_QI/0"
    want = json.dumps(json.loads(GOLDEN.read_text())[name], indent=2)
    monkeypatch.setattr(constants, "_shared", constants.ConstantTable())
    assert json.dumps(_fresh(name), indent=2) == want
    warmed = constants.ConstantTable()
    for bits in range(200, 4001, 200):
        for const in ("pi", "exp_half_pi"):
            warmed.enclose(const, bits)
    monkeypatch.setattr(constants, "_shared", warmed)
    assert json.dumps(_fresh(name), indent=2) == want


# cases whose certificates read the memos of elliptic and certify
MEMO_CASES = ["grid/P1_lower/0", "grid/P3_lower/0", "grid/EKDIFF_upper/0",
              "grid/M1_identity/0", "probe/EKDIFF_lower", "h/96"]
MEMOS = (elliptic._agm_K, elliptic._exp_K, elliptic.alpha_enclosure,
         elliptic.beta_enclosure, certify._spec_values,
         certify._identity_values)


def _warm_memos(name):
    # the other memo cases, and this one's family at other precisions
    for other in MEMO_CASES:
        if other != name:
            CASES[other]()
    family = name.split("/")[1]
    if name.startswith("grid/"):
        for bits in (64, 192):
            _grid(family, precision=bits)()
    elif name.startswith("probe/"):
        sharpness_probe(family, F(1, 1000), max_steps=8, precision=192)
    else:
        h_monotonicity(H_POINTS, precision=192)


@pytest.mark.parametrize("name", MEMO_CASES)
def test_certificate_bytes_do_not_depend_on_the_memos(name):
    want = json.dumps(json.loads(GOLDEN.read_text())[name], indent=2)
    for memo in MEMOS:
        memo.cache_clear()
    assert json.dumps(_fresh(name), indent=2) == want
    for memo in MEMOS:
        memo.cache_clear()
    _warm_memos(name)
    hits = sum(memo.cache_info().hits for memo in MEMOS)
    assert json.dumps(_fresh(name), indent=2) == want
    assert sum(memo.cache_info().hits for memo in MEMOS) > hits


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({name: _fresh(name) for name in CASES},
                                 indent=2) + "\n")
