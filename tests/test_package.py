"""The package exports exactly the names its modules declare public,
installs the command line as its console script, and takes every rational
a caller passes through one gate."""

import importlib
import pathlib
from decimal import Decimal
from fractions import Fraction as F

import pytest

import ellipmono
from ellipmono import cli
from ellipmono.certify import (BoundSpec, certify_sequence, grid_verify,
                               h_monotonicity, sharpness_probe)
from ellipmono.coefficients import CoefficientTable, shared_coefficients
from ellipmono.elliptic import agm_K_m, hyp_series, lt_check
from ellipmono.intervals import Interval
from ellipmono.pi_expr import PiExpression

MODULES = [importlib.import_module(f"ellipmono.{name}") for name in (
    "intervals", "constants", "pi_expr", "coefficients", "elliptic",
    "certify")]


def test_every_exported_name_resolves_once():
    for names in [ellipmono.__all__] + [m.__all__ for m in MODULES]:
        assert len(names) == len(set(names))
        exec(f"from {ellipmono.__name__} import {', '.join(names)}", {})
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ellipmono, name) is getattr(module, name)


def test_console_script_is_the_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["ellipmono"].partition(":")
    assert (module, attr) == ("ellipmono.cli", "main")
    assert getattr(importlib.import_module(module), attr) is cli.main


# built before the test forbids work, so the rational is the first input read
_IV = Interval.from_fraction(F(1, 3), 64)
_PI = PiExpression((0, 1))

# every entry that takes a caller's rational, fed the rejected value v
RATIONAL_ENTRIES = {
    "from_fraction": lambda v: Interval.from_fraction(v, 64),
    "mul_scalar": lambda v: _IV.mul_scalar(v),
    "contains": lambda v: _IV.contains(v),
    "PiExpression": lambda v: PiExpression((1, v)),
    "PiExpression.of": lambda v: PiExpression.of(v),
    "scale": lambda v: _PI.scale(v),
    "c_coeffs p": lambda v: shared_coefficients().c_coeffs(1, 5, v, 64),
    "certify_sequence p": lambda v: certify_sequence("c_nonpos", 1, 5, p=v),
    "BoundSpec param": lambda v: grid_verify(BoundSpec("P1_upper", 0, v),
                                             [F(1, 4)]),
    "grid_verify point": lambda v: grid_verify(BoundSpec("RMK4_QI"),
                                               [F(1, 4), v]),
    "grid_verify pair": lambda v: grid_verify(
        BoundSpec("CP3_upper"), [(F(1, 8), F(1, 4)), (F(1, 8), v)]),
    "sharpness_probe epsilon": lambda v: sharpness_probe("P1_lower", v),
    "h_monotonicity points": lambda v: h_monotonicity([F(1, 4), v]),
    "hyp_series triple": lambda v: hyp_series((F(1, 2), v, 1), F(1, 2), 64),
    "hyp_series x": lambda v: hyp_series("hh1", v, 64),
    "lt_check triple": lambda v: lt_check(F(1, 2), F(1, 2), v, F(1, 2), 64),
    "lt_check x": lambda v: lt_check(F(1, 2), F(1, 2), 1, v, 64),
    "agm_K_m": lambda v: agm_K_m(v, 64),
}


@pytest.mark.parametrize("value", [0.1, "1/3", Decimal("0.1")],
                         ids=["float", "str", "Decimal"])
@pytest.mark.parametrize("entry", sorted(RATIONAL_ENTRIES))
def test_an_inexact_rational_raises_before_any_work(entry, value,
                                                    monkeypatch):
    # a float is not the rational it prints as (0.1 is
    # 3602879701896397/2^55), so no entry may round it silently; the
    # TypeError comes before any interval, margin or table work
    def work(*args, **kwargs):
        raise AssertionError(f"{entry} did work before the gate")

    monkeypatch.setattr(Interval, "__init__", work)
    for name in ("_central", "ensure_exact", "ensure_uv", "ensure_values"):
        monkeypatch.setattr(CoefficientTable, name, work)
    with pytest.raises(TypeError, match="expected an exact rational, got "
                       + type(value).__name__):
        RATIONAL_ENTRIES[entry](value)


def test_an_int_gives_the_bits_of_the_equal_fraction():
    for k in (-7, -1, 0, 1, 3, 1 << 70):
        for prec in (1, 53, 128):
            a, b = Interval.from_fraction(k, prec), Interval.from_fraction(
                F(k), prec)
            assert (a.lo, a.hi, a.prec) == (b.lo, b.hi, b.prec)
        a, b = _IV.mul_scalar(k), _IV.mul_scalar(F(k))
        assert (a.lo, a.hi, a.prec) == (b.lo, b.hi, b.prec)
    # (1 - x)^(c - a - b) at c - a - b = -1 stays exact for an int x = 0
    a = lt_check(F(3, 2), F(3, 2), 2, 0, 64)
    b = lt_check(F(3, 2), F(3, 2), F(2), F(0), 64)
    assert (a.lo, a.hi, a.prec) == (b.lo, b.hi, b.prec)
    assert a.contains(0)
