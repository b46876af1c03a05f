"""Command-line interface, driven in-process through main(argv)."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ellipmono.certify import (BoundSpec, certify_sequence, default_grid,
                               grid_verify, sharpness_probe)
from ellipmono.cli import main, parse_param
from ellipmono.coefficients import CoefficientTable, threshold
from ellipmono.constants import CONSTANT_NAMES
from ellipmono.pi_expr import PiExpression

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_constants_csv(capsys):
    rc, out, err = run(capsys, "constants", "--names", "pi,ln2")
    assert rc == 0 and not err
    lines = out.strip().splitlines()
    assert lines[0] == "name,enclosure"
    assert lines[1].startswith('pi,"3.14159265358979323846')
    assert lines[2].startswith('ln2,"0.69314718055994530941')


def test_constants_json(capsys):
    rc, out, _ = run(capsys, "constants", "--format", "json",
                     "--names", "sqrt_two")
    assert rc == 0
    data = json.loads(out)
    assert set(data) == {"sqrt_two"}
    assert data["sqrt_two"].startswith("1.4142135623730950488")
    rc, out, _ = run(capsys, "constants", "--format", "json", "--digits", "5")
    assert rc == 0 and tuple(json.loads(out)) == CONSTANT_NAMES


def test_constants_unknown_name(capsys):
    rc, out, err = run(capsys, "constants", "--names", "feigenbaum")
    assert rc == 2
    assert "unknown constant" in err


def test_coeffs_b_exact_csv(capsys):
    rc, out, _ = run(capsys, "coeffs", "--kind", "b", "--n-max", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,expression"
    assert lines[1] == '0,"1 * exp(pi/2)"'
    assert lines[4] == '3,"(pi^3 + 27*pi^2 + 150*pi)/3072 * exp(pi/2)"'


def test_coeffs_json_and_enclosure(capsys):
    rc, out, _ = run(capsys, "coeffs", "--kind", "b", "--n-max", "2",
                     "--enclosure", "--format", "json", "--digits", "12")
    assert rc == 0
    data = json.loads(out)
    assert data["kind"] == "b"
    assert data["column"] == "enclosure"
    assert len(data["rows"]) == 3
    assert data["rows"][1]["enclosure"].startswith("1.88907005003")


def test_coeffs_c_requires_p(capsys):
    rc, _, err = run(capsys, "coeffs", "--kind", "c", "--n-max", "2")
    assert rc == 2
    assert "--p" in err


def test_coeffs_c_with_p(capsys):
    rc, out, _ = run(capsys, "coeffs", "--kind", "c", "--n-max", "1",
                     "--p", "4", "--digits", "15")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,enclosure"
    assert lines[2].startswith('1,"-0.11092994996242')


def test_coeffs_c_json_names_its_parameter(capsys):
    for text, p in (("4", "4"), ("threshold(1)", str(threshold(1)))):
        rc, out, _ = run(capsys, "coeffs", "--kind", "c", "--n-max", "1",
                         "--p", text, "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["p"] == p
        assert data["column"] == "enclosure" and len(data["rows"]) == 2
    rc, out, _ = run(capsys, "coeffs", "--kind", "b", "--n-max", "1",
                     "--format", "json")
    assert rc == 0 and "p" not in json.loads(out)


def test_coeffs_c_encloses_p_once_for_all_its_rows(capsys, monkeypatch):
    calls = []
    real = PiExpression.evaluate

    def counting(self, precision):
        calls.append(precision)
        return real(self, precision)

    monkeypatch.setattr(PiExpression, "evaluate", counting)
    rc, out, _ = run(capsys, "coeffs", "--kind", "c", "--n-max", "300",
                     "--p", "threshold(40)")
    assert rc == 0
    assert len(calls) == 1
    lines = out.strip().splitlines()
    assert len(lines) == 302
    # c_40 vanishes at p = threshold(40); its enclosure holds 0
    assert re.fullmatch(r'40,"-?0\.0+ ± [0-9.e+-]+"', lines[41]), lines[41]


def test_coeffs_rows_reach_stdout_as_they_are_read(monkeypatch):
    calls = []
    real = CoefficientTable.b_coeff

    def counting(self, n):
        calls.append(n)
        return real(self, n)

    class Out:  # notes how many b_n were read when each row is written
        def write(self, text):
            if text[:1].isdigit():
                written.append((int(text.split(",")[0]), len(calls)))
            return len(text)

        def flush(self):
            pass

    written = []
    monkeypatch.setattr(CoefficientTable, "b_coeff", counting)
    monkeypatch.setattr(sys, "stdout", Out())
    assert main(["coeffs", "--kind", "b", "--n-max", "30"]) == 0
    assert [n for n, _ in written] == list(range(31))
    assert all(read <= n + 2 for n, read in written), written


def test_a_reader_that_stops_early_ends_the_command_quietly():
    # ``coeffs --kind b --n-max 200 | head -1``: megabytes of exact forms,
    # and the reader closes the pipe after the header
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ellipmono.cli", "coeffs", "--kind", "b",
         "--n-max", "200"], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"n,expression\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_a_closed_pipe_keeps_the_exit_code(capsys, monkeypatch, tmp_path):
    class Closed:  # stdout whose reader has gone
        def __init__(self, file):
            self.fileno = file.fileno

        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass

    with open(tmp_path / "out", "w") as file:
        monkeypatch.setattr(sys, "stdout", Closed(file))
        rc = main(["certify", "--claim", "c_nonneg", "--n-start", "1",
                   "--n-end", "5", "--p", "4", "--no-timestamp"])
    assert rc == 1  # Refuted, as with an open pipe
    assert capsys.readouterr().err == ""


def test_coeffs_q_exact(capsys):
    rc, out, _ = run(capsys, "coeffs", "--kind", "q", "--n-max", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert "exp(pi/2)" in lines[1]
    assert "pi" in lines[1]


def test_eval_K(capsys):
    rc, out, _ = run(capsys, "eval", "--what", "K", "--m", "1/2")
    assert rc == 0
    assert out.startswith("1.85407467730137191843385034719")


def test_eval_alpha(capsys):
    rc, out, _ = run(capsys, "eval", "--what", "alpha")
    assert rc == 0
    assert out.startswith("0.81047738096535165547")


def test_eval_lt_residual(capsys):
    rc, out, _ = run(capsys, "eval", "--what", "lt", "--triple",
                     "1/2,1/2,2", "--x", "1/2")
    assert rc == 0
    assert "±" in out or "e-" in out  # a "mid ± rad" enclosure string


def test_eval_lt_short_triple_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "eval", "--what", "lt", "--triple", "1/2,1/2",
                       "--x", "1/2")
    assert rc == 2 and not out
    assert err == "error: --triple expects a,b,c\n"


def test_eval_domain_error_exit_code(capsys):
    rc, _, err = run(capsys, "eval", "--what", "K", "--m", "2")
    assert rc == 2
    assert "error:" in err


def test_eval_missing_argument(capsys):
    rc, _, err = run(capsys, "eval", "--what", "g")
    assert rc == 2
    assert err == "error: eval --what g needs --x\n"


def test_certify_json_and_exit(capsys):
    rc, out, _ = run(capsys, "certify", "--claim", "u_signs",
                     "--n-end", "20", "--no-timestamp")
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "Certified"
    assert data["runtime_ms"] == 0.0
    assert "generated_at" not in data
    assert list(data)[:4] == ["claim", "range", "status", "precision_used"]


def test_certify_timestamp_present_by_default(capsys):
    rc, out, _ = run(capsys, "certify", "--claim", "u_signs", "--n-end", "5")
    assert rc == 0
    assert "generated_at" in json.loads(out)


def test_certify_reproducible_output(capsys):
    args = ("certify", "--claim", "c_nonpos", "--n-start", "1",
            "--n-end", "30", "--p", "4", "--no-timestamp")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_certify_refuted_exit_code(capsys):
    rc, out, _ = run(capsys, "certify", "--claim", "c_nonneg",
                     "--n-start", "1", "--n-end", "5", "--p", "4",
                     "--no-timestamp")
    assert rc == 1
    assert json.loads(out)["status"] == "Refuted"


def test_certify_named_param(capsys):
    rc, out, _ = run(capsys, "certify", "--claim", "c_nonneg",
                     "--n-end", "30", "--p", "pi*exp(pi/2)/4",
                     "--no-timestamp")
    assert rc == 0
    assert json.loads(out)["boundary_zeros"] == ["n=1"]


def test_verify_small_grid(capsys):
    rc, out, _ = run(capsys, "verify", "--family", "P1_lower",
                     "--density", "20", "--no-timestamp")
    assert rc == 0
    assert json.loads(out)["status"] == "Certified"


def test_verify_escalates_from_a_start_precision_too_low(capsys):
    # at 8 bits 1 - x rounds to 0 at the grid point x = 1 - 2^-12, which
    # escalates like an undecided sign rather than failing the run
    rc, out, err = run(capsys, "verify", "--family", "P1_lower",
                       "--precision", "8", "--no-timestamp")
    assert rc == 0 and not err
    cert = json.loads(out)
    assert cert["status"] == "Certified"
    assert cert["precision_used"] > 8


def test_sharpness_refutes(capsys):
    rc, out, _ = run(capsys, "sharpness", "--family", "P1_lower",
                     "--epsilon", "1/100", "--no-timestamp")
    assert rc == 0
    assert json.loads(out)["status"] == "Refuted"


def test_sharpness_undecided_exit_code(capsys):
    rc, out, _ = run(capsys, "sharpness", "--family", "EKDIFF_upper",
                     "--epsilon", "1/1000", "--max-steps", "2",
                     "--no-timestamp")
    assert rc == 1
    assert json.loads(out)["status"] == "Undecided"


@pytest.mark.parametrize("argv", [
    ("certify", "--claim", "c_nonneg", "--n-end", "5", "--p", "sqrt(2)"),
    ("certify", "--claim", "c_nonneg", "--n-end", "3", "--p", "threshold(x)"),
    ("sharpness", "--family", "P1_lower", "--epsilon", "abc"),
    ("eval", "--what", "lt", "--triple", "1/2,1/2,2/0", "--x", "1/2"),
])
def test_bad_param_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_parse_param_forms():
    assert parse_param("3/7") == __import__("fractions").Fraction(3, 7)
    assert parse_param("threshold(1)") == threshold(1)
    named = parse_param("pi * exp(pi/2) / 4")
    assert isinstance(named, PiExpression)
    assert named == threshold(1)


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "P3_lower", "--density", "1"),
    ("certify", "--claim", "u_signs", "--n-start", "5", "--n-end", "3"),
    ("sharpness", "--family", "P1_lower", "--epsilon", "1/100",
     "--max-steps", "0"),
])
def test_empty_scan_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv, "--no-timestamp")
    assert rc == 2 and not out
    assert err.startswith("error:") and "nothing to certify" in err


@pytest.mark.parametrize("claim", ["c_nonneg", "c_nonpos"])
def test_certify_c_claim_without_p_is_a_usage_error(capsys, claim):
    rc, out, err = run(capsys, "certify", "--claim", claim, "--n-end", "5",
                       "--no-timestamp")
    assert rc == 2 and not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "needs the parameter p" in err


@pytest.mark.parametrize("n_end", ["2", "-1"])
def test_negative_n_start_is_a_usage_error(capsys, n_end):
    rc, out, err = run(capsys, "certify", "--claim", "gap_positive",
                       "--n-start", "-3", "--n-end", n_end, "--no-timestamp")
    assert rc == 2 and not out
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "P3_upper", "--order", "-1", "--density", "5"),
    ("sharpness", "--family", "P1_lower", "--epsilon", "1/100",
     "--order", "-1"),
])
def test_negative_order_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv, "--no-timestamp")
    assert rc == 2 and not out
    assert err == "error: order=-1 is negative\n"


def test_negative_digits_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "eval", "--what", "alpha", "--digits", "-1")
    assert rc == 2 and not out
    assert err == "error: digits=-1 is negative\n"


@pytest.mark.parametrize("argv, flag", [
    (("--what", "lt", "--x", "1/2"), "--triple"),
    (("--what", "K"), "--r or --m"),
])
def test_eval_names_the_missing_flag(capsys, argv, flag):
    rc, out, err = run(capsys, "eval", *argv)
    assert rc == 2 and not out
    assert err == f"error: eval --what {argv[1]} needs {flag}\n"


def _help_choices(capsys, command, flag):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    found = re.search(flag + r" \{([^}]*)\}", capsys.readouterr().out)
    return tuple(found.group(1).split(","))


def test_choices_keep_their_order(capsys):
    assert _help_choices(capsys, "eval", "--what") == (
        "K", "expK", "expK_series", "hyp", "g", "g0", "G", "G4", "H", "ekd",
        "defect", "alpha", "beta", "lt")
    assert _help_choices(capsys, "coeffs", "--kind") == (
        "b", "u", "v", "c", "q")


@pytest.mark.parametrize("family", ["P1_lower", "P3_lower"])
def test_negative_density_is_a_usage_error(capsys, family):
    rc, out, err = run(capsys, "verify", "--family", family, "--density", "-5",
                       "--no-timestamp")
    assert rc == 2 and not out
    assert err == "error: grid density -5 is negative\n"


@pytest.mark.parametrize("argv, name", [
    (("hyp", "--kind", "hh1"), "max_terms"), (("expK_series",), "n_terms")])
def test_negative_term_cap_is_a_usage_error(capsys, argv, name):
    rc, out, err = run(capsys, "eval", "--what", *argv, "--x", "1/2",
                       "--terms", "-3")
    assert rc == 2 and not out
    assert err == f"error: {name}=-3 is negative\n"


@pytest.mark.parametrize("kind", ["b", "q", "c"])
def test_negative_n_max_is_a_usage_error(capsys, kind):
    rc, out, err = run(capsys, "coeffs", "--kind", kind, "--n-max", "-3")
    assert rc == 2 and not out
    assert err == "error: n_max=-3 is negative\n"


def test_certify_rejects_a_parameter_the_claim_ignores(capsys):
    rc, out, err = run(capsys, "certify", "--claim", "u_signs",
                       "--n-end", "3", "--p", "4", "--no-timestamp")
    assert rc == 2 and not out
    assert err == "error: claim 'u_signs' takes no parameter p\n"


def test_verify_rejects_a_parameter_the_family_ignores(capsys):
    rc, out, err = run(capsys, "verify", "--family", "RMK4_QI", "--p", "7",
                       "--density", "5", "--no-timestamp")
    assert rc == 2 and not out
    assert err == "error: family 'RMK4_QI' takes no parameter\n"


def test_verify_without_density_uses_the_family_grid(capsys):
    rc, out, _ = run(capsys, "verify", "--family", "CP3_lower",
                     "--no-timestamp")
    assert rc == 0
    assert json.loads(out)["range"] == "240 grid points"


@pytest.mark.parametrize("density", [1, 3, 59])
@pytest.mark.parametrize("family", ["EKDIFF_upper", "EKDIFF_lower"])
def test_verify_difference_bounds_at_odd_densities(capsys, family, density):
    # default_grid holds x = 1/2 at these densities; the family's grid
    # leaves it out, so the bound is certified rather than a domain error
    rc, out, err = run(capsys, "verify", "--family", family, "--density",
                       str(density), "--no-timestamp")
    assert rc == 0 and not err
    cert = json.loads(out)
    assert cert["status"] == "Certified"
    assert cert["range"] == f"{len(default_grid(density)) - 1} grid points"


def test_verify_rejects_a_parameter_below_the_order_that_reads_it(capsys):
    rc, out, err = run(capsys, "verify", "--family", "P3_lower", "--p", "4",
                       "--no-timestamp")
    assert rc == 2 and not out
    assert err == "error: family 'P3_lower' at order 0 takes no parameter\n"


@pytest.mark.parametrize("argv, message", [
    (("coeffs", "--kind", "b", "--n-max", "1", "--p", "4"),
     "coeffs --kind b takes no --p"),
    (("eval", "--what", "alpha", "--x", "1/3"),
     "eval --what alpha takes no --x"),
    (("eval", "--what", "K", "--r", "1/2", "--m", "1/4"),
     "eval --what K takes --r or --m, not both"),
])
def test_a_flag_the_choice_never_reads_is_a_usage_error(capsys, argv,
                                                        message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["b", "u", "v", "q"])
@pytest.mark.parametrize("flag, value", [("--digits", "5"),
                                         ("--precision", "64")])
def test_coeffs_exact_forms_take_no_digits_or_precision(capsys, kind, flag,
                                                        value):
    rc, out, err = run(capsys, "coeffs", "--kind", kind, "--n-max", "1",
                       flag, value)
    assert rc == 2 and not out
    assert err == (f"error: coeffs --kind {kind} takes {flag} "
                   "only with --enclosure\n")
    rc, out, _ = run(capsys, "coeffs", "--kind", kind, "--n-max", "1",
                     flag, value, "--enclosure")
    assert rc == 0 and out.startswith("n,enclosure\n")


@pytest.mark.parametrize("argv, family", [
    (("verify", "--family", "RMK4_QI", "--order", "1", "--density", "5"),
     "RMK4_QI"),
    (("sharpness", "--family", "EKDIFF_upper", "--epsilon", "1/1000",
      "--order", "1"), "EKDIFF_upper"),
])
def test_an_order_the_family_never_reads_is_a_usage_error(capsys, argv,
                                                          family):
    rc, out, err = run(capsys, *argv, "--no-timestamp")
    assert rc == 2 and not out
    assert err == f"error: family '{family}' takes no order\n"


@pytest.mark.parametrize("argv", [
    ("certify", "--claim", "u_signs", "--n-end", "5"),
    ("certify", "--claim", "v_positive", "--n-end", "5"),
    ("certify", "--claim", "gap_positive", "--n-end", "5"),
    ("certify", "--claim", "c_nonneg", "--n-end", "5", "--p", "4"),
    ("verify", "--family", "P1_lower", "--density", "3"),
    ("verify", "--family", "RMK4_QI", "--density", "3"),
    ("sharpness", "--family", "P1_lower", "--epsilon", "1/100"),
    ("eval", "--what", "alpha"),
    ("eval", "--what", "K", "--m", "1/2"),
    ("eval", "--what", "expK_series", "--x", "1/3"),
    ("constants",),
    ("coeffs", "--kind", "b", "--n-max", "3", "--enclosure"),
    ("coeffs", "--kind", "c", "--n-max", "3", "--p", "4"),
])
@pytest.mark.parametrize("precision", ["0", "-5"])
def test_precision_below_one_bit_is_one_usage_error(capsys, argv, precision):
    # every command that reads --precision refuses before any table work,
    # with the same message
    stamp = ("--no-timestamp",) if argv[0] in (
        "certify", "verify", "sharpness") else ()
    rc, out, err = run(capsys, *argv, "--precision", precision, *stamp)
    assert rc == 2 and not out
    assert err == f"error: precision {precision} is below one bit\n"


@pytest.mark.parametrize("argv, driver", [
    (("verify", "--family", "RMK4_YI"),
     lambda: grid_verify(BoundSpec("RMK4_YI"))),
    (("verify", "--family", "P1_lower", "--order", "1", "--density", "20"),
     lambda: grid_verify(BoundSpec("P1_lower", 1), default_grid(20))),
    (("verify", "--family", "RMK4_QI", "--precision", "128",
      "--max-precision", "128", "--density", "5"),
     lambda: grid_verify(BoundSpec("RMK4_QI"), default_grid(5),
                         precision=128, max_precision=128)),
    (("sharpness", "--family", "P1_lower", "--epsilon", "1/100"),
     lambda: sharpness_probe("P1_lower", Fraction(1, 100))),
    (("sharpness", "--family", "EKDIFF_upper", "--epsilon", "1/1000",
      "--max-steps", "3"),
     lambda: sharpness_probe("EKDIFF_upper", Fraction(1, 1000), max_steps=3)),
    (("certify", "--claim", "u_signs", "--n-end", "50"),
     lambda: certify_sequence("u_signs", 0, 50)),
    (("certify", "--claim", "c_nonneg", "--n-start", "65", "--n-end", "70",
      "--p", "threshold(65)"),
     lambda: certify_sequence("c_nonneg", 65, 70, p=threshold(65))),
], ids=["verify_RMK4_YI", "verify_P1_lower_order_1", "verify_RMK4_QI_capped",
        "sharpness_P1_lower", "sharpness_EKDIFF_upper", "certify_u_signs",
        "certify_threshold_65"])
def test_a_certificate_subcommand_issues_its_drivers_certificate(
        capsys, argv, driver):
    # a flag not given leaves the driver's own default, so one request
    # gives one certificate
    rc, out, err = run(capsys, *argv, "--no-timestamp")
    want = driver().to_json_dict()
    want["runtime_ms"] = 0.0
    assert rc in (0, 1) and not err
    assert out == json.dumps(want, indent=2) + "\n"
