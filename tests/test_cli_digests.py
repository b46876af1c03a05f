"""Golden digests of what ``ellipmono coeffs`` and ``ellipmono eval`` print.

``tests/golden/cli_digests.json`` maps a case name to the sha256 of the
text ``main(argv)`` prints for it.  The ``coeffs`` cases are the b table
to 200 in csv and json, the quotient to 100 as exact forms and as
enclosures, u and v to 1000, and c_n(threshold(40)) to 300.  The ``eval``
cases cover every ``--what`` target: K by ``--m`` and by ``--r``, and
the two series with a ``--terms`` cap.  A change in how the exact
coefficients are stored or rendered, or in how an eval target is
dispatched, must leave every digest equal.

Regenerate the file with ``PYTHONPATH=src python tests/test_cli_digests.py``
only when a change of output is intended, and say which entries changed.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from ellipmono.cli import main

DIGESTS = pathlib.Path(__file__).with_name("golden") / "cli_digests.json"

CASES = {
    "b/200/csv": ["coeffs", "--kind", "b", "--n-max", "200"],
    "b/200/json": ["coeffs", "--kind", "b", "--n-max", "200",
                   "--format", "json"],
    "q/100/exact": ["coeffs", "--kind", "q", "--n-max", "100"],
    "q/100/enclosure": ["coeffs", "--kind", "q", "--n-max", "100",
                        "--enclosure"],
    "u/1000": ["coeffs", "--kind", "u", "--n-max", "1000"],
    "v/1000": ["coeffs", "--kind", "v", "--n-max", "1000"],
    "c/300/threshold(40)": ["coeffs", "--kind", "c", "--n-max", "300",
                            "--p", "threshold(40)"],
    "eval/K/m=1/2": ["eval", "--what", "K", "--m", "1/2"],
    "eval/K/r=3/5": ["eval", "--what", "K", "--r", "3/5"],
    "eval/expK/x=1/3": ["eval", "--what", "expK", "--x", "1/3"],
    "eval/expK_series/x=1/3/terms=60": ["eval", "--what", "expK_series",
                                        "--x", "1/3", "--terms", "60"],
    "eval/hyp/3h3h2/x=1/4/terms=40": ["eval", "--what", "hyp",
                                      "--kind", "3h3h2", "--x", "1/4",
                                      "--terms", "40"],
    "eval/g/x=1/3": ["eval", "--what", "g", "--x", "1/3"],
    "eval/g0/x=1/3": ["eval", "--what", "g0", "--x", "1/3"],
    "eval/G/x=1/3": ["eval", "--what", "G", "--x", "1/3"],
    "eval/G4/x=1/3": ["eval", "--what", "G4", "--x", "1/3"],
    "eval/H/x=1/3": ["eval", "--what", "H", "--x", "1/3"],
    "eval/ekd/x=1/3": ["eval", "--what", "ekd", "--x", "1/3"],
    "eval/defect/m=9/10/256": ["eval", "--what", "defect", "--m", "9/10",
                               "--precision", "256", "--digits", "60"],
    "eval/alpha": ["eval", "--what", "alpha"],
    "eval/beta": ["eval", "--what", "beta"],
    "eval/lt/1/2,1/2,2/x=1/2": ["eval", "--what", "lt",
                                "--triple", "1/2,1/2,2", "--x", "1/2"],
}


def _digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(CASES[name])
    assert rc == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _names(command):
    return sorted(name for name, argv in CASES.items() if argv[0] == command)


def test_digests_cover_every_case():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", _names("coeffs"))
def test_coeffs_digest(name):
    assert _digest(name) == json.loads(DIGESTS.read_text())[name]


@pytest.mark.parametrize("name", _names("eval"))
def test_eval_digest(name):
    assert _digest(name) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({name: _digest(name) for name in CASES},
                                  indent=2) + "\n")
