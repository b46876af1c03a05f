"""Golden digests of the exact ``ellipmono coeffs`` tables.

``tests/golden/cli_digests.json`` maps a case name to the sha256 of the
text ``main(argv)`` prints for it: the b table to 200 in csv and json,
the quotient to 100 as exact forms and as enclosures, u and v to 1000,
and c_n(threshold(40)) to 300.  A change in how the exact coefficients
are stored or rendered must leave every digest equal.

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
    "b/200/csv": ["--kind", "b", "--n-max", "200"],
    "b/200/json": ["--kind", "b", "--n-max", "200", "--format", "json"],
    "q/100/exact": ["--kind", "q", "--n-max", "100"],
    "q/100/enclosure": ["--kind", "q", "--n-max", "100", "--enclosure"],
    "u/1000": ["--kind", "u", "--n-max", "1000"],
    "v/1000": ["--kind", "v", "--n-max", "1000"],
    "c/300/threshold(40)": ["--kind", "c", "--n-max", "300",
                            "--p", "threshold(40)"],
}


def _digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["coeffs", *CASES[name]])
    assert rc == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_digests_cover_every_case():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_coeffs_digest(name):
    assert _digest(name) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({name: _digest(name) for name in CASES},
                                  indent=2) + "\n")
