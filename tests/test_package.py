"""The package exports exactly the names its modules declare public, and
installs the command line as its console script."""

import importlib
import pathlib

import pytest

import ellipmono
from ellipmono import cli

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
