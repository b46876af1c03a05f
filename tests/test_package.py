"""The package exports exactly the names its modules declare public."""

import importlib

import ellipmono

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
