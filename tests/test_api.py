"""Public API: every exported name resolves, and the package re-exports the
modules' own objects."""

import importlib
import pkgutil

import pytest

import tfconc as tc

_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(tc.__path__) if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", _MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"tfconc.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_exports_are_module_objects():
    owners = {}
    for name in _MODULES:
        module = importlib.import_module(f"tfconc.{name}")
        for attr in module.__all__:
            owners.setdefault(attr, []).append(module)
    for attr in tc.__all__:
        if attr == "__version__":
            assert tc.__version__ == importlib.import_module("tfconc._version").__version__
            continue
        assert attr in owners, f"tfconc.{attr} is in no module's __all__"
        for module in owners[attr]:
            assert getattr(tc, attr) is getattr(module, attr), f"{attr} vs {module.__name__}"


_ORACLES = (
    "assemble_direct",
    "hs_identity",
    "phase_space_matrix",
    "phase_space_eigenvalues",
    "_assemble_oracle",
)


@pytest.mark.parametrize("name", ["cli", "scaling", "decay"])
def test_command_path_binds_no_test_oracle(name):
    # the slow independent routes stay test oracles: no module that a tfc
    # command runs binds one, under its own name or any other
    from tfconc import operators

    module = importlib.import_module(f"tfconc.{name}")
    assert [attr for attr in _ORACLES if hasattr(module, attr)] == []
    oracles = [getattr(operators, attr) for attr in _ORACLES if hasattr(operators, attr)]
    bound = [key for key, value in vars(module).items() if any(value is f for f in oracles)]
    assert bound == []
