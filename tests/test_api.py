"""Public API: every exported name resolves, and the package re-exports the
modules' own objects."""

import ast
import importlib
import inspect
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


def _imports_oracles(module) -> bool:
    """Whether the source of ``module`` imports ``tfconc.oracles`` anywhere,
    inside functions included."""
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("tfconc.oracles", "oracles") or (
                node.module in ("tfconc", None) and any(a.name == "oracles" for a in node.names)
            ):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "tfconc.oracles" for a in node.names):
                return True
    return False


@pytest.mark.parametrize(
    "name", [info.name for info in pkgutil.iter_modules(tc.__path__) if info.name != "oracles"]
)
def test_command_path_binds_no_test_oracle(name):
    # the slow independent routes stay test oracles: no module but the
    # package itself imports tfconc.oracles, or binds one of its public
    # functions or classes under its own name or any other
    from tfconc import oracles

    public = [
        value
        for attr, value in vars(oracles).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == oracles.__name__
    ]
    assert {f.__name__ for f in public} >= {"analyze", "assemble_direct", "hs_identity"}
    module = importlib.import_module(f"tfconc.{name}")
    assert not _imports_oracles(module)
    bound = [key for key, value in vars(module).items() if any(value is f for f in public)]
    assert bound == []
