"""API quality gates: documentation and export hygiene.

These tests keep the library honest as it grows: every public module,
class and function must carry a docstring, and every name listed in an
``__all__`` must actually exist.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = sorted(
    module.name
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not module.name.split(".")[-1].startswith("_")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_exist(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name!r}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    names = exported if exported is not None else [
        n for n in dir(module) if not n.startswith("_")
    ]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None or not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", "").startswith("repro"):
            assert obj.__doc__ and obj.__doc__.strip(), f"{module_name}.{name} lacks a docstring"


def test_package_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


def test_public_classes_have_documented_public_methods():
    """Spot-check the core API surface: public methods on the flagship
    classes carry docstrings."""
    from repro import AsyncPluralityProtocol, ColorConfiguration, CountsEngine, SequentialEngine

    for cls in (AsyncPluralityProtocol, ColorConfiguration, CountsEngine, SequentialEngine):
        for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__ and member.__doc__.strip(), f"{cls.__name__}.{name} lacks a docstring"
