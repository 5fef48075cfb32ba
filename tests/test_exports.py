"""The export contract: each module's __all__ is its one list of public names,
and the package exports their union."""

import inspect

import pytest

import peirce_lab
from peirce_lab import algebras, identities, magma, peirce, poly

MODULES = (magma, poly, peirce, identities, algebras)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_function_and_class_is_in_all(module):
    defined = {
        name for name, value in vars(module).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()
    assert len(set(module.__all__)) == len(module.__all__)


def test_the_package_exports_the_union_of_the_modules():
    union = [name for module in MODULES for name in module.__all__]
    assert sorted(peirce_lab.__all__) == sorted(union)
    assert len(set(union)) == len(union)  # no name is public in two modules


def test_every_listed_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(peirce_lab, name) is getattr(module, name), (module.__name__, name)
    namespace = {}
    exec("from peirce_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(peirce_lab.__all__)
