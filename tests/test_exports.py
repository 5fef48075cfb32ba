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


def _public_signatures():
    """(name, signature) of every public function, and of the constructor and
    each public method of every public class."""
    for name in peirce_lab.__all__:
        value = getattr(peirce_lab, name)
        if inspect.isclass(value):
            for attr in vars(value):
                member = getattr(value, attr)
                if attr == "__init__" or (not attr.startswith("_") and inspect.isroutine(member)):
                    yield f"{name}.{attr}", inspect.signature(member)
        elif callable(value):
            yield name, inspect.signature(value)


def test_no_public_callable_takes_an_on_off_switch():
    # a bool default switches a callable between two behaviours, which belong
    # under two names, as a formal sum (WeightedIdentity) and an identity
    # (make_identity) do
    signatures = dict(_public_signatures())
    assert "make_identity" in signatures and "WeightedIdentity.__init__" in signatures
    switches = [f"{name}({p.name}={p.default!r})" for name, signature in signatures.items()
                for p in signature.parameters.values() if isinstance(p.default, bool)]
    assert switches == []


def test_every_listed_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(peirce_lab, name) is getattr(module, name), (module.__name__, name)
    namespace = {}
    exec("from peirce_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(peirce_lab.__all__)
