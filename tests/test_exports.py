"""Every name the package and its modules export resolves on import."""

import importlib
import pkgutil

import pytest

import crossview

MODULES = sorted(f"crossview.{m.name}" for m in pkgutil.iter_modules(crossview.__path__))


@pytest.mark.parametrize("name", ["crossview", *MODULES])
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)  # AttributeError on a stale __all__ entry
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if n not in namespace] == []
    assert len(set(exported)) == len(exported)


def test_every_library_module_declares_its_exports():
    # cli is the command-line entry point, not a library surface.
    undeclared = [m for m in MODULES if not hasattr(importlib.import_module(m), "__all__")]
    assert undeclared == ["crossview.cli"]
