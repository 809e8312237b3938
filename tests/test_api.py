"""Public-name consistency: every exported name exists and is re-exported as is."""

import importlib
import pkgutil

import pytest

import causalbox

MODULES = sorted(info.name for info in pkgutil.iter_modules(causalbox.__path__))


def _module(name):
    return importlib.import_module(f"causalbox.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    mod = _module(name)
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate in __all__"
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_exports_are_the_module_objects():
    owners = {}
    for name in MODULES:
        for export in _module(name).__all__:
            owners.setdefault(export, []).append(name)
    assert len(set(causalbox.__all__)) == len(causalbox.__all__)
    for export in causalbox.__all__:
        assert hasattr(causalbox, export), export
        if export == "__version__":
            continue
        assert len(owners.get(export, [])) == 1, (export, owners.get(export))
        assert getattr(causalbox, export) is getattr(_module(owners[export][0]),
                                                     export), export
