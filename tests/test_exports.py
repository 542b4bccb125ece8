import importlib
import pkgutil

import pytest

import hhl

MODULES = sorted(m.name for m in pkgutil.iter_modules(hhl.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hhl.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
