import importlib
import pkgutil

import pytest

import roughlq

MODULES = sorted(info.name for info in pkgutil.iter_modules(roughlq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"roughlq.{name}")
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
