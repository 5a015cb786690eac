import importlib
import pkgutil

import pytest

import splitopt

MODULES = sorted(m.name for m in pkgutil.iter_modules(splitopt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # every exported name resolves, so ``from splitopt.<module> import *`` works
    module = importlib.import_module(f"splitopt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
