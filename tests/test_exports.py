import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import splitopt

MODULES = sorted(m.name for m in pkgutil.iter_modules(splitopt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # every exported name resolves, so ``from splitopt.<module> import *`` works
    module = importlib.import_module(f"splitopt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_import_loads_no_scipy():
    # numpy is the only dependency; scipy.sparse alone adds about 22 MB of peak RSS
    src = os.path.dirname(os.path.dirname(splitopt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, splitopt; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
