import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import splitopt

MODULES = sorted(m.name for m in pkgutil.iter_modules(splitopt.__path__))
PACKAGE = Path(splitopt.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # every exported name resolves, so ``from splitopt.<module> import *`` works
    module = importlib.import_module(f"splitopt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_top_level_is_the_library_modules_all():
    # each public name is listed once, in its module; the top level re-exports them all
    library = ("metrics", "operators", "problems", "proxfuncs", "smooth", "solvers")
    expected = {n for name in library for n in importlib.import_module(f"splitopt.{name}").__all__}
    public = {n for n, value in vars(splitopt).items()
              if not n.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == expected


def test_import_loads_no_scipy():
    # numpy is the only dependency; scipy.sparse alone adds about 22 MB of peak RSS
    src = os.path.dirname(os.path.dirname(splitopt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, splitopt; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def _unused_imports(path):
    # module-level imports whose bound name the module never reads; names in
    # ``__all__`` count as read, and an alias on a ``# noqa: F401`` line is exempt
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in used and "# noqa: F401" not in lines[line - 1]]


def test_no_unused_module_imports():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    assert [hit for path in paths for hit in _unused_imports(path)] == []


def test_argument_checks_live_in_one_module():
    # each kind of check has one message, written in ``_checks`` alone
    phrases = ("must be positive and finite", "must be nonnegative and finite",
               "must be an integer >=")
    hits = [f"{path.name}: {phrase}" for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "_checks.py" for phrase in phrases if phrase in path.read_text()]
    assert hits == []
