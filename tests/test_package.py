import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qpush

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(qpush.__path__)
                 if name != "__main__")
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"qpush.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from qpush.{name} import *", namespace)


def test_package_star_import():
    namespace = {}
    exec("from qpush import *", namespace)
    assert "run" in namespace and "dsg_run" in namespace


def _loaded_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    """A name in a module's ``__all__`` is read somewhere in the library,
    the demos or the benchmark; a name only the tests read belongs in
    tests/helpers.py."""
    package = ROOT / "src" / "qpush"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    used = _loaded_names(sources)
    unused = {name: sorted(set(getattr(importlib.import_module(f"qpush.{name}"), "__all__", ()))
                           - used)
              for name in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}
