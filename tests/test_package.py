import importlib
import pkgutil

import pytest

import qpush

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(qpush.__path__)
                 if name != "__main__")


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
