"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import diraclab

MODULES = ["diraclab"] + [f"diraclab.{info.name}"
                          for info in pkgutil.iter_modules(diraclab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", [])
               if not hasattr(module, attr)]
    assert missing == []
