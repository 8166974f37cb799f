"""Each fsolink module's __all__ lists exactly its public functions and
classes."""

import importlib
import inspect
import pkgutil

import pytest

import fsolink

MODULES = [m.name for m in pkgutil.iter_modules(fsolink.__path__)
           if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_names(name):
    module = importlib.import_module(f"fsolink.{name}")
    listed = module.__all__
    assert [n for n in listed if not hasattr(module, n)] == []
    public = [n for n, v in vars(module).items()
              if not n.startswith("_")
              and (inspect.isfunction(v) or inspect.isclass(v))
              and v.__module__ == module.__name__]
    assert [n for n in public if n not in listed] == []
