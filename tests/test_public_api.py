"""The public surface: every exported name resolves, and no constructor
or function takes a size that its array arguments already fix."""

import importlib
import inspect
import pkgutil

import pytest

import desinc
from desinc import IVProblem, TodaState, lv_exact

MODULES = [desinc] + [importlib.import_module(f"desinc.{info.name}")
                      for info in pkgutil.iter_modules(desinc.__path__)]


@pytest.mark.parametrize("mod", MODULES, ids=lambda mod: mod.__name__)
def test_all_names_resolve(mod):
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("obj", [IVProblem, TodaState, lv_exact], ids=lambda obj: obj.__name__)
def test_no_size_parameter(obj):
    # n is x_a.size and m is q.shape[-1]
    assert {"n", "m"}.isdisjoint(inspect.signature(obj).parameters)
