"""Every name a module lists in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import fracheat

MODULES = ["fracheat"] + sorted(
    f"fracheat.{m.name}" for m in pkgutil.iter_modules(fracheat.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
