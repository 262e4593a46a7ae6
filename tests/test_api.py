"""Public names resolve, and the traced benchmark still finds what it wraps."""

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import ncpick

MODULES = ["ncpick"] + [f"ncpick.{m.name}" for m in pkgutil.iter_modules(ncpick.__path__)]


def load_tracing() -> types.ModuleType:
    """``bench/tracing.py`` executed from its source, writing no bytecode cache."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    module = types.ModuleType("bench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_traced_names_exist():
    # the traced benchmark binds each wrapped function by module and name
    tracing = load_tracing()
    missing = [f"{layer}.{fname}" for layer, names in tracing.WRAPPED.items()
               for fname in names
               if not callable(getattr(importlib.import_module(f"ncpick.{layer}"), fname, None))]
    assert missing == []
